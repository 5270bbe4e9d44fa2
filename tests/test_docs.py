"""Smoke tests for the documentation: the demos run and the README's
command lines parse and exit with a verdict (0 or 1), never with malformed
input (2) or an internal error (3)."""

import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from avnproofs import cli
from avnproofs.cli import main

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def readme_commands():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return [line for line in text.splitlines() if line.startswith("avnproofs ")]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_command_lines_exit_with_a_verdict(capsys):
    lines = readme_commands()
    assert lines
    for line in lines:
        try:
            code = main(shlex.split(line)[1:])
        except SystemExit as exc:
            code = exc.code
        err = capsys.readouterr().err
        assert code in (0, 1), (line, code, err)
