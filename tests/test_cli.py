import argparse
import itertools
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avnproofs import (
    AvnDecision,
    Graph,
    LengthMismatchError,
    NonHermitianSignError,
    PauliOperator,
    cli,
    complete_graph,
    format_graph,
    full_stabilizer,
    graphstate,
    parse_graph,
    path_graph,
    reality,
    reports,
    statevector,
    witness,
)
from avnproofs.cli import main
from oracles import verify_output_by_expectation

LC6 = "6: 1-2,2-3,3-4,4-5,5-6"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_allows_exit_zero(capsys):
    code, out, _ = run(capsys, "check", "--graph", LC6, "--dist", "1,4,5|2,3,6")
    assert code == 0
    assert "verdict: allows" in out


def test_check_blocks_exit_one(capsys):
    code, out, _ = run(capsys, "check", "--graph", LC6, "--dist", "1,2|3|4|5,6")
    assert code == 1
    assert "verdict: blocks" in out


def test_check_oracle_mode(capsys):
    code, _, _ = run(capsys, "check", "--oracle", "--graph", LC6, "--dist", "1,4,5|2,3,6")
    assert code == 0


def path_line(n):
    return f"{n}: " + ", ".join(f"{i}-{i + 1}" for i in range(1, n))


def singletons(n):
    return "|".join(map(str, range(1, n + 1)))


@pytest.mark.parametrize("which", ["first", "last"])
@pytest.mark.parametrize("n", [12, 13, 14, 16])
def test_oracle_rejects_a_broken_certificate_at_every_n(capsys, monkeypatch, n, which):
    """One Z bit flipped in the word of one of the 3n certificates of the
    report's table breaks its correlation, and ``--oracle`` finds it also
    past the statevector's n <= 12."""
    real = reports.allows_specific_avn
    certified = []

    def broken(g, d):
        decision = real(g, d)
        eor = {q: dict(row) for q, row in decision.eor.items()}
        cells = [(q, letter) for q in sorted(eor) for letter in "XYZ" if eor[q][letter] is not None]
        q, letter = cells[0 if which == "first" else -1]
        x, z, phase = eor[q][letter]
        eor[q][letter] = (x, z ^ 1, phase)
        certified.extend(cells)
        return AvnDecision(decision.allows, eor, decision.shortcut)

    monkeypatch.setattr(reports, "allows_specific_avn", broken)
    code, out, err = run(capsys, "check", "--oracle", "--graph", path_line(n), "--dist", singletons(n))
    assert (code, out, err) == (3, "", "internal error: witness operator is not a perfect correlation\n")
    assert len(certified) == 3 * n


def test_printed_and_checked_certificates_are_the_tables_words(capsys, monkeypatch):
    """Once a report's table is built, its rendering, its JSON record and
    ``check --oracle`` build no certificate word again: the only
    ``stabilizer_word`` calls left are the brute-force table's own
    verifications in ``reality``, one per certificate."""
    real = graphstate.stabilizer_word
    callers = []

    def counting(g, subset):
        callers.append(sys._getframe(1).f_globals["__name__"])
        return real(g, subset)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "avnproofs" and getattr(module, "stabilizer_word", None) is real:
            monkeypatch.setattr(module, "stabilizer_word", counting)
    g = parse_graph(LC6)
    report = reports.DistributionReport(g, reality.parse_distribution("1,4,5|2,3,6", g.n))
    certificates = sum(w is not None for row in report.decision.eor.values() for w in row.values())
    callers.clear()
    report.render_table()
    report.to_json_dict()
    assert callers == []
    code, _, _ = run(capsys, "check", "--oracle", "--graph", LC6, "--dist", "1,4,5|2,3,6")
    assert code == 0
    assert callers == ["avnproofs.reality"] * certificates


def test_malformed_graph_exit_two(capsys):
    code, _, err = run(capsys, "check", "--graph", "6: 1-2, oops", "--dist", "1|2")
    assert code == 2
    assert "position" in err


def test_malformed_distribution_exit_two(capsys):
    code, _, err = run(capsys, "check", "--graph", LC6, "--dist", "1,2|zzz")
    assert code == 2
    assert "error" in err


def test_classes_table_and_json(capsys):
    code, out, _ = run(capsys, "classes", "--n", "5")
    assert code == 0
    assert len(out.strip().splitlines()) == 5  # header + 4 records
    code, out, _ = run(capsys, "classes", "--n", "5", "--format", "json-lines")
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert [r["class_id"] for r in records] == [1, 2, 3, 4]
    assert all(r["n"] == 5 for r in records)
    from avnproofs import GraphClassRecord

    for data in records:
        assert GraphClassRecord.from_json_dict(data).to_json_dict() == data
    for edit, message in [
        ({"orbit_size": 99}, "in: orbit_size$"),
        ({"class_id": 0}, "class_id 0 out of range 1..4"),
        ({"class_id": 5}, "class_id 5 out of range 1..4"),
    ]:
        with pytest.raises(ValueError, match=message):
            GraphClassRecord.from_json_dict(dict(records[0], **edit))


def test_min_parties_lc4(capsys):
    code, out, _ = run(capsys, "min-parties", "--graph", "4: 1-2,2-3,3-4")
    assert code == 0
    assert "m_min: 2" in out
    assert "1,4" in out and "2,3" in out


def test_min_parties_json_round_trip(capsys):
    from avnproofs.reports import DistributionReport

    code, out, _ = run(
        capsys, "min-parties", "--graph", LC6, "--format", "json-lines"
    )
    assert code == 0
    for line in out.strip().splitlines():
        data = json.loads(line)
        report = DistributionReport.from_json_dict(data)
        assert report.to_json_dict() == data


def test_enumerate_exit_codes(capsys):
    code, out, _ = run(capsys, "enumerate", "--graph", LC6, "--m", "4")
    assert code == 0
    # odd ring has no feasible bipartition
    code, out, _ = run(
        capsys, "enumerate", "--graph", "5: 1-2,2-3,3-4,4-5,5-1", "--m", "2"
    )
    assert code == 1
    assert "(none)" in out


def test_classes_output_is_stable_across_runs(capsys):
    _, first, _ = run(capsys, "classes", "--n", "6", "--format", "json-lines")
    _, second, _ = run(capsys, "classes", "--n", "6", "--format", "json-lines")
    assert first == second


def test_cli_import_does_not_load_numpy():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    script = "import sys, avnproofs.cli; print('numpy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


WITNESS_LINES = [
    ("3: 1-2,1-3,2-3", "1|2|3"),
    ("9: 1-2,2-3,3-4,4-5,5-6,6-7,7-8,8-9", "1,2,3|4,5,6|7,8,9"),
    ("16: " + ", ".join(f"{i}-{i + 1}" for i in range(1, 16)) + ", 1-16", "|".join(map(str, range(1, 17)))),
]


def test_a_witness_command_does_not_load_numpy():
    """Witness members are checked on the graph's sign bits, with no float state."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    script = (
        "import contextlib, io, sys\n"
        "from avnproofs.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [main(['witness', '--graph', g, '--dist', d]) for g, d in {WITNESS_LINES!r}]\n"
        "print(codes, 'numpy' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[0, 0, 0] False\n"


ORACLE_LINES = [
    ["check", "--oracle", "--graph", LC6, "--dist", "1,4,5|2,3,6"],
    ["check", "--oracle", "--graph", path_line(13), "--dist", singletons(13)],
    ["min-parties", "--oracle", "--graph", LC6],
    ["enumerate", "--oracle", "--graph", LC6, "--m", "2", "--format", "json-lines"],
]


def test_an_oracle_command_does_not_load_numpy():
    """``--oracle`` decides its certificates on the graph's sign bits, with no float state."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    script = (
        "import contextlib, io, sys\n"
        "from avnproofs import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [cli.main(argv) for argv in {ORACLE_LINES!r}]\n"
        "print(codes, 'numpy' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[0, 0, 0, 0] False\n"


def test_a_well_formed_command_does_not_load_argparse():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    script = (
        "import contextlib, io, sys\n"
        "from avnproofs.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main({['check', *VALID['check']]!r})\n"
        "print(code, 'argparse' in sys.modules, 'gettext' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 False False\n"


def test_enumerate_no_dedupe_supersets_deduped(capsys):
    _, deduped, _ = run(capsys, "enumerate", "--graph", LC6, "--m", "2", "--format", "json-lines")
    _, full, _ = run(
        capsys, "enumerate", "--graph", LC6, "--m", "2", "--no-dedupe", "--format", "json-lines"
    )
    assert len(full.splitlines()) >= len(deduped.splitlines())


def test_witness_found_and_not_found(capsys):
    code, out, _ = run(
        capsys, "witness", "--graph", "3: 1-2,1-3,2-3", "--dist", "1|2|3"
    )
    assert code == 0
    assert "= 1" in out
    code, out, _ = run(
        capsys,
        "witness",
        "--graph",
        "2: 1-2",
        "--dist",
        "1|2",
        "--max-size",
        "8",
    )
    assert code == 1


def test_witness_json_structure(capsys):
    code, out, _ = run(
        capsys,
        "witness",
        "--graph",
        "4: 1-2,1-3,1-4,2-3,2-4,3-4",
        "--dist",
        "1|2|3|4",
        "--format",
        "json-lines",
    )
    assert code == 0
    data = json.loads(out)
    assert data["single_observable_qubits"] == [4]
    assert len(data["subsets"]) == 4


RING8 = "8: 1-2, 2-3, 3-4, 4-5, 5-6, 6-7, 7-8, 1-8"


def test_witness_past_the_old_combination_cap(capsys):
    # 92 candidates: C(92, 2) + C(92, 3) + C(92, 4) combinations exceed the
    # sweep's 2,000,000 cap; the formula needs no candidates
    code, out, _ = run(
        capsys,
        "witness",
        "--graph",
        RING8,
        "--dist",
        "1,4,5,8|2,3,6,7",
        "--max-size",
        "4",
        "--format",
        "json-lines",
    )
    assert code == 0
    assert len(json.loads(out)["subsets"]) == 4


PATH6 = "6: 1-2,2-3,3-4,4-5,5-6"
PATH9 = "9: 1-2,2-3,3-4,4-5,5-6,6-7,7-8,8-9"
NO_WITNESS = "no witness found within the size bound\n"
PATH6_WITNESS = (
    "Z1 X2 Z3 = 1\nY1 Y2 Z3 = 1\nZ1 Y2 Y3 Z4 = 1\n-Y1 X2 Y3 Z4 = 1\n"
    "note: qubits with fewer than two observables: [4, 5, 6]\n"
)
PATH9_WITNESS = (
    "Z1 X2 Z3 = 1\nY1 Y2 Z3 = 1\nZ1 Y2 Y3 Z4 = 1\n-Y1 X2 Y3 Z4 = 1\n"
    "note: qubits with fewer than two observables: [4, 5, 6, 7, 8, 9]\n"
)


@pytest.mark.parametrize(
    "graph, dist, extra, code, out, err",
    [
        ("3: 1-2,1-3,2-3", "1|2|3", ("--max-size", "1"), 2, "", "error: max_size must be in 2..8, got 1\n"),
        ("3: 1-2,1-3,2-3", "1|2|3", ("--max-size", "9"), 2, "", "error: max_size must be in 2..8, got 9\n"),
        (PATH6, "1|2|3|4|5|6", ("--max-size", "9"), 2, "", "error: max_size must be in 2..8, got 9\n"),
        (PATH6, "1|2|3|4|5|6", (), 0, PATH6_WITNESS, ""),
        (PATH6, "1|2|3|4|5|6", ("--max-size", "3"), 1, NO_WITNESS, ""),
        (PATH9, "1|2|3|4|5|6|7|8|9", ("--max-size", "3"), 1, NO_WITNESS, ""),
        (PATH9, "1|2|3|4|5|6|7|8|9", (), 0, PATH9_WITNESS, ""),
        ("3: 1-2,1-3,2-3", "1|2|3", ("--max-size", "2"), 1, NO_WITNESS, ""),
        ("3: 1-2,1-3,2-3", "1|2|3", ("--max-size", "3"), 1, NO_WITNESS, ""),
    ],
    ids=[
        "max-size-1",
        "max-size-9",
        "max-size-9-n6",
        "n6",
        "n6-size-bound",
        "n9-size-bound",
        "n9",
        "max-size-2",
        "max-size-3",
    ],
)
def test_witness_checks_its_options_in_order(capsys, graph, dist, extra, code, out, err):
    """The ``witness`` command checks ``--max-size`` (2..8), and only then
    the size bound: no witness has 2 or 3 members.  Past n = 8 it prints the
    GHZ quadruple, verified exactly at every n."""
    assert run(capsys, "witness", "--graph", graph, "--dist", dist, *extra) == (code, out, err)


@pytest.mark.parametrize(
    "extra", [("--max-size", "9", "--exhaustive"), ("--exhaustive",), ("--exhaustive", "--max-size", "3")]
)
def test_witness_has_no_exhaustive_option(capsys, extra):
    """``--exhaustive`` selected no pool once the witness became a formula;
    the option is gone, so argparse refuses it."""
    with pytest.raises(SystemExit) as exc:
        main(["witness", "--graph", PATH6, "--dist", "1|2|3|4|5|6", *extra])
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    assert captured.err.endswith("avnproofs: error: unrecognized arguments: --exhaustive\n")


def test_witness_rejected_by_verification_exit_three(capsys, monkeypatch):
    monkeypatch.setattr(witness, "verify_witness", lambda w, g: False)
    code, out, err = run(capsys, "witness", "--graph", "3: 1-2,1-3,2-3", "--dist", "1|2|3")
    assert code == 3
    assert out == ""
    assert err == "internal error: GHZ quadruple failed witness verification\n"


def test_witness_rejected_by_verification_exit_three_under_python_O():
    script = """
import sys
import avnproofs.witness as witness
from avnproofs.cli import main

if not sys.flags.optimize:
    sys.exit("not running under -O")
witness.verify_witness = lambda w, g: False
sys.exit(main(["witness", "--graph", "3: 1-2,1-3,2-3", "--dist", "1|2|3"]))
"""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == "internal error: GHZ quadruple failed witness verification\n"


def count_verdicts(monkeypatch) -> list:
    """Count ``allows_specific_avn`` calls at every binding in the package;
    the list collects each call's distribution."""
    original = reality.allows_specific_avn
    calls = []

    def counted(g, d, *args, **kwargs):
        calls.append(d)
        return original(g, d, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "avnproofs" and getattr(module, "allows_specific_avn", None) is original:
            monkeypatch.setattr(module, "allows_specific_avn", counted)
    return calls


@pytest.mark.parametrize(
    "argv",
    [
        ("min-parties", "--graph", LC6),
        ("min-parties", "--graph", "8: 1-2,2-3,3-4,4-5,5-6,6-7,7-8,8-1", "--no-dedupe"),
        ("enumerate", "--graph", LC6, "--m", "4"),
        ("enumerate", "--graph", "6: 1-2,1-3,1-4,1-5,1-6", "--m", "2"),
    ],
    ids=lambda argv: " ".join(argv)[:40],
)
def test_search_tables_are_built_only_for_printed_records(capsys, monkeypatch, argv):
    """Table format builds no element-of-reality table; json-lines builds one
    per printed record, for that record's distribution."""
    calls = count_verdicts(monkeypatch)
    code, _, _ = run(capsys, *argv)
    assert calls == []
    json_code, out, _ = run(capsys, *argv, "--format", "json-lines")
    records = [json.loads(line) for line in out.splitlines()]
    assert json_code == code
    assert [[list(p) for p in d.particles] for d in calls] == [r["particles"] for r in records]


BLOCKED_HIT = "internal error: distribution 1,3|2,4 has full cut-rank particles but is blocked\n"


@pytest.mark.parametrize("extra", [("--format", "json-lines"), ("--oracle",)])
def test_rank_hit_blocked_by_table_exit_three(capsys, monkeypatch, extra):
    monkeypatch.setattr(
        reports, "allows_specific_avn", lambda g, d: AvnDecision(False, {})
    )
    code, out, err = run(capsys, "min-parties", "--graph", "4: 1-2,2-3,3-4", *extra)
    assert code == 3
    assert out == ""
    assert err == BLOCKED_HIT


def test_rank_hit_blocked_by_table_exit_three_under_python_O():
    script = """
import sys
import avnproofs.reports as reports
from avnproofs import AvnDecision
from avnproofs.cli import main

if not sys.flags.optimize:
    sys.exit("not running under -O")
reports.allows_specific_avn = lambda g, d: AvnDecision(False, {})
sys.exit(main(["min-parties", "--graph", "4: 1-2,2-3,3-4", "--format", "json-lines"]))
"""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == BLOCKED_HIT


def test_min_parties_dedupes_above_ten_vertices_also_under_python_O():
    graph = "11: " + ", ".join(f"{i}-{i + 1}" for i in range(1, 11))
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    runs = [
        subprocess.run(
            [sys.executable, *flags, "-m", "avnproofs", "min-parties", "--graph", graph],
            env=env,
            capture_output=True,
            text=True,
        )
        for flags in ([], ["-O"])
    ]
    plain, optimized = [(proc.returncode, proc.stdout, proc.stderr) for proc in runs]
    assert plain == optimized
    code, out, err = plain
    assert (code, err) == (0, "")
    assert out.splitlines()[1] == "m_min: 3"


def test_verify_subcommand(capsys):
    code, out, _ = run(capsys, "verify", "--graph", LC6)
    assert code == 0
    assert "64 stabilizing operators checked" in out


def seeded_graph(n):
    """A random connected graph on n vertices drawn from the seed n."""
    rng = random.Random(n)
    edges = {(rng.randint(1, v - 1), v) for v in range(2, n + 1)}
    edges |= {(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if rng.random() < 0.3}
    return Graph.from_edges(n, edges)


def test_verify_output_matches_the_float_loop(capsys):
    for g in [parse_graph(LC6)] + [seeded_graph(n) for n in range(1, 13)]:
        code, out, err = run(capsys, "verify", "--graph", format_graph(g))
        assert (out, code) == verify_output_by_expectation(g), format_graph(g)
        assert err == ""


def arrays_with_flipped_signs(monkeypatch, masks):
    """Make ``verify`` build the stabilizer with the sign of each subset in
    ``masks`` flipped, and return the same operators in ascending subset order."""
    build = cli.stabilizer_arrays

    def flipped_arrays(g):
        x, z, phase = build(g)
        return x, z, np.where(np.isin(x, list(masks)), phase ^ 2, phase)

    monkeypatch.setattr(cli, "stabilizer_arrays", flipped_arrays)
    g = parse_graph(LC6)
    return [
        PauliOperator(op.x, op.z, op.phase + 2, n=op.n) if mask in masks else op
        for mask, op in enumerate(full_stabilizer(g))
    ]


def test_verify_reports_an_injected_failure(capsys, monkeypatch):
    ops = arrays_with_flipped_signs(monkeypatch, {13})
    code, out, err = run(capsys, "verify", "--graph", LC6)
    assert (out, code) == verify_output_by_expectation(parse_graph(LC6), ops)
    assert err == ""
    assert code == 1
    assert out.splitlines()[0] == "FAIL -X1 Y3 Y4 Z5 deviates by 2.000e+00"


def test_verify_prints_failures_in_ascending_subset_order(capsys, monkeypatch):
    """The FAIL lines come in ascending subset order: subset 2, then subset 3."""
    ops = arrays_with_flipped_signs(monkeypatch, {2, 3})
    code, out, err = run(capsys, "verify", "--graph", LC6)
    assert (out, code) == verify_output_by_expectation(parse_graph(LC6), ops)
    assert (code, err) == (1, "")
    assert out.splitlines()[:2] == [
        "FAIL -Z1 X2 Z3 deviates by 2.000e+00",
        "FAIL -Y1 Y2 Z3 deviates by 2.000e+00",
    ]


@pytest.fixture
def float_evaluations(monkeypatch):
    """The words passed to ``graphstate.expectation`` since the fixture ran."""
    seen = []
    real = graphstate.expectation
    monkeypatch.setattr(graphstate, "expectation", lambda sv, word: seen.append(word) or real(sv, word))
    return seen


def test_verify_needs_one_float_evaluation(capsys, float_evaluations):
    """On a graph state every word passes the sign-bit test, so only the
    identity reaches the float ``expectation``."""
    for n in range(1, 11):
        for g in [path_graph(n), complete_graph(n)]:
            float_evaluations.clear()
            code, out, err = run(capsys, "verify", "--graph", format_graph(g))
            assert (out, code, err) == (*verify_output_by_expectation(g), "")
            assert float_evaluations == [(0, 0, 0)]


@pytest.mark.parametrize("scale", [2.0, -1.0])
def test_verify_on_a_scaled_state(scale, capsys, monkeypatch, float_evaluations):
    """Twice the state, or minus it, has the graph state's sign form, so every
    word passes the sign-bit test and only the identity is evaluated: its
    deviation, 3 at twice the norm and 0 under a global sign, is every word's."""
    g = parse_graph(LC6)
    sv = statevector(g) * scale
    monkeypatch.setattr(cli, "statevector", lambda graph: sv)
    code, out, err = run(capsys, "verify", "--graph", LC6)
    assert (out, code) == verify_output_by_expectation(g, sv=sv)
    assert (code, err) == ((1, "") if scale == 2.0 else (0, ""))
    assert len(out.splitlines()) == (65 if scale == 2.0 else 1)
    assert float_evaluations == [(0, 0, 0)]


def test_verify_reports_a_tampered_state(capsys, monkeypatch):
    """With one amplitude negated the sign pattern is no stabilizer state's,
    and ``verify`` prints what the float loop finds on that same state."""
    g = parse_graph(LC6)
    sv = statevector(g)
    sv[37] *= -1
    monkeypatch.setattr(cli, "statevector", lambda graph: sv)
    code, out, err = run(capsys, "verify", "--graph", LC6)
    assert (out, code) == verify_output_by_expectation(g, sv=sv)
    assert (code, err) == (1, "")


def test_verify_statevector_guard_exit_two(capsys):
    graph = ", ".join(f"{i}-{i + 1}" for i in range(1, 13))
    code, out, err = run(capsys, "verify", "--graph", f"13: {graph}")
    assert (code, out, err) == (2, "", "error: statevector limited to n <= 12, got 13\n")


def test_verify_prints_the_same_bytes_under_python_O():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    for g in [parse_graph(LC6), seeded_graph(12)]:
        runs = [
            subprocess.run(
                [sys.executable, *flags, "-m", "avnproofs", "verify", "--graph", format_graph(g)],
                env=env,
                capture_output=True,
            )
            for flags in ([], ["-O"])
        ]
        plain, optimized = [(proc.returncode, proc.stdout, proc.stderr) for proc in runs]
        assert plain == optimized
        assert plain == (0, verify_output_by_expectation(g)[0].encode(), b"")


def test_internal_error_exit_three(capsys, monkeypatch):
    def broken(args):
        raise AssertionError("solver and brute-force verdicts disagree")

    monkeypatch.setattr(cli, "cmd_check", broken)
    code, out, err = run(capsys, "check", "--graph", LC6, "--dist", "1,4,5|2,3,6")
    assert code == 3
    assert out == ""
    assert err == "internal error: solver and brute-force verdicts disagree\n"


@pytest.mark.parametrize("error", [LengthMismatchError, NonHermitianSignError])
def test_internal_value_errors_exit_three(capsys, monkeypatch, error):
    # both are ValueErrors, but after parsing only a bookkeeping bug raises them
    def broken(args):
        raise error("bookkeeping mismatch")

    monkeypatch.setattr(cli, "cmd_check", broken)
    code, out, err = run(capsys, "check", "--graph", LC6, "--dist", "1,4,5|2,3,6")
    assert code == 3
    assert out == ""
    assert err == "internal error: bookkeeping mismatch\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("classes", "--n", "4", "--jobs", "2"),
        ("verify", "--graph", LC6, "--format", "table"),
        ("enumerate", "--graph", LC6, "--m", "3", "--jobs", "2"),
    ],
)
def test_removed_flags_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# The same argv through ``main``, which reads a well-formed line with
# ``cli._scan`` and hands every other line to the full parser, and through
# the full parser itself.

VALID = {
    "classes": ("--n", "4"),
    "check": ("--graph", LC6, "--dist", "1,4,5|2,3,6"),
    "min-parties": ("--graph", "4: 1-2,2-3,3-4"),
    "enumerate": ("--graph", LC6, "--m", "4"),
    "witness": ("--graph", "3: 1-2,1-3,2-3", "--dist", "1|2|3"),
    "verify": ("--graph", LC6),
}


def exit_outcome(capsys, parse, argv):
    with pytest.raises(SystemExit) as exc:
        parse(list(argv))
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


def parser_exits(command):
    valid = VALID[command]
    return [
        (command, "--help"),
        (command,),  # a required option missing
        (command, *valid, "--format", "bad"),
        (command, "--n", "x"),
        (command, "--m", "x"),
        (command, "--max-size", "x"),
        (command, *valid, "extra"),
        (command, *valid, "--bogus"),
        (command, *(a[:4] if a.startswith("--") else a for a in valid), "--fo", "bad"),
        (command, *(f"{o}={v}" for o, v in zip(valid[::2], valid[1::2])), "--format=bad"),
        (command, "--", *valid),
        (command, *valid, "-h"),
        (command, *valid, "--he"),
    ]


@pytest.mark.parametrize("command", list(VALID))
def test_one_command_parser_reads_as_the_full_parser(capsys, command):
    full = cli.build_parser()
    for argv in parser_exits(command):
        assert exit_outcome(capsys, main, argv) == exit_outcome(capsys, full.parse_args, argv), argv


def scan_matches_full_parser(argv):
    """When ``_scan`` reads ``argv``, the full parser reads it too, to the
    same values and the same ``cmd_*``."""
    scanned = cli._scan(argv)
    if scanned is not None:
        try:
            parsed = cli.build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"_scan read {argv!r}, which the full parser rejects")
        assert vars(scanned) == vars(parsed), argv
    return scanned


OPTIONS = sorted({opt for _, options in cli._COMMANDS.values() for opt, *_ in options})
ODD_TOKENS = [
    *(opt[:k] for opt in OPTIONS for k in range(3, len(opt))),  # abbreviations
    "--graph=" + LC6, "--dist=1|2|3", "--n=4", "--m=2", "--max-size=3", "--format=table",
    "--format=bad", "--", "-h", "--help", "extra", "check",
]
VALUES = [
    "4", "0", "12", "+2", " 3", "1_0", "-1", "-0", "x", "4.0", "", "table", "json-lines",
    "bad", "-", "-x", "--format", "--oracle", LC6, "3: 1-2,1-3,2-3", "1,4,5|2,3,6", "1|2|3",
]


def option_values(kind):
    """A value good for an option of ``kind``, or any of ``VALUES``."""
    good = {int: ["4", "0", "+2", " 3", "1_0"], str: [LC6, "1|2|3", ""]}.get(kind, kind)
    return st.sampled_from(good) | st.sampled_from(VALUES)


@st.composite
def command_lines(draw):
    """A subcommand (or an unknown word) with its options in any order, some
    optional ones left out, then up to one piece or value dropped and up to three odd
    pieces put in anywhere: an option of any command (so also a repeat),
    with or without a value, or an abbreviation, ``--opt=value``, ``--``,
    help or a stray word."""
    command = draw(st.sampled_from([*cli._COMMANDS, "unknown"]))
    pieces = [
        (opt,) if kind is bool else (opt, draw(option_values(kind)))
        for opt, kind, default, _ in cli._COMMANDS.get(command, ("", ()))[1]
        if default is None or draw(st.booleans())
    ]
    pieces = draw(st.permutations(pieces))
    if pieces and draw(st.booleans()):
        k = draw(st.integers(0, len(pieces) - 1))
        pieces[k] = pieces[k][: draw(st.integers(0, 1))]
    option = st.sampled_from(OPTIONS)
    odd = st.one_of(
        st.tuples(option, st.sampled_from(VALUES)),
        option.map(lambda opt: (opt,)),
        st.sampled_from(ODD_TOKENS).map(lambda token: (token,)),
    )
    for piece in draw(st.lists(odd, max_size=3)):
        pieces.insert(draw(st.integers(0, len(pieces))), piece)
    return [command, *(token for piece in pieces for token in piece)]


@settings(max_examples=400, deadline=None)
@given(command_lines())
def test_scan_reads_as_the_full_parser(argv):
    scan_matches_full_parser(argv)


GOLDEN_ARGV = [
    entry["argv"]
    for entry in json.loads((Path(__file__).resolve().parent / "data" / "cli_golden.json").read_text())
    if "argv" in entry
]


def test_scan_reads_every_golden_and_valid_line():
    """The fast path fires on every golden command, on each ``VALID`` line
    with its options in every order, and with every optional option added."""
    lines = [list(argv) for argv in GOLDEN_ARGV]
    for command, valid in VALID.items():
        pairs = [valid[k : k + 2] for k in range(0, len(valid), 2)]
        for order in itertools.permutations(pairs):
            lines.append([command, *(token for pair in order for token in pair)])
        optional = [
            (opt,) if kind is bool else (opt, kind[-1] if isinstance(kind, tuple) else "3")
            for opt, kind, default, _ in cli._COMMANDS[command][1]
            if default is not None
        ]
        lines.append([command, *(token for piece in optional for token in piece), *valid])
    assert GOLDEN_ARGV
    for argv in lines:
        assert scan_matches_full_parser(argv) is not None, argv


#: Lines the full parser reads but ``_scan`` leaves to it: the scan takes
#: each option once, written out in full, with a value not starting with "-".
OTHER_SPELLINGS = [
    ["check", *VALID["check"], "--graph", LC6],
    ["check", *VALID["check"], "--oracle", "--oracle"],
    ["check", "--gr", LC6, "--dist", "1,4,5|2,3,6"],
    ["check", "--graph=" + LC6, "--dist", "1,4,5|2,3,6"],
    ["classes", "--n", "-4"],
    ["enumerate", "--graph", LC6, "--m", "-1"],
]


@pytest.mark.parametrize("argv", OTHER_SPELLINGS)
def test_scan_leaves_other_spellings_to_the_full_parser(argv):
    assert cli._scan(argv) is None
    cli.build_parser().parse_args(argv)


#: Parses each argv of the JSON list in sys.argv[2] with the full parser and
#: prints a JSON list of [exit status, stdout, stderr].  With "argparse-width"
#: in sys.argv[1], every parser drops its formatter_class, so argparse's own
#: HelpFormatter probes the terminal width, as it does by default.
FULL_PARSE = """
import argparse, contextlib, io, json, sys
from avnproofs.cli import build_parser
if sys.argv[1] == "argparse-width":
    init = argparse.ArgumentParser.__init__
    def default_init(self, *args, formatter_class=None, **kwargs):
        init(self, *args, **kwargs)
    argparse.ArgumentParser.__init__ = default_init
results = []
for argv in json.loads(sys.argv[2]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            build_parser().parse_args(argv)
            code = None
        except SystemExit as exc:
            code = exc.code
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


@pytest.mark.parametrize("columns", ["40", "200"])
def test_command_line_text_matches_the_full_parser(columns):
    """``python -m avnproofs`` prints what the full parser prints, and both
    print what argparse prints with its default formatter: top-level help
    and errors, and ``--help`` and one bad option of every subcommand."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, COLUMNS=columns)

    def outcome(*command):
        proc = subprocess.run(command, env=env, capture_output=True, text=True)
        return proc.returncode, proc.stdout, proc.stderr

    argvs = [(), ("--help",), ("unknown",)]
    for command, valid in VALID.items():
        argvs += [(command, "--help"), (command, *valid, "--bogus")]
    parsed = {}
    for width in ("cli", "argparse-width"):
        code, out, err = outcome(sys.executable, "-c", FULL_PARSE, width, json.dumps(argvs))
        assert code == 0, err
        parsed[width] = [tuple(r) for r in json.loads(out)]
    got = {}
    for argv, full, default in zip(argvs, parsed["cli"], parsed["argparse-width"]):
        got[argv] = outcome(sys.executable, "-m", "avnproofs", *argv)
        assert got[argv] == full == default, argv
        assert got[argv][0] in (0, 2), argv
    code, _, err = got[()]
    assert code == 2
    assert err.endswith("avnproofs: error: the following arguments are required: command\n")
    for command, valid in VALID.items():
        code, _, err = got[(command, *valid, "--bogus")]
        assert (code, err.splitlines()[-1]) == (2, "avnproofs: error: unrecognized arguments: --bogus")
        assert f"avnproofs {command} [-h]" in got[(command, "--help")][1]


@pytest.fixture
def parsers_built(monkeypatch):
    """``[ArgumentParser constructions, build_parser calls]`` since the fixture ran."""
    counts = [0, 0]
    init = argparse.ArgumentParser.__init__
    build = cli.build_parser

    def counting_init(self, *args, **kwargs):
        counts[0] += 1
        init(self, *args, **kwargs)

    def counting_build(*args, **kwargs):
        counts[1] += 1
        return build(*args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    monkeypatch.setattr(cli, "build_parser", counting_build)
    return counts


@pytest.mark.parametrize("command", list(VALID))
def test_a_command_builds_no_parser(capsys, parsers_built, command):
    assert main([command, *VALID[command]]) in (0, 1)
    assert parsers_built == [0, 0]


def test_a_leftover_argument_builds_the_full_parser_after_the_command(capsys, parsers_built):
    with pytest.raises(SystemExit):
        main(["check", *VALID["check"], "extra"])
    assert parsers_built == [7, 1]


@pytest.mark.parametrize("argv", [("--help",), ("unknown",)])
def test_help_and_unknown_command_build_every_parser(capsys, parsers_built, argv):
    with pytest.raises(SystemExit):
        main(list(argv))
    assert parsers_built == [7, 1]


def test_main_without_argv_reads_sys_argv(capsys, monkeypatch, parsers_built):
    monkeypatch.setattr(sys, "argv", ["avnproofs", "check", *VALID["check"]])
    assert main() == 0
    assert "verdict: allows" in capsys.readouterr().out
    assert parsers_built == [0, 0]


def test_particle_columns_line_up_under_the_header(capsys):
    """Columns widen to their longest cell: path10 has 11-character cells."""
    graph = "10: " + ", ".join(f"{i}-{i + 1}" for i in range(1, 10))
    code, out, _ = run(capsys, "min-parties", "--graph", graph)
    assert code == 0
    header, *rows = out.splitlines()[2:]
    assert header == "m  A           B         "
    assert rows[0] == "2  1,3,5,7,9   2,4,6,8,10"
    starts = [m.start() for m in re.finditer(r"\S+", header)]
    for row in rows:
        assert len(row) == len(header)
        assert [m.start() for m in re.finditer(r"\S+", row)] == starts
