"""Public output pinned byte for byte: every command in
``tests/data/cli_golden.json`` must print the recorded stdout and exit with
the recorded status, and the recorded report must survive a JSON round trip
through ``DistributionReport`` unchanged, as must every json-lines record
the recorded commands print, through ``DistributionReport`` or
``GraphClassRecord``."""

import json
from pathlib import Path

import pytest

from avnproofs.cli import main
from avnproofs.equivalence import GraphClassRecord
from avnproofs.reports import DistributionReport

GOLDEN = json.loads(
    (Path(__file__).resolve().parent / "data" / "cli_golden.json").read_text(encoding="utf-8")
)
COMMANDS = [entry for entry in GOLDEN if "argv" in entry]
ROUND_TRIPS = [entry for entry in GOLDEN if "round_trip" in entry]
LOADERS = {
    "check": DistributionReport,
    "min-parties": DistributionReport,
    "enumerate": DistributionReport,
    "classes": GraphClassRecord,
}
RECORDS = [
    (entry["argv"][0], line)
    for entry in COMMANDS
    if entry["argv"][0] in LOADERS and "json-lines" in entry["argv"]
    for line in entry["stdout"].splitlines()
]


@pytest.mark.parametrize("entry", COMMANDS, ids=lambda e: " ".join(e["argv"])[:60])
def test_command_output_matches_golden(entry, capsys):
    code = main(list(entry["argv"]))
    assert (capsys.readouterr().out, code) == (entry["stdout"], entry["exit"])


SEARCHES = [entry for entry in COMMANDS if entry["argv"][0] in ("min-parties", "enumerate")]


@pytest.mark.parametrize("entry", SEARCHES, ids=lambda e: " ".join(e["argv"])[:60])
def test_oracle_leaves_search_output_unchanged(entry, capsys):
    assert len(SEARCHES) == 4
    code = main([*entry["argv"], "--oracle"])
    assert (capsys.readouterr().out, code) == (entry["stdout"], entry["exit"])


def test_report_round_trip_matches_golden():
    assert ROUND_TRIPS
    for entry in ROUND_TRIPS:
        back = DistributionReport.from_json_dict(json.loads(entry["round_trip"]))
        assert json.dumps(back.to_json_dict(), sort_keys=True) + "\n" == entry["stdout"]


@pytest.mark.parametrize("command,line", RECORDS, ids=lambda v: v[:40])
def test_printed_records_round_trip(command, line):
    data = json.loads(line)
    assert LOADERS[command].from_json_dict(data).to_json_dict() == data
