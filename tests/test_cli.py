import json

import pytest

from avnproofs import cli
from avnproofs.cli import main

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


def test_enumerate_jobs_identical_output(capsys):
    _, seq, _ = run(capsys, "enumerate", "--graph", LC6, "--m", "3", "--format", "json-lines")
    _, par, _ = run(
        capsys,
        "enumerate",
        "--graph",
        LC6,
        "--m",
        "3",
        "--format",
        "json-lines",
        "--jobs",
        "2",
    )
    assert seq == par


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
        "--exhaustive",
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


def test_verify_subcommand(capsys):
    code, out, _ = run(capsys, "verify", "--graph", LC6)
    assert code == 0
    assert "64 stabilizing operators checked" in out


def test_internal_error_exit_three(capsys, monkeypatch):
    def broken(args):
        raise AssertionError("solver and brute-force verdicts disagree")

    monkeypatch.setattr(cli, "cmd_check", broken)
    code, out, err = run(capsys, "check", "--graph", LC6, "--dist", "1,4,5|2,3,6")
    assert code == 3
    assert out == ""
    assert err == "internal error: solver and brute-force verdicts disagree\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("classes", "--n", "4", "--jobs", "2"),
        ("verify", "--graph", LC6, "--format", "table"),
    ],
)
def test_removed_flags_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
