import pytest

import machine
import run
import workloads
from avnproofs import cli


@pytest.mark.parametrize("workload", ["check", "witness"])
def test_seed_fixes_the_inputs(workload):
    def argvs(seed):
        return [c.argv for c in workloads.commands(workload, seed)]

    assert argvs(3) == argvs(3)
    assert argvs(3) != argvs(4)


def test_command_counts():
    assert len(workloads.commands("check", 1)) == workloads.CHECK_COMMANDS
    assert len(workloads.commands("class-table", 1)) == 101
    assert len(workloads.commands("census", 1)) == 1
    assert len(workloads.commands("witness", 1)) == 51 + workloads.VERIFY_COMMANDS


def test_changed_data_is_rejected(tmp_path, monkeypatch):
    text = (workloads.DATA / "lc8_classes.json").read_text()
    (tmp_path / "lc8_classes.json").write_text(text.replace('"m_min": 2', '"m_min": 3', 1))
    monkeypatch.setattr(workloads, "DATA", tmp_path)
    with pytest.raises(ValueError, match="digest"):
        workloads.lc8_classes()


def run_one(argv):
    cmd = workloads.Command(tuple(argv), lambda status, out: None)
    status, out, _ = run.run_pass(cli, [cmd], [], machine.Speed(), keep_outputs=True).outputs[0]
    return status, out


def test_witness_check_rejects_a_wrong_sign():
    graph = "3: 1-2, 1-3, 2-3"
    check = workloads._check_witness(graph)
    status, out = run_one(["witness", "--graph", graph, "--dist", "1|2|3"])
    assert check(status, out) is None
    flipped = out.replace("-X1", "X1", 1)
    assert flipped != out
    assert check(status, flipped) is not None


def test_verdict_check_rejects_a_wrong_exit_status():
    graph, dist = "6: 1-2, 2-3, 3-4, 4-5, 5-6", "1,4,5|2,3,6"
    check = workloads._check_verdict(graph, dist, "table")
    status, out = run_one(["check", "--graph", graph, "--dist", dist])
    assert status == 0 and check(status, out) is None
    assert check(1, out) is not None
