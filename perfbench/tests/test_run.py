import json
import time
from pathlib import Path

import pytest

import machine
import run
import workloads

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def test_median_is_always_reported():
    assert run.percentiles([3.0]) == {50: (3.0, 0)}
    assert run.percentiles([1.0, 2.0, 3.0]) == {50: (2.0, 1)}


def test_p90_needs_ten_samples_beyond_it():
    assert 90 not in run.percentiles([float(x) for x in range(99)])
    pct = run.percentiles([float(x) for x in range(1, 101)])
    assert pct[90] == (90.0, 10)
    assert pct[50] == (50.0, 50)


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads(BENCHMARK.read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_speed_scale_is_nominal_over_median_kernel_time():
    speed = machine.Speed()
    k = machine.KERNEL_NOMINAL_S
    speed.ran = [(0.0, k), (1.0, 1.0 + 2 * k), (2.0, 2.0 + 2 * k), (3.0, 3.0 + 3 * k)]
    assert speed.scale() == pytest.approx(0.5)


def test_kernel_time_is_left_out_of_latencies():
    class BusyCli:
        @staticmethod
        def main(argv):
            end = time.perf_counter() + 1.2
            while time.perf_counter() < end:
                pass
            return 0

    speed = machine.Speed()
    cmd = workloads.Command(("busy",), lambda status, out: None)
    with speed.sampling():
        p = run.run_pass(BusyCli, [cmd], [], speed, keep_outputs=False)
    kernel_time = sum(k1 - k0 for k0, k1 in speed.ran)
    assert len(speed.ran) >= 2
    assert p.latencies[0] == pytest.approx(p.wall - kernel_time, abs=0.05)
