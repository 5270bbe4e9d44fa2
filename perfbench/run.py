"""Benchmark of the avnproofs command line.

Run from the repository root::

    python3 perfbench/run.py --workload check --seed 1 --seconds 22 --trace 0

One process and one thread drive ``avnproofs.cli.main`` in-process in a
closed loop with one client: each command starts when the previous one has
returned.  Before every command the package's function caches are cleared,
so each command starts cold as a fresh CLI process would; the import that a
fresh process pays is measured separately as ``setup_s``.  Command
latencies are scaled to a reference machine speed (see ``machine.py``).

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` it reports the per-layer metrics of one traced pass, which is
made after the untraced passes.  Earlier lines give a readable report.
See NOTES.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from math import ceil
from pathlib import Path

import machine
import tracer

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = Path(__file__).resolve().with_name("out")
sys.path.insert(0, str(SRC))

SETUP_LAUNCHES = 7
MIN_BEYOND = 10

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

#: Per-layer metrics read from the traced pass: (traced name, fields).
LAYERS = (
    ("cli.main", ("calls", "self_s")),
    ("cli.build_parser", ("self_s",)),
    ("reports.render_table", ("calls", "self_s")),
    ("reports.to_json_dict", ("calls", "self_s")),
    ("reality.allows_specific_avn", ("calls", "self_s")),
    ("reality.is_element_of_reality", ("calls", "self_s")),
    ("gf2.gf2_solve", ("calls", "self_s")),
    ("gf2.gf2_solve_explain", ("calls", "self_s")),
    ("partitions.min_party_distributions", ("calls", "self_s")),
    ("partitions.enumerate_distributions", ("yields", "self_s")),
    ("partitions.automorphisms", ("calls", "self_s")),
    ("equivalence.connected_graph_reps", ("self_s",)),
    ("equivalence.lc_orbit", ("calls", "self_s")),
    ("equivalence.canonical_form", ("calls", "self_s")),
    ("equivalence.local_complement", ("calls", "self_s")),
    ("witness.find_witness", ("calls", "self_s")),
    ("witness.verify_witness", ("self_s",)),
    ("witness.assignment_consistent", ("calls", "self_s")),
    ("graphstate.parse_graph", ("self_s",)),
    ("graphstate.stabilizer_element", ("calls", "self_s")),
    ("graphstate.statevector", ("calls", "self_s")),
    ("graphstate.expectation", ("calls", "self_s")),
    ("graphstate.full_stabilizer", ("self_s",)),
    ("pauli.pauli_multiply", ("calls",)),
)
RATIOS = (
    "reality.allow_ratio",
    "reality.solves_per_verdict",
    "partitions.orbit_ratio",
    "partitions.hit_ratio",
    "witness.found_ratio",
    "trace.overhead_ratio",
)
FIELD_UNITS = {"calls": "count", "yields": "count", "self_s": "s"}
PER_LAYER = tuple(
    [(f"{name}.{f}", FIELD_UNITS[f]) for name, fields in LAYERS for f in fields]
    + [(name, "ratio") for name in RATIOS]
)


# ---------------------------------------------------------------------------
# Statistics


def percentiles(samples, levels=(50, 90), min_beyond=MIN_BEYOND) -> dict:
    """Nearest-rank percentiles as ``{level: (value, samples beyond it)}``.

    The median is always given.  A higher level is left out when fewer than
    ``min_beyond`` samples lie above its rank, because its value would then
    rest on a handful of samples.
    """
    xs = sorted(samples)
    out = {}
    for level in levels:
        rank = max(1, ceil(level / 100 * len(xs)))
        beyond = len(xs) - rank
        if level == 50 or beyond >= min_beyond:
            out[level] = (xs[rank - 1], beyond)
    return out


def ratio(num, den) -> float:
    """``num / den``, or 0.0 when the layer did no work on this workload."""
    return num / den if den else 0.0


# ---------------------------------------------------------------------------
# Measurement


@dataclass
class Pass:
    """One run over the command list."""

    wall: float = 0.0
    latencies: list = field(default_factory=list)
    hashes: list = field(default_factory=list)
    outputs: list = field(default_factory=list)  # (status, stdout, stderr), first pass only


def measure_setup(launches: int = SETUP_LAUNCHES) -> tuple:
    """Wall times of fresh interpreters importing ``avnproofs.cli``, and of
    the reference launches made alternately with them."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    cmd = [sys.executable, "-c", "import avnproofs.cli"]
    ref = [sys.executable, "-c", machine.LAUNCH_REFERENCE]
    subprocess.run(cmd, env=env, check=True)  # byte-compiles on a fresh checkout; not timed
    times, refs = [], []
    for _ in range(launches):
        for argv, out in ((ref, refs), (cmd, times)):
            t0 = time.perf_counter()
            subprocess.run(argv, env=env, check=True)
            out.append(time.perf_counter() - t0)
    return times, refs


def cache_resetters() -> list:
    """``cache_clear`` of every functools cache defined in the package."""
    out = []
    for mod in tracer.package_modules():
        for value in vars(mod).values():
            clear = getattr(value, "cache_clear", None)
            owner = getattr(value, "__module__", None) or ""
            if callable(clear) and owner.startswith(tracer.PACKAGE) and clear not in out:
                out.append(clear)
    return out


def run_pass(cli, commands, resets, speed, keep_outputs: bool) -> Pass:
    """Run every command once through ``cli.main``, capturing its output."""
    p = Pass()
    start = time.perf_counter()
    for cmd in commands:
        for clear in resets:
            clear()
        gc.collect()
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            since = len(speed.ran)
            t0 = time.perf_counter()
            try:
                status = cli.main(list(cmd.argv))
            except SystemExit as exc:
                status = exc.code if isinstance(exc.code, int) else 2
            except Exception:
                status = None
                err.write(traceback.format_exc())
            t1 = time.perf_counter()
            p.latencies.append(t1 - t0 - speed.paused(since, t0, t1))
        text = out.getvalue()
        p.hashes.append(hashlib.sha256(json.dumps([cmd.argv, status, text]).encode()).digest())
        if keep_outputs:
            p.outputs.append((status, text, err.getvalue()))
    p.wall = time.perf_counter() - start
    return p


def measure(cli, commands, seconds: float, resets, speed) -> list:
    """Untraced passes until another one would end after ``seconds``."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(cli, commands, resets, speed, keep_outputs=not passes))
        elapsed = time.perf_counter() - start
        if elapsed + passes[-1].wall > seconds:
            return passes


def command_latencies(passes) -> list:
    """Each command's median latency across the passes."""
    return [statistics.median(ts) for ts in zip(*(p.latencies for p in passes))]


def check_outputs(commands, first: Pass) -> list:
    """``(index, reason)`` for each command of the first pass whose output is wrong."""
    bad = []
    for k, (cmd, (status, out, err)) in enumerate(zip(commands, first.outputs)):
        if status is None:
            reason = "raised " + err.strip().splitlines()[-1]
        elif status == 2:
            reason = "exit 2: " + err.strip()
        else:
            try:
                reason = cmd.check(status, out)
            except Exception as exc:  # malformed output
                reason = f"output check raised {exc!r}"
        if reason:
            bad.append((k, reason))
    return bad


def failed_commands(reference: Pass, bad: set, p: Pass) -> int:
    """Commands of ``p`` that failed their check or differ from ``reference``."""
    return sum(1 for k, h in enumerate(p.hashes) if k in bad or h != reference.hashes[k])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def layer_metrics(tr, untraced_wall: float, traced_wall: float) -> dict:
    """Per-layer metrics of one traced pass."""
    self_s = tr.self_seconds()
    fields = {"calls": tr.calls, "yields": tr.yields, "self_s": self_s}
    values = {f"{name}.{f}": fields[f][name] for name, fs in LAYERS for f in fs}
    verdicts = tr.calls["reality.allows_specific_avn"]
    enum, search = "partitions.enumerate_distributions", "partitions.min_party_distributions"
    values.update(
        {
            "reality.allow_ratio": ratio(tr.tallies["reality.allows_specific_avn"], verdicts),
            "reality.solves_per_verdict": ratio(tr.calls["gf2.gf2_solve"], verdicts),
            "partitions.orbit_ratio": ratio(tr.yields[enum], tr.tallies[enum]),
            "partitions.hit_ratio": ratio(
                tr.tallies[search], tr.child_spans(search, "reality.allows_specific_avn")
            ),
            "witness.found_ratio": ratio(
                tr.tallies["witness.find_witness"], tr.calls["witness.find_witness"]
            ),
            "trace.overhead_ratio": traced_wall / untraced_wall,
        }
    )
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


# ---------------------------------------------------------------------------
# Entry point


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        from avnproofs import cli
    except ImportError as exc:
        print(f"error: cannot import the program from {SRC}: {exc}", file=sys.stderr)
        return 1
    if Path(cli.__file__).resolve().parent != SRC / "avnproofs":
        print(f"error: imported the program from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 1
    import workloads  # imports the program, so only once it is known to be found

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    commands = workloads.commands(args.workload, args.seed)
    resets = cache_resetters()
    setup, setup_refs = measure_setup()
    raw_setup = statistics.median(setup)
    setup_s = raw_setup * machine.LAUNCH_NOMINAL_S / statistics.median(setup_refs)
    # Garbage left by one command is collected before the next starts, as a
    # fresh process would start without it; freezing what exists now keeps
    # each collection cheap.
    gc.collect()
    gc.freeze()
    speed = machine.Speed()
    with speed.sampling():
        passes = measure(cli, commands, args.seconds, resets, speed)
    scale = speed.scale()
    rss = peak_rss_mb()
    bad = check_outputs(commands, passes[0])
    bad_idx = {k for k, _ in bad}
    failed = sum(failed_commands(passes[0], bad_idx, p) for p in passes)
    attempted = len(commands) * len(passes)

    latencies = command_latencies(passes)
    raw_wall = sum(latencies)
    wall = raw_wall * scale
    pct = percentiles(latencies)
    digest = hashlib.sha256(b"".join(passes[0].hashes)).hexdigest()

    print(f"workload {args.workload}  seed {args.seed}  {len(commands)} commands x {len(passes)} passes")
    print(f"output digest  sha256:{digest}")
    print(f"machine      {machine.KERNEL_NOMINAL_S / scale * 1e3:.3f} ms reference kernel "
          f"(nominal {machine.KERNEL_NOMINAL_S * 1e3:.3f} ms), {len(speed.ran)} samples")
    print(f"setup_s      {setup_s:.4f} s   median of {len(setup)} launches, {raw_setup:.4f} s unscaled")
    print(f"wall_s       {wall:.4f} s   per-command medians over {len(passes)} passes, {raw_wall:.4f} s unscaled")
    for level, (value, beyond) in pct.items():
        print(f"op_p{level}_ms    {value * scale * 1e3:.3f} ms  {len(latencies)} commands, {beyond} beyond")
    print(f"peak_rss_mb  {rss:.1f} MB")
    print(f"fail_rate    {failed}/{attempted}")
    for k, reason in bad[:10]:
        print(f"FAIL {' '.join(commands[k].argv)}: {reason}")

    metrics = {
        "setup_s": setup_s,
        "wall_s": wall,
        "op_p50_ms": pct[50][0] * scale * 1e3,
        "peak_rss_mb": rss,
    }
    result = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}

    if args.trace:
        tr = tracer.Tracer()
        with tr.installed():
            traced = run_pass(cli, commands, resets, speed, keep_outputs=False)
        failed += failed_commands(passes[0], bad_idx, traced)
        attempted += len(commands)
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.tsv"
        tr.write(spans)
        result = layer_metrics(tr, raw_wall, sum(traced.latencies))
        print(f"traced pass  {traced.wall:.4f} s, {len(tr.start)} spans written to {spans.relative_to(ROOT)}")
        for name, m in result.items():
            print(f"  {name:<44} {m['value']:.6g} {m['unit']}")

    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": result}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
