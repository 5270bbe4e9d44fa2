"""Benchmark workloads: CLI command lists and the checks on their outputs.

Fixed inputs (the 101 n = 8 class representatives and the witness pairs)
live in ``data/`` and are checked against their digests and invariants when
loaded, so they do not depend on the census or search code.
The ``check`` and ``verify`` graphs are drawn from the seed; the fixed lists
are shuffled by it.  Every input stays inside the limits the program accepts
at the time the benchmark was defined (n <= 10 for ``min-parties``, n <= 6
for ``witness --max-size 4``), so lifting a guard later does not change the
measured work.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from avnproofs import allows_specific_avn, minimal_shapes, parse_distribution, parse_graph

DATA = Path(__file__).resolve().with_name("data")

#: sha256 of each stored input file.  ``make_data.py`` regenerates the files;
#: a changed file must come with a changed digest here.
DATA_SHA256 = {
    "lc8_classes": "c44bca9c109fad7e30e444a3513bb38c4948d5a4956888fc2aefdbef39362684",
    "witness_pairs": "450c359f1be09a789df27141a6896430985290cac49078d7ae24a132056beb2a",
}

LC8_MMIN_HISTOGRAM = {2: 58, 3: 30, 4: 9, 5: 2, 6: 1, 8: 1}
CENSUS_GRAPHS = 11_117
WITNESS_PAIRS = 51
WITNESS_SIZE = 4
CHECK_COMMANDS = 2000
CHECK_N = (6, 16)
VERIFY_COMMANDS = 10
VERIFY_N = (8, 12)
BRUTE_MAX_N = 10
CORRELATION_TOL = 1e-9

WORKLOADS = ("check", "class-table", "census", "witness")


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the check of its (exit status, stdout)."""

    argv: tuple
    check: Callable[[int, str], str | None]  # returns a failure reason, or None


# ---------------------------------------------------------------------------
# Stored inputs


def load(name: str) -> list:
    """Rows of ``data/<name>.json`` after checking the file digest."""
    raw = (DATA / f"{name}.json").read_bytes()
    digest = hashlib.sha256(raw).hexdigest()
    if digest != DATA_SHA256[name]:
        raise ValueError(f"data/{name}.json digest {digest} does not match the recorded one")
    return json.loads(raw)


def graph_text(n: int, edges) -> str:
    return f"{n}: " + ", ".join(f"{i}-{j}" for i, j in edges)


def parse_edges(text: str) -> tuple:
    """``(n, edges)`` from the ``n: i-j, ...`` format, without the package."""
    head, _, body = text.partition(":")
    edges = tuple(
        tuple(int(v) for v in part.split("-")) for part in body.split(",") if part.strip()
    )
    return int(head), edges


def connected(n: int, edges) -> bool:
    nbrs = {v: set() for v in range(1, n + 1)}
    for i, j in edges:
        nbrs[i].add(j)
        nbrs[j].add(i)
    seen, frontier = {1}, [1]
    while frontier:
        for w in nbrs[frontier.pop()] - seen:
            seen.add(w)
            frontier.append(w)
    return len(seen) == n


def lc8_classes() -> list:
    rows = load("lc8_classes")
    hist = Counter(r["m_min"] for r in rows)
    if dict(hist) != LC8_MMIN_HISTOGRAM:
        raise ValueError(f"stored m_min histogram {dict(hist)} is not {LC8_MMIN_HISTOGRAM}")
    if len({str(r["edges"]) for r in rows}) != len(rows):
        raise ValueError("duplicate class representative")
    for r in rows:
        if not connected(8, r["edges"]):
            raise ValueError(f"class representative {r['edges']} is not connected")
    return rows


def witness_pairs() -> list:
    rows = load("witness_pairs")
    if len(rows) != WITNESS_PAIRS:
        raise ValueError(f"expected {WITNESS_PAIRS} witness pairs, got {len(rows)}")
    for r in rows:
        n, edges = parse_edges(r["graph"])
        qubits = sorted(int(q) for p in r["dist"].split("|") for q in p.split(","))
        if not 3 <= n <= 6 or not connected(n, edges) or qubits != list(range(1, n + 1)):
            raise ValueError(f"bad witness pair {r}")
    return rows


# ---------------------------------------------------------------------------
# Seeded inputs


def random_connected_graph(rng: random.Random, n: int) -> tuple:
    """A random spanning tree plus each other pair with a per-graph probability."""
    p = rng.uniform(0.1, 0.6)
    order = list(range(1, n + 1))
    rng.shuffle(order)
    edges = set()
    for k in range(1, n):
        a, b = order[k], order[rng.randrange(k)]
        edges.add((min(a, b), max(a, b)))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if (i, j) not in edges and rng.random() < p:
                edges.add((i, j))
    return tuple(sorted(edges))


def random_distribution(rng: random.Random, n: int) -> str:
    """A random set partition whose shape is drawn from the search schedule."""
    _, shapes = rng.choice(minimal_shapes(n))
    shape = rng.choice(shapes)
    qubits = list(range(1, n + 1))
    rng.shuffle(qubits)
    blocks, at = [], 0
    for size in shape:
        blocks.append(",".join(str(q) for q in sorted(qubits[at : at + size])))
        at += size
    return "|".join(blocks)


# ---------------------------------------------------------------------------
# Output checks


def _check_verdict(graph: str, dist: str, fmt: str):
    def check(status: int, out: str):
        if fmt == "json-lines":
            verdict = json.loads(out)["verdict"]
        else:
            verdict = next(
                line.split(": ", 1)[1] for line in out.splitlines() if line.startswith("verdict: ")
            )
        if status != (0 if verdict == "allows" else 1):
            return f"exit status {status} does not match verdict {verdict}"
        g = parse_graph(graph)
        if g.n <= BRUTE_MAX_N:
            brute = allows_specific_avn(g, parse_distribution(dist, g.n), method="brute")
            if brute.allows != (verdict == "allows"):
                return f"verdict {verdict} differs from the brute-force sweep"
        return None

    return check


def _check_min_parties_json(m_min: int):
    def check(status: int, out: str):
        records = [json.loads(line) for line in out.splitlines()]
        if status != 0 or not records:
            return f"exit status {status} with {len(records)} records"
        found = {r["m"] for r in records}
        if found != {m_min} or any(r["verdict"] != "allows" for r in records):
            return f"m values {sorted(found)} where m_min is {m_min}"
        return None

    return check


def _check_census(reps: list):
    def check(status: int, out: str):
        records = [json.loads(line) for line in out.splitlines()]
        total = sum(r["orbit_size"] for r in records)
        if status != 0 or len(records) != len(reps) or total != CENSUS_GRAPHS:
            return f"exit status {status}, {len(records)} classes covering {total} graphs"
        if [r["representative"] for r in records] != reps:
            return "class representatives differ from the stored ones"
        return None

    return check


def graph_state(n: int, edges) -> np.ndarray:
    """Dense graph state: a sign flip for every edge with both qubits 1."""
    idx = np.arange(1 << n)
    flips = np.zeros(1 << n, dtype=np.int64)
    for i, j in edges:
        flips += (idx >> (i - 1)) & (idx >> (j - 1)) & 1
    return np.where(flips & 1, -1.0, 1.0) / np.sqrt(1 << n)


def correlation(psi: np.ndarray, sign: int, letters: dict) -> complex:
    """``<psi| sign * P |psi>`` for P the tensor product of ``letters`` (qubit -> X/Y/Z),
    using Y = i X Z on each qubit."""
    idx = np.arange(psi.shape[0])
    x = z = 0
    parity = np.zeros(psi.shape[0], dtype=np.int64)
    for q, letter in letters.items():
        if letter in "XY":
            x |= 1 << (q - 1)
        if letter in "YZ":
            z |= 1 << (q - 1)
            parity ^= (idx >> (q - 1)) & 1
    phi = (np.where(parity, -1.0, 1.0) * psi)[idx ^ x]
    ys = sum(1 for letter in letters.values() if letter == "Y")
    return sign * (1j**ys) * np.vdot(psi, phi)


def _check_witness(graph: str):
    n, edges = parse_edges(graph)

    def check(status: int, out: str):
        equations = [line for line in out.splitlines() if line.endswith(" = 1")]
        if status != 0 or len(equations) != WITNESS_SIZE:
            return f"exit status {status} with {len(equations)} equations"
        psi = graph_state(n, edges)
        counts = Counter()
        sign_product = 1
        for eq in equations:
            op = eq[: -len(" = 1")]
            sign = -1 if op.startswith("-") else 1
            letters = {int(tok[1:]): tok[0] for tok in op.lstrip("-").split()}
            counts.update(letters.items())
            sign_product *= sign
            if abs(correlation(psi, sign, letters) - 1) > CORRELATION_TOL:
                return f"{eq} is not a perfect correlation"
        if any(c % 2 for c in counts.values()) or sign_product != -1:
            return "letters do not pair up or the signs do not multiply to -1"
        return None

    return check


def _check_verify(n: int):
    def check(status: int, out: str):
        if status != 0 or not out.startswith(f"{1 << n} stabilizing operators checked"):
            return f"exit status {status}, expected {1 << n} operators checked"
        return None

    return check


# ---------------------------------------------------------------------------
# Command lists


def commands(workload: str, seed: int) -> list:
    """The workload's command list for this seed (same seed, same list)."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "check":
        out = []
        for k in range(CHECK_COMMANDS):
            n = CHECK_N[0] + k % (CHECK_N[1] - CHECK_N[0] + 1)  # every size equally often
            graph = graph_text(n, random_connected_graph(rng, n))
            dist = random_distribution(rng, n)
            fmt = ("table", "json-lines")[k % 2]
            argv = ("check", "--graph", graph, "--dist", dist, "--format", fmt)
            out.append(Command(argv, _check_verdict(graph, dist, fmt)))
        return out
    if workload == "class-table":
        rows = lc8_classes()
        rng.shuffle(rows)
        return [
            Command(
                ("min-parties", "--graph", graph_text(8, r["edges"]), "--format", "json-lines"),
                _check_min_parties_json(r["m_min"]),
            )
            for r in rows
        ]
    if workload == "census":
        reps = [r["edges"] for r in lc8_classes()]
        return [Command(("classes", "--n", "8", "--format", "json-lines"), _check_census(reps))]
    if workload == "witness":
        rows = witness_pairs()
        rng.shuffle(rows)
        out = [
            Command(
                ("witness", "--graph", r["graph"], "--dist", r["dist"], "--max-size", str(WITNESS_SIZE)),
                _check_witness(r["graph"]),
            )
            for r in rows
        ]
        for k in range(VERIFY_COMMANDS):
            n = VERIFY_N[0] + k % (VERIFY_N[1] - VERIFY_N[0] + 1)  # every size equally often
            graph = graph_text(n, random_connected_graph(rng, n))
            out.append(Command(("verify", "--graph", graph), _check_verify(n)))
        return out
    raise ValueError(f"unknown workload {workload!r}")
