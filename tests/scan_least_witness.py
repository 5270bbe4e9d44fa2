"""The least-witness scan, re-runnable.

On every labelled graph with n <= N (N = 6 by default: 33,867 graphs), no
4-member witness of the whole nonidentity stabilizer is lexicographically
smaller than ``find_witness(g)``, and a graph with no GHZ quadruple has no
4-member witness at all.

A 4-member witness is a set of distinct nonidentity stabilizing operators
whose parity keys (X part, Y part, Z part and sign bit, as in
``verify_witness``) XOR to the sign bit alone.  The members' X parts are
their generator-subset masks, so the fourth member of a < b < c is
a ^ b ^ c.  Sorted quadruples are tried in lexicographic order up to the
GHZ quadruple, whose own keys must then be the first that cancel.

Run from anywhere (pytest does not collect this file)::

    python tests/scan_least_witness.py        # n = 1..6
    python tests/scan_least_witness.py 5      # n = 1..5

Exit status 0 means no counterexample; the first one found is printed and
the exit status is 1.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from avnproofs import Graph, find_witness, format_graph, stabilizer_word  # noqa: E402


def parity_key(word, n: int) -> int:
    """The word's X, Y and Z parts at bits 0..3n-1 and its sign bit at 3n."""
    x, z, phase = word
    return (x & ~z) | (x & z) << n | (z & ~x) << 2 * n | (phase >> 1) << 3 * n


def least_witness(g: Graph, bound):
    """The lexicographically least sorted 4-member witness that is not
    greater than ``bound`` (no bound when None), or None."""
    n = g.n
    keys = [parity_key(stabilizer_word(g, s), n) for s in range(1 << n)]
    sign = 1 << 3 * n
    top = 1 << n
    for a in range(1, top):
        if bound and a > bound[0]:
            return None
        for b in range(a + 1, top):
            if bound and (a, b) > bound[:2]:
                break
            rest = keys[a] ^ keys[b] ^ sign
            for c in range(b + 1, top):
                if bound and (a, b, c) > bound[:3]:
                    break
                d = a ^ b ^ c
                if d > c and keys[c] ^ keys[d] == rest:
                    return a, b, c, d
    return None


def labelled_graphs(n: int):
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    for mask in range(1 << len(pairs)):
        yield Graph.from_edges(n, [p for k, p in enumerate(pairs) if mask >> k & 1])


def main(argv) -> int:
    top = int(argv[0]) if argv else 6
    start = time.perf_counter()
    graphs = without = 0
    for n in range(1, top + 1):
        for g in labelled_graphs(n):
            ghz = find_witness(g)
            least = least_witness(g, ghz)
            graphs += 1
            without += ghz is None
            if least != ghz:
                print(f"counterexample: {format_graph(g)}: least witness {least}, GHZ quadruple {ghz}")
                return 1
    print(
        f"{graphs} labelled graphs, n = 1..{top}: no witness below the GHZ quadruple; "
        f"the {without} without one have no witness ({time.perf_counter() - start:.1f} s)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
