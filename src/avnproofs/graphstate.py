"""Graphs, graph-state stabilizer generation, and a dense statevector oracle.

Vertices are 1-based at every interface (matching the usual labelling of
qubits); internally vertex i lives at bit i-1 of the adjacency masks.  The
statevector path is an independent numerical check on the exact symplectic
arithmetic: both must agree that every stabilizing operator is a perfect
correlation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    LengthMismatchError,
    NonHermitianSignError,
    ParseError,
    ResourceLimitError,
)
from .gf2 import Bitvec
from .pauli import PauliOperator

#: Largest supported qubit count (bit masks stay inside one machine word).
MAX_QUBITS = 16
#: Memory guard for the dense statevector oracle.
MAX_STATE_QUBITS = 12


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph; ``adj[v]`` is the neighbor mask of 0-based v."""

    n: int
    adj: tuple

    def __post_init__(self):
        if not 1 <= self.n <= MAX_QUBITS:
            raise ValueError(f"vertex count must be in 1..{MAX_QUBITS}, got {self.n}")
        if len(self.adj) != self.n:
            raise ValueError("adjacency list length differs from vertex count")
        full = (1 << self.n) - 1
        for v, mask in enumerate(self.adj):
            if mask & ~full:
                raise ValueError(f"adjacency mask of vertex {v + 1} out of range")
            if (mask >> v) & 1:
                raise ValueError(f"self-loop at vertex {v + 1}")
            for w in range(self.n):
                if (mask >> w) & 1 and not ((self.adj[w] >> v) & 1):
                    raise ValueError(f"asymmetric edge {v + 1}-{w + 1}")

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        """Build from 1-based vertex pairs."""
        adj = [0] * n
        for i, j in edges:
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValueError(f"edge {i}-{j} out of range 1..{n}")
            if i == j:
                raise ValueError(f"self-loop {i}-{j}")
            adj[i - 1] |= 1 << (j - 1)
            adj[j - 1] |= 1 << (i - 1)
        return cls(n, tuple(adj))

    def edges(self) -> tuple:
        """Sorted 1-based edge pairs."""
        out = []
        for v in range(self.n):
            m = self.adj[v] >> (v + 1)
            w = v + 1
            while m:
                if m & 1:
                    out.append((v + 1, w + 1))
                m >>= 1
                w += 1
        return tuple(out)

    def nbr_mask(self, i: int) -> int:
        """Neighbor mask of 1-based vertex i (bits are 0-based)."""
        if not 1 <= i <= self.n:
            raise ValueError(f"vertex {i} out of range 1..{self.n}")
        return self.adj[i - 1]

    def neighbors(self, i: int) -> tuple:
        """1-based neighbors of 1-based vertex i, ascending."""
        m = self.nbr_mask(i)
        return tuple(w + 1 for w in range(self.n) if (m >> w) & 1)

    def degree(self, i: int) -> int:
        return self.nbr_mask(i).bit_count()

    def num_edges(self) -> int:
        return sum(m.bit_count() for m in self.adj) // 2

    def __str__(self):
        return format_graph(self)


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(1, n)])


def ring_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("a ring needs at least 3 vertices")
    return Graph.from_edges(n, [(i, i + 1) for i in range(1, n)] + [(n, 1)])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)])


def star_graph(n: int) -> Graph:
    if n < 2:
        raise ValueError("a star needs at least 2 vertices")
    return Graph.from_edges(n, [(1, j) for j in range(2, n + 1)])


def relabel(g: Graph, perm) -> Graph:
    """Apply a 0-based permutation (old vertex v becomes perm[v])."""
    if sorted(perm) != list(range(g.n)):
        raise ValueError("not a permutation")
    adj = [0] * g.n
    for v in range(g.n):
        m = g.adj[v]
        new = 0
        while m:
            low = m & -m
            new |= 1 << perm[low.bit_length() - 1]
            m ^= low
        adj[perm[v]] = new
    return Graph(g.n, tuple(adj))


def is_connected(g: Graph) -> bool:
    seen = 1
    frontier = 1
    while frontier:
        nxt = 0
        m = frontier
        while m:
            low = m & -m
            nxt |= g.adj[low.bit_length() - 1]
            m ^= low
        frontier = nxt & ~seen
        seen |= nxt
    return seen == (1 << g.n) - 1


def parse_graph(text: str) -> Graph:
    """Parse the ``n: i-j, i-j, ...`` format (1-based, whitespace-insensitive)."""
    colon = text.find(":")
    if colon < 0:
        raise ParseError("expected 'n: edges' with a colon", text, 0)
    head = text[:colon].strip()
    try:
        n = int(head)
    except ValueError:
        raise ParseError(f"vertex count {head!r} is not an integer", text, 0) from None
    if not 1 <= n <= MAX_QUBITS:
        raise ParseError(f"vertex count must be in 1..{MAX_QUBITS}", text, 0)
    adj = [0] * n
    body = text[colon + 1 :]
    offset = colon + 1
    if body.strip():
        for chunk in body.split(","):
            pos = offset + (len(chunk) - len(chunk.lstrip()))
            part = chunk.strip()
            offset += len(chunk) + 1
            if "-" not in part:
                raise ParseError(f"edge {part!r} is not of the form i-j", text, pos)
            a, _, b = part.partition("-")
            try:
                i, j = int(a), int(b)
            except ValueError:
                raise ParseError(f"edge {part!r} has non-integer endpoints", text, pos) from None
            if not (1 <= i <= n and 1 <= j <= n):
                raise ParseError(f"edge {i}-{j} out of range 1..{n}", text, pos)
            if i == j:
                raise ParseError(f"self-loop {i}-{j}", text, pos)
            if (adj[i - 1] >> (j - 1)) & 1:
                raise ParseError(f"duplicate edge {i}-{j}", text, pos)
            adj[i - 1] |= 1 << (j - 1)
            adj[j - 1] |= 1 << (i - 1)
    return Graph(n, tuple(adj))


def format_graph(g: Graph) -> str:
    edges = ", ".join(f"{i}-{j}" for i, j in g.edges())
    return f"{g.n}: {edges}" if edges else f"{g.n}:"


# ---------------------------------------------------------------------------
# Stabilizer generation


def generators(g: Graph) -> list:
    """The n stabilizer generators: X on vertex i, Z on each of its neighbors."""
    out = []
    for v in range(g.n):
        out.append(
            PauliOperator(Bitvec(g.n, 1 << v), Bitvec(g.n, g.adj[v]), 0)
        )
    return out


def stabilizer_element(g: Graph, subset) -> PauliOperator:
    """Product (with sign) of the selected generators, ascending index order.

    ``subset`` is a Bitvec or raw mask with bit i-1 selecting generator i.
    The generators commute, so the product has the closed form
    ``(-1)**e(s) X^s Z^(Gamma s)``: e(s) counts the edges inside s and
    Gamma s is the parity of each qubit's neighbours in s.  Each Y letter
    (X^1 Z^1 = -i Y) adds -1 to the exponent of i, so the phase is
    ``2 e(s) - |s & Gamma s|`` mod 4, which is always 0 or 2.
    """
    mask = subset.bits if isinstance(subset, Bitvec) else int(subset)
    if mask < 0 or mask >> g.n:
        raise ValueError(f"subset mask 0x{mask:x} out of range for n={g.n}")
    z = 0
    inner = 0  # twice the edge count inside the subset
    m = mask
    while m:
        low = m & -m
        nbrs = g.adj[low.bit_length() - 1]
        z ^= nbrs
        inner += (nbrs & mask).bit_count()
        m ^= low
    return PauliOperator(
        Bitvec(g.n, mask), Bitvec(g.n, z), inner - (mask & z).bit_count()
    )


def full_stabilizer(g: Graph):
    """Yield all 2^n stabilizing operators in ascending subset order."""
    for mask in range(1 << g.n):
        yield stabilizer_element(g, mask)


# ---------------------------------------------------------------------------
# Dense statevector oracle

_PARITY_TABLE = None


def _parity_table():
    global _PARITY_TABLE
    if _PARITY_TABLE is None:
        _PARITY_TABLE = np.array(
            [i.bit_count() & 1 for i in range(1 << MAX_STATE_QUBITS)], dtype=np.int8
        )
    return _PARITY_TABLE


def statevector(g: Graph) -> np.ndarray:
    """The graph state as a dense vector: uniform superposition with a sign
    flip for every edge whose two qubits are both 1 in the basis string.

    Basis index convention: bit i-1 of the index is the value of qubit i.
    """
    if g.n > MAX_STATE_QUBITS:
        raise ResourceLimitError(
            f"statevector limited to n <= {MAX_STATE_QUBITS}, got {g.n}"
        )
    dim = 1 << g.n
    idx = np.arange(dim, dtype=np.uint32)
    signs = np.ones(dim, dtype=np.float64)
    for i, j in g.edges():
        both = ((idx >> (i - 1)) & (idx >> (j - 1)) & 1).astype(bool)
        signs[both] *= -1.0
    return (signs / np.sqrt(dim)).astype(np.complex128)


def expectation(sv: np.ndarray, p: PauliOperator) -> float:
    """Exact ``<sv| p |sv>`` computed basis-state-wise."""
    dim = sv.shape[0]
    if dim != (1 << p.n):
        raise LengthMismatchError(
            f"state dimension {dim} does not match {p.n}-qubit operator"
        )
    if p.phase % 2 == 1:
        raise NonHermitianSignError(
            "expectation of an operator with phase +-i is not real"
        )
    # p = i**(phase + popcount(x & z)) * X^x Z^z as a whole tensor; the sum
    # below is imaginary exactly when that exponent is odd, so the product
    # is real for any Hermitian operator.
    k = (p.phase + (p.x.bits & p.z.bits).bit_count()) % 4
    idx = np.arange(dim, dtype=np.uint32)
    par = _parity_table()[np.bitwise_and(idx, np.uint32(p.z.bits))]
    terms = np.conj(sv[np.bitwise_xor(idx, np.uint32(p.x.bits))]) * sv
    val = (1j ** k) * np.sum(np.where(par == 1, -terms, terms))
    return float(val.real)
