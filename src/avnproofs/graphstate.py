"""Graphs, graph-state stabilizer generation, and a dense statevector oracle.

Vertices are 1-based at every interface (matching the usual labelling of
qubits); internally vertex i lives at bit i-1 of the adjacency masks.
Stabilizing operators are ``(x, z, phase)`` words.

Words are decided exactly on the sign bits Q, a quadratic form over GF(2)
for every graph state (see ``perfect_correlation_arrays``).  Witnesses and
``check --oracle`` use ``perfect_correlations_hold``: Q built from the edges
as one int, with no float state, at every n.  The float statevector serves
``verify`` alone, as an independent numerical check of the whole stabilizer
(``stabilizer_arrays``), for n <= 12.  numpy is imported inside the
statevector functions only, so every other path loads without it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    LengthMismatchError,
    NonHermitianSignError,
    ParseError,
    ResourceLimitError,
)
from .pauli import MAX_QUBITS, PauliOperator

#: Memory guard for the dense statevector oracle.
MAX_STATE_QUBITS = 12
#: Largest deviation of an expectation from 1 that counts as a perfect correlation.
PERFECT_CORRELATION_TOL = 1e-10


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
            m = mask
            while m:
                low = m & -m
                w = low.bit_length() - 1
                m ^= low
                if not (self.adj[w] >> v) & 1:
                    raise ValueError(f"asymmetric edge {v + 1}-{w + 1}")

    @classmethod
    def _trusted(cls, n: int, adj: tuple) -> "Graph":
        """The graph of ``adj``, already symmetric, loop-free and in range
        with n in 1..MAX_QUBITS, built without ``__post_init__``'s walk."""
        g = object.__new__(cls)
        vars(g).update(n=n, adj=adj)
        return g

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
    """Parse the ``n: i-j, i-j, ...`` format (1-based, whitespace-insensitive),
    checking each token once; the graph is built without ``Graph``'s walk."""
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
    return Graph._trusted(n, tuple(adj))


def format_graph(g: Graph) -> str:
    edges = ", ".join(f"{i}-{j}" for i, j in g.edges())
    return f"{g.n}: {edges}" if edges else f"{g.n}:"


# ---------------------------------------------------------------------------
# Stabilizer generation


def generators(g: Graph) -> list:
    """The n stabilizer generators: X on vertex i, Z on each of its neighbors."""
    return [PauliOperator(1 << v, g.adj[v], n=g.n) for v in range(g.n)]


def cut_rank(g: Graph, mask: int) -> int:
    """E(A): the GF(2) rank of the adjacency block Gamma[A, V \\ A], where A
    is the vertex set ``mask`` (bit q-1 for qubit q).

    It equals the entanglement entropy of A in bits (Hein, Eisert &
    Briegel, PRA 69, 062311, 2004), so it never exceeds |A| or n - |A|.
    A mask outside 0..2^n - 1 raises ValueError.
    """
    if mask >> g.n:
        raise ValueError(f"vertex mask {mask:#x} out of range for n={g.n}")
    pivots = {}  # lowest set bit -> reduced row
    m = mask
    while m:
        low = m & -m
        row = g.adj[low.bit_length() - 1] & ~mask
        while row:
            col = row & -row
            piv = pivots.get(col)
            if piv is None:
                pivots[col] = row
                break
            row ^= piv
        m ^= low
    return len(pivots)


def stabilizer_word(g: Graph, subset: int) -> tuple:
    """``(x, z, phase)`` of the product (with sign) of the selected
    generators, ascending index order.

    Bit i-1 of the int mask ``subset`` selects generator i.  The generators
    commute, so the product has the closed form
    ``(-1)**e(s) X^s Z^(Gamma s)``: e(s) counts the edges inside s and
    bit q-1 of Gamma s is set when qubit q has an odd number of neighbours
    in s, so the word shows on qubit q the letter of its bit pair (as in
    ``pauli``).  Each Y letter (X^1 Z^1 = -i Y) adds -1
    to the exponent of i, so the phase is ``2 e(s) - |s & Gamma s|`` mod 4,
    which is always 0 or 2.  One pass over s gives Gamma s and 2 e(s).
    """
    if subset >> g.n:
        raise ValueError(f"subset mask {subset:#x} out of range for n={g.n}")
    adj = g.adj
    z = inner = 0  # inner: twice the edge count inside the subset
    m = subset
    while m:
        low = m & -m
        row = adj[low.bit_length() - 1]
        z ^= row
        inner += (row & subset).bit_count()
        m ^= low
    return subset, z, (inner - (subset & z).bit_count()) % 4


def stabilizer_element(g: Graph, subset: int) -> PauliOperator:
    """The ``PauliOperator`` of ``stabilizer_word(g, subset)``."""
    return PauliOperator(*stabilizer_word(g, subset), n=g.n)


def full_stabilizer(g: Graph):
    """Yield all 2^n stabilizing operators in ascending subset order."""
    for mask in range(1 << g.n):
        yield stabilizer_element(g, mask)


# ---------------------------------------------------------------------------
# Dense statevector oracle

_BIT_COUNTS = None


def _bit_counts():
    global _BIT_COUNTS
    if _BIT_COUNTS is None:
        import numpy as np

        _BIT_COUNTS = np.array([i.bit_count() for i in range(1 << MAX_STATE_QUBITS)], np.uint8)
    return _BIT_COUNTS


def _xor_span(rows, dtype):
    """Entry s is the XOR of ``rows[v]`` over the bits v of s, built by doubling."""
    import numpy as np

    out = np.zeros(1 << len(rows), dtype)
    for v, row in enumerate(rows):
        out[1 << v : 2 << v] = out[: 1 << v] ^ out.dtype.type(row)
    return out


def stabilizer_arrays(g: Graph) -> tuple:
    """``(x, z, phase)`` numpy arrays with ``stabilizer_word(g, s)`` at entry s,
    s ascending, for n <= MAX_STATE_QUBITS.  z is Gamma s, and the inner edge
    count's parity that of |s & low(s)|, low(s) the XOR of the rows' parts
    below the diagonal over the bits of s: n doublings give each span."""
    import numpy as np

    if g.n > MAX_STATE_QUBITS:
        raise ResourceLimitError(f"stabilizer arrays limited to n <= {MAX_STATE_QUBITS}, got {g.n}")
    dtype = np.uint8 if g.n <= 8 else np.uint16
    x = np.arange(1 << g.n, dtype=dtype)
    z = _xor_span(g.adj, dtype)
    low = _xor_span([row & ((1 << v) - 1) for v, row in enumerate(g.adj)], dtype)
    return x, z, (2 * _bit_counts()[x & low] - _bit_counts()[x & z]) & 3  # uint8 wraps mod 256


def statevector(g: Graph) -> np.ndarray:
    """The graph state as a dense vector: uniform superposition with a sign
    flip for every edge whose two qubits are both 1 in the basis string.

    Basis index convention: bit i-1 of the index is the value of qubit i.
    """
    import numpy as np

    if g.n > MAX_STATE_QUBITS:
        raise ResourceLimitError(
            f"statevector limited to n <= {MAX_STATE_QUBITS}, got {g.n}"
        )
    dim = 1 << g.n
    idx = np.arange(dim, dtype=np.uint32)
    both = np.zeros(dim, dtype=np.uint32)  # bit 0: parity of the edges with both qubits 1
    for i, j in g.edges():
        both ^= (idx >> (i - 1)) & (idx >> (j - 1))
    return ((1.0 - 2.0 * (both & 1)) / np.sqrt(dim)).astype(np.complex128)


def _check_word(word, dim: int) -> None:
    """Raise unless the ``(x, z, phase)`` word is a Hermitian operator on the
    n qubits of a state of dimension dim = 2^n: a negative mask raises
    ValueError, a mask past the n qubits (or a dim that is no power of two)
    ``LengthMismatchError`` and an odd phase ``NonHermitianSignError``, in
    that order."""
    x, z, phase = word
    if x < 0 or z < 0:
        raise ValueError(f"mask {x if x < 0 else z} is negative")
    if not dim or dim & (dim - 1) or (x | z) >> dim.bit_length() - 1:
        raise LengthMismatchError(
            f"state dimension {dim} does not match {(x | z).bit_length()}-qubit operator"
        )
    if phase & 1:
        raise NonHermitianSignError("expectation of an operator with phase +-i is not real")


def expectation(sv: np.ndarray, word) -> float:
    """Exact ``<sv| i**phase X^x Z^z |sv>`` of the ``(x, z, phase)`` word,
    computed basis-state-wise on the n qubits of ``sv``; a bad word raises
    as in ``_check_word``."""
    import numpy as np

    if sv.ndim != 1:
        raise LengthMismatchError(f"state of shape {sv.shape} is not a vector")
    dim = sv.shape[0]
    _check_word(word, dim)
    x, z, phase = word
    # the word is i**(phase + popcount(x & z)) * X^x Z^z as a whole tensor; the
    # sum below is imaginary exactly when that exponent is odd, so the product
    # is real for any Hermitian operator.
    k = (phase + (x & z).bit_count()) % 4
    idx = np.arange(dim, dtype=np.uint32)
    odd = _bit_counts()[np.bitwise_and(idx, np.uint32(z))] & 1
    terms = np.conj(sv[np.bitwise_xor(idx, np.uint32(x))]) * sv
    val = (1j ** k) * np.sum(np.where(odd, -terms, terms))
    return float(val.real)


def _coordinate_bits(j: int, dim: int) -> int:
    """The dim-bit set of basis indices b with bit j of b set."""
    width = 1 << j
    bits = ((1 << width) - 1) << width
    width *= 2
    while width < dim:
        bits |= bits << width
        width *= 2
    return bits


def _sign_bits(g: Graph) -> int:
    """Q as a 2^n-bit int: bit b is the parity of the edges inside b."""
    dim = 1 << g.n
    signs = 0
    for i, j in g.edges():
        signs ^= _coordinate_bits(i - 1, dim) & _coordinate_bits(j - 1, dim)
    return signs


def _linear_parts(signs: int, n: int):
    """The L_v of the sign function Q(b) = ``signs >> b & 1`` on n qubits, or
    None when a unit difference is not affine (``perfect_correlation_arrays``)."""
    dim = 1 << n
    full = (1 << dim) - 1
    q0 = signs & 1
    units = [(1 << u, signs >> (1 << u) & 1, _coordinate_bits(u, dim)) for u in range(n)]
    lins = []
    for low, q_low, high in units:
        diff = signs ^ ((signs & (full ^ high)) << low) ^ ((signs & high) >> low)
        const = q_low ^ q0
        lin = 0
        affine = full if const else 0
        for unit, q_unit, coord in units:
            if (signs >> (low ^ unit) & 1) ^ q_unit != const:  # bit 2^u of diff: D_{e_v}(e_u)
                lin |= unit
                affine ^= coord
        if diff != affine:
            return None
        lins.append(lin)
    return lins


def perfect_correlations_hold(g: Graph, words) -> bool:
    """Whether every ``(x, z, phase)`` word is a perfect correlation of the
    graph state, decided on ``_sign_bits(g)`` with L_v read from Q and no
    float state: a word holds when ``z == L_x and (phase + |x & z|) % 4 ==
    2 Q(x)`` (Q(0) = 0 for a graph; see ``perfect_correlation_arrays``).
    Every word is read, in input order, and a bad word raises as in
    ``expectation`` (``_check_word``).  A Q that is not quadratic, which no
    graph has, raises ``AssertionError``."""
    signs = _sign_bits(g)
    lins = _linear_parts(signs, g.n)
    if lins is None:
        raise AssertionError("the sign bits of the graph state are not a quadratic form")
    holds = True
    for word in words:
        _check_word(word, 1 << g.n)
        x, z, phase = word
        lin, rest = 0, x
        while rest:
            lin ^= lins[(rest & -rest).bit_length() - 1]
            rest &= rest - 1
        holds &= z == lin and (phase + (x & z).bit_count()) % 4 == 2 * (signs >> x & 1)
    return holds


def _sign_form(sv: np.ndarray) -> tuple:
    """``(negative, lins)``: entry b of the boolean array ``negative`` is Q(b),
    and ``lins`` the L_v, or None when a unit difference of Q is not affine
    (see ``perfect_correlation_arrays``)."""
    import numpy as np

    if sv.ndim != 1 or not sv.shape[0] or sv.shape[0] & (sv.shape[0] - 1):
        raise AssertionError(f"statevector of shape {sv.shape} is not a vector of length 2^n")
    real = sv.real
    if sv.imag.any() or not np.isfinite(real).all() or not (np.abs(real) == abs(real[0])).all():
        raise AssertionError("statevector is not real with entries of one magnitude")
    negative = real < 0
    signs = int.from_bytes(np.packbits(negative, bitorder="little").tobytes(), "little")
    return negative, _linear_parts(signs, sv.shape[0].bit_length() - 1)


def perfect_correlation_arrays(sv: np.ndarray, x, z, phase) -> tuple:
    """``(worst, failures)`` for the words of the arrays of ``stabilizer_arrays``
    on the state ``sv``: the largest ``abs(expectation(sv, word) - 1.0)`` (0.0
    for no word) and, in input order, the ``(word, deviation)`` pairs above
    ``PERFECT_CORRELATION_TOL``, bit for bit as a loop calling ``expectation``
    on every word.  A state that is not a real, finite vector of length 2^n
    with entries of one magnitude raises ``AssertionError``.

    With Q(b) = 1 where amplitude b < 0 and D_x(b) = Q(b ^ x) ^ Q(b), every
    Q has D_{x ^ e_v}(b) = D_x(b ^ e_v) ^ D_{e_v}(b).  So if each unit
    difference is affine, D_{e_v}(b) = L_v . b ^ D_{e_v}(0), as for every
    stabilizer state (Dehaene & De Moor, PRA 68, 042318, 2003), every D_x
    is affine with linear part L_x, the XOR of L_v over the bits of x, and
    constant Q(x) ^ Q(0).  ``i**k X^x Z^z`` (k = phase + |x & z| mod 4) has
    expectation ``i**k (N - 2 c) / N``, c the count of b with
    D_x(b) ^ z . b = 1: 0 or N when z = L_x, N/2 otherwise.  So a word
    passes exactly when ``z == L_x and k == 2 (Q(x) ^ Q(0))``, and every
    passing word has the float deviation of the first, computed once; L_x is
    built by the doubling that builds z.  Every other word, and every word
    of a state that is no stabilizer state, takes the float path.
    """
    import numpy as np

    q, lins = _sign_form(sv)
    passes = np.zeros(x.size, bool)
    if lins is not None:
        k = (phase + _bit_counts()[x & z]) & 3
        passes = (z == _xor_span(lins, z.dtype)[x]) & (k == 2 * (q[x] ^ q[0]))
    evaluate = ~passes
    evaluate[passes.argmax()] = True  # the first passing word; word 0 when none passes
    words = np.column_stack((x, z, phase))
    dev = np.zeros(x.size)
    for i in np.flatnonzero(evaluate).tolist():
        dev[i] = abs(expectation(sv, tuple(words[i].tolist())) - 1.0)
    dev[passes] = dev[passes.argmax()]
    failed = np.flatnonzero(dev > PERFECT_CORRELATION_TOL).tolist()
    return float(dev.max(initial=0.0)), [(tuple(words[i].tolist()), dev[i].item()) for i in failed]
