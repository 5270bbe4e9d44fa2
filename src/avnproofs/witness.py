"""Construction and verification of explicit contradiction witnesses.

A witness is a tuple of generator-subset masks (bit j-1 for generator j)
naming stabilizing operators whose perfect correlations cannot all hold
under any +-1 assignment to the single-qubit observables: every letter
occurs an even number of times on every qubit, yet the product of the
operator signs is -1.  Operators are ``(x, z, phase)`` words throughout.
Consistency of arbitrary word sets is decided exactly over GF(2), with the
inconsistent row combination reported as a certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import LengthMismatchError, NonHermitianSignError
from .gf2 import gf2_solve_explain
from .graphstate import Graph, perfect_correlations_hold, stabilizer_word
from .pauli import format_word


@dataclass
class AssignmentCheck:
    """Result of the +-1 value-assignment feasibility test."""

    consistent: bool
    model: dict | None = None          # (qubit, letter) -> +-1, free letters +1
    certificate: tuple | None = None   # indices of operators whose combination is 0 = 1


def _parity_key(word, n: int) -> int:
    """The word's X part (qubits showing X) at bits 0..n-1, its Y part at
    n..2n-1, its Z part at 2n..3n-1 and its sign bit (set for phase 2) at
    bit 3n."""
    x, z, phase = word
    return (x & ~z) | (x & z) << n | (z & ~x) << 2 * n | (phase >> 1 & 1) << 3 * n


def assignment_consistent(words, n: int) -> AssignmentCheck:
    """Can the correlations of all ``(x, z, phase)`` words on n qubits hold
    under one +-1 assignment?

    Each (qubit, letter) pair is a +-1 variable, column ``3 (q - 1) +
    "XYZ".index(letter)``; a word with sign e contributes the parity equation
    ``sum of its letters' bits = (e == -1)``.  A word acting past n qubits
    raises ``LengthMismatchError``, one with an odd phase
    ``NonHermitianSignError``.
    """
    rows = []
    for x, z, phase in words:
        if (x | z) >> n:
            raise LengthMismatchError(f"word {x:#x}, {z:#x} reaches past {n} qubits")
        if phase & 1:
            raise NonHermitianSignError(f"word has phase exponent {phase % 4}, not 0 or 2")
        key = _parity_key((x, z, phase), n)
        coeffs = 0
        for k in range(3):  # the X, Y and Z parts, in column order
            for q in range(n):
                coeffs |= (key >> k * n + q & 1) << 3 * q + k
        rows.append((coeffs, key >> 3 * n))
    solution, certificate = gf2_solve_explain(rows)
    if solution is None:
        return AssignmentCheck(consistent=False, certificate=certificate)
    model = {
        (q, letter): -1 if solution >> 3 * (q - 1) + k & 1 else 1
        for q in range(1, n + 1)
        for k, letter in enumerate("XYZ")
    }
    return AssignmentCheck(consistent=True, model=model)


def verify_witness(w: tuple, g: Graph) -> bool:
    """Full check: distinct non-identity members, the parity and sign
    invariant, and perfect correlation of every member, exact at every n
    (``perfect_correlations_hold``).  Keys that XOR to the sign bit alone
    give every letter an even count on every qubit and a sign product of -1,
    so the assignment rows sum to 0 = 1 and no GF(2) solve is needed."""
    if not w or 0 in w or len(set(w)) != len(w):
        return False
    words = [stabilizer_word(g, s) for s in w]
    key = 0
    for word in words:
        key ^= _parity_key(word, g.n)
    if key != 1 << 3 * g.n:
        return False
    return perfect_correlations_hold(g, words)


def is_critical(w: tuple, g: Graph) -> bool:
    """True when the set is inconsistent and removing any one operator makes it consistent."""
    words = [stabilizer_word(g, s) for s in w]
    return not assignment_consistent(words, g.n).consistent and all(
        assignment_consistent(words[:k] + words[k + 1 :], g.n).consistent
        for k in range(len(words))
    )


def find_witness(g: Graph):
    """The lexicographically least GHZ quadruple of the graph, as sorted
    generator-subset masks, or None.

    For every vertex i and every pair j < k of its neighbours the quadruple
    is {i}, {j}, {k}, {i,j,k} when j ~ k and {i}, {i,j}, {i,k}, {i,j,k}
    otherwise (Mermin, PRL 65, 1838, 1990; Guehne, Toth, Hyllus & Briegel,
    PRL 95, 120405, 2005).  A graph where no vertex has two neighbours has
    no witness.  No 2 or 3 stabilizing operators contradict (letters that
    pair up on every qubit multiply to +I).

    For n <= 8 the least GHZ quadruple is the least 4-member witness of the
    whole nonidentity stabilizer: a scan of every labelled graph with n <= 8
    found no exception.  Its members are products of at most three
    generators, so it is also the least witness of the pool any distribution
    selects; the answer depends on the graph alone.  A quadruple that
    ``verify_witness`` rejects raises ``AssertionError``.

    Locality: {a, b, c, a ^ b ^ c} is a witness of G exactly when its in-order
    compression is one of G[U], U = a | b | c (outside U the members show Z
    or I, and the Z parts cancel).  Compression keeps the order of masks, and
    G[U]'s GHZ quadruples are G's, so a counterexample has |U| >= 9.
    """
    quadruples = []
    for v in range(g.n):
        i = 1 << v  # vertex masks: i, and its neighbours j and k
        neighbours = [1 << u for u in range(g.n) if g.adj[v] >> u & 1]
        for j, k in combinations(neighbours, 2):
            if g.adj[j.bit_length() - 1] & k:  # a triangle
                quadruples.append(sorted((i, j, k, i | j | k)))
            else:  # an induced path j-i-k
                quadruples.append(sorted((i, i | j, i | k, i | j | k)))
    if not quadruples:
        return None
    w = tuple(min(quadruples))
    if not verify_witness(w, g):
        raise AssertionError("GHZ quadruple failed witness verification")
    return w


def underrepresented_qubits(w: tuple, g: Graph) -> tuple:
    """1-based qubits showing fewer than two distinct letters in the witness."""
    seen = 0  # the X, Y and Z parts of the qubits' letters somewhere
    for s in w:
        seen |= _parity_key(stabilizer_word(g, s), g.n)
    qubits = (1 << g.n) - 1
    seen_x, seen_y, seen_z = seen & qubits, seen >> g.n & qubits, seen >> 2 * g.n & qubits
    twice = seen_x & seen_y | seen_x & seen_z | seen_y & seen_z
    return tuple(q for q in range(1, g.n + 1) if not twice >> (q - 1) & 1)


def format_witness(w: tuple, g: Graph) -> list:
    """One ``<operator> = 1`` equation per member, e.g. ``-X1 X2 X3 Z4 = 1``."""
    return [f"{format_word(*stabilizer_word(g, s))} = 1" for s in w]
