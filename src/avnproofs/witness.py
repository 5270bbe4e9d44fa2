"""Construction and verification of explicit contradiction witnesses.

A witness is a list of stabilizing operators (named by generator subsets)
whose perfect correlations cannot all hold under any +-1 assignment to the
single-qubit observables: every letter occurs an even number of times on
every qubit, yet the product of the operator signs is -1.  Operators are
``(x, z, phase)`` words throughout.  Consistency of arbitrary word sets is
decided exactly over GF(2), with the inconsistent row combination reported
as a certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import LengthMismatchError, NonHermitianSignError, ResourceLimitError
from .gf2 import gf2_solve_explain
from .graphstate import (
    MAX_STATE_QUBITS,
    Graph,
    perfect_correlation_report,
    stabilizer_walk,
    stabilizer_word,
    statevector,
)
from .pauli import format_word


@dataclass(frozen=True)
class AvnWitness:
    """Generator subsets of the stabilizing operators forming one proof."""

    subsets: tuple  # of int masks, bit j-1 for generator j


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


def verify_witness(w: AvnWitness, g: Graph) -> bool:
    """Full check: distinct non-identity members, the parity and sign
    invariant, and (for states small enough to simulate) perfect correlation
    of every member.  Keys that XOR to the sign bit alone give every letter
    an even count on every qubit and a sign product of -1, so the assignment
    rows sum to 0 = 1 and no GF(2) solve is needed."""
    if not w.subsets or 0 in w.subsets or len(set(w.subsets)) != len(w.subsets):
        return False
    words = [stabilizer_word(g, s) for s in w.subsets]
    key = 0
    for word in words:
        key ^= _parity_key(word, g.n)
    if key != 1 << 3 * g.n:
        return False
    return g.n > MAX_STATE_QUBITS or not perfect_correlation_report(statevector(g), words)[1]


def is_critical(w: AvnWitness, g: Graph) -> bool:
    """True when the set is inconsistent and removing any one operator makes it consistent."""
    words = [stabilizer_word(g, s) for s in w.subsets]
    return not assignment_consistent(words, g.n).consistent and all(
        assignment_consistent(words[:k] + words[k + 1 :], g.n).consistent
        for k in range(len(words))
    )


def _pool(g: Graph, d, exhaustive: bool) -> list:
    """Sorted ``(subset mask, parity key)`` pairs of the candidate pool."""
    pool = []
    for x, z, phase in stabilizer_walk(g):
        s = x | z  # the qubits the operator acts on
        eor = any(s >> q & 1 and not s & pm for q, pm in enumerate(d.pmasks))
        if x and (exhaustive or x.bit_count() <= 3 or eor):
            pool.append((x, _parity_key((x, z, phase), g.n)))
    return sorted(pool)


def find_witness(g: Graph, d, max_size: int = 4, exhaustive: bool = False):
    """The lexicographically first 4-member witness over the candidate
    pool, as sorted pool masks, or None.

    The default pool is every operator certifying an element of reality
    under the distribution (acting on some qubit i but not on i's particle
    mates) plus all products of at most three generators; ``exhaustive``
    widens it to the whole stabilizer (n <= 5 only).  A set is a witness iff
    its ``_parity_key`` values XOR to the sign bit alone.

    Four is the smallest witness size, and it suffices, so ``max_size``
    below 4 gives None and any other the size-4 answer.  If the letters of
    2 or 3 members pair up on every qubit, their product is +-I, hence +I in
    the stabilizer: a pair is one operator twice, and a triple's signs
    multiply to +1.  A graph with a component of at least 3 vertices has an
    induced path j-i-k or a triangle i, j, k, and with it the GHZ witness
    {i}, {i,j}, {i,k}, {i,j,k} or {i}, {j}, {k}, {i,j,k} (Mermin, PRL 65,
    1838, 1990; Guehne, Toth, Hyllus & Briegel, PRL 95, 120405, 2005),
    whose members are products of at most three generators, so in every
    pool.  A graph whose components all have at most 2 vertices has no
    witness.

    The search meets in the middle: the lexicographically first pair of
    each XOR of keys is indexed, and the pairs are walked in lexicographic
    order, each looking up the complementary key.  The first hit is the
    first witness: an indexed pair starting at or below the walked pair's
    last member would either complete a set an earlier pair completes, or
    share a member with it and leave a 2-member witness.  Pools have at
    most 255 members, so at most C(255, 2) = 32,385 steps and as many index
    entries.  A hit whose pair does not lie above the walked pair, or that
    ``verify_witness`` rejects, raises ``AssertionError``.
    """
    if d.n != g.n:
        raise LengthMismatchError(f"graph has {g.n} qubits, distribution {d.n}")
    if not 2 <= max_size <= 8:
        raise ValueError(f"max_size must be in 2..8, got {max_size}")
    if exhaustive:
        if g.n > 5:
            raise ResourceLimitError("exhaustive pool limited to n <= 5")
    elif g.n > 8:
        raise ResourceLimitError("witness search limited to n <= 8")
    if max_size < 4:
        return None
    pool, keys = zip(*_pool(g, d, exhaustive))  # never empty: every single generator joins
    index = {}
    for a, b in combinations(range(len(pool)), 2):
        index.setdefault(keys[a] ^ keys[b], (a, b))
    target = 1 << 3 * g.n
    for a, b in combinations(range(len(pool)), 2):
        suffix = index.get(target ^ keys[a] ^ keys[b])
        if suffix is None:
            continue
        if suffix[0] <= b:
            raise AssertionError("witness suffix does not lie above its prefix")
        w = AvnWitness(tuple(pool[j] for j in (a, b) + suffix))
        if not verify_witness(w, g):
            raise AssertionError("parity-key match failed witness verification")
        return w
    return None


def underrepresented_qubits(w: AvnWitness, g: Graph) -> tuple:
    """1-based qubits showing fewer than two distinct letters in the witness."""
    seen = 0  # the X, Y and Z parts of the qubits' letters somewhere
    for s in w.subsets:
        seen |= _parity_key(stabilizer_word(g, s), g.n)
    qubits = (1 << g.n) - 1
    seen_x, seen_y, seen_z = seen & qubits, seen >> g.n & qubits, seen >> 2 * g.n & qubits
    twice = seen_x & seen_y | seen_x & seen_z | seen_y & seen_z
    return tuple(q for q in range(1, g.n + 1) if not twice >> (q - 1) & 1)


def format_witness(w: AvnWitness, g: Graph) -> list:
    """One ``<operator> = 1`` equation per member, e.g. ``-X1 X2 X3 Z4 = 1``."""
    return [f"{format_word(*stabilizer_word(g, s))} = 1" for s in w.subsets]
