"""Construction and verification of explicit contradiction witnesses.

A witness is a list of stabilizing operators (named by generator subsets)
whose perfect correlations cannot all hold under any +-1 assignment to the
single-qubit observables: every letter occurs an even number of times on
every qubit, yet the product of the operator signs is -1.  Consistency of
arbitrary operator sets is decided exactly over GF(2), with the inconsistent
row combination reported as a certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .errors import LengthMismatchError, ResourceLimitError
from .gf2 import gf2_solve_explain
from .graphstate import (
    MAX_STATE_QUBITS,
    Graph,
    perfect_correlation_report,
    stabilizer_element,
    stabilizer_walk,
    stabilizer_word,
    statevector,
)
from .pauli import format_word, sign_of


@dataclass(frozen=True)
class AvnWitness:
    """Generator subsets of the stabilizing operators forming one proof."""

    subsets: tuple  # of int masks, bit j-1 for generator j

    def operators(self, g: Graph) -> list:
        return [stabilizer_element(g, s) for s in self.subsets]

    def __len__(self):
        return len(self.subsets)


@dataclass
class AssignmentCheck:
    """Result of the +-1 value-assignment feasibility test."""

    consistent: bool
    model: dict | None = None          # (qubit, letter) -> +-1, free letters +1
    certificate: tuple | None = None   # indices of operators whose combination is 0 = 1


def _observable_index(qubit: int, letter: str) -> int:
    return (qubit - 1) * 3 + "XYZ".index(letter)


def assignment_consistent(ops) -> AssignmentCheck:
    """Can all operators' correlations hold under one +-1 assignment?

    Each (qubit, letter) pair is a +-1 variable; an operator with sign e
    contributes the parity equation ``sum of its letters' bits = (e == -1)``.
    """
    ops = list(ops)
    if not ops:
        return AssignmentCheck(consistent=True, model={})
    n = ops[0].n
    rows = []
    for op in ops:
        if op.n != n:
            raise LengthMismatchError("operators act on different qubit counts")
        coeffs = 0
        for q in op.support():
            coeffs |= 1 << _observable_index(q, op.letter(q))
        rows.append((coeffs, 1 if sign_of(op) < 0 else 0))
    solution, certificate = gf2_solve_explain(rows)
    if solution is None:
        return AssignmentCheck(consistent=False, certificate=certificate)
    model = {
        (q, letter): -1 if solution >> _observable_index(q, letter) & 1 else 1
        for q in range(1, n + 1)
        for letter in "XYZ"
    }
    return AssignmentCheck(consistent=True, model=model)


def verify_witness(w: AvnWitness, g: Graph) -> bool:
    """Full check: distinct non-identity members, parity and sign
    invariants, assignment infeasibility, and (for states small enough to
    simulate) perfect correlation of every member."""
    if not w.subsets or 0 in w.subsets or len(set(w.subsets)) != len(w.subsets):
        return False
    ops = w.operators(g)
    par_x = par_y = par_z = 0
    sign = 1
    for op in ops:
        x, z = op.x, op.z
        par_x ^= x & ~z
        par_y ^= x & z
        par_z ^= z & ~x
        sign *= sign_of(op)
    if par_x or par_y or par_z or sign != -1:
        return False
    if assignment_consistent(ops).consistent:
        return False
    if g.n <= MAX_STATE_QUBITS:
        _, failures = perfect_correlation_report(statevector(g), ops)
        if failures:
            return False
    return True


def is_critical(w: AvnWitness, g: Graph) -> bool:
    """True when removing any single operator restores consistency."""
    ops = w.operators(g)
    for k in range(len(ops)):
        remainder = ops[:k] + ops[k + 1 :]
        if not assignment_consistent(remainder).consistent:
            return False
    return True


def _eor_certifying_subsets(supports: dict, d) -> set:
    """All generator subsets certifying some element of reality under d.

    ``supports`` maps each nonempty subset mask to the qubit mask its
    stabilizing operator acts on (x | z).  A subset certifies one when its
    operator acts on some qubit i but as the identity on every particle mate
    of i.
    """
    out = set()
    for mask, support in supports.items():
        if any((support >> q) & 1 and not support & pm for q, pm in enumerate(d.pmasks)):
            out.add(mask)
    return out


#: Largest number of prefixes walked plus index entries built in one search.
MAX_SEARCH_WORK = 2_000_000


def _first_subset_by_key(keys, h: int) -> dict:
    """The lexicographically first h-subset of pool indices for each XOR of
    their keys."""
    index = {}
    for combo in combinations(range(len(keys)), h):
        key = 0
        for j in combo:
            key ^= keys[j]
        index.setdefault(key, combo)
    return index


def find_witness(g: Graph, d, max_size: int = 4, exhaustive: bool = False):
    """Smallest witness over the candidate pool, or None within the bound.

    The default pool is every operator certifying an element of reality
    under the distribution plus all products of at most three generators;
    ``exhaustive`` widens it to the whole stabilizer (n <= 5 only).  Sizes
    are tried in increasing order and, within a size, the lexicographically
    first set of sorted pool masks is returned, so the result is
    deterministic.

    A set is a witness iff its parity keys (X part, Y part, Z part, sign
    bit) XOR to (0, 0, 0, 1): every letter then occurs an even number of
    times on every qubit, the assignment rows sum to 0 = 1, and stabilizer
    elements are perfect correlations.  A size-k set is found by meeting in
    the middle: the lexicographically first floor(k/2)-subset of each key
    is indexed, and the ceil(k/2)-prefixes are walked in lexicographic order,
    each looking up the complementary key.  The first hit is the first
    witness: a matching suffix that started at or below the prefix's last
    member would either complete a set that an earlier prefix completes, or
    share a member with the prefix and leave a smaller witness, found at an
    earlier size.  The search costs about C(P, ceil(k/2)) steps per size for
    a pool of P members instead of C(P, k); prefixes walked plus index
    entries built are bounded by ``MAX_SEARCH_WORK`` before any index is
    built.  A hit whose suffix does not lie above its prefix, or that
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
    words = {x: (z, phase) for x, z, phase in stabilizer_walk(g) if x}
    if exhaustive:
        pool = set(words)
    else:
        pool = _eor_certifying_subsets({x: x | z for x, (z, _) in words.items()}, d)
        pool |= {m for m in words if m.bit_count() <= 3}
    pool = sorted(pool)

    sizes = range(2, max_size + 1)
    work = sum(math.comb(len(pool), k - k // 2) for k in sizes)
    work += sum(math.comb(len(pool), h) for h in {k // 2 for k in sizes})
    if work > MAX_SEARCH_WORK:
        raise ResourceLimitError(
            f"witness search space too large ({len(pool)} candidates, size {max_size})"
        )

    n = g.n
    keys = []
    for x in pool:
        z, phase = words[x]
        negative = phase >> 1  # stabilizer phases are 0 or 2
        keys.append((x & ~z) | (x & z) << n | (z & ~x) << 2 * n | negative << 3 * n)
    target = 1 << 3 * n

    index, indexed = {}, 0
    for k in sizes:
        h = k // 2
        if h != indexed:
            index, indexed = _first_subset_by_key(keys, h), h
        for prefix in combinations(range(len(pool)), k - h):
            key = target
            for j in prefix:
                key ^= keys[j]
            suffix = index.get(key)
            if suffix is None:
                continue
            if suffix[0] <= prefix[-1]:
                raise AssertionError("witness suffix does not lie above its prefix")
            combo = prefix + suffix
            w = AvnWitness(tuple(pool[j] for j in combo))
            if not verify_witness(w, g):
                raise AssertionError("parity-key match failed witness verification")
            return w
    return None


def underrepresented_qubits(w: AvnWitness, g: Graph) -> tuple:
    """1-based qubits showing fewer than two distinct letters in the witness."""
    seen_x = seen_y = seen_z = 0  # qubits showing X, Y and Z somewhere
    for s in w.subsets:
        x, z, _ = stabilizer_word(g, s)
        seen_x |= x & ~z
        seen_y |= x & z
        seen_z |= z & ~x
    twice = seen_x & seen_y | seen_x & seen_z | seen_y & seen_z
    return tuple(q for q in range(1, g.n + 1) if not twice >> (q - 1) & 1)


def format_witness(w: AvnWitness, g: Graph) -> list:
    """One ``<operator> = 1`` equation per member, e.g. ``-X1 X2 X3 Z4 = 1``."""
    return [f"{format_word(*stabilizer_word(g, s))} = 1" for s in w.subsets]
