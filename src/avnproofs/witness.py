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
from .gf2 import Bitvec, Gf2System, gf2_solve_explain
from .graphstate import (
    MAX_STATE_QUBITS,
    Graph,
    expectation,
    stabilizer_element,
    statevector,
)
from .pauli import format_pauli, sign_of

PERFECT_CORRELATION_TOL = 1e-10


@dataclass(frozen=True)
class AvnWitness:
    """Generator subsets of the stabilizing operators forming one proof."""

    subsets: tuple  # of Bitvec

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
    system = Gf2System(3 * n)
    for op in ops:
        if op.n != n:
            raise LengthMismatchError("operators act on different qubit counts")
        coeffs = 0
        for q in op.support():
            coeffs |= 1 << _observable_index(q, op.letter(q))
        system.add_row(coeffs, 1 if sign_of(op) < 0 else 0)
    solution, certificate = gf2_solve_explain(system)
    if solution is None:
        return AssignmentCheck(consistent=False, certificate=certificate)
    model = {
        (q, letter): -1 if solution.test(_observable_index(q, letter)) else 1
        for q in range(1, n + 1)
        for letter in "XYZ"
    }
    return AssignmentCheck(consistent=True, model=model)


def verify_witness(w: AvnWitness, g: Graph) -> bool:
    """Full check: parity and sign invariants, assignment infeasibility, and
    (for states small enough to simulate) perfect correlation of every member."""
    if not w.subsets:
        return False
    ops = w.operators(g)
    par_x = par_y = par_z = 0
    sign = 1
    for op in ops:
        x, z = op.x.bits, op.z.bits
        par_x ^= x & ~z
        par_y ^= x & z
        par_z ^= z & ~x
        sign *= sign_of(op)
    if par_x or par_y or par_z or sign != -1:
        return False
    if assignment_consistent(ops).consistent:
        return False
    if g.n <= MAX_STATE_QUBITS:
        sv = statevector(g)
        for op in ops:
            if abs(expectation(sv, op) - 1.0) > PERFECT_CORRELATION_TOL:
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


def _eor_certifying_subsets(g: Graph, d) -> set:
    """All generator subsets certifying some element of reality under d.

    A subset certifies one when its operator acts on some qubit i but as
    the identity on every particle mate of i.
    """
    out = set()
    pmasks = [d.pmask(i) for i in range(1, g.n + 1)]
    for mask in range(1, 1 << g.n):
        op = stabilizer_element(g, mask)
        support = op.x.bits | op.z.bits
        if any((support >> q) & 1 and not support & pm for q, pm in enumerate(pmasks)):
            out.add(mask)
    return out


def find_witness(g: Graph, d, max_size: int = 4, exhaustive: bool = False):
    """Smallest witness over the candidate pool, or None within the bound.

    The default pool is every operator certifying an element of reality
    under the distribution plus all products of at most three generators;
    ``exhaustive`` widens it to the whole stabilizer (n <= 5 only).  Search
    is breadth-first over set sizes with lexicographic tie-breaking, so the
    result is deterministic.
    """
    if not 2 <= max_size <= 8:
        raise ValueError(f"max_size must be in 2..8, got {max_size}")
    if exhaustive:
        if g.n > 5:
            raise ResourceLimitError("exhaustive pool limited to n <= 5")
        pool = set(range(1, 1 << g.n))
    else:
        if g.n > 8:
            raise ResourceLimitError("witness search limited to n <= 8")
        pool = _eor_certifying_subsets(g, d)
        pool |= {m for m in range(1, 1 << g.n) if m.bit_count() <= 3}
    pool = sorted(pool)

    total = sum(math.comb(len(pool), k) for k in range(2, max_size + 1))
    if total > 2_000_000:
        raise ResourceLimitError(
            f"witness search space too large ({len(pool)} candidates, size {max_size})"
        )

    info = {}
    for mask in pool:
        op = stabilizer_element(g, mask)
        x, z = op.x.bits, op.z.bits
        info[mask] = (x & ~z, x & z, z & ~x, sign_of(op))

    for k in range(2, max_size + 1):
        for combo in combinations(pool, k):
            px = py = pz = 0
            sign = 1
            for mask in combo:
                lx, ly, lz, s = info[mask]
                px ^= lx
                py ^= ly
                pz ^= lz
                sign *= s
            if px or py or pz or sign != -1:
                continue
            w = AvnWitness(tuple(Bitvec(g.n, m) for m in combo))
            if verify_witness(w, g):
                return w
    return None


def underrepresented_qubits(w: AvnWitness, g: Graph) -> tuple:
    """1-based qubits showing fewer than two distinct letters in the witness."""
    seen = {q: set() for q in range(1, g.n + 1)}
    for op in w.operators(g):
        for q in op.support():
            seen[q].add(op.letter(q))
    return tuple(q for q in range(1, g.n + 1) if len(seen[q]) < 2)


def format_witness(w: AvnWitness, g: Graph) -> list:
    """One ``<operator> = 1`` equation per member, e.g. ``-X1 X2 X3 Z4 = 1``."""
    return [f"{format_pauli(op)} = 1" for op in w.operators(g)]
