"""Bit vectors and linear algebra over GF(2).

Vectors have an explicit length that is checked on every binary operation;
the bits themselves are packed into a single int (the package is capped at
word-sized problems, so this keeps the hot 2^n sweeps allocation-free).
Parity systems are solved by Gaussian elimination with deterministic
pivoting, so equal inputs always produce equal solutions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import LengthMismatchError

#: Hard cap on vector length (one machine word).
MAX_BITS = 64


@dataclass(frozen=True, order=True)
class Bitvec:
    """Fixed-length GF(2) vector, bit ``i`` stored at position ``i`` of ``bits``."""

    n: int
    bits: int = 0

    def __post_init__(self):
        if not 0 <= self.n <= MAX_BITS:
            raise ValueError(f"Bitvec length must be in 0..{MAX_BITS}, got {self.n}")
        if self.bits < 0 or self.bits >> self.n:
            raise ValueError(
                f"bits 0x{self.bits:x} do not fit in {self.n} positions"
            )

    @classmethod
    def from_indices(cls, n: int, indices) -> "Bitvec":
        """Vector of length ``n`` with ones at the given 0-based positions."""
        bits = 0
        for i in indices:
            if not 0 <= i < n:
                raise ValueError(f"index {i} out of range for length {n}")
            bits |= 1 << i
        return cls(n, bits)

    def _check(self, other: "Bitvec") -> None:
        if not isinstance(other, Bitvec):
            raise TypeError(f"expected Bitvec, got {type(other).__name__}")
        if other.n != self.n:
            raise LengthMismatchError(f"length mismatch: {self.n} vs {other.n}")

    def __xor__(self, other: "Bitvec") -> "Bitvec":
        self._check(other)
        return Bitvec(self.n, self.bits ^ other.bits)

    def __and__(self, other: "Bitvec") -> "Bitvec":
        self._check(other)
        return Bitvec(self.n, self.bits & other.bits)

    def __or__(self, other: "Bitvec") -> "Bitvec":
        self._check(other)
        return Bitvec(self.n, self.bits | other.bits)

    def test(self, i: int) -> bool:
        if not 0 <= i < self.n:
            raise ValueError(f"index {i} out of range for length {self.n}")
        return bool((self.bits >> i) & 1)

    def count(self) -> int:
        return self.bits.bit_count()

    def indices_1based(self) -> tuple:
        """Set bits as 1-based labels (qubit/generator numbering at interfaces)."""
        return tuple(i + 1 for i in range(self.n) if (self.bits >> i) & 1)

    def __str__(self):
        return "".join("1" if (self.bits >> i) & 1 else "0" for i in range(self.n))


@dataclass
class Gf2System:
    """A list of parity equations ``coeffs . x = rhs`` over GF(2)."""

    num_vars: int
    rows: list = field(default_factory=list)

    def add_row(self, coeffs, rhs: int) -> None:
        """Append one equation; ``coeffs`` is a Bitvec or a raw bit mask."""
        if isinstance(coeffs, Bitvec):
            if coeffs.n != self.num_vars:
                raise LengthMismatchError(
                    f"row length {coeffs.n} != num_vars {self.num_vars}"
                )
        else:
            coeffs = Bitvec(self.num_vars, coeffs)
        self.rows.append((coeffs, rhs & 1))


def _eliminate(rows):
    """Eliminate a list of row masks once, tracking which input rows make up each row.

    Returns ``(columns, dependencies)``.  ``dependencies`` holds, in input
    order, the provenance mask (bit k for row k) of each row that reduces to
    zero: the rows it names sum to the zero vector, so a right-hand side b
    (bit k for row k) is consistent iff ``b & dep`` has even parity for every
    dep.  ``columns`` maps each pivot column to a row mask: the solution of
    a consistent b with every free variable zero has that variable equal to
    the parity of ``b & columns[col]``.  The pivot columns are the lowest
    set bits over the row space, so that solution does not depend on the
    row order.
    """
    pivots = {}  # pivot column -> (mask, provenance mask over input rows)
    dependencies = []
    for k, mask in enumerate(rows):
        prov = 1 << k
        while mask:
            col = (mask & -mask).bit_length() - 1
            piv = pivots.get(col)
            if piv is None:
                pivots[col] = (mask, prov)
                break
            mask ^= piv[0]
            prov ^= piv[1]
        else:
            dependencies.append(prov)
    # Back-substitute in decreasing column order for every right-hand side
    # at once; free variables stay 0.  Every other bit of a pivot row lies
    # above its pivot column, so its column is already known.
    columns = {}
    for col in sorted(pivots, reverse=True):
        mask, sol = pivots[col]
        rest = mask ^ (1 << col)
        while rest:
            low = rest & -rest
            sol ^= columns.get(low.bit_length() - 1, 0)
            rest ^= low
        columns[col] = sol
    return columns, dependencies


def gf2_unit_solutions(rows) -> list:
    """Solve ``rows . x = e_k`` for every unit right-hand side with one elimination.

    ``rows`` are raw coefficient masks.  Returns one ``(solution,
    conflicts)`` pair per row k: ``solution`` is the mask of the solution
    with every free variable zero when row k alone has right-hand side 1,
    and bit j of ``conflicts`` is set when row k takes part in the j-th
    linear dependency among the rows.  For any right-hand side, the XOR of
    its units' pairs gives the same: the system is consistent iff the
    conflicts cancel to 0, and then the XOR of the solutions is the one
    ``gf2_solve`` returns.
    """
    columns, dependencies = _eliminate(rows)
    solutions = [0] * len(rows)
    conflicts = [0] * len(rows)
    for col, sol in columns.items():
        while sol:
            low = sol & -sol
            solutions[low.bit_length() - 1] |= 1 << col
            sol ^= low
    for j, dep in enumerate(dependencies):
        while dep:
            low = dep & -dep
            conflicts[low.bit_length() - 1] |= 1 << j
            dep ^= low
    return list(zip(solutions, conflicts))


def gf2_solve_explain(system: Gf2System):
    """Solve the system, reporting why it is infeasible when it is.

    Returns ``(solution, None)`` for a consistent system and
    ``(None, certificate)`` otherwise, where ``certificate`` is a tuple of
    row indices whose GF(2) sum is the contradiction 0 = 1: the first row
    (in input order) that reduces to 0 = 1 together with the earlier rows
    that cancel it.  The solution is the unique reduced-echelon one with all
    free variables set to zero.
    """
    rhs = 0
    for k, (_, b) in enumerate(system.rows):
        rhs |= b << k
    columns, dependencies = _eliminate([coeffs.bits for coeffs, _ in system.rows])
    for dep in dependencies:
        if (dep & rhs).bit_count() & 1:
            return None, tuple(k for k in range(len(system.rows)) if (dep >> k) & 1)
    x = 0
    for col, sol in columns.items():
        if (sol & rhs).bit_count() & 1:
            x |= 1 << col
    return Bitvec(system.num_vars, x), None


def gf2_solve(system: Gf2System):
    """Any solution of the system (free variables zero), or None if infeasible."""
    solution, _ = gf2_solve_explain(system)
    return solution
