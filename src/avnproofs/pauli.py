"""n-qubit Pauli operators in symplectic form with exact phase tracking.

An operator is ``i**phase`` times a tensor product of per-qubit letters; the
letter on qubit ``q`` is read off bit ``q - 1`` of the int masks ``x`` and
``z``: (0,0) identity, (1,0) X, (0,1) Z, (1,1) the Hermitian Y.  Writing each
letter as ``i**(x*z) * X**x * Z**z`` makes products pure integer arithmetic,
so signs of stabilizing operators are exact, never floating point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import LengthMismatchError, NonHermitianSignError

#: Largest supported qubit count (bit masks stay inside one machine word).
MAX_QUBITS = 16

#: Letter of one qubit, indexed by its bit pair ``x | z << 1``.
LETTERS = "IXZY"


def qubits_of(mask: int) -> tuple:
    """The 1-based qubits of a mask (bit q-1 for qubit q), ascending.  A
    negative mask, which has no finite set of bits, raises ValueError."""
    if mask < 0:
        raise ValueError(f"mask {mask} is negative")
    out = []
    while mask > 0:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


@dataclass(frozen=True)
class PauliOperator:
    """``i**phase * P_1 otimes ... otimes P_n`` with the bits of qubit q at
    position q-1 of the masks ``x`` and ``z``; ``n`` is keyword-only."""

    x: int
    z: int
    phase: int = 0  # exponent of i, mod 4
    n: int = field(kw_only=True)

    def __post_init__(self):
        for part in (self.x, self.z):
            if part < 0 or part >> self.n:
                raise ValueError(f"mask {part:#x} does not fit in {self.n} qubits")
        object.__setattr__(self, "phase", self.phase % 4)

    def letter(self, qubit: int) -> str:
        """Single-qubit letter at 1-based position: one of I, X, Y, Z."""
        if not 1 <= qubit <= self.n:
            raise ValueError(f"qubit {qubit} out of range 1..{self.n}")
        q = qubit - 1
        return LETTERS[(self.x >> q & 1) | (self.z >> q & 1) << 1]

    def support(self) -> tuple:
        """1-based qubits where the operator is not the identity."""
        return qubits_of(self.x | self.z)


def pauli_multiply(p: PauliOperator, q: PauliOperator) -> PauliOperator:
    """Exact operator product p*q, phases included.

    Per qubit, with letters written as i**(x*z) X**x Z**z and commuting the
    inner Z past the inner X, the accumulated exponent of i is
    ``x1*z1 + x2*z2 + 2*z1*x2 - x3*z3`` where (x3, z3) is the XOR result;
    summing over qubits is three popcounts.
    """
    if p.n != q.n:
        raise LengthMismatchError(f"qubit count mismatch: {p.n} vs {q.n}")
    px, pz, qx, qz = p.x, p.z, q.x, q.z
    x3 = px ^ qx
    z3 = pz ^ qz
    phase = (
        p.phase
        + q.phase
        + (px & pz).bit_count()
        + (qx & qz).bit_count()
        + 2 * (pz & qx).bit_count()
        - (x3 & z3).bit_count()
    ) % 4
    return PauliOperator(x3, z3, phase, n=p.n)


#: ``_CELLS[k][q]`` is letter ``LETTERS[k]`` on qubit q + 1 as printed, e.g. ``"Y3"``.
_CELLS = tuple(tuple(f"{letter}{q + 1}" for q in range(MAX_QUBITS)) for letter in LETTERS)


def format_word(x: int, z: int, phase: int) -> str:
    """Render the operator ``i**phase X^x Z^z`` (letters by bit pair, as in
    ``PauliOperator``) like ``-X1 X2 X3 Z4``: identity letters omitted, no
    leading +, ``1`` for the identity.  An odd phase has no +-1 sign and
    raises ``NonHermitianSignError``; a negative mask, or one past
    ``MAX_QUBITS`` qubits, raises ValueError."""
    if phase & 1:
        raise NonHermitianSignError(f"operator has phase exponent {phase % 4}, not 0 or 2")
    sign = "-" if phase & 2 else ""
    rest = x | z
    if rest < 0:
        raise ValueError(f"mask {rest} is negative")
    if rest >> MAX_QUBITS:
        raise ValueError(f"mask {rest:#x} reaches past qubit {MAX_QUBITS}")
    if not rest:
        return sign + "1"
    parts = []
    while rest:
        low = rest & -rest
        parts.append(_CELLS[(1 if x & low else 0) | (2 if z & low else 0)][low.bit_length() - 1])
        rest ^= low
    return sign + " ".join(parts)
