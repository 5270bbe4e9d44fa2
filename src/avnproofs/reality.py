"""Element-of-reality decisions for distributed graph states.

A distribution hands each qubit to one particle; P(i) is the set of qubits
sharing qubit i's particle, i excluded.  A single-qubit Pauli on qubit i is
an element of reality when some stabilizing operator shows that letter on i
while acting as the identity on all of P(i): its value is then fixed by
measurements on other particles only.  Whether such an operator exists is a
small parity system over the generator-subset indicator vector, solved
exactly; a brute-force sweep over all 2^n subsets doubles as an oracle.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum

from .errors import LengthMismatchError, ParseError, UnsupportedInputError
from .gf2 import Bitvec, Gf2System, gf2_solve
from .graphstate import Graph, is_connected

PAULI_LETTERS = ("X", "Y", "Z")


@dataclass(frozen=True)
class Distribution:
    """Partition of qubits 1..n into ordered, disjoint, nonempty particles."""

    n: int
    particles: tuple

    def __post_init__(self):
        clean = tuple(tuple(sorted(p)) for p in self.particles)
        object.__setattr__(self, "particles", clean)
        seen = set()
        for p in clean:
            if not p:
                raise ValueError("empty particle")
            for q in p:
                if not 1 <= q <= self.n:
                    raise ValueError(f"qubit {q} out of range 1..{self.n}")
                if q in seen:
                    raise ValueError(f"qubit {q} appears in two particles")
                seen.add(q)
        if len(seen) != self.n:
            missing = sorted(set(range(1, self.n + 1)) - seen)
            raise ValueError(f"qubits {missing} not covered")

    @property
    def m(self) -> int:
        return len(self.particles)

    def particle_of(self, i: int) -> int:
        """Index (0-based) of the particle holding 1-based qubit i."""
        for k, p in enumerate(self.particles):
            if i in p:
                return k
        raise ValueError(f"qubit {i} out of range 1..{self.n}")

    def pmask(self, i: int) -> int:
        """Mask (0-based bits) of P(i): qubit i's particle mates, i excluded."""
        p = self.particles[self.particle_of(i)]
        mask = 0
        for q in p:
            mask |= 1 << (q - 1)
        return mask & ~(1 << (i - 1))

    def shape(self) -> tuple:
        return tuple(sorted((len(p) for p in self.particles), reverse=True))

    def canonical_key(self) -> tuple:
        """Particles sorted by their minimum element (qubits already ascending)."""
        return tuple(sorted(self.particles, key=min))

    def __str__(self):
        return format_distribution(self)


def parse_distribution(text: str, n: int) -> Distribution:
    """Parse ``a,b|c,d`` (particles split by '|', qubits by ',')."""
    particles = []
    offset = 0
    for chunk in text.split("|"):
        pos = offset
        offset += len(chunk) + 1
        members = []
        inner = 0
        for item in chunk.split(","):
            at = pos + inner + (len(item) - len(item.lstrip()))
            inner += len(item) + 1
            token = item.strip()
            if not token:
                raise ParseError("empty qubit entry", text, at)
            try:
                members.append(int(token))
            except ValueError:
                raise ParseError(f"qubit {token!r} is not an integer", text, at) from None
        if not members:
            raise ParseError("empty particle", text, pos)
        particles.append(tuple(members))
    try:
        return Distribution(n, tuple(particles))
    except ValueError as exc:
        raise ParseError(str(exc), text, 0) from None


def format_distribution(d: Distribution) -> str:
    return "|".join(",".join(str(q) for q in p) for p in d.particles)


class ActionClass(Enum):
    """How a stabilizing operator acts on one qubit."""

    PREDICTS_X = "X"
    PREDICTS_Y = "Y"
    PREDICTS_Z = "Z"
    IDENTITY = "I"


def classify_action(subset, g: Graph, i: int) -> ActionClass:
    """Class of the subset's stabilizing operator at 1-based qubit i.

    The letter at i is X when i is selected and an even number of its
    neighbors are, Y for an odd number, Z when i is unselected with an odd
    neighbor count, and identity otherwise.
    """
    mask = subset.bits if isinstance(subset, Bitvec) else int(subset)
    in_subset = (mask >> (i - 1)) & 1
    odd_nbrs = (mask & g.nbr_mask(i)).bit_count() & 1
    if in_subset:
        return ActionClass.PREDICTS_Y if odd_nbrs else ActionClass.PREDICTS_X
    return ActionClass.PREDICTS_Z if odd_nbrs else ActionClass.IDENTITY


@dataclass(frozen=True)
class EoRWitness:
    """Generator subset certifying that ``pauli`` on ``qubit`` is an element of reality."""

    qubit: int
    pauli: str
    subset: Bitvec


def _eor_requirements(pauli: str):
    """(selected, neighbor parity) required at the target qubit, per letter."""
    if pauli == "X":
        return 1, 0
    if pauli == "Y":
        return 1, 1
    if pauli == "Z":
        return 0, 1
    raise ValueError(f"unknown Pauli letter {pauli!r}")


def _verify_witness_subset(g: Graph, d: Distribution, i: int, pauli: str, mask: int) -> None:
    """Raise AssertionError unless the subset certifies ``pauli`` on qubit i
    (explicit raises, so the check also runs under ``python -O``)."""
    if classify_action(mask, g, i).value != pauli:
        raise AssertionError(f"subset 0x{mask:x} does not show {pauli} on qubit {i}")
    pm = d.pmask(i)
    while pm:
        low = pm & -pm
        j = low.bit_length()
        if classify_action(mask, g, j) is not ActionClass.IDENTITY:
            raise AssertionError(
                f"subset 0x{mask:x} for {pauli}{i} acts on particle mate {j}"
            )
        pm ^= low


def is_element_of_reality(g: Graph, d: Distribution, i: int, pauli: str, method: str = "solver"):
    """Witness subset if ``pauli`` on qubit i is an element of reality, else None.

    ``method="solver"`` encodes the requirements as a GF(2) system (scales
    past exhaustive range); ``method="brute"`` scans all 2^n subsets in
    ascending order and returns the lowest certificate.
    """
    if d.n != g.n:
        raise LengthMismatchError(f"graph has {g.n} qubits, distribution {d.n}")
    if not 1 <= i <= g.n:
        raise ValueError(f"qubit {i} out of range 1..{g.n}")
    need_i, need_par = _eor_requirements(pauli)
    pmask = d.pmask(i)
    ibit = 1 << (i - 1)
    nbr_i = g.nbr_mask(i)

    if method == "brute":
        pj = [(1 << (j - 1), g.nbr_mask(j)) for j in range(1, g.n + 1) if (pmask >> (j - 1)) & 1]
        for mask in range(1 << g.n):
            if ((mask >> (i - 1)) & 1) != need_i:
                continue
            if (mask & nbr_i).bit_count() & 1 != need_par:
                continue
            ok = True
            for jbit, nbr_j in pj:
                if mask & jbit or (mask & nbr_j).bit_count() & 1:
                    ok = False
                    break
            if ok:
                witness = EoRWitness(i, pauli, Bitvec(g.n, mask))
                _verify_witness_subset(g, d, i, pauli, mask)
                return witness
        return None

    if method != "solver":
        raise ValueError(f"unknown method {method!r}")
    system = Gf2System(g.n)
    pm = pmask
    while pm:
        low = pm & -pm
        j = low.bit_length()
        system.add_row(low, 0)                  # x_j = 0
        system.add_row(g.nbr_mask(j), 0)        # even selected neighbors of j
        pm ^= low
    system.add_row(ibit, need_i)
    system.add_row(nbr_i, need_par)
    solution = gf2_solve(system)
    if solution is None:
        return None
    _verify_witness_subset(g, d, i, pauli, solution.bits)
    return EoRWitness(i, pauli, solution)


@dataclass
class AvnDecision:
    """Verdict plus the per-qubit element-of-reality table behind it."""

    allows: bool
    eor: dict  # qubit -> {"X"/"Y"/"Z" -> EoRWitness or None}
    shortcut: str | None = None


def allows_specific_avn(g: Graph, d: Distribution, method: str = "solver") -> AvnDecision:
    """Does this distribution make every X_i and Y_i an element of reality?

    Two sound rejections run first: a particle holding more than n/2 qubits,
    and a qubit whose whole neighborhood sits inside its own particle.  Their
    verdicts are asserted against the full per-qubit check.
    """
    if g.n < 3:
        raise UnsupportedInputError(f"need at least 3 qubits, got {g.n}")
    if not is_connected(g):
        raise UnsupportedInputError("graph is not connected")
    if d.n != g.n:
        raise LengthMismatchError(f"graph has {g.n} qubits, distribution {d.n}")

    shortcut = None
    big = max(len(p) for p in d.particles)
    if 2 * big > g.n:
        shortcut = f"a particle holds {big} > n/2 qubits"
    else:
        for i in range(1, g.n + 1):
            nbrs = g.nbr_mask(i)
            if nbrs and nbrs & ~d.pmask(i) == 0:
                shortcut = f"qubit {i} is connected only to its own particle"
                break

    eor = {}
    allows = True
    for i in range(1, g.n + 1):
        row = {}
        for pauli in PAULI_LETTERS:
            row[pauli] = is_element_of_reality(g, d, i, pauli, method=method)
        eor[i] = row
        if row["X"] is None or row["Y"] is None:
            allows = False
        elif row["Z"] is None:
            raise AssertionError(
                f"qubit {i}: X and Y are elements of reality but Z is not"
            )
    if shortcut is not None and allows:
        raise AssertionError(f"shortcut fired ({shortcut}) but the full check allows")
    return AvnDecision(allows=allows, eor=eor, shortcut=shortcut)


def reduced_stabilizer(g: Graph, d: Distribution, particle: int) -> Counter:
    """Multiset of all 2^n stabilizing operators restricted to one particle.

    Signs are dropped; each entry is the letter string over the particle's
    qubits in ascending order.  ``particle`` indexes ``d.particles``.
    """
    if not 0 <= particle < d.m:
        raise ValueError(f"particle index {particle} out of range 0..{d.m - 1}")
    if d.n != g.n:
        raise LengthMismatchError(f"graph has {g.n} qubits, distribution {d.n}")
    qubits = d.particles[particle]
    out = Counter()
    for mask in range(1 << g.n):
        out["".join(classify_action(mask, g, q).value for q in qubits)] += 1
    return out
