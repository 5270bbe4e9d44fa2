"""Element-of-reality decisions for distributed graph states.

A distribution hands each qubit to one particle; P(i) is the set of qubits
sharing qubit i's particle, i excluded.  A single-qubit Pauli on qubit i is
an element of reality when some stabilizing operator shows that letter on i
while acting as the identity on all of P(i): its value is then fixed by
measurements on other particles only.  Whether such an operator exists is a
parity system over the generator-subset indicator vector.  For every qubit
and letter of a particle A the coefficient rows are the same, {e_j,
Gamma_j : j in A} (selection and neighbour parity of each member), and only
the right-hand side differs, so one GF(2) elimination per particle decides
the particle's whole table; its rank is |A| + E(A), where E(A) is the
cut-rank of A.  That table is eliminated once per (graph, particle) and
cached read-only; ``allows_specific_avn`` (and so ``check``, printed search
hits and ``--oracle``) and ``is_element_of_reality`` all read it.  A certificate
is the ``(x, z, phase)`` word of its generator subset's operator, built and
verified against the graph once, when its particle's table is built; its x
part is the subset mask (bit j-1 for generator j).  A brute-force sweep
over all 2^n subsets doubles as an oracle.

The verdict itself is a rank test: a distribution allows a specific AVN
proof iff every particle A has E(A) = |A| (``graphstate.cut_rank``).  The
searches in ``partitions`` admit by that test; a report builds the table
only when printed, checked with ``--oracle``, or read as ``report.decision``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache

from .errors import LengthMismatchError, ParseError, UnsupportedInputError
from .gf2 import gf2_unit_solutions
from .graphstate import Graph, is_connected, stabilizer_word
from .pauli import LETTERS

PAULI_LETTERS = ("X", "Y", "Z")


@dataclass(frozen=True)
class Distribution:
    """Partition of qubits 1..n into ordered, disjoint, nonempty particles."""

    n: int
    particles: tuple

    def __post_init__(self):
        clean = tuple(tuple(sorted(p)) for p in self.particles)
        object.__setattr__(self, "particles", clean)
        seen = set()  # qubits of the particles before this one
        for p in clean:
            if not p:
                raise ValueError("empty particle")
            for before, q in zip((None,) + p, p):  # p is sorted: a repeat follows itself
                if not 1 <= q <= self.n:
                    raise ValueError(f"qubit {q} out of range 1..{self.n}")
                if q == before:
                    raise ValueError(f"qubit {q} appears twice in one particle")
                if q in seen:
                    raise ValueError(f"qubit {q} appears in two particles")
            seen.update(p)
        if len(seen) != self.n:
            missing = sorted(set(range(1, self.n + 1)) - seen)
            raise ValueError(f"qubits {missing} not covered")

    @classmethod
    def _trusted(cls, n: int, particles: tuple) -> "Distribution":
        """The distribution of ``particles``, already sorted, nonempty,
        disjoint and covering 1..n, built without ``__post_init__``'s walk."""
        d = object.__new__(cls)
        vars(d).update(n=n, particles=particles)
        return d

    @property
    def m(self) -> int:
        return len(self.particles)

    @cached_property
    def pmasks(self) -> tuple:
        """The mask of P(i), qubit i's particle mates, at index i-1; one pass."""
        masks = [0] * self.n
        for p in self.particles:
            inside = 0
            for q in p:
                inside |= 1 << (q - 1)
            for q in p:
                masks[q - 1] = inside & ~(1 << (q - 1))
        return tuple(masks)

    def shape(self) -> tuple:
        return tuple(sorted((len(p) for p in self.particles), reverse=True))

    def canonical_key(self) -> tuple:
        """Particles sorted by their minimum element (qubits already ascending)."""
        return tuple(sorted(self.particles, key=min))

    def __str__(self):
        return format_distribution(self)


def parse_distribution(text: str, n: int) -> Distribution:
    """Parse ``a,b|c,d`` (particles split by '|', qubits by ',').

    A bad qubit entry is reported at its own token, and uncovered qubits at
    position 0.  Each check is made once, here: the particles are built
    without ``Distribution``'s second walk."""
    particles = []
    earlier = set()  # qubits of the particles before this one
    offset = 0
    for chunk in text.split("|"):  # a chunk has at least one entry, even ""
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
                q = int(token)
            except ValueError:
                raise ParseError(f"qubit {token!r} is not an integer", text, at) from None
            if not 1 <= q <= n:
                raise ParseError(f"qubit {q} out of range 1..{n}", text, at)
            if q in members:
                raise ParseError(f"qubit {q} appears twice in one particle", text, at)
            if q in earlier:
                raise ParseError(f"qubit {q} appears in two particles", text, at)
            members.append(q)
        earlier.update(members)
        particles.append(tuple(sorted(members)))
    if len(earlier) != n:
        missing = sorted(set(range(1, n + 1)) - earlier)
        raise ParseError(f"qubits {missing} not covered", text, 0)
    return Distribution._trusted(n, tuple(particles))


def format_distribution(d: Distribution) -> str:
    return "|".join(",".join(str(q) for q in p) for p in d.particles)


class ActionClass(Enum):
    """How a stabilizing operator acts on one qubit."""

    PREDICTS_X = "X"
    PREDICTS_Y = "Y"
    PREDICTS_Z = "Z"
    IDENTITY = "I"


def _letter_at(x: int, z: int, i: int) -> str:
    """Letter at 1-based qubit i of the operator with X part ``x`` and Z
    part ``z``, read off the bit pair."""
    q = i - 1
    return LETTERS[(x >> q & 1) | (z >> q & 1) << 1]


def classify_action(subset: int, g: Graph, i: int) -> ActionClass:
    """Class of the subset's stabilizing operator at 1-based qubit i.

    ``subset`` is an int mask with bit j-1 selecting generator j.  The
    letter at i is X when i is selected and an even number of its neighbors
    are, Y for an odd number, Z when i is unselected with an odd neighbor
    count, and identity otherwise.  A subset outside 0..2^n - 1 raises
    ``stabilizer_word``'s ValueError.
    """
    if not 1 <= i <= g.n:
        raise ValueError(f"vertex {i} out of range 1..{g.n}")
    x, z, _ = stabilizer_word(g, subset)
    return ActionClass(_letter_at(x, z, i))


def _eor_requirements(pauli: str):
    """(selected, neighbor parity) required at the target qubit, per letter."""
    if pauli == "X":
        return 1, 0
    if pauli == "Y":
        return 1, 1
    if pauli == "Z":
        return 0, 1
    raise ValueError(f"unknown Pauli letter {pauli!r}")


def _verify_witness_subset(g: Graph, pmask: int, i: int, pauli: str, mask: int) -> tuple:
    """The ``(x, z, phase)`` word of the subset's operator, built from the
    graph, once it certifies ``pauli`` on qubit i, whose particle mates are
    ``pmask``; AssertionError otherwise (explicit raises, so the check also
    runs under ``python -O``)."""
    word = stabilizer_word(g, mask)
    x, z, _ = word
    if _letter_at(x, z, i) != pauli:
        raise AssertionError(f"subset {mask:#x} does not show {pauli} on qubit {i}")
    acting = (x | z) & pmask
    if acting:
        j = (acting & -acting).bit_length()
        raise AssertionError(
            f"subset {mask:#x} for {pauli}{i} acts on particle mate {j}"
        )
    return word


@lru_cache(maxsize=1024)
def _particle_lookup(g: Graph, qubits):
    """Element-of-reality certificates of one particle's qubits, from one
    elimination: per member, in particle order, an (X, Y, Z) tuple of
    ``(x, z, phase)`` words or None.  Every word is built from the graph
    and verified here, once, before the tuple is cached and shared by every
    caller; a wrong subset raises, so no table holding it is ever cached.

    The rows are e_j (is j selected) and Gamma_j (parity of j's selected
    neighbours) for every member j.  For qubit i the letters need (e_i . s,
    Gamma_i . s) = (1, 0) for X, (1, 1) for Y and (0, 1) for Z with every
    other row 0, so X is the unit right-hand side of e_i, Z that of
    Gamma_i, and Y their XOR.
    """
    rows = []
    for q in qubits:
        rows += (1 << (q - 1), g.adj[q - 1])
    units = gf2_unit_solutions(rows)
    inside = sum(1 << (q - 1) for q in qubits)
    table = []
    for i, (sx, cx), (sz, cz) in zip(qubits, units[::2], units[1::2]):
        masks = (sx if not cx else None, sx ^ sz if cx == cz else None, sz if not cz else None)
        mates = inside & ~(1 << (i - 1))
        words = []
        for pauli, mask in zip(PAULI_LETTERS, masks):
            words.append(None if mask is None else _verify_witness_subset(g, mates, i, pauli, mask))
        table.append(tuple(words))
    return tuple(table)


def _lowest_word(g: Graph, pmask: int, i: int, pauli: str):
    """The verified word of the lowest generator subset that certifies
    ``pauli`` on qubit i with particle mates ``pmask``, or None, by a sweep
    over all 2^n subsets in ascending order."""
    need_i, need_par = _eor_requirements(pauli)
    nbr_i = g.adj[i - 1]
    pj = [(1 << (j - 1), g.adj[j - 1]) for j in range(1, g.n + 1) if (pmask >> (j - 1)) & 1]
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
            return _verify_witness_subset(g, pmask, i, pauli, mask)
    return None


def is_element_of_reality(g: Graph, d: Distribution, i: int, pauli: str, method: str = "solver"):
    """Certifying subset mask if ``pauli`` on qubit i is an element of reality, else None.

    The mask is the x part of the certificate's word in ``AvnDecision.eor``.
    ``method="solver"`` reads it from the cached GF(2) table of i's particle
    (scales past exhaustive range; the subset is the solution with every
    free variable zero), whose entries were verified when it was built;
    ``method="brute"`` scans all 2^n subsets in ascending order and returns
    the lowest certificate.
    """
    if d.n != g.n:
        raise LengthMismatchError(f"graph has {g.n} qubits, distribution {d.n}")
    if not 1 <= i <= g.n:
        raise ValueError(f"qubit {i} out of range 1..{g.n}")
    _eor_requirements(pauli)  # an unknown letter raises under either method
    if method == "brute":
        word = _lowest_word(g, d.pmasks[i - 1], i, pauli)
    elif method == "solver":
        particle = next(p for p in d.particles if i in p)
        word = _particle_lookup(g, particle)[particle.index(i)][PAULI_LETTERS.index(pauli)]
    else:
        raise ValueError(f"unknown method {method!r}")
    return None if word is None else word[0]


@dataclass
class AvnDecision:
    """Verdict plus the per-qubit element-of-reality table behind it."""

    allows: bool
    eor: dict  # qubit -> {"X"/"Y"/"Z" -> verified (x, z, phase) word, or None}
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
        for i, (nbrs, pmask) in enumerate(zip(g.adj, d.pmasks), 1):
            if nbrs and nbrs & ~pmask == 0:
                shortcut = f"qubit {i} is connected only to its own particle"
                break

    if method == "solver":
        rows = {}
        for particle in d.particles:
            rows.update(zip(particle, _particle_lookup(g, particle)))
        eor = {i: dict(zip(PAULI_LETTERS, rows[i])) for i in range(1, g.n + 1)}
    elif method == "brute":
        eor = {
            i: {p: _lowest_word(g, pmask, i, p) for p in PAULI_LETTERS}
            for i, pmask in enumerate(d.pmasks, 1)
        }
    else:
        raise ValueError(f"unknown method {method!r}")
    allows = True
    for i, row in eor.items():
        if row["X"] is None or row["Y"] is None:
            allows = False
        elif row["Z"] is None:
            raise AssertionError(
                f"qubit {i}: X and Y are elements of reality but Z is not"
            )
    if shortcut is not None and allows:
        raise AssertionError(f"shortcut fired ({shortcut}) but the full check allows")
    return AvnDecision(allows=allows, eor=eor, shortcut=shortcut)
