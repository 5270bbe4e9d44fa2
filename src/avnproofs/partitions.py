"""Particle-count schedules, partition enumeration, and the minimum-party search.

A shape is the multiset of particle sizes.  A shape can host elements of
reality only when its largest particle does not outweigh the rest combined;
the search schedule lists, level by ascending particle count, the shapes
that could be the first success, and distributions are enumerated one
representative per orbit of the graph's automorphism group, closed under
the canonical search's generators (``equivalence.automorphism_group``).

A distribution allows a specific AVN proof iff every particle A has full
cut-rank, E(A) = |A|: the adjacency block Gamma[A, V \\ A] has full row rank,
so every particle's reduced state is maximally mixed.  The searches
enumerate only such distributions: the set-partition recursion drops a
block that fails the rank test before recursing, so a failing block never
grows into distributions, and the automorphism generators are computed only
once a shape has a hit.  The searches build no element-of-reality table: a
hit's report builds its own when printed as json-lines, checked with
``--oracle``, or read as ``report.decision``.

The recursion, the rank memo and the orbit dedupe work on int block masks
(bit q-1 for qubit q); a block becomes a sorted tuple of 1-based qubits
only in the stream of ``Distribution`` objects.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .equivalence import automorphism_group
from .errors import ResourceLimitError, UnsupportedInputError
from .graphstate import Graph, cut_rank, is_connected
from .pauli import qubits_of
from .reality import Distribution
from .reports import DistributionReport


def shape_feasible(shape) -> bool:
    """True when the largest particle is at most the sum of the others."""
    shape = _validate_shape(shape)
    return shape[0] <= sum(shape[1:])


def _validate_shape(shape) -> tuple:
    shape = tuple(shape)
    if not shape or any(s < 1 for s in shape):
        raise ValueError(f"shape parts must be positive: {shape}")
    if any(shape[k] < shape[k + 1] for k in range(len(shape) - 1)):
        raise ValueError(f"shape must be non-increasing: {shape}")
    return shape


def integer_partitions(n: int, parts: int | None = None):
    """Non-increasing partitions of n (optionally into ``parts`` parts), in
    lexicographically descending order."""
    def rec(remaining, cap, count):
        if remaining == 0:
            if parts is None or count == parts:
                yield ()
            return
        if parts is not None and count >= parts:
            return
        for first in range(min(cap, remaining), 0, -1):
            for rest in rec(remaining - first, first, count + 1):
                yield (first,) + rest

    yield from rec(n, n, 0)


def _schedule_keeps(shape) -> bool:
    """Is this shape part of the minimum-party search schedule?

    All-singleton shapes are always kept.  Otherwise the multi-qubit
    particles must stand on their own: at least two of them, with the
    largest at most the sum of the other multi-qubit ones, and strictly
    below it once there are three or more (a tied largest particle forces
    the two-particle balanced split, which a smaller level already covers).
    """
    core = [s for s in shape if s >= 2]
    if not core:
        return True
    if len(core) < 2:
        return False
    slack = sum(core[1:]) - core[0]
    if slack < 0:
        return False
    return len(core) == 2 or slack > 0


def minimal_shapes(n: int) -> list:
    """Candidate-shape schedule: ``[(m, shapes), ...]`` with m ascending.

    Within a level, shapes are ordered lexicographically descending.  Levels
    with no kept shape are omitted.
    """
    if not 2 <= n <= 16:
        raise ValueError(f"n must be in 2..16, got {n}")
    levels = {}
    for shape in integer_partitions(n):  # lexicographically descending
        if _schedule_keeps(shape):
            levels.setdefault(len(shape), []).append(shape)
    return [(m, tuple(levels[m])) for m in sorted(levels)]


@lru_cache(maxsize=1)
def _block_ranks(g: Graph) -> dict:
    """The rank memo of g's blocks, block mask -> has full cut-rank, kept for
    the graph most recently searched."""
    return {}


def _set_partitions(n: int, shape, g: Graph | None):
    """All set partitions of {1..n} with the size multiset ``shape`` (a
    non-increasing tuple), each a tuple of block masks (bit q-1 for qubit
    q) ordered by their least bit (the canonical encoding); given a graph
    g, only those whose blocks all have full cut-rank in g, in the same
    order.

    The recursion carries the uncovered qubits as one mask, anchors its
    lowest bit and chooses the other members of its block in ascending
    order, so a block that fails the rank test is dropped before any
    partition is built on it.  Block ranks are memoized per graph
    (``_block_ranks``), so the shapes of one search share them.
    """
    full_rank = _block_ranks(g) if g is not None else None

    def rec(uncovered, sizes):
        if not uncovered:
            yield ()
            return
        anchor = uncovered & -uncovered
        others = []  # the other uncovered bits, ascending
        rest = uncovered ^ anchor
        while rest:
            low = rest & -rest
            others.append(low)
            rest ^= low
        for size, remaining in _size_choices(sizes):
            for members in combinations(others, size - 1):
                block = anchor + sum(members)
                if full_rank is not None:
                    ok = full_rank.get(block)
                    if ok is None:
                        ok = full_rank[block] = cut_rank(g, block) == size
                    if not ok:
                        continue
                for tail in rec(uncovered ^ block, remaining):
                    yield (block,) + tail

    return rec((1 << n) - 1, shape)


@lru_cache(maxsize=None)
def _size_choices(sizes: tuple) -> tuple:
    """``(size, remaining)`` for each distinct size of a non-increasing size
    tuple, largest first, ``remaining`` the tuple with one ``size`` removed."""
    out = []
    for k, size in enumerate(sizes):
        if k == 0 or size != sizes[k - 1]:
            out.append((size, sizes[:k] + sizes[k + 1 :]))
    return tuple(out)


def count_partitions_with_shape(n: int, shape) -> int:
    """Multinomial count: n! / (prod sizes! * prod multiplicity!); a shape
    not summing to n raises ValueError, as in ``enumerate_distributions``."""
    from math import factorial

    shape = _validate_shape(shape)
    if sum(shape) != n:
        raise ValueError(f"shape {shape} does not sum to n={n}")
    total = factorial(n)
    for s in shape:
        total //= factorial(s)
    for s in set(shape):
        total //= factorial(shape.count(s))
    return total


def _closure(start, gens, act):
    """The orbit of ``start`` under the group generated by ``gens``, where
    ``act(x, s)`` is the image of x under the generator s."""
    orbit = {start}
    stack = [start]
    while stack:
        x = stack.pop()
        for s in gens:
            y = act(x, s)
            if y not in orbit:
                orbit.add(y)
                stack.append(y)
    return orbit


def automorphisms(g: Graph) -> list:
    """All adjacency-preserving vertex permutations, as sorted 0-based tuples."""
    if g.n > 10:
        raise ResourceLimitError(f"automorphism search limited to n <= 10, got {g.n}")
    gens, _ = automorphism_group(g)
    return sorted(_closure(tuple(range(g.n)), gens, lambda p, s: tuple([s[v] for v in p])))


def enumerate_distributions(
    g: Graph, shape, dedupe: bool = True, *, full_rank_only: bool = False
):
    """Stream distributions of g's qubits with the given shape.

    Inside, a distribution is a tuple of block masks ordered by least bit
    (``_set_partitions``); only the stream holds particle tuples.  Each block
    becomes its sorted particle tuple (``qubits_of``) once per call, through
    a memo.

    With ``dedupe`` every orbit of the automorphism group contributes exactly
    one representative: the member whose particle tuples are
    lexicographically least, found by closing its first member under the
    canonical search's generators.  A generator moves a block mask through
    the image bits of its qubits, and an image's blocks are ordered by least
    bit again.  The generators are computed only when the first distribution
    is about to be yielded, and not at all for the all-singletons shape,
    whose one partition every automorphism fixes.  The blocks are built
    disjoint and covering, so they are yielded without a second check.

    With ``full_rank_only`` the stream keeps only the distributions whose
    particles all have full cut-rank, E(A) = |A|, which are exactly those
    that allow a specific proof.  Blocks are tested inside the set-partition
    recursion, so the stream is the default one with every other
    distribution removed, in the same order.  Cut-rank is invariant under
    automorphisms, so the kept set is a union of orbits and the deduped
    representatives are unchanged too.
    """
    shape = _validate_shape(shape)
    if sum(shape) != g.n:
        raise ValueError(f"shape {shape} does not sum to n={g.n}")
    stream = _set_partitions(g.n, shape, g if full_rank_only else None)
    particle = lru_cache(maxsize=None)(qubits_of)
    if not dedupe or shape[0] == 1:
        for blocks in stream:
            yield Distribution._trusted(g.n, tuple(map(particle, blocks)))
        return

    def mover(perm):
        """The memoized image of a block mask under a 0-based permutation."""
        bits = (0,) + tuple([1 << v for v in perm])  # bits[q]: the image of qubit q
        return lru_cache(maxsize=None)(lambda block: sum(map(bits.__getitem__, particle(block))))

    def image(blocks, move):
        return tuple(sorted(map(move, blocks), key=lambda block: block & -block))

    moves = None
    seen = set()
    for blocks in stream:
        if blocks in seen:
            continue
        if moves is None:
            moves = [mover(perm) for perm in automorphism_group(g)[0]]
        orbit = _closure(blocks, moves, image)
        seen |= orbit
        yield Distribution._trusted(g.n, min([tuple(map(particle, b)) for b in orbit]))


def _report_sort_key(report: DistributionReport):
    shape = report.distribution.shape()
    return tuple(-s for s in shape), report.distribution.canonical_key()


def _require_connected(g: Graph) -> None:
    if g.n < 3 or not is_connected(g):
        raise UnsupportedInputError("need a connected graph on at least 3 vertices")


def _admitting_reports(g: Graph, shapes, dedupe: bool) -> list:
    """Reports for the distributions of these shapes whose particles all have
    full cut-rank, canonically sorted.  No table is built here."""
    hits = []
    for shape in shapes:
        for dist in enumerate_distributions(g, shape, dedupe=dedupe, full_rank_only=True):
            hits.append(DistributionReport(g, dist))
    hits.sort(key=_report_sort_key)
    return hits


def min_party_distributions(g: Graph, dedupe: bool = True):
    """Smallest particle count admitting a distribution-specific proof.

    Walks the shape schedule in ascending m; the first level with a success
    is returned in full as ``(m, reports)``, reports canonically sorted.
    """
    _require_connected(g)
    for m, shapes in minimal_shapes(g.n):
        hits = _admitting_reports(g, shapes, dedupe)
        if hits:
            return m, hits
    raise AssertionError("singleton level must allow for a connected graph, n >= 3")


def all_avn_distributions(g: Graph, m: int, dedupe: bool = True):
    """Every (deduped) m-particle distribution that allows a specific proof,
    canonically sorted."""
    if not 2 <= m <= g.n:
        raise ValueError(f"m must be in 2..{g.n}, got {m}")
    _require_connected(g)
    shapes = [s for s in integer_partitions(g.n, parts=m) if shape_feasible(s)]
    return _admitting_reports(g, shapes, dedupe)
