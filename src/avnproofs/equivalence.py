"""Local complementation, canonical graph labelling, and the class census.

Two graph states are equivalent under single-qubit Cliffords exactly when
their graphs are related by local complementations and relabelling, so the
census enumerates connected graphs up to isomorphism and merges them into
orbits of the complementation moves.

Canonical labelling uses color refinement with individualization: vertices
are iteratively colored by their neighborhoods, branching only inside
ambiguous color cells (interchangeable twin vertices collapse to one
branch), and the canonical encoding is the least adjacency bitstring over
the surviving orderings.  Two graphs get the same encoding iff they are
isomorphic; a brute-force relabelling sweep backs this up in the tests.
The colour ranks are part of the contract: a different cell order would
pick a different least encoding and so change the printed representatives.

The census canonicalizes only what it must.  Vertex extension keeps a child
only when its new vertex has the largest (degree, sum of neighbour degrees)
key among the non-cut vertices (see ``connected_graph_reps``), and the
orbit walk skips local complements that give a graph already found: at a
vertex of degree at most 1, at a twin of an earlier vertex, and at the
vertex leading back to the member it was reached from (see ``lc_orbit``).
Both rules are exact; the tests compare them with the unpruned versions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .errors import ResourceLimitError, UnsupportedInputError
from .graphstate import Graph, is_connected
from .partitions import automorphisms

#: Exhaustive-mode guard for canonical forms and orbits.
MAX_CANONICAL_VERTICES = 10
MAX_CENSUS_VERTICES = 8


def local_complement(g: Graph, v: int) -> Graph:
    """Toggle every edge between neighbors of 1-based vertex v."""
    nbrs = g.nbr_mask(v)
    adj = list(g.adj)
    m = nbrs
    while m:
        low = m & -m
        u = low.bit_length() - 1
        adj[u] ^= nbrs & ~low
        m ^= low
    return Graph(g.n, tuple(adj))


@dataclass(frozen=True)
class CanonicalGraph:
    """Canonical encoding plus one original-to-canonical vertex map."""

    n: int
    encoding: int
    perm: tuple = field(compare=False)  # perm[v] = canonical slot of 0-based v


def _refine(nbrs, colors, count):
    """Stable neighbourhood colouring from dense ranks ``colors`` (``count``
    colours): each round ranks the vertices by their colour followed by
    their sorted neighbour colours, so the ranks are isomorphism-invariant
    and every cell keeps its place in the colour order.  A round that adds
    no colour changes no rank, so the loop stops there; a discrete colouring
    needs no round.  Returns (colors, count)."""
    n = len(nbrs)
    while count < n:
        sigs = [(c, *sorted([colors[u] for u in nb])) for c, nb in zip(colors, nbrs)]
        distinct = set(sigs)
        if len(distinct) == count:
            break
        ranks = {s: i for i, s in enumerate(sorted(distinct))}
        colors = [ranks[s] for s in sigs]
        count = len(distinct)
    return colors, count


def _twin_masks(adj):
    """twin[v] = mask of vertices interchangeable with v by a transposition.

    v and w are twins when their neighbourhoods agree outside {v, w}: equal
    open neighbourhoods when they are not adjacent, equal closed ones when
    they are.
    """
    open_nbhd = {}
    closed_nbhd = {}
    for v, a in enumerate(adj):
        b = 1 << v
        open_nbhd[a] = open_nbhd.get(a, 0) | b
        closed_nbhd[a | b] = closed_nbhd.get(a | b, 0) | b
    return [
        (open_nbhd[a] | closed_nbhd[a | (1 << v)]) & ~(1 << v)
        for v, a in enumerate(adj)
    ]


@lru_cache(maxsize=None)
def _bit_lists(n):
    """bits[mask] = the set bits of an n-bit mask, ascending."""
    return tuple(tuple(u for u in range(n) if (m >> u) & 1) for m in range(1 << n))


@lru_cache(maxsize=None)
def _edge_weights(n):
    """weights[a][b] = the encoding bit of an edge between slots a and b.

    The encoding packs, for j = 1..n-1, the block of slot j's edges to the
    slots below it (bit i for slot i), earlier blocks more significant.
    """
    offset = [(n - 1) * n // 2 - j * (j + 1) // 2 for j in range(n)]
    return tuple(
        tuple(1 << (offset[max(a, b)] + min(a, b)) if a != b else 0 for b in range(n))
        for a in range(n)
    )


def _canonical(adj):
    """(encoding, perm) minimizing the bitstring over refinement-compatible orders."""
    n = len(adj)
    if n == 1:
        return 0, (0,)
    bits = _bit_lists(n)
    nbrs = [bits[a] for a in adj]
    edges = [(v, u) for v, a in enumerate(adj) for u in bits[a & ((1 << v) - 1)]]
    weights = _edge_weights(n)
    degrees = [len(nb) for nb in nbrs]
    ranks = {d: i for i, d in enumerate(sorted(set(degrees)))}
    best = [None, None]
    twins = None

    def descend(colors, count):
        nonlocal twins
        if count == n:
            enc = sum([weights[colors[v]][colors[u]] for v, u in edges])
            if best[0] is None or enc < best[0]:
                best[0] = enc
                best[1] = tuple(colors)
            return
        sizes = [0] * count
        for c in colors:
            sizes[c] += 1
        target = next(c for c in range(count) if sizes[c] > 1)
        if twins is None:
            twins = _twin_masks(adj)
        kept = 0
        for v in range(n):
            if colors[v] != target or twins[v] & kept:
                continue
            kept |= 1 << v
            # individualize v: it keeps the cell's rank, the rest of the
            # cell and every higher colour move up by one
            split = [c + (c >= target) for c in colors]
            split[v] = target
            descend(*_refine(nbrs, split, count + 1))

    descend(*_refine(nbrs, [ranks[d] for d in degrees], len(ranks)))
    return best[0], best[1]


def canonical_form(g: Graph) -> CanonicalGraph:
    """Canonical encoding of the graph; equal encodings iff isomorphic."""
    if g.n > MAX_CANONICAL_VERTICES:
        raise ResourceLimitError(
            f"canonical form limited to n <= {MAX_CANONICAL_VERTICES}, got {g.n}"
        )
    enc, perm = _canonical(g.adj)
    return CanonicalGraph(g.n, enc, perm)


def graph_from_encoding(n: int, encoding: int) -> Graph:
    """Rebuild the graph whose canonical-order bitstring is ``encoding``."""
    blocks = []
    for j in range(n - 1, 0, -1):
        blocks.append(encoding & ((1 << j) - 1))
        encoding >>= j
    blocks.reverse()
    adj = [0] * n
    for j in range(1, n):
        block = blocks[j - 1]
        for i in range(j):
            if (block >> i) & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return Graph(n, tuple(adj))


def lc_orbit(g: Graph) -> set:
    """Closure of the graph under local complementation, as canonical forms.

    Members are expanded last-found first, and at each member three kinds
    of vertex are skipped, each because its local complement is isomorphic
    to a graph already in the orbit:

    - degree at most 1: the local complement is the graph itself;
    - a twin w of an earlier vertex v (neighbourhoods equal outside
      {v, w}): the transposition (v w) is an automorphism, so LC_w gives a
      graph isomorphic to LC_v's;
    - the way back: LC is an involution, so if a member's canonical form
      came from LC_v(h), LC at its slot ``perm[v]`` rebuilds h.

    No skip drops a new member, so members are found in the same order, with
    the same perms, as by complementing at every vertex.
    """
    if not is_connected(g):
        raise UnsupportedInputError("orbit computation needs a connected graph")
    if g.n > MAX_CENSUS_VERTICES:
        raise ResourceLimitError(
            f"orbit computation limited to n <= {MAX_CENSUS_VERTICES}, got {g.n}"
        )
    start = canonical_form(g)
    seen = {start}
    by_encoding = {start.encoding}
    back = {}  # encoding -> mask of slots leading back into the orbit
    frontier = [start]
    while frontier:
        cg = frontier.pop()
        h = graph_from_encoding(cg.n, cg.encoding)
        skip = back.get(cg.encoding, 0)
        for x, twins in enumerate(_twin_masks(h.adj)):
            if (skip >> x) & 1 or twins & ((1 << x) - 1) or h.adj[x].bit_count() <= 1:
                continue
            img = canonical_form(local_complement(h, x + 1))
            back[img.encoding] = back.get(img.encoding, 0) | (1 << img.perm[x])
            if img.encoding not in by_encoding:
                by_encoding.add(img.encoding)
                seen.add(img)
                frontier.append(img)
    return seen


def _components_without(adj, u):
    """Vertex masks of the components left when vertex u is deleted."""
    rest = ((1 << len(adj)) - 1) & ~(1 << u)
    comps = []
    while rest:
        comp = frontier = rest & -rest
        while frontier:
            nxt = 0
            m = frontier
            while m:
                low = m & -m
                nxt |= adj[low.bit_length() - 1]
                m ^= low
            frontier = nxt & rest & ~comp
            comp |= frontier
        comps.append(comp)
        rest &= ~comp
    return comps


@lru_cache(maxsize=None)
def connected_graph_reps(n: int):
    """Canonical encodings of all connected graphs on n vertices, one per
    isomorphism class, sorted ascending.

    Generated by vertex extension: every connected graph arises from a
    connected graph on one vertex fewer by attaching the new vertex to a
    nonempty subset (a non-cutvertex always exists), and subsets equivalent
    under the parent's automorphisms give isomorphic children.

    Only children whose new vertex has the largest key (degree, sum of
    neighbour degrees) among the non-cut vertices are canonicalized.  The
    filter is exact: in any connected graph G pick a non-cut vertex u of
    largest key; G - u is connected, hence a parent, and attaching the new
    vertex to the orbit representative of N(u) rebuilds G with the new
    vertex in u's place, whose key is the largest.  The key is invariant
    under isomorphisms fixing the new vertex, so a rejected subset's whole
    orbit is rejected too and only accepted orbits are recorded.
    """
    if not 1 <= n <= MAX_CENSUS_VERTICES:
        raise ResourceLimitError(f"census limited to n <= {MAX_CENSUS_VERTICES}")
    if n == 1:
        return (0,)
    reps = set()
    for parent_enc in connected_graph_reps(n - 1):
        parent = graph_from_encoding(n - 1, parent_enc)
        padj = parent.adj
        pdeg = [a.bit_count() for a in padj]
        psum = [sum(pdeg[u] for u in range(n - 1) if (a >> u) & 1) for a in padj]
        # deleting v from the child leaves it connected iff the new vertex
        # meets every component of parent - v
        pcomps = [_components_without(padj, v) for v in range(n - 1)]
        auts = [p for p in automorphisms(parent) if p != tuple(range(n - 1))]
        seen_subsets = set()
        for subset in range(1, 1 << (n - 1)):
            if subset in seen_subsets:
                continue
            # child keys: a vertex in the subset gains one degree and a
            # neighbour of degree |subset|; every vertex gains one per
            # neighbour in the subset
            size = subset.bit_count()
            hits = [(a & subset).bit_count() for a in padj]
            top = (size, size + sum(hits))
            beaten = False
            for v in range(n - 1):
                s_v = (subset >> v) & 1
                if (pdeg[v] + s_v, psum[v] + hits[v] + s_v * size) > top and all(
                    subset & c for c in pcomps[v]
                ):
                    beaten = True
                    break
            if beaten:
                continue
            if auts:
                orbit = {subset}
                for perm in auts:
                    img = 0
                    m = subset
                    while m:
                        low = m & -m
                        img |= 1 << perm[low.bit_length() - 1]
                        m ^= low
                    orbit.add(img)
                seen_subsets |= orbit
            adj = [a | (((subset >> v) & 1) << (n - 1)) for v, a in enumerate(padj)]
            adj.append(subset)
            reps.add(_canonical(adj)[0])
    return tuple(sorted(reps))


@dataclass
class GraphClassRecord:
    """One equivalence class of the census."""

    class_id: int
    n: int
    representative: Graph
    orbit_size: int
    aut_order: int

    def to_json_dict(self) -> dict:
        return {
            "class_id": self.class_id,
            "n": self.n,
            "representative": [list(e) for e in self.representative.edges()],
            "orbit_size": self.orbit_size,
            "aut_order": self.aut_order,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "GraphClassRecord":
        rep = Graph.from_edges(data["n"], [tuple(e) for e in data["representative"]])
        return cls(data["class_id"], data["n"], rep, data["orbit_size"], data["aut_order"])


@lru_cache(maxsize=None)
def _classify_cached(n: int):
    reps = connected_graph_reps(n)
    rep_set = set(reps)
    visited = set()
    classes = []
    for enc in reps:
        if enc in visited:
            continue
        orbit = lc_orbit(graph_from_encoding(n, enc))
        encodings = {cg.encoding for cg in orbit}
        if not encodings <= rep_set:
            raise AssertionError("orbit left the connected census")
        visited |= encodings
        classes.append((min(encodings), len(encodings)))
    classes.sort()
    records = []
    for class_id, (enc, orbit_size) in enumerate(classes, start=1):
        rep = graph_from_encoding(n, enc)
        records.append(
            GraphClassRecord(class_id, n, rep, orbit_size, len(automorphisms(rep)))
        )
    return tuple(records)


def classify_all(n: int) -> list:
    """All classes of connected n-vertex graph states, deterministic order."""
    if not 2 <= n <= MAX_CENSUS_VERTICES:
        raise ValueError(f"census supports 2 <= n <= {MAX_CENSUS_VERTICES}, got {n}")
    return list(_classify_cached(n))
