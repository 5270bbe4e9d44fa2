"""Local complementation, canonical graph labelling, and the class census.

Two graph states are equivalent under single-qubit Cliffords exactly when
their graphs are related by local complementations and relabelling, so the
census enumerates connected graphs up to isomorphism and merges them into
orbits of the complementation moves.

Canonical labelling uses color refinement with individualization: vertices
are iteratively colored by their neighborhoods, branching only inside
ambiguous color cells, and the canonical encoding is the least adjacency
bitstring over the orderings the search reaches.  Two graphs get the same
encoding iff they are isomorphic; a brute-force relabelling sweep backs
this up in the tests.  The colour ranks are part of the contract: a
different cell order would pick a different least encoding and so change
the printed representatives.

The search also returns generators of the automorphism group, and prunes
by them (McKay & Piperno, "Practical graph isomorphism, II", 2014).  The
transpositions of consecutive twins (vertices whose neighbourhoods agree
outside the pair) are automorphisms, and so is the map between two leaves
with the same encoding.  A branch is skipped when an automorphism found so
far fixes the individualized vertices and maps an explored sibling onto it:
its subtree is the image of one already searched, so the first least leaf,
and with it the encoding and the perm, is the one of the unpruned search.
It is the package's only search over vertex orderings: the group order is
a product of orbit lengths along its base (``automorphism_group``), and
orbit dedupe closes orbits under its generators, so no group is listed.

The census canonicalizes only what it must and reuses the generators.
Vertex extension keeps a child only when its new vertex has the largest
(degree, sum of neighbour degrees) key among the non-cut vertices, and
attaches one subset per orbit of the parent's generators (see
``_children``).  The orbit walk complements each member only at the least
vertex of each automorphism orbit, and skips vertices of degree at most 1
and orbits leading back to the member they were reached from (see
``lc_orbit``).  Every rule is exact; the tests compare them with the
unpruned versions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .errors import ResourceLimitError, UnsupportedInputError, record_field, require_own_record
from .graphstate import Graph, is_connected

MAX_CENSUS_VERTICES = 8


def _complement_at(adj, x):
    """Adjacency masks after local complementation at 0-based vertex x."""
    nbrs = adj[x]
    out = list(adj)
    m = nbrs
    while m:
        low = m & -m
        out[low.bit_length() - 1] ^= nbrs & ~low
        m ^= low
    return out


def local_complement(g: Graph, v: int) -> Graph:
    """Toggle every edge between neighbors of 1-based vertex v."""
    g.nbr_mask(v)  # rejects a vertex out of range
    return Graph(g.n, tuple(_complement_at(g.adj, v - 1)))


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
    needs no round.  Returns (colors, count).

    The colours must refine the degree ranking, so the vertices of one cell
    have equal degree and their sorted neighbour-colour lists compare like
    colour-count vectors read "more of a smaller colour first".  A vertex of
    colour c is keyed by one integer, ``base[c]`` minus the ``weight`` of
    each neighbour's colour (see ``_key_tables``): the weights give a
    smaller colour the more significant digit and no count reaches the
    digit's base, so the keys sort exactly like the (colour, sorted
    neighbour colours) tuples.  A singleton cell cannot split and skips its
    neighbour scan.
    """
    n = len(nbrs)
    weight, base = _key_tables(n)
    while count < n:
        sizes = [0] * count
        for c in colors:
            sizes[c] += 1
        keys = [
            base[c] - sum([weight[colors[u]] for u in nb]) if sizes[c] > 1 else base[c]
            for c, nb in zip(colors, nbrs)
        ]
        distinct = set(keys)
        if len(distinct) == count:
            break
        ranks = {k: i for i, k in enumerate(sorted(distinct))}
        colors = [ranks[k] for k in keys]
        count = len(distinct)
    return colors, count


@lru_cache(maxsize=None)
def _key_tables(n):
    """(weight, base) of the refinement keys for n vertices: with digits of
    shift = n.bit_length() bits, weight[c] = 2 ** (shift * (n - 1 - c)) and
    base[c] = c << (shift * n), above every sum of n - 1 weights."""
    shift = n.bit_length()
    return (
        tuple(1 << shift * (n - 1 - c) for c in range(n)),
        tuple(c << shift * n for c in range(n)),
    )


def _twin_masks(adj):
    """twin[v] = mask of vertices interchangeable with v by a transposition.

    v and w are twins when their neighbourhoods agree outside {v, w}: equal
    open neighbourhoods when they are not adjacent, equal closed ones when
    they are.  Both relations are equivalences and no vertex has twins of
    both kinds, so the twin classes partition the vertices.
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
def _bits(mask):
    """The set bits of ``mask``, ascending."""
    return tuple([u for u in range(mask.bit_length()) if (mask >> u) & 1])


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


def _orbit(v, gens):
    """Mask of v's orbit under the group generated by ``gens``."""
    orbit = 1 << v
    stack = [v]
    while stack:
        u = stack.pop()
        for s in gens:
            w = s[u]
            if not (orbit >> w) & 1:
                orbit |= 1 << w
                stack.append(w)
    return orbit


def _canonical(adj):
    """(encoding, perm, gens, base): the least bitstring over
    refinement-compatible orders, the first order reaching it, generators of
    the automorphism group, each a tuple mapping 0-based v to its image, and
    the vertices individualized on the path to that order, in order.

    A branch is pruned when a generator fixing the individualized prefix
    maps an explored sibling onto it.  The generators are complete: at every
    node on the path to the best leaf, each explored sibling in the
    best child's orbit ends at a leaf equal to the best, and each pruned one
    is reached from an explored one, so the generators fixing the prefix
    give the node's whole stabilizer."""
    n = len(adj)
    nbrs = [_bits(a) for a in adj]
    edges = [(v, u) for v, a in enumerate(adj) for u in _bits(a & ((1 << v) - 1))]
    weights = _edge_weights(n)
    degrees = [len(nb) for nb in nbrs]
    ranks = {d: i for i, d in enumerate(sorted(set(degrees)))}
    best = [None, None, None, None]  # encoding, colours, slot -> vertex, base
    gens = []
    fixes = []  # fixes[k] = mask of the vertices gens[k] fixes
    path = []  # the individualized vertices, in order

    def add_gen(s):
        gens.append(s)
        fixes.append(sum([1 << v for v in range(n) if s[v] == v]))

    def descend(colors, count, prefix):
        if count == n:
            enc = sum([weights[colors[v]][colors[u]] for v, u in edges])
            if best[0] is None or enc < best[0]:
                inverse = [0] * n
                for v, c in enumerate(colors):
                    inverse[c] = v
                best[:] = enc, tuple(colors), inverse, tuple(path)
            elif enc == best[0]:
                # both orders give the same graph, so mapping each vertex to
                # the best order's vertex in its slot is an automorphism
                inverse = best[2]
                add_gen(tuple([inverse[c] for c in colors]))
            return
        sizes = [0] * count
        for c in colors:
            sizes[c] += 1
        target = next(c for c in range(count) if sizes[c] > 1)
        explored = 0
        for v in range(n):
            if colors[v] != target:
                continue
            if explored:
                # an automorphism fixing the prefix maps an explored sibling's
                # subtree onto v's, leaf encodings and all
                stab = [s for s, f in zip(gens, fixes) if not prefix & ~f]
                if stab and _orbit(v, stab) & explored:
                    continue
            explored |= 1 << v
            # individualize v: it keeps the cell's rank, the rest of the
            # cell and every higher colour move up by one
            split = [c + (c >= target) for c in colors]
            split[v] = target
            path.append(v)
            descend(*_refine(nbrs, split, count + 1), prefix | 1 << v)
            path.pop()

    colors, count = _refine(nbrs, [ranks[d] for d in degrees], len(ranks))
    if count < n:
        # a discrete colouring leaves no automorphism; otherwise the
        # transpositions of consecutive twins generate each twin class's
        # symmetric group
        for v, t in enumerate(_twin_masks(adj)):
            below = t & ((1 << v) - 1)
            if below:
                s = list(range(n))
                u = below.bit_length() - 1
                s[u], s[v] = v, u
                add_gen(tuple(s))
    descend(colors, count, 0)
    return best[0], best[1], tuple(gens), best[3]


def canonical_form(g: Graph) -> CanonicalGraph:
    """Canonical encoding of the graph; equal encodings iff isomorphic."""
    enc, perm, _, _ = _canonical(g.adj)
    return CanonicalGraph(g.n, enc, perm)


def automorphism_group(g: Graph):
    """(gens, order): the canonical search's automorphism generators and the
    group's order.  With base the vertices the search individualized on its
    path to the best leaf, the generators fixing base[:k] generate the
    stabilizer G_k of base[:k] (see ``_canonical``) and the last G_k is
    trivial, so |Aut| is the product over k of |G_k| / |G_k+1|, the orbit
    length of base[k] under G_k (McKay & Piperno 2014)."""
    _, _, gens, base = _canonical(g.adj)
    order = 1
    for k, v in enumerate(base):
        order *= _orbit(v, [s for s in gens if all([s[u] == u for u in base[:k]])]).bit_count()
    return gens, order


def _decode(n, encoding):
    """Adjacency masks of the graph whose canonical-order bitstring is
    ``encoding``."""
    adj = [0] * n
    for j in range(n - 1, 0, -1):
        block = encoding & ((1 << j) - 1)
        encoding >>= j
        adj[j] |= block
        m = block
        while m:
            low = m & -m
            adj[low.bit_length() - 1] |= 1 << j
            m ^= low
    return adj


def graph_from_encoding(n: int, encoding: int) -> Graph:
    """The graph whose canonical-order bitstring is ``encoding``, 0 <= encoding < 2^C(n, 2)."""
    if not 0 <= encoding < 1 << n * (n - 1) // 2:
        raise ValueError(f"encoding {encoding} out of range for n={n}")
    return Graph(n, tuple(_decode(n, encoding)))


def _to_slots(gens, perm):
    """The automorphisms ``gens`` of a graph, moved onto its canonical
    slots: s'(perm[v]) = perm[s(v)]."""
    out = []
    for s in gens:
        t = [0] * len(perm)
        for v, p in enumerate(perm):
            t[p] = perm[s[v]]
        out.append(tuple(t))
    return out


def lc_orbit(g: Graph) -> set:
    """Closure of the graph under local complementation, as canonical forms.

    Members are expanded last-found first.  Each member carries the
    automorphism generators of the search that canonicalized it, moved onto
    its canonical slots, and is complemented only at the least vertex x of
    each automorphism orbit, and only when

    - deg x >= 2: otherwise the local complement is the graph itself;
    - the orbit holds no way-back slot: LC is an involution, so if a
      member's canonical form came from LC_v(h), LC at its slot ``perm[v]``
      rebuilds h.

    An automorphism mapping x to y maps LC_x(h) onto LC_y(h), so a skipped
    vertex only gives a graph already in the orbit.  No skip drops a new
    member, so members are found in the same order, with the same perms, as
    by complementing at every vertex.
    """
    if not is_connected(g):
        raise UnsupportedInputError("orbit computation needs a connected graph")
    if g.n > MAX_CENSUS_VERTICES:
        raise ResourceLimitError(
            f"orbit computation limited to n <= {MAX_CENSUS_VERTICES}, got {g.n}"
        )
    n = g.n
    enc, perm, gens, _ = _canonical(g.adj)
    members = {CanonicalGraph(n, enc, perm)}
    found = {enc}
    back = {}  # encoding -> mask of slots leading back into the orbit
    frontier = [(enc, _to_slots(gens, perm))]
    while frontier:
        enc, auts = frontier.pop()
        adj = _decode(n, enc)
        skip = back.get(enc, 0)
        covered = 0
        for x in range(n):
            if (covered >> x) & 1:
                continue
            orbit = _orbit(x, auts)
            covered |= orbit
            if orbit & skip or adj[x].bit_count() <= 1:
                continue
            img, img_perm, img_gens, _ = _canonical(_complement_at(adj, x))
            back[img] = back.get(img, 0) | (1 << img_perm[x])
            if img not in found:
                found.add(img)
                members.add(CanonicalGraph(n, img, img_perm))
                frontier.append((img, _to_slots(img_gens, img_perm)))
    return members


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
    isomorphism class, sorted ascending."""
    if n < 1:
        raise ValueError(f"census needs n >= 1, got {n}")
    if n > MAX_CENSUS_VERTICES:
        raise ResourceLimitError(f"census limited to n <= {MAX_CENSUS_VERTICES}")
    if n == 1:
        return (0,)
    return tuple(sorted({enc for enc, _, _, _ in _children(n)}))


@lru_cache(maxsize=None)
def _parents(n):
    """encoding -> automorphism generators in canonical slots, for every
    connected n-vertex graph up to isomorphism."""
    if n == 1:
        return {0: []}
    reps = {}
    for enc, perm, gens, _ in _children(n):
        if enc not in reps:
            reps[enc] = _to_slots(gens, perm)
    return reps


def _children(n):
    """(encoding, perm, gens, base) of every child the vertex extension
    canonicalizes; together they meet every connected n-vertex graph.

    Every connected graph arises from a connected graph on one vertex fewer
    by attaching the new vertex to a nonempty subset (a non-cutvertex always
    exists), and subsets equivalent under the parent's automorphisms give
    isomorphic children, so each accepted subset's orbit under the parent's
    generators is closed and skipped.

    Only children whose new vertex has the largest key (degree, sum of
    neighbour degrees) among the non-cut vertices are canonicalized.  The
    filter is exact: in any connected graph G pick a non-cut vertex u of
    largest key; G - u is connected, hence a parent, and attaching the new
    vertex to the orbit representative of N(u) rebuilds G with the new
    vertex in u's place, whose key is the largest.  The key is invariant
    under isomorphisms fixing the new vertex, so a rejected subset's whole
    orbit is rejected too and only accepted orbits are recorded.
    """
    for parent_enc, auts in _parents(n - 1).items():
        padj = _decode(n - 1, parent_enc)
        pdeg = [a.bit_count() for a in padj]
        psum = [sum(pdeg[u] for u in _bits(a)) for a in padj]
        # deleting v from the child leaves it connected iff the new vertex
        # meets every component of parent - v
        pcomps = [_components_without(padj, v) for v in range(n - 1)]
        # per parent automorphism, the image bit of each vertex
        images = [[1 << t for t in s] for s in auts]
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
            stack = [subset]
            while stack and images:
                m = _bits(stack.pop())
                for image in images:
                    img = sum([image[v] for v in m])
                    if img not in seen_subsets:
                        seen_subsets.add(img)
                        stack.append(img)
            adj = [a | (((subset >> v) & 1) << (n - 1)) for v, a in enumerate(padj)]
            adj.append(subset)
            yield _canonical(adj)


@dataclass(frozen=True)
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
        """The census record ``classify_all(n)[class_id - 1]`` itself; a
        ValueError names every field where ``data`` differs from its
        ``to_json_dict()``, and a missing or non-int ``n`` or ``class_id``
        raises ValueError too."""
        records = classify_all(record_field(data, "n", int))
        class_id = record_field(data, "class_id", int)
        if not 1 <= class_id <= len(records):
            raise ValueError(f"class_id {class_id} out of range 1..{len(records)}")
        record = records[class_id - 1]
        require_own_record(data, record.to_json_dict())
        return record


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
            GraphClassRecord(class_id, n, rep, orbit_size, automorphism_group(rep)[1])
        )
    return tuple(records)


def classify_all(n: int) -> list:
    """All classes of connected n-vertex graph states, deterministic order.

    The records are the census cache's own, frozen instances."""
    if not 2 <= n <= MAX_CENSUS_VERTICES:
        raise ValueError(f"census supports 2 <= n <= {MAX_CENSUS_VERTICES}, got {n}")
    return list(_classify_cached(n))
