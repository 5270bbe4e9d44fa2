import dataclasses
import itertools
import json
import math
import random
from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avnproofs import (
    Graph,
    GraphClassRecord,
    ResourceLimitError,
    UnsupportedInputError,
    canonical_form,
    classify_all,
    complete_graph,
    connected_graph_reps,
    graph_from_encoding,
    is_connected,
    lc_orbit,
    local_complement,
    parse_graph,
    path_graph,
    relabel,
    ring_graph,
    star_graph,
)
from avnproofs import equivalence
from avnproofs.equivalence import automorphism_group
from oracles import (
    CONNECTED_GRAPH_COUNTS,
    aut_order_by_point_stabilizers,
    automorphisms_by_backtracking,
    classes_by_extension,
    connected_edge_set,
    connected_reps_by_full_extension,
    edge_sets,
    group_order,
    lc_orbit_by_full_walk,
    reference_canonical,
    refine_by_sorted_neighbours,
)


def test_local_complement_degree_one_neighborhood_is_noop():
    g = Graph.from_edges(2, [(1, 2)])
    assert local_complement(g, 1) == g


def test_local_complement_path3_center_gives_triangle():
    assert local_complement(path_graph(3), 2) == complete_graph(3)


def test_local_complement_star_center_gives_complete():
    for n in (4, 5, 6, 7):
        assert local_complement(star_graph(n), 1) == complete_graph(n)


def test_local_complement_is_involution_and_preserves_connectivity():
    for n in range(2, 7):
        for record in classify_all(n):
            g = record.representative
            for v in range(1, n + 1):
                h = local_complement(g, v)
                assert is_connected(h)
                assert local_complement(h, v) == g


def test_canonical_form_invariant_under_relabelling():
    rng = random.Random(123)
    graphs = [path_graph(6), ring_graph(7), star_graph(8), parse_graph("6: 1-2, 2-3, 3-4, 4-5, 3-6")]
    graphs += [rec.representative for rec in classify_all(5)]
    for g in graphs:
        base = canonical_form(g)
        for _ in range(100):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert canonical_form(relabel(g, tuple(perm))).encoding == base.encoding


def _assert_matches_reference(g):
    cg = canonical_form(g)
    assert (cg.encoding, cg.perm) == reference_canonical(g.adj)


def test_canonical_matches_reference_on_every_small_labelled_graph():
    for n in range(1, 6):
        for edges in edge_sets(n):
            _assert_matches_reference(Graph.from_edges(n, edges))


def test_canonical_matches_reference_on_census_graphs_and_lc_images():
    for n in range(1, 8):
        for enc in connected_graph_reps(n):
            g = graph_from_encoding(n, enc)
            _assert_matches_reference(g)
            for v in range(1, n + 1):
                _assert_matches_reference(local_complement(g, v))


@st.composite
def graphs(draw, max_n, connected):
    """A random graph; when ``connected``, a random tree plus extra edges."""
    n = draw(st.integers(2 if connected else 1, max_n))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = {pair for pair, k in zip(pairs, keep) if k}
    if connected:
        edges |= {(draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)}
    return Graph.from_edges(n, edges)


@settings(max_examples=300, deadline=None)
@given(graphs(10, connected=False))
def test_canonical_matches_reference(g):
    _assert_matches_reference(g)


def _by_search(adj):
    """``_canonical``'s search below the root colouring, with no shortcut."""
    nbrs = [equivalence._bits(a) for a in adj]
    twin_gens = equivalence._transpositions(equivalence._twin_masks(adj))
    return equivalence._search(adj, nbrs, *equivalence._root(nbrs), twin_gens)


def _shortcut_paths(monkeypatch, adjs):
    """How many of ``adjs`` take each of ``_canonical``'s paths, each
    result checked field by field against the search's."""
    expected = [_by_search(adj) for adj in adjs]
    search = equivalence._search
    searched = []

    def counted(*args):
        searched.append(1)
        return search(*args)

    monkeypatch.setattr(equivalence, "_search", counted)
    paths = {"discrete": 0, "twin classes": 0, "search": 0}
    for adj, want in zip(adjs, expected):
        before = len(searched)
        got = equivalence._canonical(adj)
        assert got == want, adj
        paths["search" if len(searched) > before else "twin classes" if got[3] else "discrete"] += 1
    return paths


def test_root_shortcuts_match_the_search(monkeypatch):
    adjs = [list(Graph.from_edges(n, edges).adj) for n in range(1, 6) for edges in edge_sets(n)]
    for n in range(1, 8):
        for enc in connected_graph_reps(n):
            adj = equivalence._decode(n, enc)
            adjs.append(adj)
            adjs += [equivalence._complement_at(adj, x) for x in range(n)]
    paths = _shortcut_paths(monkeypatch, adjs)
    assert min(paths.values()) > 0, paths


@st.composite
def twin_blowups(draw):
    """A random graph on at most 5 vertices with each vertex blown up into
    an open or a closed twin class of 1-3 vertices, at most 12 in all,
    randomly relabelled; as adjacency masks."""
    g = draw(graphs(5, connected=False))
    classes = []
    total = 0
    for v in range(g.n):
        size = draw(st.integers(1, min(3, 12 - total - (g.n - 1 - v))))
        classes.append((range(total, total + size), draw(st.booleans())))
        total += size
    label = draw(st.permutations(range(total)))
    adj = [0] * total
    for v, (members, closed) in enumerate(classes):
        joined = [w for u, (others, _) in enumerate(classes) if (g.adj[v] >> u) & 1 for w in others]
        for a in members:
            for b in joined + [b for b in members if closed and b != a]:
                adj[label[a]] |= 1 << label[b]
    return adj


@settings(max_examples=200, deadline=None)
@given(twin_blowups())
def test_root_shortcuts_match_the_search_on_twin_blowups(adj):
    assert equivalence._canonical(adj) == _by_search(adj)


def _generators(g):
    """The search's generators, each checked to preserve adjacency."""
    _, _, gens, _ = equivalence._canonical(g.adj)
    for s in gens:
        assert sorted(s) == list(range(g.n))
        for v, a in enumerate(g.adj):
            assert g.adj[s[v]] == sum(1 << s[u] for u in range(g.n) if (a >> u) & 1)
    return gens


def test_generators_span_the_automorphism_group_exhaustively():
    rng = random.Random(11)
    for n in range(1, 8):
        for enc in connected_graph_reps(n):
            rep = graph_from_encoding(n, enc)
            assert aut_order_by_point_stabilizers(rep.adj) == len(
                automorphisms_by_backtracking(rep)
            )
            for h in [rep] + [local_complement(rep, v) for v in range(1, n + 1)]:
                perm = list(range(n))
                rng.shuffle(perm)
                g = relabel(h, tuple(perm))
                order = len(automorphisms_by_backtracking(g))
                assert group_order(_generators(g), n) == order
                assert automorphism_group(g)[1] == order


@settings(max_examples=200, deadline=None)
@given(graphs(10, connected=False))
def test_generators_span_the_automorphism_group(g):
    order = aut_order_by_point_stabilizers(g.adj)
    assert group_order(_generators(g), g.n) == order
    assert automorphism_group(g)[1] == order


#: A scan of three relabellings of every connected graph with n <= 8 found
#: this one graph where pruning siblings by every generator, and not only by
#: those that fix the individualized prefix, keeps the encoding and the perm
#: but reads the automorphism group's order as 6.
PRUNING_CASE = parse_graph("8: 1-2, 1-4, 1-5, 1-6, 2-5, 2-6, 2-7, 3-4, 3-5, 3-7, 3-8, 4-6, 4-8, 5-8, 6-7, 7-8")


def test_pruning_uses_only_generators_that_fix_the_prefix():
    """The group order against brute force over all 8! relabellings."""
    g = PRUNING_CASE
    edges = {frozenset(e) for e in g.edges()}
    order = sum(
        all(frozenset((p[i - 1], p[j - 1])) in edges for i, j in g.edges())
        for p in itertools.permutations(range(1, 9))
    )
    assert order == 12
    assert automorphism_group(g)[1] == order


def _cayley(elements, connection):
    """The graph on ``elements`` joining a to every b in connection(a)."""
    index = {a: i for i, a in enumerate(elements, start=1)}
    edges = {
        tuple(sorted((index[a], index[b])))
        for a in elements
        for b in connection(a)
        if a != b
    }
    return Graph.from_edges(len(elements), edges)


Z4_SQUARED = [(i, j) for i in range(4) for j in range(4)]
NAMED_GROUP_ORDERS = {
    "rook-4x4": (
        _cayley(Z4_SQUARED, lambda a: [(a[0], k) for k in range(4)] + [(k, a[1]) for k in range(4)]),
        1152,
    ),
    # Z4 x Z4 with connection set +-(1,0), +-(0,1), +-(1,1)
    "shrikhande": (
        _cayley(
            Z4_SQUARED,
            lambda a: [
                ((a[0] + dx) % 4, (a[1] + dy) % 4)
                for dx, dy in [(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)]
            ],
        ),
        192,
    ),
    "4-cube": (_cayley(list(range(16)), lambda a: [a ^ (1 << k) for k in range(4)]), 384),
    # the 4-cube plus its antipodal edges
    "clebsch": (
        _cayley(list(range(16)), lambda a: [a ^ (1 << k) for k in range(4)] + [a ^ 15]),
        1920,
    ),
    # differences that are nonzero squares mod 13
    "paley-13": (_cayley(list(range(13)), lambda a: [(a + x * x) % 13 for x in range(1, 13)]), 78),
    "path-16": (path_graph(16), 2),
    "ring-16": (ring_graph(16), 32),
    "star-16": (star_graph(16), math.factorial(15)),
    "complete-16": (complete_graph(16), math.factorial(16)),
}


@pytest.mark.parametrize("name", NAMED_GROUP_ORDERS)
def test_group_order_of_named_graphs(name):
    g, order = NAMED_GROUP_ORDERS[name]
    assert automorphism_group(g)[1] == order


def _refine_calls_match_oracle(monkeypatch, graphs_):
    kernel = equivalence._refine
    calls = []

    def checked(nbrs, colors, count):
        out = kernel(nbrs, colors, count)
        assert out == refine_by_sorted_neighbours(nbrs, colors, count)
        calls.append(count)
        return out

    monkeypatch.setattr(equivalence, "_refine", checked)
    for g in graphs_:
        equivalence._canonical(g.adj)
    return calls


def test_refinement_keys_match_sorted_tuples_on_census_graphs(monkeypatch):
    census = [graph_from_encoding(n, e) for n in range(2, 8) for e in connected_graph_reps(n)]
    assert len(_refine_calls_match_oracle(monkeypatch, census)) > len(census)


@settings(max_examples=200, deadline=None)
@given(g=graphs(10, connected=False))
def test_refinement_keys_match_sorted_tuples(g):
    with pytest.MonkeyPatch.context() as monkeypatch:
        _refine_calls_match_oracle(monkeypatch, [g])


class _Watched(tuple):
    """A vertex's neighbour list that logs the vertex each time it is read."""

    def __new__(cls, nb, v, log):
        self = super().__new__(cls, nb)
        self.v, self.log = v, log
        return self

    def __iter__(self):
        self.log.add(self.v)
        return super().__iter__()


def test_refinement_never_reads_a_singleton_cells_neighbours(monkeypatch):
    """A singleton cell cannot split, so ``_refine`` keys it by its colour
    alone: over the census graphs with n <= 6, no vertex alone in its cell
    when a refinement starts has its neighbour list read by it."""
    kernel = equivalence._refine
    watched = {"calls with a singleton": 0, "lists read": 0}

    def checked(nbrs, colors, count):
        log = set()
        out = kernel([_Watched(nb, v, log) for v, nb in enumerate(nbrs)], colors, count)
        sizes = Counter(colors)
        singletons = {v for v, c in enumerate(colors) if sizes[c] == 1}
        assert not log & singletons, (colors, log & singletons)
        watched["calls with a singleton"] += count < len(nbrs) and bool(singletons)
        watched["lists read"] += len(log)
        return out

    monkeypatch.setattr(equivalence, "_refine", checked)
    for n in range(2, 7):
        for enc in connected_graph_reps(n):
            equivalence._canonical(equivalence._decode(n, enc))
    assert min(watched.values()) > 0, watched


#: Canonical searches made by a cold ``classify_all(k)``: vertex extension
#: of every smaller census, the LC orbit walks and the records' groups.
#: Each pruning rule of ``_children`` and ``lc_orbit`` lowers the count.
COLD_CENSUS_SEARCHES = {5: 62, 6: 342, 7: 3056}


def test_cold_census_search_counts(monkeypatch):
    canonical = equivalence._canonical
    calls = []

    def counted(adj):
        calls.append(1)
        return canonical(adj)

    monkeypatch.setattr(equivalence, "_canonical", counted)
    names = ("_classify_cached", "connected_graph_reps", "_parents")
    cached = {name: getattr(equivalence, name) for name in names}
    counts = {}
    for k in COLD_CENSUS_SEARCHES:
        # empty caches for this k; the shared ones come back with monkeypatch
        for name, f in cached.items():
            monkeypatch.setattr(equivalence, name, lru_cache(maxsize=None)(f.__wrapped__))
        calls.clear()
        records = classify_all(k)
        counts[k] = len(calls)
        assert records == list(cached["_classify_cached"](k))
    assert counts == COLD_CENSUS_SEARCHES


def _complete_bipartite(a, b):
    edges = [(i, j) for i in range(1, a + 1) for j in range(a + 1, a + b + 1)]
    return Graph.from_edges(a + b, edges)


@pytest.mark.parametrize("n", range(3, 9))
def test_lc_orbit_matches_full_walk_on_symmetric_families(n):
    family = [star_graph(n), complete_graph(n), ring_graph(n), path_graph(n)]
    family += [_complete_bipartite(a, n - a) for a in range(1, n // 2 + 1)]
    for g in family:
        orbit = lc_orbit(g)
        assert {cg.encoding: cg.perm for cg in orbit} == lc_orbit_by_full_walk(g)


def test_canonical_form_separates_nonisomorphic():
    assert canonical_form(path_graph(4)).encoding != canonical_form(star_graph(4)).encoding
    assert canonical_form(ring_graph(6)).encoding != canonical_form(path_graph(6)).encoding


def test_canonical_perm_maps_onto_representative():
    g = parse_graph("5: 1-2, 2-3, 3-4, 4-5, 2-5")
    cg = canonical_form(g)
    assert relabel(g, cg.perm) == graph_from_encoding(g.n, cg.encoding)


def test_connected_four_vertex_graphs_have_six_classes():
    # brute-force oracle: filter all edge sets, count isomorphism classes
    seen = set()
    for edges in edge_sets(4):
        if not connected_edge_set(4, edges):
            continue
        seen.add(canonical_form(Graph.from_edges(4, edges)).encoding)
    assert len(seen) == 6
    assert len(connected_graph_reps(4)) == 6


def test_connected_reps_match_brute_force_n_le_5():
    for n in range(1, 6):
        brute = set()
        for edges in edge_sets(n):
            if not connected_edge_set(n, edges):
                continue
            brute.add(canonical_form(Graph.from_edges(n, edges)).encoding)
        assert set(connected_graph_reps(n)) == brute
        if n >= 2:
            # the orbits are disjoint and cover every connected graph
            assert sum(r.orbit_size for r in classify_all(n)) == len(brute)


def test_connected_reps_match_full_extension():
    for n in range(1, 8):
        assert connected_graph_reps(n) == connected_reps_by_full_extension(n)


def test_lc_orbit_matches_full_walk():
    for n in range(2, 8):
        for record in classify_all(n):
            orbit = lc_orbit(record.representative)
            assert {cg.encoding: cg.perm for cg in orbit} == lc_orbit_by_full_walk(
                record.representative
            )


@settings(max_examples=25, deadline=None)
@given(graphs(8, connected=True))
def test_pruned_census_matches_unpruned(g):
    assert canonical_form(g).encoding in connected_graph_reps(g.n)
    orbit = lc_orbit(g)
    assert {cg.encoding: cg.perm for cg in orbit} == lc_orbit_by_full_walk(g)


def test_encoding_round_trip():
    for n in (5, 6):
        for enc in connected_graph_reps(n):
            g = graph_from_encoding(n, enc)
            assert canonical_form(g).encoding == enc


@pytest.mark.parametrize("n,enc", [(3, -1), (3, 1 << 3), (3, 1 << 10), (4, 1 << 6), (2, 2)])
def test_encoding_out_of_range_is_rejected(n, enc):
    with pytest.raises(ValueError, match=f"encoding {enc} out of range for n={n}"):
        graph_from_encoding(n, enc)


def test_encoding_range_ends_decode():
    assert graph_from_encoding(3, 0) == Graph.from_edges(3, [])
    assert graph_from_encoding(3, (1 << 3) - 1) == complete_graph(3)


def test_fc3_orbit_is_path_and_triangle():
    orbit = {cg.encoding for cg in lc_orbit(complete_graph(3))}
    assert orbit == {
        canonical_form(path_graph(3)).encoding,
        canonical_form(complete_graph(3)).encoding,
    }


def test_star_and_complete_share_an_orbit():
    for n in (4, 5, 6):
        orbit = {cg.encoding for cg in lc_orbit(star_graph(n))}
        assert canonical_form(complete_graph(n)).encoding in orbit


def test_orbit_is_relabelling_invariant():
    rng = random.Random(5)
    g = parse_graph("6: 1-2, 2-3, 3-4, 4-5, 3-6")
    base = {cg.encoding for cg in lc_orbit(g)}
    for _ in range(5):
        perm = list(range(6))
        rng.shuffle(perm)
        assert {cg.encoding for cg in lc_orbit(relabel(g, tuple(perm)))} == base


def test_classify_counts_up_to_six():
    assert [len(classify_all(n)) for n in range(2, 7)] == [1, 1, 2, 4, 11]


def test_census_matches_class_extension():
    for n in range(2, 8):
        census = [(r.representative, r.orbit_size) for r in classify_all(n)]
        extended = [(graph_from_encoding(n, e), size) for e, size in classes_by_extension(n)]
        assert census == extended


def test_classify_records_are_stable_and_consistent():
    records = classify_all(5)
    again = classify_all(5)
    assert [r.representative for r in records] == [r.representative for r in again]
    assert [r.class_id for r in records] == [1, 2, 3, 4]
    # connected graphs on n vertices up to isomorphism, OEIS A001349
    assert sum(r.orbit_size for r in records) == CONNECTED_GRAPH_COUNTS[5]
    assert len(connected_graph_reps(5)) == CONNECTED_GRAPH_COUNTS[5]
    for r in records:
        assert is_connected(r.representative)
        orbit = lc_orbit(r.representative)
        assert len(orbit) == r.orbit_size
        assert min(cg.encoding for cg in orbit) == canonical_form(r.representative).encoding


def test_class_records_are_frozen_and_load_as_the_cached_record():
    record = classify_all(5)[0]
    before = record.to_json_dict()
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.orbit_size = 99
    assert classify_all(5)[0].to_json_dict() == before
    for n in range(2, 7):
        for record in classify_all(n):
            data = json.loads(json.dumps(record.to_json_dict()))
            assert GraphClassRecord.from_json_dict(data) is record


def test_canonical_form_invariant_under_relabelling_on_named_graphs():
    rng = random.Random(16)
    for g, _ in NAMED_GROUP_ORDERS.values():
        base = canonical_form(g)
        assert relabel(g, base.perm) == graph_from_encoding(g.n, base.encoding)
        for _ in range(5):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert canonical_form(relabel(g, tuple(perm))).encoding == base.encoding


def test_guards():
    with pytest.raises(UnsupportedInputError):
        lc_orbit(Graph.from_edges(4, [(1, 2), (3, 4)]))
    with pytest.raises(ValueError):
        classify_all(9)
    for n in (0, -1):
        with pytest.raises(ValueError, match=f"census needs n >= 1, got {n}"):
            connected_graph_reps(n)
    with pytest.raises(ResourceLimitError):
        connected_graph_reps(9)
    # LC orbits run up to the census limit, n = 8
    assert canonical_form(path_graph(8)) in lc_orbit(path_graph(8))
    with pytest.raises(ResourceLimitError, match=r"^orbit computation limited to n <= 8, got 9$"):
        lc_orbit(path_graph(9))
    # canonical forms run up to the graph size limit, n = 16
    rng = random.Random(9)
    pairs = [(i, j) for i in range(1, 17) for j in range(i + 1, 17)]
    g = Graph.from_edges(16, [p for p in pairs if rng.random() < 0.4])
    perm = list(range(16))
    rng.shuffle(perm)
    assert canonical_form(relabel(g, tuple(perm))).encoding == canonical_form(g).encoding
    with pytest.raises(ValueError):
        local_complement(path_graph(4), 5)
