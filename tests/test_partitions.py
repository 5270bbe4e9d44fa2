import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import avnproofs.partitions as partitions_module
from avnproofs import (
    Distribution,
    ResourceLimitError,
    UnsupportedInputError,
    all_avn_distributions,
    allows_specific_avn,
    automorphisms,
    classify_all,
    complete_graph,
    connected_graph_reps,
    count_partitions_with_shape,
    cut_rank,
    enumerate_distributions,
    graph_from_encoding,
    integer_partitions,
    is_element_of_reality,
    lc_orbit,
    local_complement,
    min_party_distributions,
    minimal_shapes,
    parse_graph,
    path_graph,
    ring_graph,
    shape_feasible,
    star_graph,
)
from oracles import (
    all_avn_by_verdicts,
    aut_order_by_point_stabilizers,
    automorphisms_by_backtracking,
    distributions_by_tuples,
    full_rank_masks,
    full_rank_partitions,
    gf2_rank,
    min_party_by_verdicts,
    refines,
    set_partitions,
)
from strategies import connected_cases

Y6 = parse_graph("6: 1-2, 2-3, 3-4, 4-5, 3-6")


def test_shape_feasibility_examples():
    assert shape_feasible((1, 1))
    assert shape_feasible((2, 2))
    assert not shape_feasible((3, 1))
    assert not shape_feasible((4,))
    assert shape_feasible((3, 2, 2))
    with pytest.raises(ValueError):
        shape_feasible((1, 2))


def test_minimal_shapes_small_cases():
    assert minimal_shapes(2) == [(2, ((1, 1),))]
    assert minimal_shapes(3) == [(3, ((1, 1, 1),))]
    assert minimal_shapes(6) == [
        (2, ((3, 3),)),
        (3, ((2, 2, 2),)),
        (4, ((2, 2, 1, 1),)),
        (6, ((1, 1, 1, 1, 1, 1),)),
    ]
    assert dict(minimal_shapes(7))[3] == ((3, 3, 1), (3, 2, 2))


def test_partition_counts_match_multinomial():
    for n, shape in [(4, (2, 2)), (6, (3, 2, 1)), (6, (2, 2, 2)), (7, (3, 2, 2))]:
        expected = math.factorial(n)
        for s in shape:
            expected //= math.factorial(s)
        for s in set(shape):
            expected //= math.factorial(shape.count(s))
        got = [d.particles for d in enumerate_distributions(path_graph(n), shape, dedupe=False)]
        assert len(got) == expected == count_partitions_with_shape(n, shape)
        assert len(set(got)) == expected
    for n, shape in [(5, (2, 2)), (4, (2, 2, 2))]:
        with pytest.raises(ValueError, match="does not sum to n=") as counted:
            count_partitions_with_shape(n, shape)
        with pytest.raises(ValueError) as enumerated:
            next(enumerate_distributions(path_graph(n), shape))
        assert str(counted.value) == str(enumerated.value)


def test_partitions_match_independent_enumeration():
    independent = {
        p for p in set_partitions(range(1, 6)) if sorted(map(len, p), reverse=True) == [2, 2, 1]
    }
    got = {d.particles for d in enumerate_distributions(path_graph(5), (2, 2, 1), dedupe=False)}
    assert got == independent


def test_automorphism_groups():
    assert len(automorphisms(path_graph(3))) == 2
    assert len(automorphisms(complete_graph(4))) == 24
    assert len(automorphisms(complete_graph(5))) == 120
    assert len(automorphisms(star_graph(5))) == 24
    assert len(automorphisms(ring_graph(5))) == 10
    assert len(automorphisms(Y6)) == 2  # swap the two length-2 arms


def test_enumerate_counts_without_dedupe():
    assert len(list(enumerate_distributions(path_graph(4), (2, 2), dedupe=False))) == 3


def test_dedupe_path4_and_fc4():
    # all three (2,2) partitions of the path are fixed by the reversal,
    # so automorphism dedupe keeps all three
    reps = list(enumerate_distributions(path_graph(4), (2, 2), dedupe=True))
    assert len(reps) == 3
    assert len(list(enumerate_distributions(complete_graph(4), (2, 2), dedupe=True))) == 1


def test_dedupe_orbit_union_covers_everything():
    g = path_graph(5)
    auts = automorphisms_by_backtracking(g)
    for shape in ((2, 2, 1), (3, 1, 1)):
        full = {d.particles for d in enumerate_distributions(g, shape, dedupe=False)}
        reps = [d.canonical_key() for d in enumerate_distributions(g, shape, dedupe=True)]
        union = set()
        for blocks in reps:
            for perm in auts:
                union.add(
                    tuple(
                        sorted(
                            (tuple(sorted(perm[q - 1] + 1 for q in b)) for b in blocks),
                            key=min,
                        )
                    )
                )
        assert union == full
        # representatives are orbit-least
        for blocks in reps:
            assert blocks == min(
                tuple(
                    sorted(
                        (tuple(sorted(perm[q - 1] + 1 for q in b)) for b in blocks),
                        key=min,
                    )
                )
                for perm in auts
            )


def test_dedupe_respects_verdicts():
    g = path_graph(5)
    auts = automorphisms_by_backtracking(g)
    for d in enumerate_distributions(g, (2, 2, 1), dedupe=True):
        verdict = allows_specific_avn(g, d).allows
        for perm in auts:
            image = Distribution(
                5, tuple(tuple(sorted(perm[q - 1] + 1 for q in b)) for b in d.particles)
            )
            assert allows_specific_avn(g, image).allows == verdict


def test_min_party_ghz3():
    m, reports = min_party_distributions(complete_graph(3))
    assert m == 3
    assert [r.distribution.canonical_key() for r in reports] == [((1,), (2,), (3,))]


def test_min_party_lc4():
    m, reports = min_party_distributions(path_graph(4))
    assert m == 2
    keys = {r.distribution.canonical_key() for r in reports}
    assert ((1, 4), (2, 3)) in keys


def test_min_party_lc6():
    m, reports = min_party_distributions(path_graph(6))
    assert m == 2
    keys = {r.distribution.canonical_key() for r in reports}
    assert ((1, 4, 5), (2, 3, 6)) in keys
    assert all(r.verdict == "allows" for r in reports)


def test_min_party_rejects_bad_input():
    with pytest.raises(UnsupportedInputError):
        min_party_distributions(parse_graph("4: 1-2, 3-4"))


def test_min_party_matches_all_partition_brute_force():
    """The shape schedule never misses the true minimum (class reps n <= 5,
    plus three familiar 6-vertex graphs)."""
    from avnproofs import classify_all

    graphs = [rec.representative for n in range(3, 6) for rec in classify_all(n)]
    graphs += [path_graph(6), ring_graph(6), Y6]
    for g in graphs:
        m, reports = min_party_distributions(g)
        best = g.n + 1
        for blocks in set_partitions(range(1, g.n + 1)):
            if len(blocks) < 2 or len(blocks) >= best:
                continue
            if allows_specific_avn(g, Distribution(g.n, blocks)).allows:
                best = len(blocks)
        assert m == best
        # and every reported distribution is genuinely minimal
        assert all(r.distribution.m == m for r in reports)


def test_all_avn_rejects_bad_input():
    # the same scope as min_party_distributions, also when no distribution
    # of the graph passes the rank test
    for text in ("4: 1-2, 3-4", "3: 1-2", "2:"):
        with pytest.raises(UnsupportedInputError):
            all_avn_distributions(parse_graph(text), 2)


def test_all_avn_lc6_contains_split_of_winning_bipartition():
    reports = all_avn_distributions(path_graph(6), 4)
    keys = {r.distribution.canonical_key() for r in reports}
    assert ((1,), (2, 3), (4, 5), (6,)) in keys


def test_all_avn_y6_excludes_leaf_pairing():
    reports = all_avn_distributions(Y6, 4)
    assert reports
    keys = {r.distribution.canonical_key() for r in reports}
    assert ((1, 2), (3,), (4, 5), (6,)) not in keys


def test_all_avn_empty_when_no_feasible_shape():
    assert all_avn_distributions(ring_graph(5), 2) == []
    with pytest.raises(ValueError):
        all_avn_distributions(ring_graph(5), 1)


def test_all_avn_dedupe_orbits_cover_full_success_set():
    g = path_graph(6)
    auts = automorphisms_by_backtracking(g)
    full = {r.distribution.canonical_key() for r in all_avn_distributions(g, 2, dedupe=False)}
    union = set()
    for rep in all_avn_distributions(g, 2, dedupe=True):
        for perm in auts:
            union.add(
                tuple(
                    sorted(
                        (
                            tuple(sorted(perm[q - 1] + 1 for q in b))
                            for b in rep.distribution.particles
                        ),
                        key=min,
                    )
                )
            )
    assert union == full


def test_refinement_closure_small():
    g = path_graph(5)
    verdicts = {}
    for blocks in set_partitions(range(1, 6)):
        verdicts[blocks] = allows_specific_avn(g, Distribution(5, blocks)).allows
    for fine, fine_ok in verdicts.items():
        for coarse, coarse_ok in verdicts.items():
            if coarse_ok and refines(fine, coarse):
                assert fine_ok


def test_integer_partitions():
    assert list(integer_partitions(4, parts=2)) == [(3, 1), (2, 2)]
    assert sum(1 for _ in integer_partitions(8)) == 22
    for n in range(1, 17):
        every = list(integer_partitions(n))
        assert every == sorted(every, reverse=True)
        for parts in range(1, n + 1):
            fixed = list(integer_partitions(n, parts=parts))
            assert fixed == sorted(fixed, reverse=True)
            assert fixed == [p for p in every if len(p) == parts]


def test_min_party_count_is_constant_on_every_lc_orbit():
    # cut-rank is LC-invariant, hence so are the verdicts and m_min
    for n in range(3, 7):
        for record in classify_all(n):
            m_rep = min_party_distributions(record.representative)[0]
            for cg in lc_orbit(record.representative):
                g = graph_from_encoding(n, cg.encoding)
                assert min_party_distributions(g)[0] == m_rep, (n, record.class_id)


def _mask(particle):
    return sum(1 << (q - 1) for q in particle)


def rank_allows(g, d):
    """The cut-rank test: every particle A has E(A) = |A|."""
    return all(cut_rank(g, _mask(p)) == len(p) for p in d.particles)


def test_cut_rank_test_equals_verdict_exhaustively():
    """On every class representative with n <= 7 under every set partition
    into at least two particles, the rank test gives the solver's verdict."""
    for n in range(3, 8):
        for record in classify_all(n):
            g = record.representative
            for particles in set_partitions(range(1, n + 1)):
                if len(particles) < 2:
                    continue
                d = Distribution(n, particles)
                assert rank_allows(g, d) == allows_specific_avn(g, d).allows, (n, particles)


@settings(max_examples=150, deadline=None)
@given(connected_cases(10))
def test_rank_solver_and_brute_verdicts_agree(case):
    g, d = case
    brute = all(
        is_element_of_reality(g, d, i, p, method="brute") is not None
        for i in range(1, g.n + 1)
        for p in "XY"
    )
    assert rank_allows(g, d) == allows_specific_avn(g, d).allows == brute
    for p in d.particles:
        mask = _mask(p)
        rank = cut_rank(g, mask)
        assert rank == gf2_rank([g.adj[q - 1] & ~mask for q in p], g.n)
        assert rank == cut_rank(local_complement(g, p[0]), mask)
        assert rank == cut_rank(g, ((1 << g.n) - 1) & ~mask)
    for bad, shown in ((-1, "-0x1"), (1 << g.n, hex(1 << g.n))):
        with pytest.raises(ValueError, match=f"vertex mask {shown} out of range for n={g.n}"):
            cut_rank(g, bad)


@settings(max_examples=120, deadline=None)
@given(connected_cases(16))
def test_rank_test_equals_solver_table_up_to_sixteen(case):
    """The searches admit by the rank test and build no table; per particle,
    full cut-rank holds exactly when the solver's table has X and Y for
    every member, so the verdicts agree (no brute force, n <= 16)."""
    g, d = case
    decision = allows_specific_avn(g, d)
    for p in d.particles:
        full = cut_rank(g, _mask(p)) == len(p)
        assert full == all(decision.eor[q][s] is not None for q in p for s in "XY"), p
    assert rank_allows(g, d) == decision.allows


def test_searches_equal_the_verdict_loop():
    """Same reports in the same order as a full verdict on every enumerated
    distribution, on every class representative with n <= 7, for every m,
    with and without dedupe."""
    for n in range(3, 8):
        for record in classify_all(n):
            g = record.representative
            for dedupe in (True, False):
                assert min_party_distributions(g, dedupe) == min_party_by_verdicts(g, dedupe)
                for m in range(2, n + 1):
                    assert all_avn_distributions(g, m, dedupe) == all_avn_by_verdicts(
                        g, m, dedupe
                    ), (n, record.class_id, m, dedupe)


def _rank_filtered(g, full, shape, dedupe):
    """The default stream, keeping the distributions whose particles are all
    full-rank sets of the oracle's table."""
    return [
        d
        for d in enumerate_distributions(g, shape, dedupe)
        if all(_mask(p) in full for p in d.particles)
    ]


def test_full_rank_stream_is_the_filtered_stream():
    """Same distributions in the same order, on every class representative
    with n <= 7, for every shape, with and without dedupe."""
    for n in range(2, 8):
        for record in classify_all(n):
            g = record.representative
            full = full_rank_masks(g)
            for shape in integer_partitions(n):
                for dedupe in (True, False):
                    pruned = list(enumerate_distributions(g, shape, dedupe, full_rank_only=True))
                    assert pruned == _rank_filtered(g, full, shape, dedupe), (
                        n,
                        record.class_id,
                        shape,
                        dedupe,
                    )


@settings(max_examples=60, deadline=None)
@given(connected_cases(10))
def test_full_rank_stream_is_the_filtered_stream_by_property(case):
    g, d = case
    shape = d.shape()
    pruned = list(enumerate_distributions(g, shape, dedupe=False, full_rank_only=True))
    assert pruned == _rank_filtered(g, full_rank_masks(g), shape, dedupe=False)


def _assert_stream_is_the_tuple_search(g, shape):
    """Both dedupe settings and both rank settings yield the tuple oracle's
    distributions in the oracle's order."""
    full = full_rank_masks(g)
    for dedupe in (True, False):
        for full_rank_only in (False, True):
            got = enumerate_distributions(g, shape, dedupe, full_rank_only=full_rank_only)
            want = distributions_by_tuples(g, shape, dedupe, full if full_rank_only else None)
            assert [d.particles for d in got] == want, (g, shape, dedupe, full_rank_only)


def test_stream_equals_the_tuple_search_exhaustively():
    """Every shape, on the path, ring, complete and star graphs with
    n = 3..7 and on every census representative with n <= 7."""
    families = (path_graph, ring_graph, complete_graph, star_graph)
    graphs = [family(n) for n in range(3, 8) for family in families]
    graphs += [record.representative for n in range(2, 8) for record in classify_all(n)]
    for g in graphs:
        for shape in integer_partitions(g.n):
            _assert_stream_is_the_tuple_search(g, shape)


@settings(max_examples=25, deadline=None)
@given(connected_cases(9))
def test_stream_equals_the_tuple_search_by_property(case):
    g, d = case
    _assert_stream_is_the_tuple_search(g, d.shape())


def _assert_schedule_finds_every_least_partition(g):
    """The least block count over all full-rank block partitions, and every
    partition at it, equal the schedule search; each hit's shape is one the
    schedule lists at that level."""
    found = full_rank_partitions(g)
    m_least = min(len(blocks) for blocks in found)
    m, reports = min_party_distributions(g, dedupe=False)
    assert m == m_least
    keys = [r.distribution.canonical_key() for r in reports]
    assert sorted(keys) == sorted(blocks for blocks in found if len(blocks) == m_least)
    level = dict(minimal_shapes(g.n))[m]
    assert all(r.distribution.shape() in level for r in reports)


def test_schedule_search_equals_full_rank_partitions_exhaustively():
    for n in range(3, 9):
        for record in classify_all(n):
            _assert_schedule_finds_every_least_partition(record.representative)


@settings(max_examples=40, deadline=None)
@given(connected_cases(10))
def test_schedule_search_equals_full_rank_partitions_by_property(case):
    _assert_schedule_finds_every_least_partition(case[0])


def test_singleton_levels_list_no_automorphisms(monkeypatch):
    """Star and complete graphs admit only the all-singletons distribution,
    so their deduped searches never compute the group."""

    def refuse(g):
        raise ResourceLimitError("automorphism group computed")

    monkeypatch.setattr(partitions_module, "automorphism_group", refuse)
    for g in (star_graph(10), complete_graph(12)):
        m, reports = min_party_distributions(g)
        assert m == g.n
        assert [r.distribution.canonical_key() for r in reports] == [
            tuple((q,) for q in range(1, g.n + 1))
        ]


def test_automorphisms_listed_once_per_shape_with_a_hit(monkeypatch):
    calls = []
    real = partitions_module.automorphism_group

    def counting(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(partitions_module, "automorphism_group", counting)
    min_party_distributions(star_graph(9))
    assert calls == []
    m, reports = min_party_distributions(ring_graph(8))
    hit_shapes = {r.distribution.shape() for r in reports}
    assert m < 8 and len(calls) == len(hit_shapes)


def test_automorphisms_list_the_backtracked_group():
    """The listing is the backtracker's, order included, on every class
    representative with n <= 7 and its local complements."""
    for n in range(1, 8):
        for enc in connected_graph_reps(n):
            rep = graph_from_encoding(n, enc)
            for g in [rep] + [local_complement(rep, v) for v in range(1, n + 1)]:
                assert automorphisms(g) == automorphisms_by_backtracking(g)


def _image(blocks, perm):
    return tuple(sorted((tuple(sorted(perm[q - 1] + 1 for q in b)) for b in blocks), key=min))


def _assert_dedupe_keeps_orbit_least_hits(g, reports, every):
    """The deduped reports are exactly the orbit-least members of the
    undeduped hits under the backtracked group, in canonical order."""
    auts = automorphisms_by_backtracking(g)
    keys = [r.distribution.canonical_key() for r in every]
    least = {min(_image(blocks, perm) for perm in auts) for blocks in keys}
    assert [r.distribution.canonical_key() for r in reports] == [b for b in keys if b in least]


@pytest.mark.parametrize("family", [path_graph, ring_graph])
@pytest.mark.parametrize("n", [11, 12])
def test_dedupe_above_ten_vertices(family, n):
    g = family(n)
    m, reports = min_party_distributions(g)
    m_all, every = min_party_distributions(g, dedupe=False)
    assert m_all == m < n and len(reports) < len(every)
    _assert_dedupe_keeps_orbit_least_hits(g, reports, every)
    for parties in (2, n - 1):
        _assert_dedupe_keeps_orbit_least_hits(
            g,
            all_avn_distributions(g, parties),
            all_avn_distributions(g, parties, dedupe=False),
        )


@settings(max_examples=10, deadline=None)
@given(connected_cases(12, min_n=11), st.integers(1, 3))
def test_dedupe_above_ten_vertices_by_property(case, pairs):
    """Each orbit of the full-rank stream of a shape with 1..3 pairs yields
    its least member, at the place of its first member.  The oracle lists
    the group, so graphs with more than 10^4 automorphisms are skipped."""
    g = case[0]
    assume(aut_order_by_point_stabilizers(g.adj) <= 10**4)
    auts = automorphisms_by_backtracking(g)
    shape = (2,) * pairs + (1,) * (g.n - 2 * pairs)
    stream = enumerate_distributions(g, shape, dedupe=False, full_rank_only=True)
    expected, seen = [], set()
    for blocks in (dist.canonical_key() for dist in stream):
        if blocks not in seen:
            orbit = {_image(blocks, perm) for perm in auts}
            seen |= orbit
            expected.append(min(orbit))
    deduped = enumerate_distributions(g, shape, full_rank_only=True)
    assert [dist.canonical_key() for dist in deduped] == expected


@pytest.mark.parametrize("family", [star_graph, complete_graph])
@pytest.mark.parametrize("n", [10, 11, 12])
def test_search_ranks_each_block_once(monkeypatch, family, n):
    """The shapes of one search share their block ranks: every block's
    cut-rank is computed once, however many shapes try it."""
    blocks = []
    real = partitions_module.cut_rank

    def counting(g, mask):
        blocks.append(mask)
        return real(g, mask)

    monkeypatch.setattr(partitions_module, "cut_rank", counting)
    partitions_module._block_ranks.cache_clear()
    min_party_distributions(family(n), dedupe=False)
    assert blocks and len(blocks) == len(set(blocks))
