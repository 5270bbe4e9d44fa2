"""Acceptance suite.

One test per criterion; each prints a single PASS line (visible with
``pytest -s``) after its assertions hold at the stated tolerances.
"""

import random
import time
from functools import lru_cache

from avnproofs import (
    Distribution,
    allows_specific_avn,
    assignment_consistent,
    classify_all,
    classify_action,
    complete_graph,
    connected_graph_reps,
    enumerate_distributions,
    expectation,
    is_critical,
    is_element_of_reality,
    min_party_distributions,
    minimal_shapes,
    parse_distribution,
    path_graph,
    stabilizer_element,
    stabilizer_word,
    star_graph,
    statevector,
    verify_witness,
)
from avnproofs.reality import ActionClass
from oracles import (
    CONNECTED_GRAPH_COUNTS,
    all_sign_assignments_consistent,
    refines,
    set_partitions,
)

EXPECTED_CLASS_COUNTS = {2: 1, 3: 1, 4: 2, 5: 4, 6: 11, 7: 26, 8: 101}

# size schedule fixture, frozen row by row
EXPECTED_SCHEDULE = {
    2: [(2, ((1, 1),))],
    3: [(3, ((1, 1, 1),))],
    4: [(2, ((2, 2),)), (4, ((1, 1, 1, 1),))],
    5: [(3, ((2, 2, 1),)), (5, ((1, 1, 1, 1, 1),))],
    6: [
        (2, ((3, 3),)),
        (3, ((2, 2, 2),)),
        (4, ((2, 2, 1, 1),)),
        (6, ((1, 1, 1, 1, 1, 1),)),
    ],
    7: [
        (3, ((3, 3, 1), (3, 2, 2))),
        (4, ((2, 2, 2, 1),)),
        (5, ((2, 2, 1, 1, 1),)),
        (7, ((1, 1, 1, 1, 1, 1, 1),)),
    ],
    8: [
        (2, ((4, 4),)),
        (3, ((3, 3, 2),)),
        (4, ((3, 3, 1, 1), (3, 2, 2, 1), (2, 2, 2, 2))),
        (5, ((2, 2, 2, 1, 1),)),
        (6, ((2, 2, 1, 1, 1, 1),)),
        (8, ((1, 1, 1, 1, 1, 1, 1, 1),)),
    ],
}


def _pass(criterion, message):
    print(f"\nACCEPTANCE {criterion}: PASS - {message}")


def test_criterion_1_census_counts():
    timings = {}
    for n, expected in EXPECTED_CLASS_COUNTS.items():
        start = time.time()
        records = classify_all(n)
        timings[n] = time.time() - start
        assert len(records) == expected
        # the orbits cover every connected graph exactly once
        assert sum(r.orbit_size for r in records) == CONNECTED_GRAPH_COUNTS[n]
        assert len(connected_graph_reps(n)) == CONNECTED_GRAPH_COUNTS[n]
    _pass(
        1,
        "census counts "
        + ", ".join(f"n={n}:{c}" for n, c in EXPECTED_CLASS_COUNTS.items())
        + f" (n=8 in {timings[8]:.1f}s)",
    )


def test_criterion_2_shape_schedule_table():
    for n, expected in EXPECTED_SCHEDULE.items():
        assert minimal_shapes(n) == expected
    _pass(2, "shape schedule matches all rows for n = 2..8")


def test_criterion_3_class_size_law():
    quarters = 0
    for n in range(2, 9):
        for record in classify_all(n):
            g = record.representative
            for i in range(1, n + 1):
                bins = {cls: 0 for cls in ActionClass}
                for mask in range(1 << n):
                    bins[classify_action(mask, g, i)] += 1
                assert all(count == 1 << (n - 2) for count in bins.values())
                quarters += 1
    _pass(3, f"four action classes of exactly 2^(n-2) for {quarters} (graph, qubit) pairs")


def test_criterion_4_verdict_fixtures():
    lc4 = path_graph(4)
    assert allows_specific_avn(lc4, parse_distribution("1,4|2,3", 4)).allows
    m, reports = min_party_distributions(lc4)
    assert m == 2
    assert ((1, 4), (2, 3)) in {r.distribution.canonical_key() for r in reports}

    for n in range(3, 9):
        ghz = complete_graph(n)
        singles = Distribution(n, tuple((i,) for i in range(1, n + 1)))
        assert allows_specific_avn(ghz, singles).allows
        m, reports = min_party_distributions(ghz)
        assert m == n
        assert len(reports) == 1

    lc6 = path_graph(6)
    m, reports = min_party_distributions(lc6)
    assert m == 2
    assert ((1, 4, 5), (2, 3, 6)) in {r.distribution.canonical_key() for r in reports}
    assert not allows_specific_avn(lc6, parse_distribution("1,2|3|4|5,6", 6)).allows
    assert allows_specific_avn(lc6, parse_distribution("1|4,5|2,3|6", 6)).allows
    _pass(4, "LC4, GHZ_3..8, LC6 and refinement fixtures all match")


def test_criterion_5_solver_equals_brute_force_with_perfect_witnesses():
    start = time.time()
    checks = 0
    for n in range(2, 8):
        for record in classify_all(n):
            g = record.representative
            sv = statevector(g)
            for _m, shapes in minimal_shapes(n):
                for shape in shapes:
                    for dist in enumerate_distributions(g, shape, dedupe=True):
                        for i in range(1, n + 1):
                            for pauli in "XYZ":
                                ws = is_element_of_reality(g, dist, i, pauli, method="solver")
                                wb = is_element_of_reality(g, dist, i, pauli, method="brute")
                                assert (ws is None) == (wb is None)
                                for w in (ws, wb):
                                    if w is None:
                                        continue
                                    op = stabilizer_element(g, w)
                                    assert op.letter(i) == pauli
                                    assert abs(expectation(sv, (op.x, op.z, op.phase)) - 1.0) <= 1e-10
                                checks += 1
    elapsed = time.time() - start
    assert elapsed < 300
    _pass(5, f"{checks} solver/brute-force agreements with unit correlations in {elapsed:.1f}s")


def test_criterion_6_witness_suite():
    fc4 = complete_graph(4)
    ghz4 = (0b0001, 0b0010, 0b0100, 0b0111)
    assert verify_witness(ghz4, fc4)
    assert is_critical(ghz4, fc4)

    lc4 = path_graph(4)
    cluster4 = (0b0011, 0b0010, 0b0110, 0b0111)
    assert verify_witness(cluster4, lc4)
    assert is_critical(cluster4, lc4)

    rng = random.Random(20260811)
    graphs = [
        complete_graph(3),
        path_graph(3),
        complete_graph(4),
        path_graph(4),
        star_graph(4),
    ]
    agreements = 0
    for _ in range(200):
        g = rng.choice(graphs)
        size = rng.randint(1, 5)
        masks = rng.sample(range(1, 1 << g.n), size)
        fast = assignment_consistent([stabilizer_word(g, m) for m in masks], g.n).consistent
        slow = all_sign_assignments_consistent([stabilizer_element(g, m) for m in masks])
        assert fast == slow
        agreements += 1
    _pass(6, f"fixture witnesses critical; {agreements} random sets agree with exhaustive search")


@lru_cache(maxsize=None)
def _verdicts_by_partition(n, rep_index):
    g = classify_all(n)[rep_index].representative
    out = {}
    for blocks in set_partitions(range(1, n + 1)):
        out[blocks] = allows_specific_avn(g, Distribution(n, blocks)).allows
    return out


def test_criterion_7_oversized_particle_always_blocks():
    checked = 0
    for n in range(3, 7):
        for rep_index in range(len(classify_all(n))):
            verdicts = _verdicts_by_partition(n, rep_index)
            for blocks, allowed in verdicts.items():
                if max(len(b) for b in blocks) * 2 > n:
                    assert not allowed
                    checked += 1
    _pass(7, f"{checked} oversized-particle distributions all block (n <= 6, exhaustive)")


def test_criterion_8_refinement_closure():
    checked = 0
    for n in range(3, 7):
        for rep_index in range(len(classify_all(n))):
            verdicts = _verdicts_by_partition(n, rep_index)
            allowing = [blocks for blocks, ok in verdicts.items() if ok]
            for coarse in allowing:
                for fine, fine_ok in verdicts.items():
                    if len(fine) > len(coarse) and refines(fine, coarse):
                        assert fine_ok
                        checked += 1
    _pass(8, f"{checked} refinements of allowing distributions all allow (n <= 6, exhaustive)")
