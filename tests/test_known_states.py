"""Minimum-party fixtures for the standard state families (linear clusters,
rings, fully connected graphs) with hand-checked distributions."""

import pytest

from avnproofs import (
    allows_specific_avn,
    complete_graph,
    min_party_distributions,
    parse_distribution,
    path_graph,
    ring_graph,
)
from oracles import automorphisms_by_backtracking


def orbit_representative(g, d):
    return min(
        tuple(
            sorted(
                (tuple(sorted(perm[q - 1] + 1 for q in b)) for b in d.particles),
                key=min,
            )
        )
        for perm in automorphisms_by_backtracking(g)
    )


CASES = [
    (path_graph(4), 2, "1,4|2,3"),
    (path_graph(5), 3, "1,5|2,4|3"),
    (ring_graph(5), 3, "1|2,5|3,4"),
    (path_graph(6), 2, "1,4,5|2,3,6"),
    (ring_graph(6), 2, "1,2,4|3,5,6"),
    (path_graph(7), 3, "1,5,7|2,6|3,4"),
    (path_graph(7), 3, "1,3,5|2,4,6|7"),
    (ring_graph(7), 3, "1,4,7|2,3,6|5"),
    (ring_graph(7), 3, "1,4,7|2,6|3,5"),
    (path_graph(8), 2, "1,4,5,8|2,3,6,7"),
    (ring_graph(8), 2, "1,3,6,8|2,4,5,7"),
]


@pytest.mark.parametrize("g,m_expected,dist_text", CASES)
def test_family_minimum_and_distribution(g, m_expected, dist_text):
    d = parse_distribution(dist_text, g.n)
    assert allows_specific_avn(g, d).allows
    m, reports = min_party_distributions(g)
    assert m == m_expected
    keys = {r.distribution.canonical_key() for r in reports}
    assert orbit_representative(g, d) in keys


@pytest.mark.parametrize("n", range(3, 9))
def test_fully_connected_needs_all_singletons(n):
    m, reports = min_party_distributions(complete_graph(n))
    assert m == n
    assert len(reports) == 1
    assert reports[0].distribution.particles == tuple((i,) for i in range(1, n + 1))
