import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avnproofs import (
    Graph,
    ParseError,
    PauliOperator,
    ResourceLimitError,
    classify_all,
    complete_graph,
    expectation,
    format_graph,
    format_word,
    full_stabilizer,
    generators,
    is_connected,
    parse_graph,
    path_graph,
    pauli_multiply,
    relabel,
    ring_graph,
    star_graph,
    stabilizer_element,
    stabilizer_word,
    statevector,
)
from avnproofs.graphstate import stabilizer_arrays
from oracles import (
    edge_sets,
    format_pauli_by_letters,
    operator_matrix,
    stabilizer_by_products,
    stabilizer_walk,
    statevector_by_edge_counts,
)
from strategies import connected_cases


def test_generators_single_vertex():
    g = Graph.from_edges(1, [])
    assert [format_word(op.x, op.z, op.phase) for op in generators(g)] == ["X1"]


def test_generators_fc4_and_lc4():
    first = generators(complete_graph(4))[0]
    assert format_word(first.x, first.z, first.phase) == "X1 Z2 Z3 Z4"
    last = generators(path_graph(4))[3]
    assert format_word(last.x, last.z, last.phase) == "Z3 X4"


def test_stabilizer_element_examples():
    assert stabilizer_element(path_graph(4), 0) == PauliOperator(0, 0, n=4)
    assert format_word(*stabilizer_word(complete_graph(4), 0b0111)) == "-X1 X2 X3 Z4"
    assert format_word(*stabilizer_word(path_graph(4), 0b0010)) == "Z1 X2 Z3"


def test_full_stabilizer_small_cases():
    single = Graph.from_edges(1, [])
    assert [format_word(op.x, op.z, op.phase) for op in full_stabilizer(single)] == ["1", "X1"]
    edge = Graph.from_edges(2, [(1, 2)])
    ops = list(full_stabilizer(edge))
    assert [format_word(op.x, op.z, op.phase) for op in ops] == ["1", "X1 Z2", "Z1 X2", "Y1 Y2"]
    assert all(op.phase == 0 for op in ops)


def test_full_stabilizer_contains_fc4_minus_element():
    rendered = {format_word(op.x, op.z, op.phase) for op in full_stabilizer(complete_graph(4))}
    assert "-X1 X2 X3 Z4" in rendered


@pytest.mark.parametrize("g", [complete_graph(4), path_graph(4), ring_graph(5)])
def test_full_stabilizer_group_law_and_injectivity(g):
    elems = list(full_stabilizer(g))
    seen = {(op.x, op.z) for op in elems}
    assert len(seen) == 1 << g.n
    for a in range(1 << g.n):
        for b in range(1 << g.n):
            assert pauli_multiply(elems[a], elems[b]) == elems[a ^ b]


def test_statevector_single_vertex_and_edge():
    sv = statevector(Graph.from_edges(1, []))
    assert np.allclose(sv, [1 / math.sqrt(2)] * 2)
    sv = statevector(Graph.from_edges(2, [(1, 2)]))
    # index bit 0 is qubit 1: basis order 00, 10, 01, 11
    assert np.allclose(sv, np.array([1, 1, 1, -1]) / 2)
    assert abs(np.linalg.norm(sv) - 1) < 1e-12


def test_statevector_is_the_edge_count_sign_bit_for_bit():
    graphs = [Graph.from_edges(n, edges) for n in range(1, 5) for edges in edge_sets(n)]
    graphs += [ring_graph(12), complete_graph(12), star_graph(9)]
    for g in graphs:
        assert statevector(g).tobytes() == statevector_by_edge_counts(g).tobytes(), format_graph(g)


def test_statevector_guard():
    with pytest.raises(ResourceLimitError):
        statevector(path_graph(13))


def word_of(op):
    return op.x, op.z, op.phase


def test_expectation_identity_and_signs():
    fc4 = complete_graph(4)
    sv = statevector(fc4)
    assert expectation(sv, (0, 0, 0)) == pytest.approx(1.0)
    x, z, phase = stabilizer_word(fc4, 0b0111)  # -X1 X2 X3 Z4
    assert expectation(sv, (x, z, phase)) == pytest.approx(1.0)
    assert expectation(sv, (x, z, phase ^ 2)) == pytest.approx(-1.0)


def test_expectation_matches_matrix_oracle():
    rng = random.Random(3)
    for g in [path_graph(3), ring_graph(3), complete_graph(3)]:
        sv = statevector(g)
        for _ in range(40):
            op = PauliOperator(rng.getrandbits(3), rng.getrandbits(3), 2 * rng.getrandbits(1), n=3)
            direct = sv.conj() @ operator_matrix(op) @ sv
            assert expectation(sv, word_of(op)) == pytest.approx(direct.real, abs=1e-12)


def test_every_class_representative_has_perfect_correlations():
    for n in range(2, 7):
        for record in classify_all(n):
            g = record.representative
            sv = statevector(g)
            for i, gen in enumerate(generators(g), start=1):
                assert expectation(sv, word_of(gen)) == pytest.approx(1.0, abs=1e-10)
            for op in full_stabilizer(g):
                assert expectation(sv, word_of(op)) == pytest.approx(1.0, abs=1e-10)
                assert expectation(sv, (op.x, op.z, op.phase ^ 2)) == pytest.approx(-1.0, abs=1e-10)


def test_larger_representatives_spot_checked():
    for n in (7, 8):
        records = classify_all(n)
        for record in records[:: max(1, len(records) // 8)]:
            g = record.representative
            sv = statevector(g)
            for op in full_stabilizer(g):
                assert expectation(sv, word_of(op)) == pytest.approx(1.0, abs=1e-10)


def test_full_stabilizer_order_matches_subsets():
    g = ring_graph(5)
    for mask, op in enumerate(full_stabilizer(g)):
        assert op == stabilizer_by_products(g, mask)


def words_by_subset(g):
    return [(op.x, op.z, op.phase) for op in full_stabilizer(g)]


def assert_arrays_are_the_stabilizer(g):
    """Entry s of the arrays is ``stabilizer_word(g, s)``, and the Gray walk,
    which steps one generator at a time from the identity, visits the same words."""
    x, z, phase = stabilizer_arrays(g)
    assert x.dtype == z.dtype == (np.uint8 if g.n <= 8 else np.uint16)
    words = list(zip(x.tolist(), z.tolist(), phase.tolist()))
    assert words == words_by_subset(g)
    walk = list(stabilizer_walk(g))
    assert walk[0] == (0, 0, 0)
    assert sorted(walk) == words
    for (x0, _, _), (x1, _, _) in zip(walk, walk[1:]):
        assert (x0 ^ x1).bit_count() == 1


def test_arrays_are_the_stabilizer_on_every_graph_up_to_four_vertices():
    graphs = 0
    for n in range(1, 5):
        for edges in edge_sets(n):
            assert_arrays_are_the_stabilizer(Graph.from_edges(n, edges))
            graphs += 1
    assert graphs == 1 + 2 + 8 + 64  # "1:" and every disconnected graph included


@settings(max_examples=25, deadline=None)
@given(connected_cases(12))
def test_arrays_are_the_stabilizer_on_connected_graphs(case):
    assert_arrays_are_the_stabilizer(case[0])


def test_arrays_guard_matches_the_statevector():
    with pytest.raises(ResourceLimitError, match=r"^stabilizer arrays limited to n <= 12, got 13$"):
        stabilizer_arrays(path_graph(13))


def test_walk_visits_subsets_in_gray_code_order():
    assert [x for x, _, _ in stabilizer_walk(path_graph(3))] == [0, 1, 3, 2, 6, 7, 5, 4]


def test_closed_form_matches_generator_products_exhaustively():
    for n in range(1, 5):
        for edges in edge_sets(n):
            g = Graph.from_edges(n, edges)
            for mask in range(1 << n):
                assert stabilizer_element(g, mask) == stabilizer_by_products(g, mask)


@st.composite
def graphs_and_subsets(draw, max_n=12):
    n = draw(st.integers(1, max_n))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [p for p, k in zip(pairs, keep) if k]
    return Graph.from_edges(n, edges), draw(st.integers(0, (1 << n) - 1))


@settings(max_examples=300, deadline=None)
@given(graphs_and_subsets())
def test_closed_form_matches_generator_products(case):
    g, mask = case
    op = stabilizer_element(g, mask)
    assert op.phase in (0, 2)
    assert op == stabilizer_by_products(g, mask)


def test_printed_word_matches_printed_generator_products_exhaustively():
    """Every subset of every graph on at most 5 vertices prints the same
    text from its integer word as from the explicit generator product
    spelled letter by letter."""
    for n in range(1, 6):
        for edges in edge_sets(n):
            g = Graph.from_edges(n, edges)
            for mask in range(1 << n):
                expected = format_pauli_by_letters(stabilizer_by_products(g, mask))
                assert format_word(*stabilizer_word(g, mask)) == expected


@settings(max_examples=300, deadline=None)
@given(graphs_and_subsets(max_n=16))
def test_printed_word_matches_printed_generator_products(case):
    g, mask = case
    word = stabilizer_word(g, mask)
    assert word[0] == mask and word[2] in (0, 2)
    expected = format_pauli_by_letters(stabilizer_by_products(g, mask))
    assert format_word(*word) == expected


def test_stabilizer_word_range_checks_the_subset():
    for bad in (-1, 1 << 4):
        with pytest.raises(ValueError, match="out of range"):
            stabilizer_word(path_graph(4), bad)


def test_parse_and_format_round_trip():
    g = parse_graph(" 6 : 1-2, 2-3,3-4 , 4-5, 5-6 ")
    assert g == path_graph(6)
    assert format_graph(g) == "6: 1-2, 2-3, 3-4, 4-5, 5-6"
    assert parse_graph(format_graph(g)) == g
    assert parse_graph("1:").n == 1


@pytest.mark.parametrize(
    "text, message, position",
    [
        ("4: 1-1", "self-loop 1-1", 3),
        ("4: 1-2, 1-2", "duplicate edge 1-2", 8),
        ("4: 1-5", "edge 1-5 out of range 1..4", 3),
        ("4: 1+2", "edge '1+2' is not of the form i-j", 3),
        ("4: 1-2, 3-x", "edge '3-x' has non-integer endpoints", 8),
        ("x: 1-2", "vertex count 'x' is not an integer", 0),
        ("17: 1-2", "vertex count must be in 1..16", 0),
        ("4 1-2", "expected 'n: edges' with a colon", 0),
    ],
)
def test_parse_errors(text, message, position):
    with pytest.raises(ParseError) as err:
        parse_graph(text)
    assert (err.value.message, err.value.position) == (message, position)


def test_parse_error_position_points_at_bad_edge():
    with pytest.raises(ParseError) as err:
        parse_graph("4: 1-2, 9-9")
    assert err.value.position == 8


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(2, (0b10, 0b00))  # asymmetric
    with pytest.raises(ValueError):
        Graph(2, (0b01, 0b10))  # self-loop
    with pytest.raises(ValueError):
        Graph.from_edges(17, [])


def _first_graph_error(n, adj):
    """The validation message of the plain n x n symmetry scan, or None."""
    full = (1 << n) - 1
    for v, mask in enumerate(adj):
        if mask & ~full:
            return f"adjacency mask of vertex {v + 1} out of range"
        if (mask >> v) & 1:
            return f"self-loop at vertex {v + 1}"
        for w in range(n):
            if (mask >> w) & 1 and not ((adj[w] >> v) & 1):
                return f"asymmetric edge {v + 1}-{w + 1}"
    return None


def test_graph_validation_messages_match_full_scan():
    """Every adjacency tuple with n <= 3 and masks below 2^(n+1): the same
    first message (or acceptance) as the n x n scan."""
    for n in range(1, 4):
        for adj in itertools.product(range(1 << (n + 1)), repeat=n):
            expected = _first_graph_error(n, adj)
            if expected is None:
                assert Graph(n, adj).adj == adj
            else:
                with pytest.raises(ValueError) as err:
                    Graph(n, adj)
                assert str(err.value) == expected


def test_relabel_and_connectivity():
    g = path_graph(4)
    assert relabel(g, (3, 2, 1, 0)) == g  # reversal is an automorphism of the path
    assert relabel(g, (1, 0, 2, 3)).edges() == ((1, 2), (1, 3), (3, 4))
    assert is_connected(g)
    assert not is_connected(Graph.from_edges(4, [(1, 2), (3, 4)]))
    assert is_connected(star_graph(7))
