import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avnproofs import (
    Bitvec,
    Graph,
    ParseError,
    PauliOperator,
    ResourceLimitError,
    classify_all,
    complete_graph,
    expectation,
    format_graph,
    format_pauli,
    full_stabilizer,
    generators,
    identity,
    is_connected,
    parse_graph,
    path_graph,
    pauli_multiply,
    relabel,
    ring_graph,
    star_graph,
    stabilizer_element,
    statevector,
)
from oracles import edge_sets, operator_matrix, stabilizer_by_products


def test_generators_single_vertex():
    g = Graph.from_edges(1, [])
    assert [format_pauli(op) for op in generators(g)] == ["X1"]


def test_generators_fc4_and_lc4():
    assert format_pauli(generators(complete_graph(4))[0]) == "X1 Z2 Z3 Z4"
    assert format_pauli(generators(path_graph(4))[3]) == "Z3 X4"


def test_stabilizer_element_examples():
    assert stabilizer_element(path_graph(4), 0) == identity(4)
    assert format_pauli(stabilizer_element(complete_graph(4), 0b0111)) == "-X1 X2 X3 Z4"
    assert format_pauli(stabilizer_element(path_graph(4), 0b0010)) == "Z1 X2 Z3"


def test_full_stabilizer_small_cases():
    single = Graph.from_edges(1, [])
    assert [format_pauli(op) for op in full_stabilizer(single)] == ["1", "X1"]
    edge = Graph.from_edges(2, [(1, 2)])
    ops = list(full_stabilizer(edge))
    assert [format_pauli(op) for op in ops] == ["1", "X1 Z2", "Z1 X2", "Y1 Y2"]
    assert all(op.phase == 0 for op in ops)


def test_full_stabilizer_contains_fc4_minus_element():
    rendered = {format_pauli(op) for op in full_stabilizer(complete_graph(4))}
    assert "-X1 X2 X3 Z4" in rendered


@pytest.mark.parametrize("g", [complete_graph(4), path_graph(4), ring_graph(5)])
def test_full_stabilizer_group_law_and_injectivity(g):
    elems = list(full_stabilizer(g))
    seen = {(op.x.bits, op.z.bits) for op in elems}
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


def test_statevector_guard():
    with pytest.raises(ResourceLimitError):
        statevector(path_graph(13))


def test_expectation_identity_and_signs():
    fc4 = complete_graph(4)
    sv = statevector(fc4)
    assert expectation(sv, identity(4)) == pytest.approx(1.0)
    op = stabilizer_element(fc4, 0b0111)  # -X1 X2 X3 Z4
    assert expectation(sv, op) == pytest.approx(1.0)
    flipped = PauliOperator(op.x, op.z, (op.phase + 2) % 4)
    assert expectation(sv, flipped) == pytest.approx(-1.0)


def test_expectation_matches_matrix_oracle():
    rng = random.Random(3)
    for g in [path_graph(3), ring_graph(3), complete_graph(3)]:
        sv = statevector(g)
        for _ in range(40):
            op = PauliOperator(
                Bitvec(3, rng.getrandbits(3)), Bitvec(3, rng.getrandbits(3)), 2 * rng.getrandbits(1)
            )
            direct = sv.conj() @ operator_matrix(op) @ sv
            assert expectation(sv, op) == pytest.approx(direct.real, abs=1e-12)


def test_every_class_representative_has_perfect_correlations():
    for n in range(2, 7):
        for record in classify_all(n):
            g = record.representative
            sv = statevector(g)
            for i, gen in enumerate(generators(g), start=1):
                assert expectation(sv, gen) == pytest.approx(1.0, abs=1e-10)
            for op in full_stabilizer(g):
                assert expectation(sv, op) == pytest.approx(1.0, abs=1e-10)
                flipped = PauliOperator(op.x, op.z, (op.phase + 2) % 4)
                assert expectation(sv, flipped) == pytest.approx(-1.0, abs=1e-10)


def test_larger_representatives_spot_checked():
    for n in (7, 8):
        records = classify_all(n)
        for record in records[:: max(1, len(records) // 8)]:
            g = record.representative
            sv = statevector(g)
            for op in full_stabilizer(g):
                assert expectation(sv, op) == pytest.approx(1.0, abs=1e-10)


def test_full_stabilizer_order_matches_subsets():
    g = ring_graph(5)
    for mask, op in enumerate(full_stabilizer(g)):
        assert op == stabilizer_by_products(g, mask)


def test_closed_form_matches_generator_products_exhaustively():
    for n in range(1, 5):
        for edges in edge_sets(n):
            g = Graph.from_edges(n, edges)
            for mask in range(1 << n):
                assert stabilizer_element(g, mask) == stabilizer_by_products(g, mask)


@st.composite
def graphs_and_subsets(draw):
    n = draw(st.integers(1, 12))
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


def test_parse_and_format_round_trip():
    g = parse_graph(" 6 : 1-2, 2-3,3-4 , 4-5, 5-6 ")
    assert g == path_graph(6)
    assert format_graph(g) == "6: 1-2, 2-3, 3-4, 4-5, 5-6"
    assert parse_graph(format_graph(g)) == g
    assert parse_graph("1:").n == 1


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("4: 1-1", "self-loop"),
        ("4: 1-2, 1-2", "duplicate"),
        ("4: 1-5", "out of range"),
        ("4: 1+2", "not of the form"),
        ("x: 1-2", "not an integer"),
        ("4 1-2", "colon"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_graph(text)
    assert fragment in str(err.value)


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


def test_relabel_and_connectivity():
    g = path_graph(4)
    assert relabel(g, (3, 2, 1, 0)) == g  # reversal is an automorphism of the path
    assert relabel(g, (1, 0, 2, 3)).edges() == ((1, 2), (1, 3), (3, 4))
    assert is_connected(g)
    assert not is_connected(Graph.from_edges(4, [(1, 2), (3, 4)]))
    assert is_connected(star_graph(7))
