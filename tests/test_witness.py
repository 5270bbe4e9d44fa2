import random
import sys
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avnproofs import (
    Distribution,
    Graph,
    ResourceLimitError,
    assignment_consistent,
    canonical_form,
    classify_all,
    complete_graph,
    connected_graph_reps,
    find_witness,
    format_graph,
    format_witness,
    format_word,
    graph_from_encoding,
    is_critical,
    parse_distribution,
    path_graph,
    ring_graph,
    stabilizer_element,
    stabilizer_word,
    star_graph,
    underrepresented_qubits,
    verify_witness,
    witness,
)
from oracles import (
    all_sign_assignments_consistent,
    canonical_solution,
    edge_sets,
    set_partitions,
    sign_of,
    witness_by_sweep,
)
from strategies import connected_cases, labelled_cases

FC3 = complete_graph(3)
FC4 = complete_graph(4)
LC4 = path_graph(4)


def witness_from(subsets):
    return tuple(sum(1 << (i - 1) for i in s) for s in subsets)


def words(g, masks):
    """The ``(x, z, phase)`` words the package checks."""
    return [stabilizer_word(g, m) for m in masks]


def ops(g, masks):
    """The same operators as ``PauliOperator`` objects, for the oracles."""
    return [stabilizer_element(g, m) for m in masks]


GHZ4_WITNESS = witness_from([(1,), (2,), (3,), (1, 2, 3)])
LC4_WITNESS = witness_from([(1, 2), (2,), (2, 3), (1, 2, 3)])


def test_ghz4_witness_verifies_and_is_critical():
    assert verify_witness(GHZ4_WITNESS, FC4)
    assert is_critical(GHZ4_WITNESS, FC4)
    assert format_witness(GHZ4_WITNESS, FC4) == [
        "X1 Z2 Z3 Z4 = 1",
        "Z1 X2 Z3 Z4 = 1",
        "Z1 Z2 X3 Z4 = 1",
        "-X1 X2 X3 Z4 = 1",
    ]


def test_lc4_witness_verifies_and_is_critical():
    # subsets recomputed by matching the four correlation strings against
    # all 16 stabilizer elements: {1,2}, {2}, {2,3}, {1,2,3}
    wanted = {"Y1 Y2 Z3", "Z1 X2 Z3", "Z1 Y2 Y3 Z4", "-Y1 X2 Y3 Z4"}
    found = {
        mask
        for mask in range(16)
        if format_word(*stabilizer_word(LC4, mask)) in wanted
    }
    assert found == {0b0011, 0b0010, 0b0110, 0b0111}
    assert verify_witness(LC4_WITNESS, LC4)
    assert is_critical(LC4_WITNESS, LC4)


def test_witness_with_member_removed_fails_parity():
    broken = GHZ4_WITNESS[:-1]
    assert not verify_witness(broken, FC4)


def test_padded_witness_is_rejected_and_not_critical():
    """A repeated member changes neither the parities nor the sign, so the
    padded set is still contradictory, but it is not a witness the search
    writes: ``verify_witness`` rejects it, and it is not critical."""
    padded = GHZ4_WITNESS + GHZ4_WITNESS[:1] * 2
    assert not verify_witness(padded, FC4)
    assert not is_critical(padded, FC4)


def test_consistent_set_is_not_critical():
    """Removing a member from a consistent set leaves it consistent, but the
    set was never a contradiction, so it is not critical."""
    for g, subsets in ((LC4, [(1, 2)]), (LC4, [(1,), (2,)]), (FC4, [(1,), (2,), (3,)])):
        w = witness_from(subsets)
        assert assignment_consistent(words(g, w), g.n).consistent
        assert not is_critical(w, g)


@pytest.mark.parametrize("extra", [(0,), (0b0001, 0b0001)], ids=["identity", "repeated"])
def test_identity_or_repeated_member_is_rejected(extra):
    """Neither an identity member nor a repeated one changes the parities,
    the sign or the inconsistency, so only the member check rejects them.
    The search itself is unchanged: it still finds the plain witness."""
    w = find_witness(LC4)
    assert w == (0b0010, 0b0011, 0b0110, 0b0111)
    assert verify_witness(w, LC4)
    padded = w + extra
    assert all_sign_assignments_consistent(ops(LC4, padded)) is False
    assert not verify_witness(padded, LC4)


def test_fc3_four_correlations_are_contradictory():
    check = assignment_consistent(words(FC3, (0b001, 0b010, 0b100, 0b111)), 3)
    assert not check.consistent
    assert check.certificate == (0, 1, 2, 3)


def test_fc4_and_lc4_correlation_quadruples_are_contradictory():
    assert not assignment_consistent(words(FC4, (0b0001, 0b0010, 0b0100, 0b0111)), 4).consistent
    assert not assignment_consistent(words(LC4, (0b0011, 0b0010, 0b0110, 0b0111)), 4).consistent


def test_single_operator_always_consistent():
    for mask in range(1, 16):
        check = assignment_consistent(words(FC4, [mask]), 4)
        assert check.consistent
        assert check.model is not None


def test_no_words_get_the_all_plus_one_model():
    check = assignment_consistent([], 2)
    assert check.consistent
    assert check.model == {(q, letter): 1 for q in (1, 2) for letter in "XYZ"}


def test_assignment_model_satisfies_all_operators():
    masks = (0b0011, 0b0010, 0b0110)
    check = assignment_consistent(words(LC4, masks), 4)
    assert check.consistent
    for op in ops(LC4, masks):
        prod = 1
        for q in op.support():
            prod *= check.model[(q, op.letter(q))]
        assert prod == sign_of(op)


def model_by_letters(operators, n):
    """The model of the rows laid out by ``op.letter`` in columns
    ``3 (q - 1) + "XYZ".index(letter)``, free variables +1, or None."""
    rows = [
        (sum(1 << 3 * (q - 1) + "XYZ".index(op.letter(q)) for q in op.support()), op.phase >> 1)
        for op in operators
    ]
    solution = canonical_solution(rows, 3 * n)
    if solution is None:
        return None
    return {
        (q, letter): -1 if solution >> 3 * (q - 1) + k & 1 else 1
        for q in range(1, n + 1)
        for k, letter in enumerate("XYZ")
    }


def test_assignment_consistency_matches_exhaustive_search():
    """Consistency by exhaustive search, and the model of the letter layout."""
    rng = random.Random(42)
    graphs = [FC3, path_graph(3), ring_graph(3), LC4]
    for _ in range(80):
        g = rng.choice(graphs)
        size = rng.randint(1, 5)
        masks = rng.sample(range(1, 1 << g.n), min(size, (1 << g.n) - 1))
        check = assignment_consistent(words(g, masks), g.n)
        assert check.consistent == all_sign_assignments_consistent(ops(g, masks))
        assert check.model == model_by_letters(ops(g, masks), g.n)


def _has_even_negative_submultiset(chosen):
    for k in range(1, len(chosen) + 1):
        for sub in combinations(chosen, k):
            px = py = pz = 0
            sign = 1
            for op in sub:
                x, z = op.x, op.z
                px ^= x & ~z
                py ^= x & z
                pz ^= z & ~x
                sign *= sign_of(op)
            if px == py == pz == 0 and sign == -1:
                return True
    return False


def test_parity_sign_duality_exhaustive():
    """Inconsistent iff some subset has all-even letter counts and sign -1."""
    g3 = path_graph(3)
    sets = [(g3, c) for size in (2, 3, 4) for c in combinations(range(1, 8), size)]
    sets += [(LC4, c) for size in (2, 3, 4, 5) for c in combinations(range(1, 16), size)]
    for g, chosen in sets:
        inconsistent = not assignment_consistent(words(g, chosen), g.n).consistent
        assert inconsistent == _has_even_negative_submultiset(ops(g, chosen))


def test_verified_witness_defeats_exhaustive_assignment_search_n5():
    g = ring_graph(5)
    w = find_witness(g)
    assert w is not None and verify_witness(w, g)
    assert not all_sign_assignments_consistent(ops(g, w))


def test_find_witness_fc3_matches_canonical_structure():
    w = find_witness(FC3)
    assert w is not None and len(w) == 4
    signs = [sign_of(stabilizer_element(FC3, s)) for s in w]
    assert signs.count(-1) % 2 == 1
    assert verify_witness(w, FC3)
    # deterministic
    assert find_witness(FC3) == w


def test_find_witness_lc4_alice_bob():
    w = find_witness(LC4)
    assert w is not None and len(w) <= 4
    assert verify_witness(w, LC4)


def test_find_witness_none_for_two_qubits():
    assert find_witness(Graph.from_edges(2, [(1, 2)])) is None


def test_underrepresented_qubits_flags_fixed_observer():
    w = find_witness(FC4)
    assert underrepresented_qubits(w, FC4) == (4,)
    # the four-correlation set shows qubit 4 only as Z4
    assert underrepresented_qubits(LC4_WITNESS, LC4) == (4,)
    # every qubit of the three-qubit witness shows two observables
    w3 = find_witness(FC3)
    assert underrepresented_qubits(w3, FC3) == ()


def _same_search(g, d, max_size, exhaustive=False):
    """The sweep of the pool ``d`` and ``exhaustive`` select returns None
    below size 4 and ``find_witness(g)`` from size 4 on, so the witness does
    not depend on the distribution.  A witness found verifies and is
    critical, and its underrepresented qubits are the ones its operators
    spell with fewer than two letters."""
    swept = witness_by_sweep(g, d, max_size=max_size, exhaustive=exhaustive)
    if max_size < 4:
        assert swept is None
        return
    found = find_witness(g)
    assert found == swept
    if found is None:
        return
    assert verify_witness(found, g)
    assert is_critical(found, g)
    members = ops(g, found)
    letters = {q: {op.letter(q) for op in members if q in op.support()} for q in range(1, g.n + 1)}
    assert underrepresented_qubits(found, g) == tuple(q for q, seen in letters.items() if len(seen) < 2)


def test_search_matches_sweep_on_every_small_class():
    """Every n <= 5 class representative under every distribution, sizes
    2..4; the whole stabilizer as pool too for n <= 4."""
    for n in range(2, 6):
        for record in classify_all(n):
            g = record.representative
            for particles in set_partitions(range(1, n + 1)):
                d = Distribution(n, particles)
                for max_size in (2, 3, 4):
                    _same_search(g, d, max_size)
                    if n <= 4:
                        _same_search(g, d, max_size, exhaustive=True)


@settings(max_examples=150, deadline=None)
@given(connected_cases(6), st.integers(2, 4))
def test_search_matches_sweep(case, max_size):
    g, d = case
    _same_search(g, d, max_size)


RING8 = ring_graph(8)
RING8_DIST = parse_distribution("1,4,5,8|2,3,6,7", 8)


def test_ring8_size_four_past_the_old_cap():
    with pytest.raises(ResourceLimitError, match=r"\(92 candidates, size 4\)"):
        witness_by_sweep(RING8, RING8_DIST, max_size=4)
    w = find_witness(RING8)
    assert w is not None and len(w) == 4
    assert verify_witness(w, RING8)
    assert is_critical(w, RING8)
    assert witness_by_sweep(RING8, RING8_DIST, max_size=3) is None


def test_search_matches_sweep_on_every_labelled_graph():
    """Every labelled graph with n <= 4 (every edge set): the sweep finds
    ``find_witness(g)`` under every distribution, with either pool."""
    for n in range(1, 5):
        for edges in edge_sets(n):
            g = Graph.from_edges(n, edges)
            found = find_witness(g)
            for particles in set_partitions(range(1, n + 1)):
                d = Distribution(n, particles)
                for exhaustive in (False, True):
                    assert found == witness_by_sweep(g, d, exhaustive=exhaustive), (format_graph(g), particles)


@settings(max_examples=60, deadline=None)
@given(labelled_cases(6, min_n=5))
def test_search_matches_sweep_on_random_labelled_graphs(case):
    """Random edge sets with n = 5..6, disconnected ones included."""
    g, d = case
    assert find_witness(g) == witness_by_sweep(g, d)


@pytest.mark.parametrize(
    "g, least",
    [(star_graph(8), (0b001, 0b011, 0b101, 0b111)), (complete_graph(8), (0b001, 0b010, 0b100, 0b111))],
    ids=["star8", "complete8"],
)
def test_largest_pools_give_a_size_four_witness(g, least):
    """With singletons every stabilizer element of the 8-qubit star and
    complete graph certifies an element of reality, so every one of the 255
    belongs to the pool, too many for the sweep.  The answer is the least
    GHZ quadruple, and it verifies and is critical."""
    w = find_witness(g)
    assert w == least == min(tuple(sorted(q)) for q in ghz_quadruples(g))
    assert verify_witness(w, g)
    assert is_critical(w, g)


def letter_parity(op):
    """One bit per (qubit, letter) the oracle's ``op.letter`` shows."""
    return sum(1 << 3 * (q - 1) + "XYZ".index(op.letter(q)) for q in op.support())


def contradicts(members):
    """Every letter an even number of times on every qubit, signs multiplying to -1."""
    parity, sign = 0, 1
    for op in members:
        parity ^= letter_parity(op)
        sign *= sign_of(op)
    return parity == 0 and sign == -1


def ghz_quadruples(g):
    """The closed-form witness at every induced path j-i-k ({i}, {i,j},
    {i,k}, {i,j,k}) and every triangle i, j, k ({i}, {j}, {k}, {i,j,k})."""
    for i in range(g.n):
        neighbours = [j for j in range(g.n) if g.adj[i] >> j & 1]
        for j, k in combinations(neighbours, 2):
            if g.adj[j] >> k & 1:
                yield (1 << i, 1 << j, 1 << k, 1 << i | 1 << j | 1 << k)
            else:
                yield (1 << i, 1 << i | 1 << j, 1 << i | 1 << k, 1 << i | 1 << j | 1 << k)


def test_ghz_quadruples_verify_on_every_connected_graph():
    """Each closed form is a witness of products of at most three
    generators, at every induced path and triangle of every connected graph
    with n = 3..6; every such graph has one."""
    for n in range(3, 7):
        for enc in connected_graph_reps(n):
            g = graph_from_encoding(n, enc)
            quadruples = list(ghz_quadruples(g))
            assert quadruples, format_graph(g)
            for masks in quadruples:
                w = tuple(sorted(masks))
                assert verify_witness(w, g), (format_graph(g), masks)
                assert contradicts(ops(g, w))


def test_no_witness_has_two_or_three_members():
    """No 2- or 3-subset of the nonidentity stabilizer contradicts, on every
    graph with n <= 5 (one per isomorphism class)."""
    for n in range(2, 6):
        graphs = {}
        for edges in edge_sets(n):
            g = Graph.from_edges(n, edges)
            graphs.setdefault(canonical_form(g).encoding, g)
        for g in graphs.values():
            members = ops(g, range(1, 1 << n))
            for size in (2, 3):
                assert not any(contradicts(c) for c in combinations(members, size)), format_graph(g)


def test_search_at_every_size_is_the_size_eight_sweep():
    """The sweep at every ``max_size`` 4..8 finds ``find_witness(g)``, on
    every distribution of every class representative with n <= 4, with
    either pool."""
    for n in range(2, 5):
        for record in classify_all(n):
            g = record.representative
            found = find_witness(g)
            for particles in set_partitions(range(1, n + 1)):
                d = Distribution(n, particles)
                for exhaustive in (True, False):
                    for max_size in range(4, 9):
                        swept = witness_by_sweep(g, d, max_size=max_size, exhaustive=exhaustive)
                        assert found == swept, (format_graph(g), particles, max_size)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_no_witness_when_every_component_has_at_most_two_vertices(n):
    """The empty graph, one edge plus isolated vertices, and a perfect
    matching: no witness, and none in the sweep of the whole stabilizer up
    to size 8, which holds every pool and every smaller size."""
    graphs = [Graph.from_edges(n, []), Graph.from_edges(n, [(1, 2)] if n >= 2 else [])]
    if n % 2 == 0:
        graphs.append(Graph.from_edges(n, [(q, q + 1) for q in range(1, n, 2)]))
    singles = Distribution(n, tuple((q,) for q in range(1, n + 1)))
    for g in graphs:
        assert find_witness(g) is None
        assert witness_by_sweep(g, singles, max_size=8, exhaustive=True) is None


def test_verification_builds_no_float_state(monkeypatch):
    """``verify_witness`` decides the members on the graph's sign bits: it
    calls neither ``statevector`` nor ``expectation``, at any n."""

    def forbidden(*args):
        pytest.fail("a float state was used")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "avnproofs":
            for attr in ("statevector", "expectation"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, forbidden)
    for g in (FC3, FC4, LC4, ring_graph(5), RING8, path_graph(13), complete_graph(16)):
        w = find_witness(g)
        assert verify_witness(w, g)
        assert not verify_witness(w[:3] + (w[3] ^ 1,), g)


@pytest.mark.parametrize("n", [5, 12, 13, 16])
def test_verification_rejects_broken_correlations_at_every_n(n, monkeypatch):
    """Flipping Z bit q of two members whose X bit q agrees keeps the parity
    key, so only the correlation check can reject the set; it runs at every
    n, also past the statevector's n = 12."""
    g = path_graph(n)
    w = (0b010, 0b011, 0b110, 0b111)  # the GHZ quadruple at vertex 2
    assert verify_witness(w, g)
    q = n - 1  # qubit n, outside every member
    real = witness.stabilizer_word

    def tampered(graph, s):
        x, z, phase = real(graph, s)
        return x, z ^ (1 << q if s in w[:2] else 0), phase

    key = 0
    for s in w:
        key ^= witness._parity_key(tampered(g, s), n)
    assert key == 1 << 3 * n
    monkeypatch.setattr(witness, "stabilizer_word", tampered)
    assert not verify_witness(w, g)


def compress(mask, support):
    """The bits of ``mask`` inside ``support``, packed in order."""
    out = k = 0
    for v in range(support.bit_length()):
        if support >> v & 1:
            out |= (mask >> v & 1) << k
            k += 1
    return out


@settings(max_examples=100, deadline=None)
@given(labelled_cases(10, min_n=3), st.data())
def test_witness_locality(case, data):
    """For every three distinct subsets a, b, c of a few vertices,
    {a, b, c, a ^ b ^ c} verifies on G exactly when its in-order compression
    verifies on G[U], U = a | b | c, and compression keeps the order of the
    members."""
    g = case[0]
    near = data.draw(st.sets(st.integers(0, g.n - 1), min_size=3, max_size=4))
    inside = sum(1 << v for v in near)
    for a, b, c in combinations([m for m in range(1, inside + 1) if m & inside == m], 3):
        u = a | b | c
        w = tuple(sorted({a, b, c, a ^ b ^ c}))
        vertices = [v for v in range(g.n) if u >> v & 1]
        induced = Graph(len(vertices), tuple(compress(g.adj[v], u) for v in vertices))
        compressed = tuple(compress(m, u) for m in w)
        assert compressed == tuple(sorted(compressed))
        assert verify_witness(w, g) == verify_witness(compressed, induced), (format_graph(g), w)
