import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avnproofs import reality
from avnproofs import (
    Distribution,
    Graph,
    LengthMismatchError,
    UnsupportedInputError,
    allows_specific_avn,
    classify_all,
    complete_graph,
    format_word,
    gf2_unit_solutions,
    is_element_of_reality,
    local_complement,
    min_party_distributions,
    parse_distribution,
    path_graph,
    relabel,
    ring_graph,
    stabilizer_element,
    stabilizer_word,
)
from oracles import eor_subset_by_system, gf2_rank, letter_at, reduced_stabilizer, set_partitions
from strategies import connected_cases

LC4 = path_graph(4)
LC6 = path_graph(6)


def test_singleton_subset_shows_x():
    for g in (LC4, complete_graph(4), ring_graph(5)):
        for i in range(1, g.n + 1):
            assert letter_at(g, 1 << (i - 1), i) == "X"


def test_empty_subset_shows_identity():
    for i in range(1, 5):
        assert letter_at(LC4, 0, i) == "I"


def test_lc4_pair_shows_y_on_qubit1():
    assert letter_at(LC4, 0b0011, 1) == "Y"


@pytest.mark.parametrize("subset", [-1, 1 << 4, 1 << 5])
def test_stabilizer_word_rejects_a_subset_out_of_range(subset):
    shown = {-1: "-0x1", 1 << 4: "0x10", 1 << 5: "0x20"}[subset]
    with pytest.raises(ValueError, match=f"subset mask {shown} out of range for n=4"):
        stabilizer_word(LC4, subset)


@pytest.mark.parametrize("g", [LC4, complete_graph(4), ring_graph(5), path_graph(5)])
def test_letter_is_the_operator_letter_and_the_neighbour_parity_rule(g):
    """The letter at i is X when i is selected and an even number of its
    neighbours are, Y for an odd number, Z when i is unselected with an odd
    neighbour count, and I otherwise."""
    for mask in range(1 << g.n):
        op = stabilizer_element(g, mask)
        for i in range(1, g.n + 1):
            selected = mask >> (i - 1) & 1
            parity = (mask & g.adj[i - 1]).bit_count() & 1
            assert letter_at(g, mask, i) == op.letter(i) == "IZXY"[2 * selected + parity]


def test_letter_bins_are_a_quarter_each():
    for n in range(2, 7):
        for record in classify_all(n):
            g = record.representative
            for i in range(1, n + 1):
                bins = dict.fromkeys("IXYZ", 0)
                for mask in range(1 << n):
                    bins[letter_at(g, mask, i)] += 1
                assert all(count == 1 << (n - 2) for count in bins.values())


def test_lc4_alice_bob_x1_witness_is_g1():
    d = parse_distribution("1,4|2,3", 4)
    w = is_element_of_reality(LC4, d, 1, "X")
    assert w == 0b0001
    assert format_word(*stabilizer_word(LC4, w)) == "X1 Z2"


def test_lc4_alice_bob_x2_witness_is_z1x2x4():
    d = parse_distribution("1,4|2,3", 4)
    w = is_element_of_reality(LC4, d, 2, "X")
    assert format_word(*stabilizer_word(LC4, w)) == "Z1 X2 X4"


def test_neighborhood_inside_particle_kills_y_and_z():
    d = parse_distribution("1,2|3,4", 4)
    assert is_element_of_reality(LC4, d, 1, "Z") is None
    assert is_element_of_reality(LC4, d, 1, "Y") is None
    # X can survive: X1 X3 Z4 predicts X1 from the other particle alone
    wx = is_element_of_reality(LC4, d, 1, "X")
    assert wx is not None
    assert format_word(*stabilizer_word(LC4, wx)) == "X1 X3 Z4"


def test_solver_and_brute_agree_with_same_witness_soundness():
    dists = {
        4: ["1,4|2,3", "1,2|3,4", "1|2|3|4", "1,3|2,4"],
        5: ["1,5|2,4|3", "1,2|3,4|5", "1|2|3|4|5"],
        6: ["1,4,5|2,3,6", "1,2|3|4|5,6", "1,3,5|2,4,6", "1,2,3|4,5,6"],
    }
    for g in (LC4, ring_graph(5), path_graph(5), LC6, ring_graph(6), complete_graph(5)):
        for text in dists[g.n]:
            d = parse_distribution(text, g.n)
            for i in range(1, g.n + 1):
                for pauli in "XYZ":
                    ws = is_element_of_reality(g, d, i, pauli, method="solver")
                    wb = is_element_of_reality(g, d, i, pauli, method="brute")
                    assert (ws is None) == (wb is None)


def test_x_and_y_imply_z_via_subset_xor():
    for g in (LC4, LC6, ring_graph(5), complete_graph(4)):
        for text in ("|".join(str(i) for i in range(1, g.n + 1)),):
            d = parse_distribution(text, g.n)
            for i in range(1, g.n + 1):
                wx = is_element_of_reality(g, d, i, "X")
                wy = is_element_of_reality(g, d, i, "Y")
                assert wx is not None and wy is not None
                wz = is_element_of_reality(g, d, i, "Z")
                assert wz is not None
                candidate = wx ^ wy
                assert letter_at(g, candidate, i) == "Z"


def test_allows_lc6_known_cases():
    assert allows_specific_avn(LC6, parse_distribution("1,4,5|2,3,6", 6)).allows
    res = allows_specific_avn(LC6, parse_distribution("1,2|3|4|5,6", 6))
    assert not res.allows
    assert res.shortcut is not None
    # derived by hand: the alternating bipartition also qualifies, while
    # 1,2,4|3,5,6 is rejected (qubit 1's only neighbor is a particle mate)
    assert allows_specific_avn(LC6, parse_distribution("1,3,5|2,4,6", 6)).allows
    blocked = allows_specific_avn(LC6, parse_distribution("1,2,4|3,5,6", 6))
    assert not blocked.allows and blocked.shortcut is not None
    # and 1,2,3,4-style fat particles hit the size shortcut
    fat = allows_specific_avn(LC6, parse_distribution("1,2,3,4|5,6", 6))
    assert not fat.allows and "n/2" in fat.shortcut


def test_allows_fc4_singletons():
    res = allows_specific_avn(complete_graph(4), parse_distribution("1|2|3|4", 4))
    assert res.allows
    assert all(res.eor[i][p] is not None for i in range(1, 5) for p in "XYZ")


def test_allows_rejects_unsupported_inputs():
    from avnproofs import Graph

    with pytest.raises(UnsupportedInputError):
        allows_specific_avn(Graph.from_edges(2, [(1, 2)]), parse_distribution("1|2", 2))
    disconnected = Graph.from_edges(4, [(1, 2), (3, 4)])
    with pytest.raises(UnsupportedInputError):
        allows_specific_avn(disconnected, parse_distribution("1,3|2,4", 4))
    with pytest.raises(LengthMismatchError):
        allows_specific_avn(LC4, parse_distribution("1,2|3,4,5", 5))


def test_reduced_stabilizer_single_particle_is_full_restriction():
    d = Distribution(4, ((1, 2, 3, 4),))
    reduced = reduced_stabilizer(LC4, d, 0)
    assert sum(reduced.values()) == 16
    expected = {
        "".join(stabilizer_element(LC4, m).letter(q) for q in range(1, 5))
        for m in range(16)
    }
    assert set(reduced) == expected
    assert all(v == 1 for v in reduced.values())


def test_reduced_stabilizer_lc4_alice():
    d = parse_distribution("1,4|2,3", 4)
    reduced = reduced_stabilizer(LC4, d, 0)
    assert sum(reduced.values()) == 16
    assert reduced["XI"] >= 1  # restriction of the first generator
    # all Paulis of both qubits are elements of reality, so the support is full
    assert set(reduced) == {a + b for a in "IXYZ" for b in "IXYZ"}


def test_reduced_stabilizer_support_not_full_when_blocked():
    d = parse_distribution("1,2|3,4", 4)
    reduced = reduced_stabilizer(LC4, d, 0)
    assert set(reduced) != {a + b for a in "IXYZ" for b in "IXYZ"}


def test_distribution_validation_and_helpers():
    d = parse_distribution("1,4,5|2,3,6", 6)
    assert d.m == 2
    assert d.shape() == (3, 3)
    assert d.pmasks[0] == 0b011000  # qubits 4 and 5
    assert d.canonical_key() == ((1, 4, 5), (2, 3, 6))
    assert str(d) == "1,4,5|2,3,6"
    with pytest.raises(ValueError):
        Distribution(4, ((1, 2), (2, 3)))
    with pytest.raises(ValueError):
        Distribution(4, ((1, 2),))
    with pytest.raises(ValueError):
        Distribution(4, ((1, 2), (3, 4), ()))


def test_distribution_preserves_user_particle_order():
    d = parse_distribution("2,3|1,4", 4)
    assert d.particles == ((2, 3), (1, 4))
    assert d.canonical_key() == ((1, 4), (2, 3))


@pytest.fixture
def fresh_lookups():
    """Clear the solver's lookup table around a test that patches the
    elimination, so no table crosses the patch in either direction."""
    reality._particle_lookup.cache_clear()
    yield
    reality._particle_lookup.cache_clear()


@pytest.mark.parametrize(
    "wrong,message",
    [(0b0000, "does not show X on qubit 1"), (0b0001, "acts on particle mate 2")],
)
def test_wrong_solver_subset_raises(monkeypatch, fresh_lookups, wrong, message):
    # every unit right-hand side "solves" to the wrong mask, with no conflict
    monkeypatch.setattr(reality, "gf2_unit_solutions", lambda rows: [(wrong, 0)] * len(rows))
    d = parse_distribution("1,2|3,4", 4)
    with pytest.raises(AssertionError, match=message):
        is_element_of_reality(LC4, d, 1, "X")


def _count_verifications(monkeypatch):
    calls = []
    real = reality._verify_witness_subset

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(reality, "_verify_witness_subset", counting)
    return calls


def test_lookup_verifies_its_particle_once(monkeypatch, fresh_lookups):
    """A cold lookup verifies every entry of the qubit's particle exactly
    once; a second lookup reads the cached table and verifies nothing."""
    calls = _count_verifications(monkeypatch)
    d = parse_distribution("1,2|3,4", 4)
    assert is_element_of_reality(LC4, d, 1, "X") is not None
    entries = {
        (i, p)
        for i, row in zip((1, 2), reality._particle_lookup(LC4, (1, 2)))
        for p, w in zip("XYZ", row)
        if w is not None
    }
    assert len(calls) == len(entries)
    assert {args[2:4] for args in calls} == entries
    calls.clear()
    assert is_element_of_reality(LC4, d, 1, "Z") is None
    assert calls == []


def test_failed_verification_is_not_cached(monkeypatch, fresh_lookups):
    monkeypatch.setattr(reality, "gf2_unit_solutions", lambda rows: [(0, 0)] * len(rows))
    d = parse_distribution("1,2|3,4", 4)
    for _ in range(2):
        with pytest.raises(AssertionError, match="does not show X on qubit 1"):
            is_element_of_reality(LC4, d, 1, "X")


def _count_eliminations(monkeypatch):
    solves = []
    real = reality.gf2_unit_solutions

    def counting(rows):
        solves.append(rows)
        return real(rows)

    monkeypatch.setattr(reality, "gf2_unit_solutions", counting)
    return solves


def test_repeated_lookups_eliminate_and_verify_once(monkeypatch, fresh_lookups):
    """Tables and lookups of the same particles share one elimination per
    particle, and every entry is verified once, when its table is built."""
    solves = _count_eliminations(monkeypatch)
    calls = _count_verifications(monkeypatch)
    d = parse_distribution("1,2|3,4", 4)
    tables = [allows_specific_avn(LC4, d) for _ in range(2)]
    entries = sum(w is not None for row in tables[0].eor.values() for w in row.values())
    assert len(solves) == 2  # one elimination per particle
    assert len(calls) == entries
    assert tables[0].eor == tables[1].eor
    assert tables[0].eor[1] is not tables[1].eor[1]  # fresh rows on each call
    found = [
        is_element_of_reality(LC4, d, i, p) for _ in range(2) for i in range(1, 5) for p in "XYZ"
    ]
    assert len(solves) == 2
    assert len(calls) == entries
    assert found[:12] == found[12:]
    assert found[:12] == [w and w[0] for w in (tables[0].eor[i][p] for i in range(1, 5) for p in "XYZ")]
    with pytest.raises(TypeError):
        reality._particle_lookup(LC4, (1, 2))[0][0] = 0
    assert reality._particle_lookup(LC4, (1, 2))[0][0] is tables[0].eor[1]["X"]


def word_of(g, mask):
    """The operator of a certifying subset mask, or None for no certificate."""
    return None if mask is None else stabilizer_word(g, mask)


def test_table_entries_equal_the_lookups():
    """``check``'s table holds the words of the subsets that
    ``is_element_of_reality`` returns, on every distribution of the
    connected n <= 5 class representatives, under both methods."""
    for n in range(3, 6):
        for record in classify_all(n):
            g = record.representative
            for particles in set_partitions(range(1, n + 1)):
                d = Distribution(n, particles)
                for method in ("solver", "brute"):
                    eor = allows_specific_avn(g, d, method=method).eor
                    for i in range(1, n + 1):
                        for p in "XYZ":
                            assert eor[i][p] == word_of(g, is_element_of_reality(g, d, i, p, method=method))


def test_reported_tables_eliminate_once_per_particle(monkeypatch, fresh_lookups):
    """The search eliminates nothing; reading its reports' tables eliminates
    once per distinct reported particle."""
    solves = _count_eliminations(monkeypatch)
    graphs = [path_graph(8), ring_graph(8), complete_graph(6)]
    graphs += [record.representative for record in classify_all(6)]
    for g in graphs:
        for dedupe in (True, False):
            reality._particle_lookup.cache_clear()
            solves.clear()
            _, reports = min_party_distributions(g, dedupe=dedupe)
            assert solves == []
            assert all(r.decision.allows for r in reports)
            particles = {p for r in reports for p in r.distribution.particles}
            assert len(solves) == len(particles)


def test_table_verifies_every_entry(monkeypatch, fresh_lookups):
    calls = _count_verifications(monkeypatch)
    d = parse_distribution("1,2|3,4", 4)
    decision = allows_specific_avn(LC4, d)
    entries = {(i, p) for i, row in decision.eor.items() for p, w in row.items() if w}
    assert len(calls) == len(entries)
    assert {args[2:4] for args in calls} == entries


def test_table_rejects_a_wrong_later_entry(monkeypatch, fresh_lookups):
    # only qubit 4's Z unit (the last row) solves to a wrong mask
    real = reality.gf2_unit_solutions

    def wrong_last(rows):
        units = real(rows)
        return units[:-1] + [(0, 0)] if rows[-1] == LC4.adj[3] else units

    monkeypatch.setattr(reality, "gf2_unit_solutions", wrong_last)
    d = parse_distribution("1,2|3,4", 4)
    with pytest.raises(AssertionError, match="on qubit 4"):
        allows_specific_avn(LC4, d)


def test_wrong_solver_subset_raises_under_python_O():
    script = """
import sys
import avnproofs.reality as reality
from avnproofs import parse_distribution, path_graph

if not sys.flags.optimize:
    sys.exit("not running under -O")
reality.gf2_unit_solutions = lambda rows: [(0, 0)] * len(rows)
try:
    reality.is_element_of_reality(
        path_graph(4), parse_distribution("1,2|3,4", 4), 1, "X"
    )
except AssertionError as exc:
    print(exc)
    sys.exit(0)
sys.exit("wrong subset accepted")
"""
    src = str(Path(reality.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert "does not show X on qubit 1" in proc.stdout


def assert_table_matches_per_qubit_systems(g, d):
    """Every entry of the table is the word of its own subset, and the x
    parts are the subsets that the per-qubit parity systems give."""
    eor = allows_specific_avn(g, d).eor
    oracle = {i: {p: eor_subset_by_system(g, d, i, p) for p in "XYZ"} for i in range(1, g.n + 1)}
    assert {i: {p: w and w[0] for p, w in row.items()} for i, row in eor.items()} == oracle
    for row in eor.values():
        for word in row.values():
            assert word is None or word == stabilizer_word(g, word[0])


def test_table_matches_per_qubit_systems_exhaustively():
    """The one-elimination-per-particle table gives the very subsets that the
    per-qubit parity systems give, as their words, on every n <= 6 class
    representative under every distribution."""
    for n in range(3, 7):
        for record in classify_all(n):
            g = record.representative
            for particles in set_partitions(range(1, n + 1)):
                assert_table_matches_per_qubit_systems(g, Distribution(n, particles))


@settings(max_examples=150, deadline=None)
@given(connected_cases(12))
def test_table_matches_per_qubit_systems(case):
    assert_table_matches_per_qubit_systems(*case)


def test_particle_rank_is_size_plus_cut_rank():
    """The rows {e_j, Gamma_j : j in A} have rank |A| + E(A), where E(A) is the
    rank of the adjacency block between A and the other qubits."""
    for n in range(3, 7):
        for record in classify_all(n):
            g = record.representative
            for particles in set_partitions(range(1, n + 1)):
                for particle in particles:
                    inside = sum(1 << (q - 1) for q in particle)
                    rows = [r for q in particle for r in (1 << (q - 1), g.adj[q - 1])]
                    # each dependency involves at least the row that reduced
                    # to zero, so the union of the conflict masks counts them
                    dependencies = 0
                    for _, conflicts in gf2_unit_solutions(rows):
                        dependencies |= conflicts
                    cut = [g.adj[q - 1] & ~inside for q in particle]
                    rank = len(rows) - dependencies.bit_count()
                    assert rank == len(particle) + gf2_rank(cut, n)


@settings(max_examples=150, deadline=None)
@given(connected_cases(10), st.data())
def test_verdict_is_invariant_under_local_complementation(case, data):
    g, d = case
    v = data.draw(st.integers(1, g.n))
    assert allows_specific_avn(local_complement(g, v), d).allows == allows_specific_avn(g, d).allows


@settings(max_examples=150, deadline=None)
@given(connected_cases(10), st.data())
def test_table_is_invariant_under_relabelling(case, data):
    g, d = case
    perm = data.draw(st.permutations(range(g.n)))
    moved = Distribution(g.n, tuple(tuple(perm[q - 1] + 1 for q in p) for p in d.particles))
    before = allows_specific_avn(g, d)
    after = allows_specific_avn(relabel(g, perm), moved)
    assert after.allows == before.allows
    for i, row in before.eor.items():
        for p, w in row.items():
            assert (after.eor[perm[i - 1] + 1][p] is None) == (w is None)


@settings(max_examples=150, deadline=None)
@given(connected_cases(10))
def test_z_certificate_is_xor_of_x_and_y(case):
    g, d = case
    for row in allows_specific_avn(g, d).eor.values():
        if row["X"] is not None and row["Y"] is not None:
            assert row["Z"] is not None
            assert row["Z"] == stabilizer_word(g, row["X"][0] ^ row["Y"][0])
