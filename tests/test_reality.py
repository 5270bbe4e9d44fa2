import os
import subprocess
import sys
from pathlib import Path

import pytest

from avnproofs import reality
from avnproofs import (
    ActionClass,
    Bitvec,
    Distribution,
    LengthMismatchError,
    UnsupportedInputError,
    allows_specific_avn,
    classify_all,
    classify_action,
    complete_graph,
    is_element_of_reality,
    parse_distribution,
    path_graph,
    reduced_stabilizer,
    ring_graph,
    stabilizer_element,
)

LC4 = path_graph(4)
LC6 = path_graph(6)


def test_classify_singleton_subset_is_x():
    for g in (LC4, complete_graph(4), ring_graph(5)):
        for i in range(1, g.n + 1):
            assert classify_action(Bitvec(g.n, 1 << (i - 1)), g, i) is ActionClass.PREDICTS_X


def test_classify_empty_subset_is_identity():
    for i in range(1, 5):
        assert classify_action(Bitvec(4, 0), LC4, i) is ActionClass.IDENTITY


def test_classify_lc4_pair_qubit1_is_y():
    assert classify_action(Bitvec.from_indices(4, [0, 1]), LC4, 1) is ActionClass.PREDICTS_Y


@pytest.mark.parametrize("g", [LC4, complete_graph(4), ring_graph(5), path_graph(5)])
def test_classify_matches_operator_letter(g):
    for mask in range(1 << g.n):
        op = stabilizer_element(g, mask)
        for i in range(1, g.n + 1):
            assert classify_action(mask, g, i).value == op.letter(i)


def test_class_sizes_are_a_quarter_each():
    for n in range(2, 7):
        for record in classify_all(n):
            g = record.representative
            for i in range(1, n + 1):
                bins = {cls: 0 for cls in ActionClass}
                for mask in range(1 << n):
                    bins[classify_action(mask, g, i)] += 1
                assert all(count == 1 << (n - 2) for count in bins.values())


def test_lc4_alice_bob_x1_witness_is_g1():
    d = parse_distribution("1,4|2,3", 4)
    w = is_element_of_reality(LC4, d, 1, "X")
    assert w.subset == Bitvec.from_indices(4, [0])
    assert str(stabilizer_element(LC4, w.subset)) == "X1 Z2"


def test_lc4_alice_bob_x2_witness_is_z1x2x4():
    d = parse_distribution("1,4|2,3", 4)
    w = is_element_of_reality(LC4, d, 2, "X")
    assert str(stabilizer_element(LC4, w.subset)) == "Z1 X2 X4"


def test_neighborhood_inside_particle_kills_y_and_z():
    d = parse_distribution("1,2|3,4", 4)
    assert is_element_of_reality(LC4, d, 1, "Z") is None
    assert is_element_of_reality(LC4, d, 1, "Y") is None
    # X can survive: X1 X3 Z4 predicts X1 from the other particle alone
    wx = is_element_of_reality(LC4, d, 1, "X")
    assert wx is not None
    assert str(stabilizer_element(LC4, wx.subset)) == "X1 X3 Z4"


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
                candidate = wx.subset ^ wy.subset
                assert classify_action(candidate, g, i) is ActionClass.PREDICTS_Z


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
    assert d.particle_of(3) == 1
    assert d.pmask(1) == 0b011000  # qubits 4 and 5
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


@pytest.mark.parametrize(
    "wrong,message",
    [(0b0000, "does not show X on qubit 1"), (0b0001, "acts on particle mate 2")],
)
def test_wrong_solver_subset_raises(monkeypatch, wrong, message):
    monkeypatch.setattr(reality, "gf2_solve", lambda system: Bitvec(4, wrong))
    d = parse_distribution("1,2|3,4", 4)
    with pytest.raises(AssertionError, match=message):
        is_element_of_reality(LC4, d, 1, "X")


def test_wrong_solver_subset_raises_under_python_O():
    script = """
import sys
import avnproofs.reality as reality
from avnproofs import Bitvec, parse_distribution, path_graph

if not sys.flags.optimize:
    sys.exit("not running under -O")
reality.gf2_solve = lambda system: Bitvec(4, 0)
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
