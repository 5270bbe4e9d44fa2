import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import avnproofs
from avnproofs import (
    LengthMismatchError,
    NonHermitianSignError,
    PauliOperator,
    complete_graph,
    format_word,
    pauli_multiply,
    path_graph,
    stabilizer_element,
)
from avnproofs.pauli import qubits_of
from oracles import format_pauli_by_letters, operator_matrix, sign_of, single_letter


def all_paulis(n, phases=(0,)):
    for x in range(1 << n):
        for z in range(1 << n):
            for phase in phases:
                yield PauliOperator(x, z, phase, n=n)


def test_product_matches_matrix_oracle_n1_all_phases():
    ops = list(all_paulis(1, phases=(0, 1, 2, 3)))
    for p, q in product(ops, repeat=2):
        expected = operator_matrix(p) @ operator_matrix(q)
        assert np.allclose(operator_matrix(pauli_multiply(p, q)), expected)


def test_product_matches_matrix_oracle_n2():
    ops = list(all_paulis(2))
    for p, q in product(ops, repeat=2):
        expected = operator_matrix(p) @ operator_matrix(q)
        assert np.allclose(operator_matrix(pauli_multiply(p, q)), expected)


def test_associativity_and_identity_exhaustive_n3():
    ops = list(all_paulis(3))
    e = PauliOperator(0, 0, n=3)
    for p in ops:
        assert pauli_multiply(p, e) == p
        assert pauli_multiply(e, p) == p
    for p, q, r in product(ops, repeat=3):
        assert pauli_multiply(pauli_multiply(p, q), r) == pauli_multiply(
            p, pauli_multiply(q, r)
        )


def test_involution_for_sign_valid_operators():
    for n in (1, 2, 3):
        for p in all_paulis(n, phases=(0, 2)):
            sq = pauli_multiply(p, p)
            assert sq.x == 0 and sq.z == 0
            assert sign_of(sq) == 1


def test_x_times_x_is_identity():
    x = single_letter(1, 1, "X")
    assert pauli_multiply(x, x) == PauliOperator(0, 0, n=1)


def test_fc4_generator_product_has_minus_sign():
    fc4 = complete_graph(4)
    op = stabilizer_element(fc4, 0b0111)
    assert format_word(op.x, op.z, op.phase) == "-X1 X2 X3 Z4"
    assert sign_of(op) == -1


def test_lc4_pair_product_is_y1y2z3():
    lc4 = path_graph(4)
    op = stabilizer_element(lc4, 0b0011)
    assert format_word(op.x, op.z, op.phase) == "Y1 Y2 Z3"
    assert sign_of(op) == 1


def test_sign_of_identity_and_errors():
    assert sign_of(PauliOperator(0, 0, n=2)) == 1
    with pytest.raises(NonHermitianSignError):
        sign_of(PauliOperator(1, 1, 1, n=1))
    with pytest.raises(NonHermitianSignError):
        sign_of(PauliOperator(0, 0, 3, n=1))


def test_path5_all_subset_products_have_plain_signs():
    g = path_graph(5)
    for mask in range(1 << 5):
        op = stabilizer_element(g, mask)
        assert op.phase in (0, 2)


def test_length_mismatch_rejected():
    with pytest.raises(LengthMismatchError):
        pauli_multiply(PauliOperator(0, 0, n=2), PauliOperator(0, 0, n=3))
    for x, z in ((0b100, 0), (0, 0b100), (-1, 0), (0, -1)):
        with pytest.raises(ValueError):
            PauliOperator(x, z, n=2)
    PauliOperator(0b11, 0b11, n=2)  # both masks at the widest that fits
    with pytest.raises(TypeError):
        PauliOperator(0, 0, 0)


def test_letters_and_support():
    op = single_letter(4, 2, "Y")
    assert op.letter(2) == "Y" and op.letter(1) == "I"
    assert op.support() == (2,)
    assert format_word(op.x, op.z, op.phase) == "Y2"
    assert format_word(0, 0, 0) == "1"
    with pytest.raises(ValueError, match="mask -1 is negative"):
        qubits_of(-1)
    with pytest.raises(ValueError, match="mask -1 is negative"):
        format_word(-1, 0, 0)
    for letter in "IXYZ":
        assert single_letter(1, 1, letter).letter(1) == letter


def test_format_word_matches_letter_spelling_exhaustive_n4():
    for n in range(5):
        for op in all_paulis(n, phases=(0, 2)):
            assert format_word(op.x, op.z, op.phase) == format_pauli_by_letters(op)


def test_format_word_covers_sixteen_qubits_and_no_more():
    assert format_word(1 << 15 | 1, 1 << 15, 2) == "-X1 Y16"
    assert format_word(1 << 15, 0, 0) == "X16"
    assert format_word(0, 1 << 2, 0) == "Z3"
    for x, z in ((1 << 16, 0), (0, 1 << 16), (1 << 69 | 1, 0)):
        with pytest.raises(ValueError, match="reaches past qubit 16$"):
            format_word(x, z, 0)


@pytest.mark.parametrize("phase", [1, 3])
def test_format_word_rejects_an_odd_phase(phase):
    with pytest.raises(NonHermitianSignError, match=f"phase exponent {phase}"):
        format_word(1, 0, phase)
    with pytest.raises(NonHermitianSignError):
        format_word(1, 1, phase)


def test_format_word_rejects_an_odd_phase_under_optimisation():
    """The raise is explicit, so ``python -O`` keeps it."""
    script = (
        "from avnproofs import NonHermitianSignError, format_word\n"
        "for phase in (1, 3):\n"
        "    try:\n"
        "        format_word(1, 0, phase)\n"
        "    except NonHermitianSignError:\n"
        "        print(phase)\n"
    )
    src = str(Path(avnproofs.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True
    )
    assert (proc.returncode, proc.stdout) == (0, "1\n3\n"), proc.stderr


@st.composite
def sign_valid_paulis(draw):
    n = draw(st.integers(1, 16))
    x = draw(st.integers(0, (1 << n) - 1))
    z = draw(st.integers(0, (1 << n) - 1))
    return PauliOperator(x, z, draw(st.sampled_from((0, 2))), n=n)


@settings(max_examples=500, deadline=None)
@given(sign_valid_paulis())
def test_format_word_matches_letter_spelling_up_to_n16(op):
    assert format_word(op.x, op.z, op.phase) == format_pauli_by_letters(op)


@settings(max_examples=200, deadline=None)
@given(sign_valid_paulis())
def test_rebuilt_from_its_fields_is_equal(op):
    assert PauliOperator(op.x, op.z, op.phase, n=op.n) == op
