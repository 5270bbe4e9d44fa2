"""The sign-bit perfect-correlation checks against the float expectation loop.

``perfect_correlation_arrays`` takes the words as arrays and
``perfect_correlations_hold`` as ``(x, z, phase)`` tuples; their oracle,
``correlations_by_expectation``, takes the same operators as
``PauliOperator`` objects.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import avnproofs
from avnproofs import (
    Graph,
    LengthMismatchError,
    NonHermitianSignError,
    PauliOperator,
    complete_graph,
    expectation,
    full_stabilizer,
    path_graph,
    perfect_correlations_hold,
    ring_graph,
    stabilizer_word,
    statevector,
)
from avnproofs import graphstate
from avnproofs.graphstate import perfect_correlation_arrays, stabilizer_arrays
from oracles import correlations_by_expectation, edge_sets, stabilizer_walk, verify_by_expectation
from strategies import connected_cases

LC6 = path_graph(6)


def words_of(ops):
    return [(op.x, op.z, op.phase) for op in ops]


def ascending_words(g):
    """The stabilizer's words in ascending subset order, as ``full_stabilizer``."""
    return [stabilizer_word(g, mask) for mask in range(1 << g.n)]


def as_arrays(words):
    """The x, z and phase columns of the words, as ``stabilizer_arrays`` gives them."""
    x, z, phase = np.array(list(words), np.uint16).reshape(-1, 3).T
    return x, z, phase.astype(np.uint8)


def arrays_and_oracle(sv, ops):
    ops = list(ops)
    return perfect_correlation_arrays(sv, *as_arrays(words_of(ops))), correlations_by_expectation(sv, ops)


def assert_same(report, oracle):
    (worst, failures), (want_worst, want_failures) = report, oracle
    assert worst.hex() == want_worst.hex()
    assert [(word, dev.hex()) for word, dev in failures] == [
        ((op.x, op.z, op.phase), dev.hex()) for op, dev in want_failures
    ]


def assert_both_orders_match_the_oracle(g):
    """The arrays of the ascending stabilizer and of the Gray walk both give
    the float loop's values."""
    sv = statevector(g)
    oracle = verify_by_expectation(g)
    assert_same(perfect_correlation_arrays(sv, *stabilizer_arrays(g)), oracle)
    assert_same(perfect_correlation_arrays(sv, *as_arrays(stabilizer_walk(g))), oracle)


def test_every_graph_up_to_four_vertices():
    graphs = 0
    for n in range(1, 5):
        for edges in edge_sets(n):
            assert_both_orders_match_the_oracle(Graph.from_edges(n, edges))
            graphs += 1
    assert graphs == 1 + 2 + 8 + 64  # "1:" and every disconnected graph included


@settings(max_examples=25, deadline=None)
@given(connected_cases(12))
def test_connected_graphs_up_to_twelve_vertices(case):
    assert_both_orders_match_the_oracle(case[0])


def test_worst_is_the_identity_deviation_bit_for_bit():
    """Every stabilizer element has the float deviation of the identity, so
    the single float evaluation gives the loop's maximum."""
    for n in range(1, 13):
        g = ring_graph(n) if n >= 3 else path_graph(n)
        sv = statevector(g)
        worst, failures = perfect_correlation_arrays(sv, *stabilizer_arrays(g))
        identity_dev = abs(expectation(sv, (0, 0, 0)) - 1.0)
        assert failures == []
        assert worst.hex() == identity_dev.hex() == verify_by_expectation(g)[0].hex()


@pytest.fixture
def float_evaluations(monkeypatch):
    """The words passed to ``expectation`` since the fixture ran."""
    seen = []
    real = graphstate.expectation

    def counting(sv, word):
        seen.append(word)
        return real(sv, word)

    monkeypatch.setattr(graphstate, "expectation", counting)
    return seen


def test_a_graph_state_needs_one_float_evaluation(float_evaluations):
    for n in range(1, 11):
        for g in [path_graph(n), complete_graph(n)]:
            float_evaluations.clear()
            words = ascending_words(g)[::-1]
            assert perfect_correlation_arrays(statevector(g), *as_arrays(words)) == (
                verify_by_expectation(g)[0],
                [],
            )
            assert float_evaluations == words[:1]


def test_the_walk_needs_one_float_evaluation(float_evaluations):
    for n in range(1, 11):
        for g in [path_graph(n), complete_graph(n)]:
            float_evaluations.clear()
            assert perfect_correlation_arrays(statevector(g), *as_arrays(stabilizer_walk(g))) == (
                verify_by_expectation(g)[0],
                [],
            )
            assert float_evaluations == [(0, 0, 0)]


def flipped(op):
    return PauliOperator(op.x, op.z, op.phase + 2, n=op.n)


def z_on_qubit_one(n):
    return PauliOperator(0, 1, n=n)


def x_times_z_on_qubit_one(n):
    """Phase 0 with |x & z| = 1: k is odd and the expectation imaginary."""
    return PauliOperator(1, 1, n=n)


@pytest.mark.parametrize(
    "insert",
    [
        lambda ops: ops.__setitem__(13, flipped(ops[13])),
        lambda ops: ops.insert(5, z_on_qubit_one(6)),
        lambda ops: ops.insert(40, x_times_z_on_qubit_one(6)),
        lambda ops: ops.extend([flipped(ops[0]), x_times_z_on_qubit_one(6), z_on_qubit_one(6), flipped(ops[9])]),
    ],
    ids=["sign-flipped", "non-stabilizer", "odd-k", "all-three-in-order"],
)
def test_failures_match_the_oracle(insert, float_evaluations):
    ops = list(full_stabilizer(LC6))
    insert(ops)
    report, oracle = arrays_and_oracle(statevector(LC6), ops)
    assert_same(report, oracle)
    failed = [word for word, _ in report[1]]
    assert failed
    assert float_evaluations == words_of(ops[:1]) + failed


@pytest.mark.parametrize("scale", [1.0, -1.0, 2.0, 0.0])
def test_any_uniform_real_vector_matches_the_oracle(scale):
    """A global sign passes every operator; a wrong norm fails every one."""
    sv = statevector(ring_graph(5)) * scale
    for vec in (sv, sv.real.copy()):
        assert_same(*arrays_and_oracle(vec, full_stabilizer(ring_graph(5))))


@pytest.mark.parametrize("n", [2, 3])
def test_every_sign_pattern_matches_the_oracle(n, float_evaluations):
    """Every +-1 sign pattern on n qubits, at norm 1 and 2, against every
    word with phase 0 or 2.  A pattern has degree 3, and so is no stabilizer
    state's, exactly when n = 3 and an odd number of its signs are negative;
    each word of such a pattern takes the float path once.  On the others,
    the float path takes the first word that passes at norm 1 and every word
    that does not."""
    dim = 1 << n
    words = [(x, z, phase) for x in range(dim) for z in range(dim) for phase in (0, 2)]
    ops = [PauliOperator(*word, n=n) for word in words]
    arrays = as_arrays(words)
    not_quadratic = 0
    for pattern in range(1 << dim):
        signs = np.array([-1.0 if (pattern >> b) & 1 else 1.0 for b in range(dim)])
        cubic = n == 3 and pattern.bit_count() % 2 == 1
        not_quadratic += cubic
        for scale in (1.0, 2.0):
            sv = signs * (scale / np.sqrt(dim))
            float_evaluations.clear()
            report = perfect_correlation_arrays(sv, *arrays)
            assert_same(report, correlations_by_expectation(sv, ops))
            if scale == 1.0:
                failed = {word for word, _ in report[1]}
                passing = [word for word in words if word not in failed]
                skipped = set(passing[1:])
            expected = words if cubic else [word for word in words if word not in skipped]
            assert float_evaluations == expected
    assert not_quadratic == (128 if n == 3 else 0)


@settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    case=connected_cases(10, min_n=1), mask=st.integers(0, (1 << 10) - 1), negate=st.booleans()
)
def test_quadratic_patterns_beyond_graph_states(case, mask, negate, float_evaluations):
    """A graph state times (-1)^(l . b), and times -1, is another stabilizer
    state: its unit differences have constant l_v, which no graph state has,
    and Q(0) = 1 under the global sign.  Conjugating by Z^l flips the sign
    of generator v for each v in l, so exactly the words with odd |l & x|
    fail, and each is evaluated by float after the first word."""
    g = case[0]
    mask &= (1 << g.n) - 1
    flips = np.array([(-1.0) ** (mask & b).bit_count() for b in range(1 << g.n)])
    sv = statevector(g) * flips * (-1.0 if negate else 1.0)
    ops = list(full_stabilizer(g))
    float_evaluations.clear()
    report = perfect_correlation_arrays(sv, *stabilizer_arrays(g))
    assert_same(report, correlations_by_expectation(sv, ops))
    failed = [word for word, _ in report[1]]
    assert failed == [word for word in words_of(ops) if (word[0] & mask).bit_count() % 2]
    assert float_evaluations == words_of(ops[:1]) + failed


def run_under_python_O(script):
    """stdout of ``script`` run by ``python -O``, which strips assert statements."""
    script = "import sys\nif not sys.flags.optimize:\n    sys.exit('not running under -O')\n" + script
    src = str(Path(avnproofs.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


NOT_ONE_MAGNITUDE = "statevector is not real with entries of one magnitude"
NOT_A_GRAPH_STATE = {
    "non-uniform": ("np.array([0.6, 0.8, 0.0, 0.0])", NOT_ONE_MAGNITUDE),
    "complex": ("np.array([0.5, 0.5 + 0.1j, 0.5, 0.5])", NOT_ONE_MAGNITUDE),
    "non-finite": ("np.array([0.5, 0.5, 0.5, np.nan])", NOT_ONE_MAGNITUDE),
    "matrix": (
        "np.full((2, 2), 0.5)",
        "statevector of shape (2, 2) is not a vector of length 2^n",
    ),
    "length-three": (
        "np.full(3, 3 ** -0.5)",
        "statevector of shape (3,) is not a vector of length 2^n",
    ),
}


@pytest.mark.parametrize(
    "vector, message", NOT_A_GRAPH_STATE.values(), ids=NOT_A_GRAPH_STATE.keys()
)
def test_not_a_graph_state_raises_under_python_O(vector, message):
    """The arrays' check raises before it reads a word, for any word list."""
    script = f"""
import numpy as np
from avnproofs import path_graph
from avnproofs.graphstate import perfect_correlation_arrays, stabilizer_arrays

empty = np.zeros(0, np.uint8)
for arrays in (stabilizer_arrays(path_graph(2)), (empty, empty, empty)):
    try:
        perfect_correlation_arrays({vector}, *arrays)
    except AssertionError as exc:
        print(exc)
"""
    assert run_under_python_O(script) == f"{message}\n{message}\n"


def test_expectation_rejects_a_matrix():
    with pytest.raises(LengthMismatchError, match=r"state of shape \(2, 2\) is not a vector"):
        expectation(np.full((2, 2), 0.5), (0, 0, 0))


@pytest.mark.parametrize(
    "sv, word, error, message",
    [
        (np.full(8, 8**-0.5), (1 << 3, 0, 0), LengthMismatchError, "^state dimension 8 does not match 4-qubit operator$"),
        (np.full(8, 8**-0.5), (0, 1 << 5, 2), LengthMismatchError, "^state dimension 8 does not match 6-qubit operator$"),
        (np.full(3, 3**-0.5), (1, 0, 0), LengthMismatchError, "^state dimension 3 does not match 1-qubit operator$"),
        (np.full(8, 8**-0.5), (1, 2, 1), NonHermitianSignError, r"^expectation of an operator with phase \+-i is not real$"),
    ],
    ids=["x-past-n", "z-past-n", "length-three", "odd-phase"],
)
def test_expectation_rejects_a_word_past_the_state_or_an_odd_phase(sv, word, error, message):
    """A word past the state is named by its width, as
    ``perfect_correlations_hold`` names it."""
    with pytest.raises(error, match=message):
        expectation(sv, word)


@pytest.mark.parametrize("word", [(-1, 0, 0), (0, -8, 0), (8, 0, 0), (1, 0, 1)])
def test_both_word_checks_raise_alike(word):
    """The float and the exact check of a word share one validation: at
    n = 3, the same error class and text for each bad word."""
    with pytest.raises(ValueError) as floated:
        expectation(np.full(8, 8**-0.5), word)
    with pytest.raises(ValueError) as exact:
        perfect_correlations_hold(path_graph(3), [word])
    assert (type(floated.value), str(floated.value)) == (type(exact.value), str(exact.value))


def test_bad_words_raise_under_python_O():
    """A word acting past the n qubits, or with an odd phase, raises in both
    exact word checks; the raises are explicit, so ``-O`` keeps them."""
    script = """
from avnproofs import assignment_consistent, path_graph, perfect_correlations_hold

for bad in [(0b1000, 0, 0), (0, 0b1000, 2), (1, 2, 1), (0, 1, 3)]:
    words = [(1, 2, 0), bad]
    for check in (lambda: perfect_correlations_hold(path_graph(3), words), lambda: assignment_consistent(words, 3)):
        try:
            check()
        except ValueError as exc:
            print(type(exc).__name__)
"""
    lines = run_under_python_O(script).split()
    assert lines == ["LengthMismatchError"] * 4 + ["NonHermitianSignError"] * 4


def assert_exact_check_matches_the_float_oracle(g, words):
    """``perfect_correlations_hold(g, [w])`` holds exactly when the float loop
    finds no failure for w on the graph state."""
    sv = statevector(g)
    for word in words:
        want = not correlations_by_expectation(sv, [PauliOperator(*word, n=g.n)])[1]
        assert perfect_correlations_hold(g, [word]) == want, word


def test_exact_check_on_every_word_of_every_graph_up_to_four_vertices():
    for n in range(1, 5):
        dim = 1 << n
        words = [(x, z, phase) for x in range(dim) for z in range(dim) for phase in (0, 2)]
        for edges in edge_sets(n):
            assert_exact_check_matches_the_float_oracle(Graph.from_edges(n, edges), words)


@settings(max_examples=25, deadline=None)
@given(
    case=connected_cases(12, min_n=1),
    extra=st.lists(st.tuples(st.integers(0, 4095), st.integers(0, 4095), st.integers(0, 4095)), max_size=8),
)
def test_exact_check_matches_the_float_oracle_up_to_twelve_vertices(case, extra):
    """The whole stabilizer holds; random words, and stabilizer words with
    the sign or one Z bit flipped, are decided as the float loop decides them."""
    g = case[0]
    full = (1 << g.n) - 1
    stabilizer = ascending_words(g)
    assert perfect_correlations_hold(g, stabilizer)
    others = []
    for x, z, s in extra:
        sx, sz, sphase = stabilizer[s & full]
        others += [(x & full, z & full, 2 * (s & 1)), (sx, sz, sphase ^ 2), (sx, sz ^ 1 << s % g.n, sphase)]
    assert_exact_check_matches_the_float_oracle(g, others)


@pytest.mark.parametrize(
    "bad, error",
    [
        ((-1, 0, 0), ValueError),
        ((1, -4, 2), ValueError),
        ((1 << 6, 0, 0), LengthMismatchError),
        ((0, 1 << 8, 2), LengthMismatchError),
        ((1, 2, 1), NonHermitianSignError),
        ((1, 2, 3), NonHermitianSignError),
    ],
    ids=["negative-x", "negative-z", "x-past-n", "z-past-n", "phase-1", "phase-3"],
)
def test_exact_check_raises_for_a_bad_word(bad, error):
    """A bad word raises at its place, also after a word that fails (X1
    alone is no correlation of the path)."""
    for words in (ascending_words(LC6)[:5] + [bad], [(1, 0, 0), bad]):
        with pytest.raises(ValueError) as got:
            perfect_correlations_hold(LC6, words)
        assert type(got.value) is error


def test_exact_check_raises_on_a_sign_pattern_that_is_not_quadratic(monkeypatch):
    """Q(b) = b1 b2 b3 has degree 3; no graph gives it, so it is an internal error."""
    monkeypatch.setattr(graphstate, "_sign_bits", lambda g: 1 << 7)
    with pytest.raises(AssertionError, match="^the sign bits of the graph state are not a quadratic form$"):
        perfect_correlations_hold(complete_graph(3), [])


def test_exact_check_raises_under_python_O():
    """The raises of ``perfect_correlations_hold`` are explicit, so ``-O`` keeps them."""
    script = """
from avnproofs import complete_graph, graphstate

for bad in [(-1, 0, 0), (0b1000, 0, 0), (1, 2, 1)]:
    try:
        graphstate.perfect_correlations_hold(complete_graph(3), [bad])
    except ValueError as exc:
        print(type(exc).__name__)
graphstate._sign_bits = lambda g: 1 << 7
try:
    graphstate.perfect_correlations_hold(complete_graph(3), [])
except AssertionError as exc:
    print(exc)
"""
    assert run_under_python_O(script) == (
        "ValueError\nLengthMismatchError\nNonHermitianSignError\n"
        "the sign bits of the graph state are not a quadratic form\n"
    )
