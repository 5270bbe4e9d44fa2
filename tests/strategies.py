"""Hypothesis strategies shared by the property tests."""

from hypothesis import strategies as st

from avnproofs import Distribution, Graph


@st.composite
def connected_cases(draw, max_n, min_n=3):
    """A random connected graph (a random tree plus random extra edges) and a
    random distribution of its qubits."""
    n = draw(st.integers(min_n, max_n))
    edges = {(draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)}
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges |= {pair for pair, k in zip(pairs, keep) if k}
    return Graph.from_edges(n, edges), _distribution(draw, n)


@st.composite
def labelled_cases(draw, max_n, min_n=1):
    """A random edge set, connected or not, and a random distribution of
    its qubits."""
    n = draw(st.integers(min_n, max_n))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [pair for pair, k in zip(pairs, keep) if k]
    return Graph.from_edges(n, edges), _distribution(draw, n)


def _distribution(draw, n):
    """Qubits 1..n split among a random number of particles."""
    m = draw(st.integers(1, n))
    labels = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
    blocks = {}
    for q, label in enumerate(labels, 1):
        blocks.setdefault(label, []).append(q)
    return Distribution(n, tuple(map(tuple, blocks.values())))
