"""Explicit contradiction witnesses and what makes them tick.

Four perfect correlations of the four-qubit fully connected state cannot be
satisfied by any +-1 assignment: each single-qubit observable appears an
even number of times, yet the signs multiply to -1.
"""

from avnproofs import (
    Graph,
    assignment_consistent,
    complete_graph,
    find_witness,
    format_witness,
    path_graph,
    stabilizer_word,
    underrepresented_qubits,
    verify_witness,
)
from avnproofs.pauli import qubits_of

# a witness is a tuple of generator-subset masks and depends on the graph
# alone: every distribution of the qubits gets the same one
fc4 = complete_graph(4)
w = find_witness(fc4)
print("fully connected:")
for eq in format_witness(w, fc4):
    print(f"  {eq}")
print(f"  verified: {verify_witness(w, fc4)}")
print(f"  qubits with fewer than two observables: {underrepresented_qubits(w, fc4)}")


def dropped_consistent(words, n):
    """Per correlation, whether the others admit a +-1 assignment."""
    return [assignment_consistent(words[:k] + words[k + 1 :], n).consistent for k in range(len(words))]


# the whole set is inconsistent, and dropping any one correlation restores a
# consistent assignment: the witness is critical.  Each correlation is
# checked as its (x, z, phase) word
words = [stabilizer_word(fc4, s) for s in w]
print(f"\nall four, consistent: {assignment_consistent(words, fc4.n).consistent}")
print(f"each one dropped, consistent: {dropped_consistent(words, fc4.n)}")
check = assignment_consistent(words[1:], fc4.n)
values = {k: v for k, v in check.model.items() if v == -1}
print(f"without the first, one satisfying assignment sets these observables to -1: {sorted(values)}")

# the linear cluster also has a four-correlation witness, at the induced
# path 1-2-3
lc4 = path_graph(4)
w = find_witness(lc4)
print("\nlinear cluster:")
for eq in format_witness(w, lc4):
    print(f"  {eq}")
print(f"  subsets: {[qubits_of(s) for s in w]}")
print(f"  each one dropped, consistent: {dropped_consistent([stabilizer_word(lc4, s) for s in w], lc4.n)}")

# no vertex of the two-qubit state has two neighbours, so it has no witness
print("\ntwo-qubit state, witness:", find_witness(Graph.from_edges(2, [(1, 2)])))
