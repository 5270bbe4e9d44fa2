"""Walk through one distribution check, from parsing to the verdict.

The six-qubit linear cluster state split as {1,4,5} vs {2,3,6} admits a
two-party proof; pairing the end qubits with their only neighbors does not.
"""

from avnproofs import (
    allows_specific_avn,
    expectation,
    parse_distribution,
    parse_graph,
    statevector,
)
from avnproofs.reports import DistributionReport

graph = parse_graph("6: 1-2, 2-3, 3-4, 4-5, 5-6")
print(f"graph: {graph}")

for text in ("1,4,5|2,3,6", "1,2|3|4|5,6"):
    print()
    print(DistributionReport(graph, parse_distribution(text, graph.n)).render_table())

# every certifying operator really is a perfect correlation of the state
dist = parse_distribution("1,4,5|2,3,6", graph.n)
decision = allows_specific_avn(graph, dist)
sv = statevector(graph)
worst = 0.0
for row in decision.eor.values():
    for word in row.values():  # each certificate is its verified (x, z, phase) word
        worst = max(worst, abs(expectation(sv, word) - 1.0))
print()
print(f"largest deviation of any certifying correlation from 1: {worst:.2e}")
