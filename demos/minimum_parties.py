"""Minimum-party searches for the standard families.

Fully connected states insist on one qubit per party; linear clusters and
rings of even length already work with two parties holding half each.
"""

from avnproofs import (
    complete_graph,
    format_graph,
    minimal_shapes,
    path_graph,
    ring_graph,
)
from avnproofs.cli import main

print("candidate shape schedule for n = 6:")
for m, shapes in minimal_shapes(6):
    print(f"  m={m}: {', '.join(str(s) for s in shapes)}")

for label, g in [
    ("fully connected, n=4", complete_graph(4)),
    ("linear cluster, n=6", path_graph(6)),
    ("ring, n=6", ring_graph(6)),
    ("linear cluster, n=8", path_graph(8)),
    ("linear cluster, n=10", path_graph(10)),
]:
    print(f"\n{label}:")
    main(["min-parties", "--graph", format_graph(g)])
