"""Serializable verdict reports and their table rendering.

The machine-readable form round-trips: parsing an emitted record yields an
equal report.  A record is accepted only when it is exactly the record the
program writes for the same graph, distribution and witness, so a loaded
verdict is always one the program reached itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import require_own_record
from .graphstate import Graph, format_graph, parse_graph, stabilizer_word
from .pauli import format_word, qubits_of
from .reality import (
    AvnDecision,
    Distribution,
    allows_specific_avn,
    format_distribution,
)
from .witness import AvnWitness, format_witness, verify_witness


def _subset_mask(qubits, n: int) -> int:
    """Mask of a record's 1-based subset; every entry must lie in 1..n."""
    mask = 0
    for q in qubits:
        if not 1 <= q <= n:
            raise ValueError(f"subset entry {q} out of range 1..{n}")
        mask |= 1 << (q - 1)
    return mask


@dataclass
class DistributionReport:
    """One distribution's verdict, its element-of-reality table, and an
    optional contradiction witness."""

    graph: Graph
    distribution: Distribution
    decision: AvnDecision
    witness: AvnWitness | None = None

    def __post_init__(self):
        table_ok = all(
            row["X"] is not None and row["Y"] is not None
            for row in self.decision.eor.values()
        )
        if table_ok != self.decision.allows:
            raise ValueError("verdict does not match the element-of-reality table")

    @property
    def verdict(self) -> str:
        return "allows" if self.decision.allows else "blocks"

    def to_json_dict(self) -> dict:
        eor = {}
        for qubit, row in self.decision.eor.items():
            eor[str(qubit)] = {
                letter: (list(qubits_of(w.subset)) if w is not None else None)
                for letter, w in row.items()
            }
        witness = None
        if self.witness is not None:
            witness = {
                "subsets": [list(qubits_of(s)) for s in self.witness.subsets],
                "equations": format_witness(self.witness, self.graph),
            }
        return {
            "graph": format_graph(self.graph),
            "m": self.distribution.m,
            "particles": [list(p) for p in self.distribution.particles],
            "verdict": self.verdict,
            "shortcut": self.decision.shortcut,
            "eor_table": eor,
            "witness": witness,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "DistributionReport":
        """The report of ``data``'s graph, distribution and witness.

        The verdict and element-of-reality table are rebuilt with
        ``allows_specific_avn`` and a witness must pass ``verify_witness``;
        a ValueError names every field where ``data`` differs from the
        rebuilt report's ``to_json_dict()``.
        """
        graph = parse_graph(data["graph"])
        dist = Distribution(graph.n, tuple(tuple(p) for p in data["particles"]))
        witness = None
        if data.get("witness") is not None:
            witness = AvnWitness(
                tuple(_subset_mask(subset, graph.n) for subset in data["witness"]["subsets"])
            )
            if not verify_witness(witness, graph):
                raise ValueError("witness subsets do not form a contradiction witness")
        report = cls(graph, dist, allows_specific_avn(graph, dist), witness)
        require_own_record(data, report.to_json_dict())
        return report

    def render_table(self) -> str:
        lines = [
            f"graph: {format_graph(self.graph)}",
            f"distribution: {format_distribution(self.distribution)}",
            f"verdict: {self.verdict}",
        ]
        if self.decision.shortcut:
            lines.append(f"shortcut: {self.decision.shortcut}")
        rows = []
        for qubit in sorted(self.decision.eor):
            row = self.decision.eor[qubit]
            cells = []
            for letter in ("X", "Y", "Z"):
                w = row[letter]
                if w is None:
                    cells.append("-")
                else:
                    cells.append(format_word(*stabilizer_word(self.graph, w.subset)))
            rows.append((qubit, cells))
        width = max(
            [len(c) for _, cells in rows for c in cells[:2]] + [1]
        )
        lines.append(f"{'qubit':<6} {'X':<{width}}  {'Y':<{width}}  Z")
        for qubit, cells in rows:
            lines.append(
                f"{qubit:<6} {cells[0]:<{width}}  {cells[1]:<{width}}  {cells[2]}"
            )
        if self.witness is not None:
            lines.append("witness:")
            lines.extend(f"  {eq}" for eq in format_witness(self.witness, self.graph))
        return "\n".join(lines)
