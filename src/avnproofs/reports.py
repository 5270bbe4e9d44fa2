"""Serializable verdict reports and their table rendering.

The machine-readable form round-trips: parsing an emitted record yields an
equal report.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphstate import Graph, format_graph, parse_graph, stabilizer_element
from .pauli import format_pauli, qubits_of
from .reality import (
    PAULI_LETTERS,
    AvnDecision,
    Distribution,
    EoRWitness,
    _verify_witness_subset,
    format_distribution,
)
from .witness import AvnWitness, format_witness


def _subset_mask(qubits, n: int) -> int:
    """Mask of a record's 1-based subset; every entry must lie in 1..n."""
    mask = 0
    for q in qubits:
        if not 1 <= q <= n:
            raise ValueError(f"subset entry {q} out of range 1..{n}")
        mask |= 1 << (q - 1)
    return mask


def _record_certificate(graph: Graph, dist: Distribution, qubit: int, letter: str, subset):
    """A record's certificate for ``letter`` on ``qubit`` (None stays None),
    checked against the graph as the solver's own entries are; the record
    comes from outside the program, so a wrong subset is a ValueError."""
    if subset is None:
        return None
    mask = _subset_mask(subset, graph.n)
    try:
        _verify_witness_subset(graph, dist.pmask(qubit), qubit, letter, mask)
    except AssertionError as exc:
        raise ValueError(str(exc)) from None
    return EoRWitness(qubit, letter, mask)


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
        graph = parse_graph(data["graph"])
        dist = Distribution(graph.n, tuple(tuple(p) for p in data["particles"]))
        table = data["eor_table"]
        if set(table) != {str(q) for q in range(1, graph.n + 1)}:
            raise ValueError(f"eor_table keys must be the qubits 1..{graph.n}")
        eor = {}
        for qubit in range(1, graph.n + 1):
            row = table[str(qubit)]
            if set(row) != set(PAULI_LETTERS):
                raise ValueError(f"eor_table row {qubit} must hold exactly X, Y and Z")
            eor[qubit] = {
                letter: _record_certificate(graph, dist, qubit, letter, row[letter])
                for letter in PAULI_LETTERS
            }
        if data["verdict"] not in ("allows", "blocks"):
            raise ValueError(f"verdict must be 'allows' or 'blocks', got {data['verdict']!r}")
        decision = AvnDecision(
            allows=data["verdict"] == "allows",
            eor=eor,
            shortcut=data.get("shortcut"),
        )
        witness = None
        if data.get("witness") is not None:
            witness = AvnWitness(
                tuple(_subset_mask(subset, graph.n) for subset in data["witness"]["subsets"])
            )
        return cls(graph, dist, decision, witness)

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
                    cells.append(format_pauli(stabilizer_element(self.graph, w.subset)))
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
