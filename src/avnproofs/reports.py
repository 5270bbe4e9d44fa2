"""Serializable verdict reports and their table rendering.

A report holds a graph, a distribution and an optional witness.  Its
``decision``, the verdict and element-of-reality table, is built by
``allows_specific_avn`` the first time it is read: when the report is
printed, checked with ``--oracle``, or read by a caller.

The machine-readable form round-trips: parsing an emitted record yields an
equal report.  A record is accepted only when it is exactly the record the
program writes for the same graph, distribution and witness, so a loaded
verdict is always one the program reached itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .errors import record_field, require_own_record
from .graphstate import Graph, format_graph, parse_graph
from .pauli import format_word, qubits_of
from .reality import (
    AvnDecision,
    Distribution,
    allows_specific_avn,
    format_distribution,
)
from .witness import format_witness, verify_witness


def _qubit_lists(entries: list, n: int, what: str) -> list:
    """``entries`` if each is a list of ints (bools excluded) in 1..n;
    ValueError otherwise."""
    for entry in entries:
        if type(entry) is not list or any(type(q) is not int or not 1 <= q <= n for q in entry):
            raise ValueError(f"{what} must be lists of integers in 1..{n}")
    return entries


@dataclass(frozen=True)
class DistributionReport:
    """One distribution of a graph's qubits and an optional contradiction
    witness; the verdict and element-of-reality table are ``decision``."""

    graph: Graph
    distribution: Distribution
    witness: tuple | None = field(default=None, kw_only=True)  # of generator-subset masks

    @cached_property
    def decision(self) -> AvnDecision:
        """The verdict and its table, built on first read."""
        return allows_specific_avn(self.graph, self.distribution)

    @property
    def verdict(self) -> str:
        return "allows" if self.decision.allows else "blocks"

    def to_json_dict(self) -> dict:
        eor = {}
        for qubit, row in self.decision.eor.items():
            eor[str(qubit)] = {
                letter: (list(qubits_of(word[0])) if word is not None else None)
                for letter, word in row.items()
            }
        witness = None
        if self.witness is not None:
            witness = {
                "subsets": [list(qubits_of(s)) for s in self.witness],
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
        rebuilt report's ``to_json_dict()``.  A malformed record (a missing
        field, a graph that is not a string, a qubit that is not an int)
        raises ValueError too.
        """
        graph = parse_graph(record_field(data, "graph", str))
        n = graph.n
        particles = _qubit_lists(record_field(data, "particles", list), n, "particles")
        dist = Distribution(n, tuple(tuple(p) for p in particles))
        witness = None
        if data.get("witness") is not None:
            subsets = _qubit_lists(record_field(data["witness"], "subsets", list), n, "witness subsets")
            witness = tuple(sum({1 << (q - 1) for q in s}) for s in subsets)
            if not verify_witness(witness, graph):
                raise ValueError("witness subsets do not form a contradiction witness")
        report = cls(graph, dist, witness=witness)
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
                word = row[letter]
                cells.append("-" if word is None else format_word(*word))
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
