"""Command-line interface.

Graphs are written ``n: i-j, i-j, ...`` and distributions ``a,b|c,d`` with
1-based qubits.  Exit status is 0 for allows/true verdicts, 1 for
blocks/false/none, 2 for malformed input, and 3 for an internal error (a
failed cross-check), so that a failure never reads as a verdict.
"""

from __future__ import annotations

import argparse
import json
import sys

from .equivalence import classify_all
from .errors import ParseError, ResourceLimitError, UnsupportedInputError
from .graphstate import (
    MAX_STATE_QUBITS,
    expectation,
    format_graph,
    full_stabilizer,
    parse_graph,
    stabilizer_element,
    statevector,
)
from .pauli import format_pauli
from .partitions import all_avn_distributions, min_party_distributions
from .reality import allows_specific_avn, format_distribution, parse_distribution
from .reports import DistributionReport, particle_columns_header, particle_columns_row
from .witness import (
    PERFECT_CORRELATION_TOL,
    find_witness,
    format_witness,
    underrepresented_qubits,
    verify_witness,
)


def _emit_reports(reports):
    if not reports:
        print("(none)")
        return
    maxp = max(r.distribution.m for r in reports)
    print(particle_columns_header(maxp))
    for r in reports:
        print(particle_columns_row(r))


def _oracle_check(g, dist, decision):
    """Cross-check a solver verdict with brute force and the statevector."""
    brute = allows_specific_avn(g, dist, method="brute")
    if brute.allows != decision.allows:
        raise AssertionError("solver and brute-force verdicts disagree")
    for qubit, row in decision.eor.items():
        for letter, w in row.items():
            if (w is None) != (brute.eor[qubit][letter] is None):
                raise AssertionError(
                    f"solver and brute-force disagree on {letter}{qubit}"
                )
    if g.n <= MAX_STATE_QUBITS:
        sv = statevector(g)
        for row in decision.eor.values():
            for w in row.values():
                if w is None:
                    continue
                val = expectation(sv, stabilizer_element(g, w.subset))
                if abs(val - 1.0) > PERFECT_CORRELATION_TOL:
                    raise AssertionError("witness operator is not a perfect correlation")


def cmd_classes(args) -> int:
    records = classify_all(args.n)
    if args.format == "json-lines":
        for rec in records:
            print(json.dumps(rec.to_json_dict(), sort_keys=True))
    else:
        print(f"{'class':<6}{'n':<3}{'orbit':<6}{'aut':<6}edges")
        for rec in records:
            edges = ", ".join(f"{i}-{j}" for i, j in rec.representative.edges())
            print(f"{rec.class_id:<6}{rec.n:<3}{rec.orbit_size:<6}{rec.aut_order:<6}{edges}")
    return 0


def cmd_check(args) -> int:
    g = parse_graph(args.graph)
    dist = parse_distribution(args.dist, g.n)
    decision = allows_specific_avn(g, dist)
    if args.oracle:
        _oracle_check(g, dist, decision)
    report = DistributionReport(g, dist, decision)
    if args.format == "json-lines":
        print(json.dumps(report.to_json_dict(), sort_keys=True))
    else:
        print(report.render_table())
    return 0 if decision.allows else 1


def cmd_min_parties(args) -> int:
    g = parse_graph(args.graph)
    m, reports = min_party_distributions(g, dedupe=not args.no_dedupe)
    if args.oracle:
        for r in reports:
            _oracle_check(g, r.distribution, r.decision)
    if args.format == "json-lines":
        for r in reports:
            print(json.dumps(r.to_json_dict(), sort_keys=True))
    else:
        print(f"graph: {format_graph(g)}")
        print(f"m_min: {m}")
        _emit_reports(reports)
    return 0


def cmd_enumerate(args) -> int:
    g = parse_graph(args.graph)
    reports = all_avn_distributions(
        g, args.m, dedupe=not args.no_dedupe, jobs=args.jobs
    )
    if args.oracle:
        for r in reports:
            _oracle_check(g, r.distribution, r.decision)
    if args.format == "json-lines":
        for r in reports:
            print(json.dumps(r.to_json_dict(), sort_keys=True))
    else:
        print(f"graph: {format_graph(g)}")
        print(f"m: {args.m}")
        _emit_reports(reports)
    return 0 if reports else 1


def cmd_witness(args) -> int:
    g = parse_graph(args.graph)
    dist = parse_distribution(args.dist, g.n)
    w = find_witness(g, dist, max_size=args.max_size, exhaustive=args.exhaustive)
    if w is None:
        print("no witness found within the size bound")
        return 1
    if not verify_witness(w, g):
        raise AssertionError("search returned an invalid witness")
    if args.format == "json-lines":
        print(
            json.dumps(
                {
                    "graph": format_graph(g),
                    "distribution": format_distribution(dist),
                    "subsets": [list(s.indices_1based()) for s in w.subsets],
                    "equations": format_witness(w, g),
                    "single_observable_qubits": list(underrepresented_qubits(w, g)),
                },
                sort_keys=True,
            )
        )
    else:
        for eq in format_witness(w, g):
            print(eq)
        flagged = underrepresented_qubits(w, g)
        if flagged:
            print(f"note: qubits with fewer than two observables: {list(flagged)}")
    return 0


def cmd_verify(args) -> int:
    g = parse_graph(args.graph)
    sv = statevector(g)
    worst = 0.0
    bad = 0
    for op in full_stabilizer(g):
        dev = abs(expectation(sv, op) - 1.0)
        worst = max(worst, dev)
        if dev > PERFECT_CORRELATION_TOL:
            bad += 1
            print(f"FAIL {format_pauli(op)} deviates by {dev:.3e}")
    print(
        f"{1 << g.n} stabilizing operators checked, "
        f"max deviation from 1: {worst:.3e}"
    )
    return 0 if bad == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avnproofs",
        description="Decide which qubit distributions of a graph state admit "
        "distribution-specific all-versus-nothing proofs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument(
            "--format",
            choices=("table", "json-lines"),
            default="table",
            help="output format (default: table)",
        )

    p = sub.add_parser("classes", help="census of graph-state classes")
    p.add_argument("--n", type=int, required=True)
    add_common(p)
    p.set_defaults(func=cmd_classes)

    p = sub.add_parser("check", help="verdict for one graph and distribution")
    p.add_argument("--graph", required=True)
    p.add_argument("--dist", required=True)
    p.add_argument("--oracle", action="store_true", help="cross-check with brute force and statevector")
    add_common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("min-parties", help="smallest admitting party count")
    p.add_argument("--graph", required=True)
    p.add_argument("--no-dedupe", action="store_true")
    p.add_argument("--oracle", action="store_true")
    add_common(p)
    p.set_defaults(func=cmd_min_parties)

    p = sub.add_parser("enumerate", help="all admitting m-party distributions")
    p.add_argument("--graph", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--no-dedupe", action="store_true")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--oracle", action="store_true")
    add_common(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("witness", help="search for a contradiction witness")
    p.add_argument("--graph", required=True)
    p.add_argument("--dist", required=True)
    p.add_argument("--max-size", type=int, default=4)
    p.add_argument("--exhaustive", action="store_true")
    add_common(p)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("verify", help="statevector check of all perfect correlations")
    p.add_argument("--graph", required=True)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, UnsupportedInputError, ResourceLimitError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
