"""Command-line interface.

Graphs are written ``n: i-j, i-j, ...`` and distributions ``a,b|c,d`` with
1-based qubits.  Exit status is 0 for allows/true verdicts, 1 for
blocks/false/none, 2 for malformed input, and 3 for an internal error (a
failed cross-check, or a length or sign mismatch between internal objects,
which parsed input cannot cause), so that a failure never reads as a
verdict.

When the first argument names a subcommand, ``main`` parses the rest with
that subcommand's parser alone.  If that leaves arguments over, the full
parser parses the whole line again and reports them as unrecognized.  With
no arguments, a top-level ``-h``, an unknown command or an option first, the
full parser runs directly.  Usage lines, help and error text are the same
either way.
"""

from __future__ import annotations

import argparse
import functools
import json
import string
import sys

from .equivalence import classify_all
from .errors import (
    LengthMismatchError,
    NonHermitianSignError,
    ParseError,
    ResourceLimitError,
    UnsupportedInputError,
)
from .graphstate import (
    MAX_STATE_QUBITS,
    format_graph,
    parse_graph,
    perfect_correlation_report,
    stabilizer_walk,
    stabilizer_word,
    statevector,
)
from .pauli import format_word, qubits_of
from .partitions import all_avn_distributions, min_party_distributions
from .reality import allows_specific_avn, format_distribution, parse_distribution
from .reports import DistributionReport
from .witness import (
    find_witness,
    format_witness,
    underrepresented_qubits,
)


def _oracle_check(g, dist, decision):
    """Cross-check a solver verdict with brute force and the statevector."""
    brute = allows_specific_avn(g, dist, method="brute")
    if brute.allows != decision.allows:
        raise AssertionError("solver and brute-force verdicts disagree")
    for qubit, row in decision.eor.items():
        for letter, mask in row.items():
            if (mask is None) != (brute.eor[qubit][letter] is None):
                raise AssertionError(
                    f"solver and brute-force disagree on {letter}{qubit}"
                )
    if g.n <= MAX_STATE_QUBITS:
        words = [
            stabilizer_word(g, mask)
            for row in decision.eor.values()
            for mask in row.values()
            if mask is not None
        ]
        _, failures = perfect_correlation_report(statevector(g), words)
        if failures:
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


def _print_search(args, g, heading: str, reports) -> None:
    """Output of ``min-parties`` and ``enumerate``: the optional oracle
    check, then one JSON record per report, or a table with one column per
    particle (A, B, C, ...), each as wide as its longest cell and at least 8."""
    if args.oracle:
        for r in reports:
            _oracle_check(g, r.distribution, r.decision)
    if args.format == "json-lines":
        for r in reports:
            print(json.dumps(r.to_json_dict(), sort_keys=True))
        return
    print(f"graph: {format_graph(g)}")
    print(heading)
    if not reports:
        print("(none)")
        return
    rows = [
        [str(r.distribution.m)] + [",".join(map(str, p)) for p in r.distribution.particles]
        for r in reports
    ]
    m_width = max(len(row[0]) for row in rows)
    width = max([8] + [len(c) for row in rows for c in row[1:]])
    labels = ["m"] + list(string.ascii_uppercase[: max(len(row) for row in rows) - 1])
    for row in [labels] + rows:
        print(f"{row[0]:<{m_width}}  " + "  ".join(f"{c:<{width}}" for c in row[1:]))


def cmd_min_parties(args) -> int:
    g = parse_graph(args.graph)
    m, reports = min_party_distributions(g, dedupe=not args.no_dedupe)
    _print_search(args, g, f"m_min: {m}", reports)
    return 0


def cmd_enumerate(args) -> int:
    g = parse_graph(args.graph)
    reports = all_avn_distributions(g, args.m, dedupe=not args.no_dedupe)
    _print_search(args, g, f"m: {args.m}", reports)
    return 0 if reports else 1


def cmd_witness(args) -> int:
    g = parse_graph(args.graph)
    dist = parse_distribution(args.dist, g.n)
    w = find_witness(g, dist, max_size=args.max_size, exhaustive=args.exhaustive)
    if w is None:
        print("no witness found within the size bound")
        return 1
    if args.format == "json-lines":
        print(
            json.dumps(
                {
                    "graph": format_graph(g),
                    "distribution": format_distribution(dist),
                    "subsets": [list(qubits_of(s)) for s in w.subsets],
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
    worst, failures = perfect_correlation_report(statevector(g), stabilizer_walk(g))
    for word, dev in sorted(failures, key=lambda f: f[0][0]):
        print(f"FAIL {format_word(*word)} deviates by {dev:.3e}")
    print(
        f"{1 << g.n} stabilizing operators checked, "
        f"max deviation from 1: {worst:.3e}"
    )
    return 0 if not failures else 1


def _add_format(p) -> None:
    p.add_argument(
        "--format",
        choices=("table", "json-lines"),
        default="table",
        help="output format (default: table)",
    )


# Each adder reads its cmd_* function when it runs, so a command patched on
# this module after import is the one that runs.


def _add_classes(p) -> None:
    p.add_argument("--n", type=int, required=True)
    _add_format(p)
    p.set_defaults(func=cmd_classes)


def _add_check(p) -> None:
    p.add_argument("--graph", required=True)
    p.add_argument("--dist", required=True)
    p.add_argument("--oracle", action="store_true", help="cross-check with brute force and statevector")
    _add_format(p)
    p.set_defaults(func=cmd_check)


def _add_min_parties(p) -> None:
    p.add_argument("--graph", required=True)
    p.add_argument("--no-dedupe", action="store_true")
    p.add_argument("--oracle", action="store_true")
    _add_format(p)
    p.set_defaults(func=cmd_min_parties)


def _add_enumerate(p) -> None:
    p.add_argument("--graph", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--no-dedupe", action="store_true")
    p.add_argument("--oracle", action="store_true")
    _add_format(p)
    p.set_defaults(func=cmd_enumerate)


def _add_witness(p) -> None:
    p.add_argument("--graph", required=True)
    p.add_argument("--dist", required=True)
    p.add_argument("--max-size", type=int, default=4)
    p.add_argument("--exhaustive", action="store_true")
    _add_format(p)
    p.set_defaults(func=cmd_witness)


def _add_verify(p) -> None:
    p.add_argument("--graph", required=True)
    p.set_defaults(func=cmd_verify)


#: Subcommand name -> (help, the function filling its parser), in help order.
_COMMANDS = {
    "classes": ("census of graph-state classes", _add_classes),
    "check": ("verdict for one graph and distribution", _add_check),
    "min-parties": ("smallest admitting party count", _add_min_parties),
    "enumerate": ("all admitting m-party distributions", _add_enumerate),
    "witness": ("search for a contradiction witness", _add_witness),
    "verify": ("statevector check of all perfect correlations", _add_verify),
}


def build_parser(command=None) -> argparse.ArgumentParser:
    """The parser of ``command`` alone, or with no command the full parser.

    A command's parser is the one the full parser's ``add_parser`` makes for
    it: same prog, options and defaults, so its help and errors read the same.
    """
    import shutil  # here, as in argparse, so importing this module loads no new module

    # The width HelpFormatter would compute, probed once for the parser
    # instead of once per formatter argparse makes (one per add_argument).
    width = shutil.get_terminal_size().columns - 2
    formatter = functools.partial(argparse.HelpFormatter, width=width)
    if command is not None:
        parser = argparse.ArgumentParser(prog=f"avnproofs {command}", formatter_class=formatter)
        _COMMANDS[command][1](parser)
        return parser
    parser = argparse.ArgumentParser(
        prog="avnproofs",
        description="Decide which qubit distributions of a graph state admit "
        "distribution-specific all-versus-nothing proofs.",
        formatter_class=formatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add) in _COMMANDS.items():
        add(sub.add_parser(name, help=help_text, formatter_class=formatter))
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    if command is not None:
        args, extra = build_parser(command).parse_known_args(argv[1:])
    if command is None or extra:
        args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (AssertionError, LengthMismatchError, NonHermitianSignError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except (ParseError, UnsupportedInputError, ResourceLimitError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
