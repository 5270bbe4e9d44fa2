"""Command-line interface.

Graphs are written ``n: i-j, i-j, ...`` and distributions ``a,b|c,d`` with
1-based qubits.  Exit status is 0 for allows/true verdicts, 1 for
blocks/false/none, 2 for malformed input, and 3 for an internal error (a
failed cross-check, or a length or sign mismatch between internal objects,
which parsed input cannot cause), so that a failure never reads as a
verdict.

Each subcommand's options are declared once, in ``_COMMANDS``.  ``main``
first reads the line with ``_scan``, which takes only a subcommand followed
by its own options written out in full.  Every other line, and so every
request for help and every error, goes to the full argparse parser built
from the same table, so usage lines, help and error text are argparse's own.
"""

from __future__ import annotations

import json
import string
import sys
from types import SimpleNamespace

from .equivalence import classify_all
from .errors import (
    LengthMismatchError,
    NonHermitianSignError,
    ParseError,
    ResourceLimitError,
    UnsupportedInputError,
)
from .graphstate import (
    format_graph,
    parse_graph,
    perfect_correlation_arrays,
    perfect_correlations_hold,
    stabilizer_arrays,
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


def _oracle_check(report):
    """Cross-check a report's verdict with brute force, and decide its
    certificates' perfect correlations exactly on the graph's sign bits."""
    g, decision = report.graph, report.decision
    brute = allows_specific_avn(g, report.distribution, method="brute")
    if brute.allows != decision.allows:
        raise AssertionError("solver and brute-force verdicts disagree")
    for qubit, row in decision.eor.items():
        for letter, word in row.items():
            if (word is None) != (brute.eor[qubit][letter] is None):
                raise AssertionError(
                    f"solver and brute-force disagree on {letter}{qubit}"
                )
    words = [word for row in decision.eor.values() for word in row.values() if word is not None]
    if not perfect_correlations_hold(g, words):
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
    report = DistributionReport(g, parse_distribution(args.dist, g.n))
    if args.oracle:
        _oracle_check(report)
    if args.format == "json-lines":
        print(json.dumps(report.to_json_dict(), sort_keys=True))
    else:
        print(report.render_table())
    return 0 if report.decision.allows else 1


def _print_search(args, g, heading: str, reports) -> None:
    """Output of ``min-parties`` and ``enumerate``: one JSON record per
    report, or a table with one column per particle (A, B, C, ...), each as
    wide as its longest cell and at least 8.  Only json-lines and ``--oracle``
    build the hits' tables, before any output; a hit whose table blocks is an
    internal error (an explicit raise, so it also runs under ``python -O``)."""
    if args.oracle or args.format == "json-lines":
        for r in reports:
            if not r.decision.allows:
                raise AssertionError(
                    f"distribution {r.distribution} has full cut-rank particles but is blocked"
                )
            if args.oracle:
                _oracle_check(r)
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
    if not 2 <= args.max_size <= 8:
        raise ValueError(f"max_size must be in 2..8, got {args.max_size}")
    w = find_witness(g)
    if w is None or args.max_size < 4:  # no witness has 2 or 3 members
        print("no witness found within the size bound")
        return 1
    if args.format == "json-lines":
        print(
            json.dumps(
                {
                    "graph": format_graph(g),
                    "distribution": format_distribution(dist),
                    "subsets": [list(qubits_of(s)) for s in w],
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
    worst, failures = perfect_correlation_arrays(statevector(g), *stabilizer_arrays(g))
    for word, dev in failures:
        print(f"FAIL {format_word(*word)} deviates by {dev:.3e}")
    print(
        f"{1 << g.n} stabilizing operators checked, "
        f"max deviation from 1: {worst:.3e}"
    )
    return 0 if not failures else 1


_FORMAT = ("--format", ("table", "json-lines"), "table", "output format (default: table)")
_GRAPH = ("--graph", str, None, None)
_DIST = ("--dist", str, None, None)
_NO_DEDUPE = ("--no-dedupe", bool, False, None)

#: Subcommand name -> (help, options), in help order.  An option is
#: (option string, kind, default, help), where kind is str, int, a tuple of
#: choices, or bool for a store-true flag; a valued option whose default is
#: None is required.  Both ``build_parser`` and ``_scan`` read this table.
_COMMANDS = {
    "classes": ("census of graph-state classes", (("--n", int, None, None), _FORMAT)),
    "check": (
        "verdict for one graph and distribution",
        (_GRAPH, _DIST, ("--oracle", bool, False, "cross-check with brute force and exact correlations"), _FORMAT),
    ),
    "min-parties": (
        "smallest admitting party count",
        (_GRAPH, _NO_DEDUPE, ("--oracle", bool, False, None), _FORMAT),
    ),
    "enumerate": (
        "all admitting m-party distributions",
        (_GRAPH, ("--m", int, None, None), _NO_DEDUPE, ("--oracle", bool, False, None), _FORMAT),
    ),
    "witness": (
        "search for a contradiction witness",
        (_GRAPH, _DIST, ("--max-size", int, 4, None), _FORMAT),
    ),
    "verify": ("statevector check of all perfect correlations", (_GRAPH,)),
}


def _command_function(name):
    """Read when a line is parsed, so a ``cmd_*`` patched after import runs."""
    return globals()["cmd_" + name.replace("-", "_")]


def build_parser():
    """The full parser, built from ``_COMMANDS``.  ``main`` builds it only
    for a line ``_scan`` does not read, so help, usage and error text are
    argparse's own."""
    import argparse  # here, so that a well-formed command line loads neither argparse nor gettext

    parser = argparse.ArgumentParser(
        prog="avnproofs",
        description="Decide which qubit distributions of a graph state admit "
        "distribution-specific all-versus-nothing proofs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for opt, kind, default, text in options:
            if kind is bool:
                p.add_argument(opt, action="store_true", help=text)
            else:
                p.add_argument(
                    opt,
                    type=int if kind is int else None,
                    choices=kind if isinstance(kind, tuple) else None,
                    required=default is None,
                    default=default,
                    help=text,
                )
        p.set_defaults(func=_command_function(name))
    return parser


def _scan(argv):
    """What ``build_parser().parse_args(argv)`` returns, for a line that is a
    subcommand followed only by its own option strings, each at most once,
    with each valued option followed by a value that does not start with
    "-" and passes its int() or choices, and every required option given.
    None for any other line."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    options = {opt: (kind, default) for opt, kind, default, _ in _COMMANDS[argv[0]][1]}
    given = {}
    tokens = iter(argv[1:])
    for opt in tokens:
        if opt not in options or opt in given:
            return None
        kind = options[opt][0]
        if kind is bool:
            given[opt] = True
            continue
        value = next(tokens, "-")
        if value.startswith("-"):
            return None
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                return None
        elif kind is not str and value not in kind:
            return None
        given[opt] = value
    values = {opt[2:].replace("-", "_"): given.get(opt, default) for opt, (_, default) in options.items()}
    if None in values.values():  # a required option is missing
        return None
    return SimpleNamespace(command=argv[0], **values, func=_command_function(argv[0]))


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _scan(argv) or build_parser().parse_args(argv)
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
