"""Mutation checks that can be re-run.

Each entry of ``MUTANTS`` is ``(file, text, replacement, node ids)``: a
source file under ``src/avnproofs``, an exact piece of its text that must
occur once, the text put in its place, and the tests expected to fail on
the mutated code.  For each entry the runner copies ``src/``, ``tests/``
and ``pyproject.toml`` into a fresh temporary directory, applies the one
replacement there and runs the named tests with ``pytest -x -q -p
no:cacheprovider``, so nothing is written inside the repository.  A mutant
is

- *killed* when the named tests fail, fail to import or hang past
  ``TIMEOUT_S``,
- *survived* when they all pass,
- *stale* when its text is no longer in the file: the code under it was
  rewritten, and the entry must be rewritten with it,
- *error* when pytest cannot run the named tests (a wrong node id).

Before any mutant, the union of the named tests is run once on the
unmutated copy; it must pass.  Exit status 0 means every mutant was killed.

Run from anywhere (pytest does not collect this file)::

    python tests/mutants.py          # every entry
    python tests/mutants.py 3 7      # entries 3 and 7, numbered from 0
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Seconds before a run is stopped; every named test takes a few seconds,
#: so a run this long is a mutant that loops forever, and it counts as killed.
TIMEOUT_S = 60

W = "tests/test_witness.py::"
CLI = "tests/test_cli.py::"
GS = "tests/test_graphstate.py::"
CORR = "tests/test_correlations.py::"
GOLDEN = "tests/test_golden.py::"
PART = "tests/test_partitions.py::"
EQ = "tests/test_equivalence.py::"

#: (file, text, replacement, node ids expected to fail)
MUTANTS = (
    # The witness command checks its own options; no witness has 2 or 3 members.
    (
        "cli.py",
        "    if w is None or args.max_size < 4:",
        "    if w is None or args.max_size < 3:",
        [CLI + "test_witness_checks_its_options_in_order[max-size-3]"],
    ),
    (
        "cli.py",
        "    if w is None or args.max_size < 4:",
        "    if w is None or args.max_size <= 4:",
        [CLI + "test_witness_found_and_not_found"],
    ),
    (
        "cli.py",
        "    if not 2 <= args.max_size <= 8:\n",
        "    if False:\n",
        [CLI + "test_witness_checks_its_options_in_order[max-size-1]"],
    ),
    (
        "witness.py",
        "    if key != 1 << 3 * g.n:\n        return False\n",
        "",
        [W + "test_witness_with_member_removed_fails_parity"],
    ),
    # The witness as a formula: the least GHZ quadruple.
    (
        "witness.py",
        "            if g.adj[j.bit_length() - 1] & k:  # a triangle\n",
        "            if False:  # a triangle\n",
        [W + "test_search_matches_sweep_on_every_labelled_graph"],
    ),
    (
        "witness.py",
        "    w = tuple(min(quadruples))\n",
        "    w = tuple(max(quadruples))\n",
        [W + "test_search_matches_sweep_on_every_labelled_graph"],
    ),
    (
        "witness.py",
        "    if not verify_witness(w, g):\n        raise AssertionError(",
        "    if False:\n        raise AssertionError(",
        [CLI + "test_witness_rejected_by_verification_exit_three"],
    ),
    (
        "witness.py",
        "    if not quadruples:\n        return None\n",
        "",
        [W + "test_no_witness_when_every_component_has_at_most_two_vertices[3]"],
    ),
    # Parsed input checked once, particles built sorted.
    (
        "reality.py",
        "    if len(earlier) != n:\n",
        "    if False:\n",
        ["tests/test_formats.py::test_distribution_parse_errors_carry_positions"],
    ),
    (
        "reality.py",
        "        particles.append(tuple(sorted(members)))\n",
        "        particles.append(tuple(members))\n",
        ["tests/test_formats.py::test_parsers_build_what_the_checked_constructors_build"],
    ),
    (
        "graphstate.py",
        "        adj[perm[v]] = new\n    return Graph(g.n, tuple(adj))\n",
        "        adj[perm[v]] = new\n    return Graph._trusted(g.n, tuple(adj))\n",
        ["tests/test_source.py::test_trusted_constructors_are_called_only_by_the_parsers_and_the_enumeration"],
    ),
    (
        "partitions.py",
        "    return [(m, tuple(levels[m])) for m in sorted(levels)]\n",
        "    return [(m, tuple(reversed(levels[m]))) for m in sorted(levels)]\n",
        ["tests/test_partitions.py::test_minimal_shapes_small_cases"],
    ),
    (
        "reality.py",
        "None if mask is None else _verify_witness_subset(g, mates, i, pauli, mask)",
        "None if mask is None else stabilizer_word(g, mask)",
        ["tests/test_reality.py::test_table_verifies_every_entry"],
    ),
    # A certificate is its verified word; the table's readers print and check it.
    (
        "reality.py",
        "    return tuple(table)\n",
        "    return tuple(tuple(w and (w[0], w[1] ^ 1, w[2]) for w in row) for row in table)\n",
        ["tests/test_reality.py::test_table_matches_per_qubit_systems_exhaustively"],
    ),
    (
        "reports.py",
        "format_word(*word)",
        "format_word(word[0], word[1], 0)",
        [GOLDEN + "test_command_output_matches_golden[check --oracle --graph 6: 1-3, 2-3, 2-6, 3-4, 3-5, 3-6, 4-6 ]"],
    ),
    # Command lines read from the declared option table.
    (
        "cli.py",
        "        if opt not in options or opt in given:\n",
        "        if opt not in options:\n",
        [CLI + "test_scan_leaves_other_spellings_to_the_full_parser[argv0]"],
    ),
    (
        "cli.py",
        "    for opt in tokens:\n",
        "    for opt in tokens:\n        opt = next((o for o in options if o.startswith(opt)), opt)\n",
        [CLI + "test_scan_leaves_other_spellings_to_the_full_parser[argv2]"],
    ),
    (
        "cli.py",
        '        if value.startswith("-"):\n',
        '        if value == "-":\n',
        [CLI + "test_scan_leaves_other_spellings_to_the_full_parser[argv4]"],
    ),
    (
        "cli.py",
        "            except ValueError:\n                return None\n",
        "            except ValueError:\n                pass\n",
        [CLI + "test_one_command_parser_reads_as_the_full_parser[classes]"],
    ),
    (
        "cli.py",
        "        elif kind is not str and value not in kind:\n",
        "        elif False:\n",
        [CLI + "test_one_command_parser_reads_as_the_full_parser[check]"],
    ),
    (
        "cli.py",
        "    if None in values.values():  # a required option is missing\n",
        "    if False:\n",
        [CLI + "test_one_command_parser_reads_as_the_full_parser[check]"],
    ),
    (
        "cli.py",
        "    if not argv or argv[0] not in _COMMANDS:\n",
        "    if not argv:\n",
        [CLI + "test_help_and_unknown_command_build_every_parser"],
    ),
    (
        "cli.py",
        '        value = next(tokens, "-")\n',
        '        value = next(tokens, "")\n',
        [CLI + "test_scan_reads_as_the_full_parser"],
    ),
    (
        "cli.py",
        "def _command_function(name):\n",
        "def _command_function(name, globals=lambda g=dict(globals()): g):\n",
        [CLI + "test_internal_error_exit_three"],
    ),
    (
        "cli.py",
        "    args = _scan(argv) or build_parser().parse_args(argv)\n",
        "    args = build_parser().parse_args(argv)\n",
        [CLI + "test_a_well_formed_command_does_not_load_argparse"],
    ),
    (
        "cli.py",
        "import json\n",
        "import argparse\nimport json\n",
        [CLI + "test_a_well_formed_command_does_not_load_argparse"],
    ),
    # Perfect correlations from the quadratic sign form.
    (
        "graphstate.py",
        "        if diff != affine:\n",
        "        if False:\n",
        [CLI + "test_verify_reports_a_tampered_state"],
    ),
    (
        "graphstate.py",
        "        const = q_low ^ q0\n",
        "        const = 0\n",
        ["tests/test_correlations.py::test_every_sign_pattern_matches_the_oracle"],
    ),
    (
        "graphstate.py",
        "    if sv.ndim != 1 or not sv.shape[0] or sv.shape[0] & (sv.shape[0] - 1):\n",
        "    if False:\n",
        ["tests/test_correlations.py::test_not_a_graph_state_raises_under_python_O"],
    ),
    (
        "graphstate.py",
        "    if sv.ndim != 1:\n",
        "    if False:\n",
        ["tests/test_correlations.py::test_expectation_rejects_a_matrix"],
    ),
    (
        "graphstate.py",
        "    if not dim or dim & (dim - 1) or (x | z) >> dim.bit_length() - 1:\n",
        "    if False:\n",
        [CORR + "test_expectation_rejects_a_word_past_the_state_or_an_odd_phase[z-past-n]"],
    ),
    (
        "graphstate.py",
        "\n    if phase & 1:\n",
        "\n    if False:\n",
        [CORR + "test_expectation_rejects_a_word_past_the_state_or_an_odd_phase[odd-phase]"],
    ),
    (
        "graphstate.py",
        "    if x < 0 or z < 0:\n",
        "    if False:\n",
        [CORR + "test_exact_check_raises_for_a_bad_word[negative-z]"],
    ),
    (
        "graphstate.py",
        "        _check_word(word, 1 << g.n)\n",
        "",
        [CORR + "test_exact_check_raises_for_a_bad_word[phase-1]"],
    ),
    (
        "graphstate.py",
        "    _check_word(word, dim)\n",
        "",
        [CORR + "test_both_word_checks_raise_alike[word0]"],
    ),
    # Witness members decided exactly on the graph's sign bits.
    (
        "graphstate.py",
        "        signs ^= _coordinate_bits(i - 1, dim) & _coordinate_bits(j - 1, dim)\n",
        "        signs |= _coordinate_bits(i - 1, dim) & _coordinate_bits(j - 1, dim)\n",
        [CORR + "test_exact_check_on_every_word_of_every_graph_up_to_four_vertices"],
    ),
    (
        "graphstate.py",
        "    units = [(1 << u, signs >> (1 << u) & 1,",
        "    units = [(1 << u, signs >> u & 1,",
        [CORR + "test_exact_check_on_every_word_of_every_graph_up_to_four_vertices"],
    ),
    (
        "graphstate.py",
        "            if (signs >> (low ^ unit) & 1) ^ q_unit != const:",
        "            if (signs >> (low | unit) & 1) ^ q_unit != const:",
        [CORR + "test_every_sign_pattern_matches_the_oracle[2]"],
    ),
    (
        "graphstate.py",
        "== 2 * (signs >> x & 1)",
        "== 0",
        [W + "test_ghz4_witness_verifies_and_is_critical"],
    ),
    (
        "graphstate.py",
        "and (phase + (x & z).bit_count()) % 4",
        "and phase % 4",
        [W + "test_lc4_witness_verifies_and_is_critical"],
    ),
    (
        "graphstate.py",
        "    if lins is None:\n        raise AssertionError(",
        "    if False:\n        raise AssertionError(",
        [CORR + "test_exact_check_raises_on_a_sign_pattern_that_is_not_quadratic"],
    ),
    (
        "graphstate.py",
        "        holds &= z == lin and (phase + (x & z).bit_count()) % 4 == 2 * (signs >> x & 1)\n",
        "        if not (z == lin and (phase + (x & z).bit_count()) % 4 == 2 * (signs >> x & 1)):\n"
        "            return False\n",
        [CORR + "test_exact_check_raises_for_a_bad_word[x-past-n]"],
    ),
    # check --oracle decides every certificate exactly, at every n.
    (
        "cli.py",
        "    if not perfect_correlations_hold(g, words):\n",
        "    if False:\n",
        [CLI + "test_oracle_rejects_a_broken_certificate_at_every_n[13-first]"],
    ),
    (
        "cli.py",
        "    if not perfect_correlations_hold(g, words):\n",
        "    if not perfect_correlations_hold(g, words[:1]):\n",
        [CLI + "test_oracle_rejects_a_broken_certificate_at_every_n[12-last]"],
    ),
    (
        "cli.py",
        "    if not perfect_correlations_hold(g, words):\n",
        "    if g.n < 16 and not perfect_correlations_hold(g, words):\n",
        [CLI + "test_oracle_rejects_a_broken_certificate_at_every_n[16-first]"],
    ),
    (
        "witness.py",
        "    return perfect_correlations_hold(g, words)\n",
        "    return True\n",
        [W + "test_verification_rejects_broken_correlations_at_every_n[13]"],
    ),
    # The whole stabilizer decided on arrays.
    (
        "graphstate.py",
        "out[1 << v : 2 << v] = out[: 1 << v] ^ out.dtype.type(row)\n",
        "out[1 << v : 2 << v] = out[: 1 << v]\n",
        [GS + "test_arrays_are_the_stabilizer_on_every_graph_up_to_four_vertices"],
    ),
    (
        "graphstate.py",
        "[row & ((1 << v) - 1) for v, row in enumerate(g.adj)]",
        "list(g.adj)",
        [GS + "test_arrays_are_the_stabilizer_on_every_graph_up_to_four_vertices"],
    ),
    (
        "graphstate.py",
        "        k = (phase + _bit_counts()[x & z]) & 3\n",
        "        k = phase & 3\n",
        [CLI + "test_verify_needs_one_float_evaluation"],
    ),
    (
        "graphstate.py",
        "(k == 2 * (q[x] ^ q[0]))",
        "(k == 2 * q[x])",
        [CLI + "test_verify_on_a_scaled_state[-1.0]"],
    ),
    (
        "graphstate.py",
        "    passes = np.zeros(x.size, bool)\n",
        "    passes = np.ones(x.size, bool)\n",
        [CLI + "test_verify_reports_a_tampered_state"],
    ),
    (
        "graphstate.py",
        "    evaluate = ~passes\n",
        "    evaluate = np.zeros_like(passes)\n",
        [CLI + "test_verify_reports_an_injected_failure"],
    ),
    (
        "graphstate.py",
        "    dev[passes] = dev[passes.argmax()]\n",
        "",
        [CLI + "test_verify_on_a_scaled_state[2.0]"],
    ),
    (
        "graphstate.py",
        "        both ^= (idx >> (i - 1)) & (idx >> (j - 1))\n",
        "        both |= (idx >> (i - 1)) & (idx >> (j - 1))\n",
        [GS + "test_statevector_is_the_edge_count_sign_bit_for_bit"],
    ),
    # Reports hold no verdict; search hits build no table.
    (
        "cli.py",
        "            if not r.decision.allows:\n",
        "            if False:\n",
        [CLI + "test_rank_hit_blocked_by_table_exit_three"],
    ),
    (
        "cli.py",
        '    if args.oracle or args.format == "json-lines":\n',
        "    if args.oracle:\n",
        [CLI + "test_rank_hit_blocked_by_table_exit_three"],
    ),
    (
        "cli.py",
        '    if args.oracle or args.format == "json-lines":\n',
        "    if True:\n",
        [CLI + "test_search_tables_are_built_only_for_printed_records"],
    ),
    (
        "equivalence.py",
        "                stab = [s for s, f in zip(gens, fixes) if not prefix & ~f]\n",
        "                stab = gens\n",
        ["tests/test_equivalence.py::test_pruning_uses_only_generators_that_fix_the_prefix"],
    ),
    # Every pruning rule of the census lowers the cold search count.
    (
        "equivalence.py",
        "            if orbit & skip or adj[x].bit_count() <= 1:\n",
        "            if adj[x].bit_count() <= 1:\n",
        [EQ + "test_cold_census_search_counts"],
    ),
    (
        "equivalence.py",
        "            back[img] = back.get(img, 0) | (1 << img_perm[x])\n",
        "",
        [EQ + "test_cold_census_search_counts"],
    ),
    (
        "equivalence.py",
        "            if (covered >> x) & 1:\n                continue\n",
        "",
        [EQ + "test_cold_census_search_counts"],
    ),
    (
        "equivalence.py",
        "            if orbit & skip or adj[x].bit_count() <= 1:\n                continue\n",
        "",
        [EQ + "test_cold_census_search_counts"],
    ),
    (
        "equivalence.py",
        "            if subset in seen_subsets:\n                continue\n",
        "",
        [EQ + "test_cold_census_search_counts"],
    ),
    (
        "equivalence.py",
        "            if beaten:\n                continue\n",
        "",
        [EQ + "test_cold_census_search_counts"],
    ),
    (
        "equivalence.py",
        " if sizes[c] > 1 else base[c]\n",
        "\n",
        [EQ + "test_refinement_never_reads_a_singleton_cells_neighbours"],
    ),
    # The root colouring's shortcuts write down the search's one leaf.
    (
        "equivalence.py",
        "sorted(range(n), key=colors.__getitem__)",
        "sorted(range(n - 1, -1, -1), key=colors.__getitem__)",
        [EQ + "test_root_shortcuts_match_the_search"],
    ),
    (
        "equivalence.py",
        "            base += _bits(cell)[:-1]\n",
        "            base += _bits(cell) if cell & cell - 1 else ()\n",
        [EQ + "test_root_shortcuts_match_the_search"],
    ),
    (
        "equivalence.py",
        "        if not all([not cells[c] & ~(twins[v] | 1 << v)",
        "        if not any([not cells[c] & ~(twins[v] | 1 << v)",
        [EQ + "test_root_shortcuts_match_the_search"],
    ),
    (
        "equivalence.py",
        "~(twins[v] | 1 << v)",
        "~twins[v]",
        [EQ + "test_root_shortcuts_match_the_search"],
    ),
    (
        "equivalence.py",
        "    if not 0 <= encoding < 1 << n * (n - 1) // 2:\n",
        "    if encoding < 0:\n",
        ["tests/test_equivalence.py::test_encoding_out_of_range_is_rejected"],
    ),
    (
        "witness.py",
        "        rows.append((coeffs, key >> 3 * n))\n",
        "        rows.append((coeffs, 0))\n",
        [W + "test_ghz4_witness_verifies_and_is_critical"],
    ),
    (
        "reports.py",
        "        return allows_specific_avn(self.graph, self.distribution)\n",
        "        return allows_specific_avn(\n"
        "            self.graph, Distribution(self.graph.n, tuple((q,) for q in range(1, self.graph.n + 1)))\n"
        "        )\n",
        ["tests/test_formats.py::test_report_decision_is_built_from_its_graph_and_distribution"],
    ),
    # Range checks of public masks, shapes and sizes.
    (
        "pauli.py",
        "    if mask < 0:\n",
        "    if False:\n",
        ["tests/test_pauli.py::test_letters_and_support"],
    ),
    (
        "pauli.py",
        "    if rest < 0:\n",
        "    if False:\n",
        ["tests/test_pauli.py::test_letters_and_support"],
    ),
    (
        "pauli.py",
        "    if rest >> MAX_QUBITS:\n",
        "    if False:\n",
        ["tests/test_pauli.py::test_format_word_covers_sixteen_qubits_and_no_more"],
    ),
    (
        "graphstate.py",
        '    if mask >> g.n:\n        raise ValueError(f"vertex mask',
        '    if False:\n        raise ValueError(f"vertex mask',
        ["tests/test_partitions.py::test_rank_solver_and_brute_verdicts_agree"],
    ),
    (
        "graphstate.py",
        "    if subset >> g.n:\n",
        "    if False:\n",
        ["tests/test_reality.py::test_stabilizer_word_rejects_a_subset_out_of_range"],
    ),
    # The set-partition recursion and the orbit dedupe run on block masks.
    (
        "partitions.py",
        "        anchor = uncovered & -uncovered\n",
        "        anchor = 1 << (uncovered.bit_length() - 1)\n",
        [PART + "test_stream_equals_the_tuple_search_exhaustively"],
    ),
    (
        "partitions.py",
        "        return tuple(sorted(map(move, blocks), key=lambda block: block & -block))\n",
        "        return tuple(map(move, blocks))\n",
        [PART + "test_stream_equals_the_tuple_search_exhaustively"],
    ),
    (
        "partitions.py",
        "cut_rank(g, block) == size\n",
        "cut_rank(g, block) == size - 1\n",
        [PART + "test_stream_equals_the_tuple_search_exhaustively"],
    ),
    (
        "partitions.py",
        "    if sum(shape) != n:\n",
        "    if False:\n",
        ["tests/test_partitions.py::test_partition_counts_match_multinomial"],
    ),
    (
        "equivalence.py",
        "    if n < 1:\n",
        "    if False:\n",
        ["tests/test_equivalence.py::test_guards"],
    ),
    (
        "partitions.py",
        "        for first in range(min(cap, remaining), 0, -1):\n",
        "        for first in range(1, min(cap, remaining) + 1):\n",
        ["tests/test_partitions.py::test_integer_partitions"],
    ),
)


def _copy(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _pytest(dest: Path, ids) -> subprocess.CompletedProcess:
    """Raises ``subprocess.TimeoutExpired`` (the run is killed) after
    ``TIMEOUT_S``."""
    env = dict(os.environ, PYTHONPATH=str(dest / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *ids],
        cwd=dest,
        env=env,
        capture_output=True,
        text=True,
        timeout=TIMEOUT_S,
    )


def run_mutant(entry) -> str:
    """'killed', 'survived', 'stale' or 'error' for one entry."""
    file, text, replacement, ids = entry
    with tempfile.TemporaryDirectory(prefix="avn-mutant-") as tmp:
        dest = Path(tmp)
        _copy(dest)
        path = dest / "src" / "avnproofs" / file
        source = path.read_text()
        if source.count(text) != 1:
            return "stale"
        path.write_text(source.replace(text, replacement))
        try:
            proc = _pytest(dest, ids)
        except subprocess.TimeoutExpired:  # the mutant made a test hang
            return "killed"
    if proc.returncode in (1, 2):  # tests failed, or the mutated code failed to import
        return "killed"
    return "survived" if proc.returncode == 0 else "error"


def main(argv) -> int:
    chosen = [int(a) for a in argv] or range(len(MUTANTS))
    ids = sorted({i for k in chosen for i in MUTANTS[k][3]})
    with tempfile.TemporaryDirectory(prefix="avn-mutant-") as tmp:
        _copy(Path(tmp))
        base = _pytest(Path(tmp), ids)
    if base.returncode != 0:
        print(base.stdout[-2000:] + base.stderr[-2000:])
        print("the named tests do not pass on the unmutated code")
        return 2
    tally = {}
    for k in chosen:
        start = time.perf_counter()
        outcome = run_mutant(MUTANTS[k])
        tally[outcome] = tally.get(outcome, 0) + 1
        file, text = MUTANTS[k][:2]
        first = text.strip().splitlines()[0]
        print(f"{k:3} {outcome:9} {time.perf_counter() - start:5.1f}s  {file}: {first}", flush=True)
    print(", ".join(f"{n} {outcome}" for outcome, n in sorted(tally.items())))
    return 0 if set(tally) <= {"killed"} else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
