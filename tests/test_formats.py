import json
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avnproofs import (
    AvnDecision,
    Graph,
    GraphClassRecord,
    ParseError,
    allows_specific_avn,
    classify_all,
    enumerate_distributions,
    find_witness,
    format_distribution,
    format_graph,
    format_witness,
    minimal_shapes,
    parse_distribution,
    parse_graph,
    path_graph,
)
from avnproofs.cli import main
from avnproofs.reality import Distribution
from avnproofs.reports import DistributionReport


def make_report(with_witness=False):
    g = path_graph(4)
    d = parse_distribution("1,4|2,3", 4)
    witness = find_witness(g) if with_witness else None
    return DistributionReport(g, d, witness=witness)


def test_distribution_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse_distribution("1,4|2,x", 4)
    assert err.value.position == 6
    with pytest.raises(ParseError):
        parse_distribution("1,4|4,2", 4)  # duplicate qubit
    with pytest.raises(ParseError):
        parse_distribution("1,4|2", 4)  # missing qubit 3
    with pytest.raises(ParseError) as err:
        parse_distribution("1,,2|3,4", 4)
    assert "empty" in str(err.value)


def test_report_json_round_trip():
    for with_witness in (False, True):
        report = make_report(with_witness)
        blob = json.dumps(report.to_json_dict(), sort_keys=True)
        back = DistributionReport.from_json_dict(json.loads(blob))
        assert back.to_json_dict() == report.to_json_dict()
        assert back.graph == report.graph
        assert back.distribution == report.distribution
        assert back.verdict == report.verdict


def test_report_schema_fields():
    data = make_report(True).to_json_dict()
    assert set(data) == {
        "graph",
        "m",
        "particles",
        "verdict",
        "shortcut",
        "eor_table",
        "witness",
    }
    assert data["m"] == 2
    assert data["verdict"] == "allows"
    assert set(data["eor_table"]) == {"1", "2", "3", "4"}
    assert set(data["eor_table"]["1"]) == {"X", "Y", "Z"}
    assert data["witness"]["equations"]


def test_report_decision_is_built_from_its_graph_and_distribution():
    report = make_report()
    assert report.decision == allows_specific_avn(report.graph, report.distribution)
    assert report.decision is report.decision  # built once
    with pytest.raises(TypeError):  # a decision cannot be handed in, not even as the witness
        DistributionReport(report.graph, report.distribution, report.decision)
    with pytest.raises(FrozenInstanceError):
        report.decision = AvnDecision(allows=False, eor=dict(report.decision.eor))


def test_render_table_mentions_verdict_and_equations():
    text = make_report(True).render_table()
    assert "verdict: allows" in text
    assert "X1 Z2" in text
    assert "witness:" in text


def test_particle_columns(capsys):
    assert main(["enumerate", "--graph", "4: 1-2,2-3,3-4", "--m", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2] == "m  A         B       "
    assert lines[3:] == ["2  1,3       2,4     ", "2  1,4       2,3     "]


@pytest.mark.parametrize("bad", [0, 5])
def test_from_json_dict_rejects_subset_entries_outside_1_to_n(bad):
    data = make_report(True).to_json_dict()
    table = json.loads(json.dumps(data))
    table["eor_table"]["1"]["X"] = [1, bad]
    with pytest.raises(ValueError):
        DistributionReport.from_json_dict(table)
    witness = json.loads(json.dumps(data))
    witness["witness"]["subsets"][0] = [bad]
    with pytest.raises(ValueError):
        DistributionReport.from_json_dict(witness)


def _edited_record(edit):
    data = json.loads(json.dumps(make_report(True).to_json_dict()))
    edit(data)
    return data


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda d: d["eor_table"].update({"9": d["eor_table"]["4"]}), "in: eor_table$"),
        (lambda d: d["eor_table"].pop("4"), "in: eor_table$"),
        (lambda d: d["eor_table"]["2"].update({"Q": None}), "in: eor_table$"),
        (lambda d: d["eor_table"]["2"].pop("Z"), "in: eor_table$"),
        (lambda d: d["eor_table"]["1"].update({"X": [3]}), "in: eor_table$"),
        (lambda d: d["eor_table"]["1"].update({"X": [1, 4]}), "in: eor_table$"),
        (
            lambda d: (d["eor_table"]["1"].update({"X": None}), d.update({"verdict": "blocks"})),
            "in: eor_table, verdict$",
        ),
        (
            lambda d: d.update({"shortcut": "qubit 1 is connected only to its own particle"}),
            "in: shortcut$",
        ),
        (lambda d: d["witness"].update({"subsets": [[1], [2]]}), "witness subsets"),
        (lambda d: d["witness"]["equations"].__setitem__(0, "X1 = 1"), "in: witness$"),
        (lambda d: d.update({"m": 7}), "in: m$"),
        (lambda d: d.update({"particles": [[4, 1], [2, 3]]}), "in: particles$"),
        (lambda d: d.pop("shortcut"), "in: shortcut$"),
    ],
    ids=[
        "extra-qubit",
        "missing-qubit",
        "extra-letter",
        "missing-letter",
        "wrong-letter",
        "mate",
        "dropped-certificate",
        "invented-shortcut",
        "not-a-witness",
        "edited-equation",
        "wrong-m",
        "unsorted-particle",
        "missing-field",
    ],
)
def test_from_json_dict_rejects_tables_it_cannot_stand_behind(edit, message):
    with pytest.raises(ValueError, match=message):
        DistributionReport.from_json_dict(_edited_record(edit))


@pytest.mark.parametrize("extra", [[[]], [[1], [1]]], ids=["identity", "repeated"])
def test_from_json_dict_rejects_a_padded_witness(extra):
    """The program's own witness plus an identity member (equation ``1 = 1``)
    or a repeated member, with the equations the padded witness prints."""
    g = path_graph(4)
    data = make_report(True).to_json_dict()
    assert data["witness"]["subsets"] == [[2], [1, 2], [2, 3], [1, 2, 3]]
    subsets = data["witness"]["subsets"] + extra
    padded = tuple(sum(1 << (q - 1) for q in s) for s in subsets)
    data["witness"] = {"subsets": subsets, "equations": format_witness(padded, g)}
    with pytest.raises(ValueError, match="witness subsets do not form"):
        DistributionReport.from_json_dict(data)


def test_from_json_dict_rejects_an_unknown_verdict():
    g, d = path_graph(4), parse_distribution("1,2|3,4", 4)
    data = DistributionReport(g, d).to_json_dict()
    assert data["verdict"] == "blocks"
    data["verdict"] = "maybe"
    with pytest.raises(ValueError, match="in: verdict$"):
        DistributionReport.from_json_dict(data)


def test_repeated_or_out_of_range_qubit_is_reported_at_its_token():
    cases = {
        "1,1|2,3": ("qubit 1 appears twice in one particle", 2),
        "1,4|4,2": ("qubit 4 appears in two particles", 4),
        "1,4|2, 7,3": ("qubit 7 out of range 1..4", 7),
    }
    for text, (message, position) in cases.items():
        with pytest.raises(ParseError) as err:
            parse_distribution(text, 4)
        assert (err.value.message, err.value.position) == (message, position)


def test_check_reports_a_repeat_inside_one_particle(capsys):
    assert main(["check", "--graph", "4: 1-2,2-3,3-4", "--dist", "1,1|2,3"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: qubit 1 appears twice in one particle (at position 2)\n"


def _set_particle(entries):
    return lambda d: d["particles"].__setitem__(0, entries)


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: d.update({"m": 2.0}),
        lambda d: d["eor_table"]["1"].update({"X": [1.0]}),
        _set_particle([True, 4]),
        _set_particle([1.0, 4]),
        _set_particle(["1", 4]),
        lambda d: d.update({"graph": 5}),
        lambda d: d.pop("particles"),
        lambda d: d["witness"]["subsets"].__setitem__(0, [2.0]),
        lambda d: d.update({"witness": 5}),
    ],
    ids=[
        "float-m",
        "float-certificate-entry",
        "bool-particle-entry",
        "float-particle-entry",
        "string-particle-entry",
        "int-graph",
        "missing-particles",
        "float-witness-entry",
        "int-witness",
    ],
)
def test_from_json_dict_raises_value_error_on_values_the_program_never_writes(edit):
    data = make_report(True).to_json_dict()
    assert data["eor_table"]["1"]["X"] == [1] and data["particles"][0] == [1, 4]
    with pytest.raises(ValueError):
        DistributionReport.from_json_dict(_edited_record(edit))


@pytest.mark.parametrize(
    "edit", [{"class_id": True}, {"orbit_size": 2.0}, {"n": "5"}, {"n": 5.0}], ids=repr
)
def test_class_record_raises_value_error_on_values_the_program_never_writes(edit):
    data = classify_all(5)[0].to_json_dict()
    assert data["class_id"] == 1 and data["orbit_size"] == 2
    with pytest.raises(ValueError):
        GraphClassRecord.from_json_dict(dict(data, **edit))


@pytest.mark.parametrize(
    "particles, message",
    [
        (((1, 1), (2, 3, 4)), "qubit 1 appears twice in one particle"),
        (((1, 2), (3, 3, 4)), "qubit 3 appears twice in one particle"),
        (((1, 4), (4, 2, 3)), "qubit 4 appears in two particles"),
    ],
    ids=["first-particle", "second-particle", "two-particles"],
)
def test_distribution_and_loader_name_a_repeat_as_the_parser_does(particles, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Distribution(4, particles)
    data = _edited_record(lambda d: d.update({"particles": [list(p) for p in particles]}))
    with pytest.raises(ValueError, match=f"^{message}$"):
        DistributionReport.from_json_dict(data)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_parsers_build_what_the_checked_constructors_build(data):
    """A parsed graph or distribution equals the one the checked
    constructor builds from the same edges or particles, members given in
    any order."""
    n = data.draw(st.integers(1, 16))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    g = Graph.from_edges(n, edges)
    parsed = parse_graph(format_graph(g))
    assert type(parsed) is Graph and parsed == g and hash(parsed) == hash(g)
    labels = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    blocks = {}
    for q in data.draw(st.permutations(range(1, n + 1))):
        blocks.setdefault(labels[q - 1], []).append(q)
    d = Distribution(n, tuple(map(tuple, blocks.values())))
    for text in (format_distribution(d), "|".join(",".join(map(str, b)) for b in blocks.values())):
        parsed = parse_distribution(text, n)
        assert type(parsed) is Distribution and parsed == d and hash(parsed) == hash(d)
        assert parsed.pmasks == d.pmasks


def test_enumerated_distributions_are_what_the_checked_constructor_builds():
    for record in classify_all(6):
        g = record.representative
        for _m, shapes in minimal_shapes(g.n):
            for shape in shapes:
                for dedupe in (True, False):
                    for d in enumerate_distributions(g, shape, dedupe=dedupe):
                        assert d == Distribution(g.n, d.particles)


@pytest.mark.parametrize(
    "text, message, position",
    [
        ("1,4|2,x", "qubit 'x' is not an integer", 6),
        ("1,,2|3,4", "empty qubit entry", 2),
        ("1,2||3,4", "empty qubit entry", 4),
        ("1,4|2", "qubits [3] not covered", 0),
        ("4|1", "qubits [2, 3] not covered", 0),
    ],
)
def test_distribution_parse_errors(text, message, position):
    """With ``test_repeated_or_out_of_range_qubit_is_reported_at_its_token``,
    every message the distribution parser gives, at its position."""
    with pytest.raises(ParseError) as err:
        parse_distribution(text, 4)
    assert (err.value.message, err.value.position) == (message, position)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Graph(17, (0,) * 17), "vertex count must be in 1..16, got 17"),
        (lambda: Graph(4, (0, 0, 0)), "adjacency list length differs from vertex count"),
        (lambda: Graph.from_edges(4, [(1, 2), (1, 9)]), "edge 1-9 out of range 1..4"),
        (lambda: Graph.from_edges(4, [(1, 2), (2, 2)]), "self-loop 2-2"),
        (lambda: Distribution(4, ((1, 4), (2, 9, 3))), "qubit 9 out of range 1..4"),
        (lambda: Distribution(4, ((1, 2, 3, 4), ())), "empty particle"),
        (lambda: Distribution(4, ((1, 4), (2,))), "qubits [3] not covered"),
    ],
    ids=[
        "vertex-count",
        "adjacency-length",
        "edge-range",
        "edge-self-loop",
        "qubit-range",
        "empty-particle",
        "uncovered",
    ],
)
def test_checked_constructor_errors(build, message):
    """The constructors that take input from outside the parsers keep their
    own checks.  The adjacency-mask and repeat messages are pinned by
    ``test_graphstate::test_graph_validation_messages_match_full_scan`` and
    ``test_distribution_and_loader_name_a_repeat_as_the_parser_does``."""
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message
