import itertools

import pytest

import machine
import run
import tracer
import workloads
from avnproofs import cli


def fake_clock():
    ticks = itertools.count()
    return lambda: float(next(ticks))


def test_self_times_subtract_child_spans():
    # a [0, 10] holds b [1, 4] and c [5, 7]; b holds d [2, 3].
    parent = [-1, 0, 1, 0]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 7.0]
    assert tracer.self_times(parent, start, end) == [5.0, 2.0, 1.0, 2.0]


def test_wrapped_calls_nest_and_count():
    tr = tracer.Tracer(clock=fake_clock())
    leaf = tr.wrap("leaf", lambda: None, "call")

    def body():
        leaf()
        leaf()
        return 7

    outer = tr.wrap("outer", body, "call")
    assert outer() == 7
    # outer opens at 0; the leaves span [1, 2] and [3, 4]; outer closes at 5.
    assert list(tr.parent) == [-1, 0, 0]
    assert tr.calls == {"outer": 1, "leaf": 2}
    assert tr.self_seconds() == {"outer": 3.0, "leaf": 2.0}


def test_generator_spans_cover_each_resumption():
    tr = tracer.Tracer(clock=fake_clock())
    gen = tr.wrap("gen", lambda k: iter(range(k)), "gen")
    assert list(gen(3)) == [0, 1, 2]
    assert tr.calls["gen"] == 1
    assert tr.yields["gen"] == 3
    assert len(tr.start) == 4  # three yields and the final StopIteration


def package_bindings(obj):
    return [
        (mod.__name__, key)
        for mod in tracer.package_modules()
        for key, value in vars(mod).items()
        if value is obj
    ]


def test_every_binding_is_wrapped_and_restored():
    originals = {}
    for module, attr, _ in tracer.TRACED:
        owner = __import__(f"avnproofs.{module}", fromlist=["_"])
        if "." in attr:
            cls, method = attr.split(".")
            originals[(module, attr)] = (vars(getattr(owner, cls))[method], None)
        else:
            obj = getattr(owner, attr)
            originals[(module, attr)] = (obj, package_bindings(obj))
    assert len(originals[("reality", "allows_specific_avn")][1]) >= 4

    tr = tracer.Tracer()
    with tr.installed():
        for (module, attr), (obj, bindings) in originals.items():
            if bindings is None:
                cls, method = attr.split(".")
                owner = __import__(f"avnproofs.{module}", fromlist=["_"])
                assert vars(getattr(owner, cls))[method] is not obj
            else:
                assert package_bindings(obj) == []
    for (module, attr), (obj, bindings) in originals.items():
        if bindings is not None:
            assert package_bindings(obj) == bindings


@pytest.fixture(scope="module")
def sample_commands():
    return (
        workloads.commands("check", 1)[:40]
        + workloads.commands("class-table", 1)[:2]
        + workloads.commands("witness", 1)[:3]
        + workloads.commands("witness", 1)[-2:]
    )


def traced_pass(commands):
    tr = tracer.Tracer()
    with tr.installed():
        p = run.run_pass(cli, commands, run.cache_resetters(), machine.Speed(), keep_outputs=False)
    return tr, p


def test_traced_and_untraced_outputs_match(sample_commands):
    untraced = run.run_pass(cli, sample_commands, run.cache_resetters(), machine.Speed(), keep_outputs=True)
    assert run.check_outputs(sample_commands, untraced) == []
    _, traced = traced_pass(sample_commands)
    assert traced.hashes == untraced.hashes


def test_traced_counts_repeat(sample_commands):
    first, _ = traced_pass(sample_commands)
    second, _ = traced_pass(sample_commands)
    assert first.calls == second.calls
    assert first.yields == second.yields
    assert first.calls["cli.main"] == len(sample_commands)
    assert first.yields["partitions.enumerate_distributions"] > 0


def test_each_command_starts_cold():
    census = workloads.Command(("classes", "--n", "5"), lambda status, out: None)
    tr, _ = traced_pass([census, census])
    assert tr.calls["equivalence.lc_orbit"] == 2 * 4  # 4 classes at n = 5, twice
