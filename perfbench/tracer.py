"""Span tracer for the benchmark's traced run.

The program is not instrumented.  While installed, the tracer replaces each
function in ``TRACED`` at every binding inside the package (the defining
module, every module that imported it, and the package root) with a wrapper
that records a span: name, start, end and the span that was open when it
started.  Spans stay in memory until the run ends.  Uninstalling restores
the original objects.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from array import array
from collections import Counter

PACKAGE = "avnproofs"

#: (module, attribute, kind).  "call" records one span per call, "gen" one
#: span per resumption of the returned generator (and counts its yields),
#: "count" only counts calls because a span would cost more than the call.
TRACED = (
    ("cli", "main", "call"),
    ("cli", "build_parser", "call"),
    ("reports", "DistributionReport.render_table", "call"),
    ("reports", "DistributionReport.to_json_dict", "call"),
    ("reality", "allows_specific_avn", "call"),
    ("reality", "is_element_of_reality", "call"),
    ("gf2", "gf2_solve", "call"),
    ("gf2", "gf2_solve_explain", "call"),
    ("partitions", "min_party_distributions", "call"),
    ("partitions", "enumerate_distributions", "gen"),
    ("partitions", "automorphisms", "call"),
    ("equivalence", "connected_graph_reps", "call"),
    ("equivalence", "lc_orbit", "call"),
    ("equivalence", "canonical_form", "call"),
    ("equivalence", "local_complement", "call"),
    ("witness", "find_witness", "call"),
    ("witness", "verify_witness", "call"),
    ("witness", "assignment_consistent", "call"),
    ("graphstate", "parse_graph", "call"),
    ("graphstate", "stabilizer_element", "call"),
    ("graphstate", "statevector", "call"),
    ("graphstate", "expectation", "call"),
    ("graphstate", "full_stabilizer", "gen"),
    ("pauli", "pauli_multiply", "count"),
)


def partitions_enumerated(g, shape, *args, **kwargs) -> int:
    """Set partitions of g's qubits with the given block sizes."""
    from avnproofs.partitions import count_partitions_with_shape

    return count_partitions_with_shape(g.n, shape)


#: Tallies summed per traced name, from the call's result or arguments.
RESULT_TALLIES = {
    "reality.allows_specific_avn": lambda r: int(r.allows),
    "partitions.min_party_distributions": lambda r: len(r[1]),
    "witness.find_witness": lambda r: int(r is not None),
}
ARG_TALLIES = {
    "partitions.enumerate_distributions": partitions_enumerated,
}


def metric_name(module: str, attr: str) -> str:
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


def package_modules() -> list:
    return [m for k, m in sorted(sys.modules.items()) if k == PACKAGE or k.startswith(PACKAGE + ".")]


def self_times(parent, start, end) -> list:
    """Each span's duration minus the time its child spans cover.

    Spans come from one thread, so the children of a span never overlap
    and the time they cover is the sum of their durations.
    """
    own = [e - s for s, e in zip(start, end)]
    for sid, p in enumerate(parent):
        if p >= 0:
            own[p] -= end[sid] - start[sid]
    return own


class Tracer:
    """Records spans and counts for the functions in ``TRACED``."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.calls = Counter()
        self.yields = Counter()
        self.tallies = Counter()
        self._open = -1
        self._restore = []

    # -- recording ---------------------------------------------------------

    def _begin(self, nid: int) -> int:
        sid = len(self.start)
        self.span_name.append(nid)
        self.parent.append(self._open)
        self.end.append(0.0)
        self._open = sid
        self.start.append(self.clock())
        return sid

    def _finish(self, sid: int) -> None:
        self.end[sid] = self.clock()
        self._open = self.parent[sid]

    def _resumptions(self, name: str, nid: int, gen):
        while True:
            sid = self._begin(nid)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._finish(sid)
            self.yields[name] += 1
            yield item

    def wrap(self, name: str, fn, kind: str):
        """A stand-in for ``fn`` that records ``name``."""
        nid = len(self.names)
        self.names.append(name)
        calls, tallies = self.calls, self.tallies
        on_result = RESULT_TALLIES.get(name)
        on_args = ARG_TALLIES.get(name)

        if kind == "count":
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return functools.wraps(fn)(counted)

        if kind == "gen":
            def generator(*args, **kwargs):
                calls[name] += 1
                if on_args is not None:
                    tallies[name] += on_args(*args, **kwargs)
                return self._resumptions(name, nid, fn(*args, **kwargs))

            return functools.wraps(fn)(generator)

        def spanned(*args, **kwargs):
            calls[name] += 1
            sid = self._begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._finish(sid)
            if on_result is not None:
                tallies[name] += on_result(result)
            return result

        return functools.wraps(fn)(spanned)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = package_modules()
        for module, attr, kind in TRACED:
            name = metric_name(module, attr)
            owner = importlib.import_module(f"{PACKAGE}.{module}")
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = vars(cls)[method]
                self._replace(cls, method, original, self.wrap(name, original, kind))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, kind)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, key, original, wrapper)

    def _replace(self, obj, key, original, wrapper) -> None:
        setattr(obj, key, wrapper)
        self._restore.append((obj, key, original))

    def uninstall(self) -> None:
        while self._restore:
            obj, key, original = self._restore.pop()
            setattr(obj, key, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- results -----------------------------------------------------------

    def self_seconds(self) -> Counter:
        """Summed self time per traced name."""
        out = Counter()
        for nid, t in zip(self.span_name, self_times(self.parent, self.start, self.end)):
            out[self.names[nid]] += t
        return out

    def child_spans(self, parent_name: str, child_name: str) -> int:
        """Spans of ``child_name`` opened directly inside a ``parent_name`` span."""
        names, span_name = self.names, self.span_name
        return sum(
            1
            for sid, p in enumerate(self.parent)
            if p >= 0 and names[span_name[sid]] == child_name and names[span_name[p]] == parent_name
        )

    def write(self, path) -> None:
        """Write every span as ``name  start  end  parent`` (tab-separated)."""
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\n")
            for nid, p, s, e in zip(self.span_name, self.parent, self.start, self.end):
                fh.write(f"{self.names[nid]}\t{s!r}\t{e!r}\t{p}\n")
