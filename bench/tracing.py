"""Spans at the public layer boundaries of perfcode, recorded from outside.

For the traced pass, :class:`Tracer` swaps each public layer function that
``solve`` and ``check_theorem`` reach through a module global (for example
``perfcode.solver.square``) for a wrapper that records a span around the
call, and puts every original back on exit. Inputs then run through the
program's own ``solve`` / ``run_campaign``, so the spans follow the order
the program really uses, and the traced answers are gated like any other.
The untraced window never sees a wrapper.

A span is ``[id, parent, op, name, start, end]``: ``parent`` is the id of
the enclosing span (None for an operation), and ``op`` the id of the
operation span it belongs to. Start and end are read from the thread's CPU
clock, the clock run.py times calls with, so span time and call time can
be compared. Spans stay in memory until written out.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from contextlib import contextmanager

#: (module, attribute, span name): the public calls that solve(),
#: is_chordal() and check_theorem() make into each layer.
LAYER_CALLS = (
    ("perfcode.solver", "square", "graph.square"),
    ("perfcode.solver", "connected_components", "graph.components"),
    ("perfcode.solver", "induced_subgraph", "graph.components"),
    ("perfcode.solver", "is_chordal", "recognition.is_chordal"),
    ("perfcode.solver", "find_hole", "recognition.find_hole"),
    ("perfcode.solver", "find_odd_antihole", "recognition.find_odd_antihole"),
    ("perfcode.solver", "mwis_chordal", "mwis.chordal"),
    ("perfcode.solver", "mwis_exact", "mwis.exact"),
    ("perfcode.recognition", "lexbfs_order", "recognition.lexbfs"),
    ("perfcode.verify", "check_theorem", "verify.check_theorem"),
    ("perfcode.verify", "class_membership", "recognition.class_membership"),
    ("perfcode.verify", "efficient_dominating_sets", "solver.efficient_dominating_sets"),
    ("perfcode.verify", "square", "graph.square"),
    ("perfcode.verify", "is_chordal", "recognition.is_chordal"),
    ("perfcode.verify", "is_perfect_desk", "recognition.is_perfect_desk"),
)

#: Layer functions that are generators: each step is its own span.
GENERATORS = frozenset({"solver.efficient_dominating_sets"})

#: Span names whose busy time and call count are reported.
TIMED = (
    "graph.square",
    "graph.components",
    "recognition.lexbfs",
    "recognition.is_chordal",
    "recognition.find_hole",
    "recognition.find_odd_antihole",
    "recognition.class_membership",
    "recognition.is_perfect_desk",
    "mwis.exact",
    "mwis.chordal",
    "solver.solve",
    "solver.efficient_dominating_sets",
    "verify.check_theorem",
)

LAYERS = ("graph", "recognition", "mwis", "solver", "verify")

_DONE = object()


class Tracer:
    """Span recorder plus the outcome counters measured at the same boundaries."""

    def __init__(self, deadline_error: type[BaseException]):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._deadline_error = deadline_error
        self._stack: list[int] = []
        self._op: int | None = None
        self._square_input: dict[int, object] = {}
        self._targets = [(importlib.import_module(m), attr, name) for m, attr, name in LAYER_CALLS]

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = [len(self.spans), parent, self._op, name, time.thread_time(), None]
        self.spans.append(record)
        self._stack.append(record[0])
        try:
            yield
        except self._deadline_error:
            self.counts[f"{name}.overruns"] += 1
            raise
        finally:
            record[5] = time.thread_time()
            self._stack.pop()

    @contextmanager
    def operation(self, name: str):
        """One benchmark call: the root span that every layer span points to."""
        self._op = len(self.spans)
        self._square_input.clear()
        try:
            with self.span(name):
                yield
        finally:
            self._op = None

    @contextmanager
    def installed(self):
        """Wrap every call in LAYER_CALLS for the duration of the block."""
        originals = []
        try:
            for module, attr, name in self._targets:
                original = getattr(module, attr)
                originals.append((module, attr, original))
                wrap = self._wrap_generator if name in GENERATORS else self._wrap
                setattr(module, attr, wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(originals):
                setattr(module, attr, original)

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            self._observe(name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, name, fn):
        def traced(*args, **kwargs):
            steps = fn(*args, **kwargs)
            while True:
                with self.span(name):
                    item = next(steps, _DONE)
                if item is _DONE:
                    return
                yield item

        traced.__wrapped__ = fn
        return traced

    def _observe(self, name: str, args: tuple, result) -> None:
        """Outcome counters that turn into the per-layer useful-work ratios."""
        if name == "graph.square":
            self.counts["graph.square.edges_out"] += result.edge_count
            self._square_input[id(result)] = args[0]
        elif name == "recognition.is_chordal":
            self.counts["recognition.is_chordal.chordal"] += bool(result[0])
        elif name == "recognition.class_membership":
            self.counts["recognition.class_membership.member"] += bool(result.member)
        elif name in ("mwis.exact", "mwis.chordal"):
            # solve() reads an e.d. off an optimum of the square of g exactly
            # when the optimum's closed neighbourhoods in g cover all of g.
            g = self._square_input.get(id(args[0]))
            if g is not None and sum(g.degree(v) + 1 for v in result.vertices) == g.n:
                self.counts["mwis.ed_optima"] += 1
        elif name == "verify.check_theorem":
            self.counts["verify.check_theorem.informative"] += bool(result.informative)
            if result.status == "vacuous":
                self.counts[f"verify.vacuous_by_reason.{_reason_key(result.reason)}"] += 1

    def observe_solution(self, solution) -> None:
        if solution.diagnostics is not None and solution.diagnostics.hole_free is None:
            self.counts["recognition.diagnostics_skipped"] += 1

    # -- aggregation ----------------------------------------------------------

    def layer_metrics(self, untraced_op_s: float, traced_op_s: float, passes: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, as (value, unit), averaged over `passes` passes."""
        busy: Counter = Counter()
        calls: Counter = Counter()
        child_time: Counter = Counter()
        for _id, parent, _op, name, start, end in self.spans:
            busy[name] += end - start
            calls[name] += 1
            if parent is not None:
                child_time[parent] += end - start
        self_time: Counter = Counter()
        op_children = 0.0
        for span_id, parent, _op, name, start, end in self.spans:
            self_time[name.split(".")[0]] += end - start - child_time[span_id]
            if parent is None:
                op_children += child_time[span_id]
        c = self.counts
        out: dict[str, tuple[float, str]] = {}
        for name in TIMED:
            out[f"{name}.busy_s"] = (busy[name] / passes, "s")
        for name in ("graph.square", "recognition.is_chordal", "recognition.class_membership",
                     "mwis.exact", "mwis.chordal", "verify.check_theorem"):
            out[f"{name}.calls"] = (calls[name] / passes, "count")
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self_time[layer] / passes, "s")
        mwis_calls = calls["mwis.exact"] + calls["mwis.chordal"]
        out.update({
            "graph.square.edges_out": (c["graph.square.edges_out"] / passes, "count"),
            "recognition.chordal_ratio": (_ratio(c["recognition.is_chordal.chordal"], calls["recognition.is_chordal"]), "ratio"),
            "recognition.diagnostics_skipped": (c["recognition.diagnostics_skipped"] / passes, "count"),
            "recognition.member_ratio": (_ratio(c["recognition.class_membership.member"], calls["recognition.class_membership"]), "ratio"),
            "mwis.exact.overruns": (c["mwis.exact.overruns"] / passes, "count"),
            "mwis.ed_ratio": (_ratio(c["mwis.ed_optima"], mwis_calls), "ratio"),
            "verify.informative_ratio": (_ratio(c["verify.check_theorem.informative"], calls["verify.check_theorem"]), "ratio"),
            "verify.vacuous_by_reason.class": (c["verify.vacuous_by_reason.class"] / passes, "count"),
            "verify.vacuous_by_reason.no_ed": (c["verify.vacuous_by_reason.no_ed"] / passes, "count"),
            "trace.coverage": (_ratio(op_children, untraced_op_s), "ratio"),
            "trace.overhead": (_ratio(traced_op_s - untraced_op_s, untraced_op_s), "ratio"),
        })
        return out


def _reason_key(reason: str | None) -> str:
    return {"class": "class", "no efficient dominating set": "no_ed"}.get(reason, "other")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
