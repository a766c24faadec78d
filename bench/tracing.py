"""Span tracing of glevy's layers from outside the package.

The benchmark times the public functions of each ``glevy`` module by
replacing, for the duration of one traced round, the names the library
looks up at call time (``glevy.cli.solve_ipde``, ``glevy.simulate.draw_scenario``,
``CadlagPath.__post_init__``, ``Region.contains``, ...) with timing wrappers.
Nothing under ``src/`` changes and an untraced round runs the original code.

Every benchmark op is a root span. A wrapped layer call made once per op or
per estimator is a child span recording name, start, end, parent and op id.
Calls made once per simulated path (scenario draw, path construction,
payoff, region membership) would swamp the span list, so each is kept as a
count and a total time under its nearest enclosing span. A layer's self time
is its duration minus the time covered by its direct children, spans and
per-path counters alike. Everything stays in memory until the run ends.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from time import perf_counter

import glevy
import glevy.cli

__all__ = ["Tracer", "instrumented"]


class _Frame:
    __slots__ = ("name", "span_id", "parent_id", "owner", "start", "child_s", "attrs")

    def __init__(self, name, span_id, parent_id, owner):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.owner = owner
        self.child_s = 0.0
        self.attrs = {}
        self.start = perf_counter()


class Tracer:
    """Spans, per-path counters and work counts of one traced round."""

    def __init__(self):
        self.spans: list[dict] = []
        # (owning span id, name) -> [calls, total seconds, self seconds]
        self.counters: dict[tuple[int, str], list] = {}
        self.counts: dict[str, float] = {}
        self._stack: list[_Frame] = []
        self._next_id = 0
        self._op_id = None

    def _push(self, name: str, span: bool) -> _Frame:
        top = self._stack[-1] if self._stack else None
        parent_id = top.owner if top else None
        if span:
            self._next_id += 1
            frame = _Frame(name, self._next_id, parent_id, self._next_id)
        else:
            frame = _Frame(name, None, parent_id, parent_id)
        self._stack.append(frame)
        return frame

    def _pop(self, frame: _Frame) -> None:
        end = perf_counter()
        self._stack.pop()
        dur = end - frame.start
        if self._stack:
            self._stack[-1].child_s += dur
        if frame.span_id is None:
            c = self.counters.setdefault((frame.owner, frame.name), [0, 0.0, 0.0])
            c[0] += 1
            c[1] += dur
            c[2] += dur - frame.child_s
            return
        self.spans.append(
            {
                "id": frame.span_id,
                "op": self._op_id,
                "parent": frame.parent_id,
                "name": frame.name,
                "start": frame.start,
                "end": end,
                "self_s": dur - frame.child_s,
                "attrs": frame.attrs,
            }
        )

    @contextmanager
    def span(self, name: str, **attrs):
        """Child span around a layer call; yields its attribute dict."""
        frame = self._push(name, span=True)
        frame.attrs.update(attrs)
        try:
            yield frame.attrs
        finally:
            self._pop(frame)

    @contextmanager
    def op(self, name: str):
        """Root span of one benchmark op; children carry its id."""
        frame = self._push(name, span=True)
        self._op_id = frame.span_id
        try:
            yield
        finally:
            self._pop(frame)
            self._op_id = None

    def counted(self, name: str, fn, on_result=None):
        """Wrap a per-path callable as a count and total time."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._push(name, span=False)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._pop(frame)
            if on_result is not None:
                on_result(out)
            return out

        return wrapper

    def spanned(self, name: str, fn, on_result=None):
        """Wrap a layer call as a child span; on_result(args, out, attrs)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as attrs:
                out = fn(*args, **kwargs)
            if on_result is not None:
                on_result(args, out, attrs)
            return out

        return wrapper

    def add(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    # -- summaries ------------------------------------------------------------

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def total_s(self, name: str) -> float:
        """Inclusive time of a span or counter name over the round."""
        spans = self.named(name)
        if spans:
            return sum(s["end"] - s["start"] for s in spans)
        return sum(c[1] for (_, n), c in self.counters.items() if n == name)

    def self_s(self, name: str) -> float:
        return sum(s["self_s"] for s in self.named(name))

    def calls(self, name: str) -> int:
        spans = self.named(name)
        if spans:
            return len(spans)
        return sum(c[0] for (_, n), c in self.counters.items() if n == name)

    def as_dict(self) -> dict:
        return {
            "spans": self.spans,
            "counters": [
                {"parent": owner, "name": name, "calls": c[0], "total_s": c[1], "self_s": c[2]}
                for (owner, name), c in self.counters.items()
            ],
            "counts": self.counts,
        }


def _solve_attrs(args, sol, attrs) -> None:
    hist = sol.diagnostics["argmax_histogram"]
    attrs["cells"] = sol.grid.nx * sol.diagnostics["n_steps"]
    attrs["triples"] = len(hist)
    attrs["winners"] = sum(1 for c in hist if c)
    attrs["nbytes"] = sol.values.nbytes


def _estimate(tracer: Tracer, fn):
    """estimate_upper_expectation with its payoff counted per path."""

    @functools.wraps(fn)
    def wrapper(xi, uset, candidates, n_paths, *args, **kwargs):
        evals = int(n_paths) * len(candidates)
        tracer.add("simulate.path_evals", evals)
        with tracer.span("simulate.estimate", path_evals=evals):
            return fn(tracer.counted("simulate.payoff", xi), uset, candidates, n_paths, *args, **kwargs)

    return wrapper


@contextmanager
def instrumented(tracer: Tracer):
    """Route glevy's public layer calls through the tracer, then restore them."""
    cli, pide, simulate, paths, analysis, regions = (
        glevy.cli,
        glevy.pide,
        glevy.simulate,
        glevy.paths,
        glevy.analysis,
        glevy.regions,
    )

    def jumps(scenario):
        tracer.add("simulate.jumps_drawn", scenario.jump_times.shape[0])

    def skeleton(args, out, attrs):
        tracer.add("paths.skeleton_points", args[0].event_times().shape[0])

    solve = lambda fn: tracer.spanned("pide.solve_ipde", fn, _solve_attrs)
    estimate = lambda fn: _estimate(tracer, fn)
    patches = [
        (cli, "main", lambda fn: tracer.spanned("cli.main", fn)),
        (cli, "solve_ipde", solve),
        (analysis, "solve_ipde", solve),
        (pide, "solve_ipde", solve),
        (pide.GridSolution, "to_csv", lambda fn: tracer.spanned("pide.to_csv", fn)),
        (pide, "iterated_expectation", lambda fn: tracer.spanned("pide.iterated_expectation", fn)),
        (pide, "g_poisson_distribution", lambda fn: tracer.spanned("pide.g_poisson", fn)),
        (analysis, "martingale_check", lambda fn: tracer.spanned("analysis.martingale_check", fn)),
        (analysis, "decompose", lambda fn: tracer.spanned("analysis.decompose", fn)),
        (cli, "estimate_upper_expectation", estimate),
        (simulate, "estimate_upper_expectation", estimate),
        (
            simulate.BaseJumpModel,
            "from_uncertainty",
            lambda fn: tracer.spanned("simulate.base_model", fn),
        ),
        (simulate, "draw_scenario", lambda fn: tracer.counted("simulate.draw_scenario", fn, jumps)),
        (paths.CadlagPath, "__post_init__", lambda fn: tracer.counted("paths.CadlagPath", fn)),
        (regions.Region, "contains", lambda fn: tracer.counted("regions.contains", fn)),
        (paths, "cadlag_modulus", lambda fn: tracer.spanned("paths.cadlag_modulus", fn, skeleton)),
        (paths, "skorohod_distance_upper", lambda fn: tracer.spanned("paths.skorohod", fn)),
    ]
    saved = []
    try:
        for owner, attr, make in patches:
            raw = vars(owner)[attr]
            saved.append((owner, attr, raw))
            if isinstance(raw, staticmethod):
                setattr(owner, attr, staticmethod(make(raw.__func__)))
            else:
                setattr(owner, attr, make(raw))
        yield tracer
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)
