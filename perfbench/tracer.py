"""Span recorder for the traced benchmark run.

`instrument(tracer)` replaces public functions and methods of levy_collapse
at their module or class attribute with wrappers that open a span on entry
and close it on exit; the package source is not changed. Every span has a
name, a start, an end and the span that was open when it started. A span's
self time is its duration minus the time of the spans nested in it, so the
self times of all spans add up to the traced time without double counting;
its total time includes the nested spans.

Spans stay in memory and are written out when the run ends. The models
layer is called up to ~10^5 times per solved model, so its calls are timed
and counted in aggregate only and leave no span record.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from functools import wraps

import numpy as np

_clock = time.perf_counter
MAX_SPAN_RECORDS = 500_000


class Tracer:
    """Spans and counts of one traced process, kept in memory."""

    def __init__(self):
        self.stack = []  # open spans: [name, start, time spent in children, id]
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.records = []
        self.dropped = 0
        self._next_id = 0

    def wrap(self, fn, name, *, record=True, on_exit=None):
        """Wrap `fn` in a span; `name` is a string or a function of the
        call's arguments; `on_exit(result, args, kwargs)` updates counts
        after a call that returns."""
        stack, self_s, total_s, calls = self.stack, self.self_s, self.total_s, self.calls
        namer = name if callable(name) else (lambda *a, **k: name)

        @wraps(fn)
        def traced(*args, **kwargs):
            span_name = namer(*args, **kwargs)
            self._next_id += 1
            frame = [span_name, _clock(), 0.0, self._next_id]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
                if on_exit is not None:
                    on_exit(result, args, kwargs)
                return result
            finally:
                end = _clock()
                stack.pop()
                dur = end - frame[1]
                self_s[span_name] += dur - frame[2]
                total_s[span_name] += dur
                calls[span_name] += 1
                if stack:
                    stack[-1][2] += dur
                if record:
                    if len(self.records) < MAX_SPAN_RECORDS:
                        parent = stack[-1][3] if stack else 0
                        self.records.append((frame[3], parent, span_name, frame[1], end))
                    else:
                        self.dropped += 1
        return traced

    def count(self, fn, on_call):
        """Wrap `fn` without a span: `on_call(args, kwargs)` only counts."""
        @wraps(fn)
        def counted(*args, **kwargs):
            on_call(args, kwargs)
            return fn(*args, **kwargs)
        return counted

    def inside(self, name) -> bool:
        return any(frame[0] == name for frame in self.stack)

    def dump(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "name", "start", "end"],
                       "dropped": self.dropped, "spans": self.records}, fh)


def _family(model) -> str:
    kind = type(model).__name__
    if kind == "BrownianDrift":
        return "bm"
    if kind == "Sum":
        return "sum"
    return {"Exponential": "exp", "Erlang": "erlang", "Deterministic": "det",
            "Pareto": "pareto"}.get(type(model.jumps).__name__, "other")


def _patch(owner, attr, wrapper_factory):
    setattr(owner, attr, wrapper_factory(getattr(owner, attr)))


def instrument(tracer: Tracer) -> None:
    """Install the span wrappers on the imported package."""
    import levy_collapse as lc
    from levy_collapse import runner, simulate, stationary

    t = tracer

    def add_count(key, amount):
        t.counts[key] += amount

    # models: aggregate-only spans
    for cls in (lc.BrownianDrift, lc.CppMinusDrift, lc.Sum):
        _patch(cls, "phi", lambda f: t.wrap(f, "models.phi", record=False))
    for cls in (lc.Exponential, lc.Erlang, lc.Pareto, lc.Deterministic):
        _patch(cls, "excess_lst", lambda f: t.wrap(f, "models.excess_lst", record=False))
    for cls in (lc.Exponential, lc.Erlang, lc.Pareto, lc.Deterministic,
                lc.Uniform01, lc.Beta1):
        _patch(cls, "sample", lambda f: t.wrap(
            f, "models.sample", record=False,
            on_exit=lambda res, a, k: add_count("models.sample.draws", len(res))))

    # stationary
    _patch(stationary, "find_alpha_lambda",
           lambda f: t.wrap(f, "stationary.find_alpha_lambda"))
    _patch(stationary, "fixed_point_residual",
           lambda f: t.wrap(f, "stationary.fixed_point_residual"))
    sol = stationary.StationarySolution
    _patch(sol, "__init__", lambda f: t.wrap(
        f, lambda self, model, *a, **k: f"stationary.build.{_family(model)}"))
    _patch(sol, "lst", lambda f: t.wrap(
        f, lambda self, alpha: f"stationary.lst.{self.branch(alpha)}"))
    for attr in ("mean_lst_collapsed", "moments", "grid"):
        _patch(sol, attr, lambda f, attr=attr: t.wrap(f, f"stationary.{attr}"))

    # simulate
    def add_levels(pool, a, k):
        add_count("simulate.levels.count", pool[0].count if isinstance(pool, tuple)
                  else pool.count)

    def add_loynes(pool, a, k):
        add_levels(pool, a, k)
        add_count("simulate.loynes.samples", pool.count)

    _patch(simulate, "embedded_chain_run", lambda f: t.wrap(
        f, "simulate.embedded_chain_run", on_exit=add_levels))
    _patch(simulate, "loynes_run", lambda f: t.wrap(
        f, "simulate.loynes_run", on_exit=add_loynes))

    def path_kind(model, *a, **k):
        return ("simulate.path_simulate.euler" if model.sigma2_total() > 0
                else "simulate.path_simulate.exact")

    _patch(simulate, "path_simulate",
           lambda f: t.wrap(f, path_kind, on_exit=add_levels))
    for attr in ("coupling_check", "tail_table"):
        _patch(simulate, attr, lambda f, attr=attr: t.wrap(f, f"simulate.{attr}"))

    # (W, L) pairs drawn by the backward representation; `size` is the
    # sampler's last parameter, None for a single pair
    def loynes_draws(size_at):
        def on_call(args, kwargs):
            if t.inside("simulate.loynes_run"):
                size = kwargs.get("size", args[size_at] if len(args) > size_at else None)
                add_count("simulate.loynes.draws", 1 if size is None else int(size))
        return on_call

    _patch(simulate, "sample_wl_bm", lambda f: t.count(f, loynes_draws(4)))
    _patch(simulate, "sample_wl_mm1", lambda f: t.count(f, loynes_draws(5)))
    pool_cls = simulate.SamplePool
    _patch(pool_cls, "add", lambda f: t.wrap(
        f, "simulate.SamplePool.add",
        on_exit=lambda res, a, k: add_count("simulate.SamplePool.add.values",
                                            int(np.size(a[1])))))
    _patch(pool_cls, "merge", lambda f: t.wrap(f, "simulate.SamplePool.merge"))

    # runner
    for attr in ("run_analyze", "run_simulate", "run_tail"):
        _patch(runner, attr, lambda f, attr=attr: t.wrap(f, f"runner.{attr}"))
    _patch(runner, "run_validate",
           lambda f: t.wrap(f, lambda cfg: f"runner.run_validate.{cfg.suite}"))
    _patch(runner, "write_csv", lambda f: t.wrap(
        f, "runner.write_csv",
        on_exit=lambda path, a, k: add_count("runner.csv_bytes", os.path.getsize(path))))
