"""Span tracing around zodd's public functions, from outside the library.

:func:`installed` replaces each traced function with a wrapper where callers
look it up (``optimize`` and ``harness`` import names with ``from .x import
y``, so e.g. ``zodd.harness.run`` is wrapped, not only ``zodd.optimize.run``)
and restores the originals on exit. A wrapper times its call, counts it and
the work it was given, and subtracts its duration from the open parent span,
so every span also has a self time. Wrappers draw no random numbers, so a
traced run produces the same outputs as an untraced one.
"""

from __future__ import annotations

import os
import statistics
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

from zodd import env, estimators, harness, optimize, oracles, pricing


# Work counters read the third argument of the traced call, by position or name.
def _arg2(args, kwargs, name):
    return args[2] if len(args) > 2 else kwargs[name]


def _m(args, kwargs):  # EnvHandle.sample(self, x, m, rng)
    return _arg2(args, kwargs, "m")


def _rows(args, kwargs):  # <Env>.eval_f_batch(self, x, outcomes)
    return len(_arg2(args, kwargs, "outcomes"))


def _n_eval(args, kwargs):  # eval_obj_metric(spec, x, n_eval, ...), mean_objective(env, ...)
    return _arg2(args, kwargs, "n_eval")


class Tracer:
    """Per-span totals: calls, work items, total and self seconds."""

    def __init__(self) -> None:
        self._stack: list[list] = []  # open spans as [name, child seconds]
        self.calls: Counter = Counter()
        self.items: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.nested: Counter = Counter()  # (parent, child) -> calls
        self.run_seconds: defaultdict = defaultdict(list)  # method -> run durations
        self.iterations = 0
        self.trace_bytes = 0

    def wrap(self, name, fn, items=None, after=None):
        stack = self._stack

        def traced(*args, **kwargs):
            if stack:
                self.nested[stack[-1][0], name] += 1
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                self.calls[name] += 1
                self.total[name] += dt
                self.self_time[name] += dt - frame[1]
            if items is not None:
                self.items[name] += items(args, kwargs)
            if after is not None:
                after(dt, result, args, kwargs)
            return result

        return traced

    def _after_run(self, dt, result, args, kwargs):
        cfg = args[1] if len(args) > 1 else kwargs["cfg"]
        self.run_seconds[cfg.method].append(dt)
        self.iterations += result.iterations

    def _after_write_trace(self, dt, result, args, kwargs):
        self.trace_bytes += os.path.getsize(args[0])

    def targets(self):
        """(owner, attribute, wrapper) for every traced lookup site."""
        one_point = self.wrap("estimators.one_point", estimators.one_point_estimate)
        two_point = self.wrap("estimators.two_point", estimators.two_point_estimate)
        metric = "harness.metric"
        return [
            (env.EnvHandle, "sample", self.wrap("env.sample", env.EnvHandle.sample, _m)),
            (pricing.PricingEnv, "sample", self.wrap("pricing.sample", pricing.PricingEnv.sample)),
            (pricing.PricingEnv, "eval_f_batch",
             self.wrap("pricing.eval_f_batch", pricing.PricingEnv.eval_f_batch, _rows)),
            (oracles.QuadraticShiftOracle, "sample",
             self.wrap("oracles.sample", oracles.QuadraticShiftOracle.sample)),
            (oracles.QuadraticShiftOracle, "eval_f_batch",
             self.wrap("oracles.eval_f_batch", oracles.QuadraticShiftOracle.eval_f_batch, _rows)),
            (estimators, "one_point_estimate", one_point),
            (estimators, "two_point_estimate", two_point),
            (optimize, "one_point_estimate", one_point),
            (optimize, "two_point_estimate", two_point),
            (optimize, "compute_weights",
             self.wrap("history.compute_weights", optimize.compute_weights)),
            (optimize, "compute_c", self.wrap("history.compute_c", optimize.compute_c)),
            (optimize, "estimate_initial_c",
             self.wrap("history.estimate_initial_c", optimize.estimate_initial_c)),
            (harness, "run", self.wrap("optimize.run", harness.run, after=self._after_run)),
            (harness, "eval_obj_metric", self.wrap(metric, harness.eval_obj_metric, _n_eval)),
            (harness, "mean_objective", self.wrap(metric, harness.mean_objective, _n_eval)),
            (harness, "write_trace",
             self.wrap("harness.write_trace", harness.write_trace, after=self._after_write_trace)),
            (harness, "run_experiment", self.wrap("harness.run_experiment", harness.run_experiment)),
        ]

    def _per_call_us(self, name, seconds):
        return seconds[name] / self.calls[name] * 1e6 if self.calls[name] else 0.0

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""

        def us(name):
            return self._per_call_us(name, self.total)

        def self_us(name):
            return self._per_call_us(name, self.self_time)

        c_calls = self.calls["history.compute_c"]
        c_evals = sum(
            self.nested["history.compute_c", child]
            for child in ("pricing.eval_f_batch", "oracles.eval_f_batch")
        )

        def median_run(method):
            runs = self.run_seconds[method]
            return statistics.median(runs) if runs else 0.0

        return {
            "env.sample.calls": (self.calls["env.sample"], "count"),
            "env.sample.draws": (self.items["env.sample"], "draws"),
            "env.sample.self_us": (self_us("env.sample"), "us"),
            "pricing.sample.calls": (self.calls["pricing.sample"], "count"),
            "pricing.sample.us": (us("pricing.sample"), "us"),
            "pricing.eval_f_batch.calls": (self.calls["pricing.eval_f_batch"], "count"),
            "pricing.eval_f_batch.rows": (self.items["pricing.eval_f_batch"], "rows"),
            "pricing.eval_f_batch.us": (us("pricing.eval_f_batch"), "us"),
            "oracles.sample.us": (us("oracles.sample"), "us"),
            "oracles.eval_f_batch.us": (us("oracles.eval_f_batch"), "us"),
            "estimators.one_point.calls": (self.calls["estimators.one_point"], "count"),
            "estimators.one_point.self_us": (self_us("estimators.one_point"), "us"),
            "estimators.two_point.calls": (self.calls["estimators.two_point"], "count"),
            "estimators.two_point.self_us": (self_us("estimators.two_point"), "us"),
            "history.compute_weights.us": (us("history.compute_weights"), "us"),
            "history.compute_c.calls": (c_calls, "count"),
            "history.compute_c.self_us": (self_us("history.compute_c"), "us"),
            "history.compute_c.evals_per_call": (c_evals / c_calls if c_calls else 0.0, "evals/call"),
            "optimize.iterations": (self.iterations, "count"),
            "optimize.loop.self_s": (self.self_time["optimize.run"], "s"),
            "optimize.run.alg1_s": (median_run("alg1"), "s"),
            "optimize.run.alg2_s": (median_run("alg2"), "s"),
            "optimize.run.czo1_s": (median_run("czo1"), "s"),
            "harness.metric.calls": (self.calls["harness.metric"], "count"),
            "harness.metric.draws": (self.items["harness.metric"], "draws"),
            "harness.metric.s": (self.total["harness.metric"], "s"),
            "harness.write_trace.s": (self.total["harness.write_trace"], "s"),
            "harness.trace_bytes": (self.trace_bytes, "bytes"),
            "harness.self_s": (self.self_time["harness.run_experiment"], "s"),
        }


@contextmanager
def installed(tracer: Tracer):
    """Install the tracer's wrappers for the duration of the block."""
    saved = []
    try:
        for owner, attr, wrapper in tracer.targets():
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
