"""Outside-in per-layer tracing of hetcache.

The tracer replaces a public hetcache function, in every hetcache module
that holds a reference to it, by a wrapper that records a span: calls,
total time, self time (duration minus the time of child spans) and raised
exceptions.  Work counts that the program does not expose are taken at the
same boundaries: integrand evaluations by wrapping the integrand handed to
``integrate_interval``, CTMC jumps and topology resamples from returned
values, and quadrature failures absorbed by a rate call that still
returned.  Nothing inside the package is edited; the patches are undone on
exit from ``Tracer.installed()``.

Spans are aggregated in memory per function rather than kept one by one:
the kernels are called millions of times per pass.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time

# (module, function, what to record beyond the span).  "calls" records only
# the call count, for functions too hot and too small to time.
TRACED = (
    ("specfun", "kernel_z1", "span"),
    ("specfun", "gauss_2f1", "calls"),
    ("quadrature", "integrate_interval", "evals"),
    ("rates", "interference_coefficients", "span"),
    ("rates", "rate_case1", "absorbed"),
    ("rates", "rate_case2", "absorbed"),
    ("rates", "rate_case3", "absorbed"),
    ("rates", "case_rate_table", "span"),
    ("outage", "sinr_cdf", "span"),
    ("association", "state_matrix", "span"),
    ("association", "active_d2d_density", "span"),
    ("queueing", "network_model", "span"),
    ("queueing", "baseline_model", "span"),
    ("queueing", "queue_metrics", "span"),
    ("queueing", "throughput_gain", "span"),
    ("queueing", "ctmc_simulate", "events"),
    ("montecarlo", "sample_topology", "resamples"),
    ("montecarlo", "run_monte_carlo", "span"),
    ("presets", "run_preset", "span"),
    ("results", "emit_results", "span"),
)

SPAN_STATS = ("calls", "total_s", "self_s", "errors")


class _Stat:
    __slots__ = ("calls", "total_s", "self_s", "errors", "depth")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.errors = 0
        self.depth = 0


class Tracer:
    """Span and counter store for one traced pass."""

    def __init__(self) -> None:
        self.stats: dict[str, _Stat] = {}
        self.counters: dict[str, int] = {
            "quadrature.integrate_interval.evals": 0,
            "queueing.ctmc_simulate.events": 0,
            "montecarlo.resamples": 0,
            "rates.absorbed_errors": 0,
        }
        self._stack: list[list[float]] = []

    def value(self, metric: str) -> float:
        """Value of ``<module>.<function>.<stat>`` or of a named counter."""
        if metric in self.counters:
            return self.counters[metric]
        name, stat = metric.rsplit(".", 1)
        if stat not in SPAN_STATS:
            raise KeyError(f"no span statistic or counter named {metric!r}")
        return getattr(self.stats.get(name) or _Stat(), stat)

    def _span(self, name: str, fn, after=None):
        stat = self.stats.setdefault(name, _Stat())
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0]  # time covered by child spans
            stack.append(frame)
            stat.depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat.errors += 1
                raise
            finally:
                duration = clock() - start
                stack.pop()
                stat.depth -= 1
                stat.calls += 1
                stat.self_s += duration - frame[0]
                if stat.depth == 0:  # a recursive call is already inside the outer span
                    stat.total_s += duration
                if stack:
                    stack[-1][0] += duration
            if after is not None:
                after(result)
            return result

        return wrapper

    def _calls_only(self, name: str, fn):
        stat = self.stats.setdefault(name, _Stat())

        def wrapper(*args, **kwargs):
            stat.calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrapper(self, module: str, func: str, kind: str, fn):
        name = f"{module}.{func}"
        counters = self.counters
        if kind == "calls":
            return self._calls_only(name, fn)
        if kind == "evals":
            key = f"{name}.evals"

            def counting(f, *args, **kwargs):
                def integrand(x):
                    counters[key] += 1
                    return f(x)
                return fn(integrand, *args, **kwargs)

            return self._span(name, counting)
        if kind == "absorbed":
            quad = self.stats.setdefault("quadrature.integrate_interval", _Stat())
            inner = self._span(name, fn)

            def absorbing(*args, **kwargs):
                before = quad.errors
                result = inner(*args, **kwargs)
                counters["rates.absorbed_errors"] += quad.errors - before
                return result

            return absorbing
        if kind == "events":
            def after(trace):
                counters["queueing.ctmc_simulate.events"] += len(trace.times) - 1
            return self._span(name, fn, after)
        if kind == "resamples":
            def after(real):
                if len(real.relays) == 0 or len(real.bs) == 0:
                    counters["montecarlo.resamples"] += 1
            return self._span(name, fn, after)
        return self._span(name, fn)

    @contextlib.contextmanager
    def installed(self):
        """Patch every reference to each traced function held by an imported
        hetcache module."""
        originals = [(module, func, kind,
                      getattr(importlib.import_module(f"hetcache.{module}"), func))
                     for module, func, kind in TRACED]
        modules = [mod for name, mod in list(sys.modules.items())
                   if name == "hetcache" or name.startswith("hetcache.")]
        patches = []
        try:
            for module, func, kind, original in originals:
                wrapper = self._wrapper(module, func, kind, original)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is original:
                            setattr(mod, attr, wrapper)
                            patches.append((mod, attr, original))
            yield self
        finally:
            for mod, attr, original in reversed(patches):
                setattr(mod, attr, original)
