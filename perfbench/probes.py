"""Span tracing of mmwcov from outside the package.

Every traced public function is replaced at each mmwcov module that binds
it (``from .x import f`` copies the name, so patching only the defining
module would miss those callers).  The binding module is the *site*: a span
is keyed ``<layer>.<function>@<site>``, so a call to ``radio.gain_3gpp``
made from ``analytic`` is told apart from one made from ``montecarlo``.

Integrands handed to ``numerics.integrate_1d`` are wrapped too, as
``<site>.integrand@numerics`` spans of the calling layer, so that numerics
self time is the adaptive bookkeeping only.

Spans are aggregated as they close (a traced workload makes about a million
of them): each key accumulates ``calls``, inclusive ``incl`` seconds,
``self`` seconds and named counts.  A span's self time is its duration
minus the part of it covered by child spans.  Children run either on the
same thread (sequential, their durations add up) or on a worker thread of
``montecarlo._map_chunks`` (they may overlap, so their intervals are
merged).  A span opened on a worker thread with an empty stack is taken to
be a child of the innermost open span of the main thread, the only thread
that fans work out.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
import types
from collections import defaultdict

# The cli only parses arguments and calls experiments, so they are one layer.
_LAYER_OF_MODULE = {"mmwcov": "package", "mmwcov.cli": "experiments"}

# Public functions the workloads reach, by defining module.
TRACED = {
    "montecarlo": ("run_coverage", "run_power_ccdf", "sample_statistic"),
    "radio": ("sample_fading", "gain_3gpp", "gain_approx"),
    "geometry": ("angular_offset",),
    "numerics": ("integrate_1d",),
    "analytic": ("coverage_p1", "coverage_p2", "coverage_p3"),
    "dominant": ("coverage_dom_p2", "coverage_dom_p3", "gain_ratio_pdf_p2",
                 "gain_ratio_ccdf_p2", "pathloss_fade_ratio_ccdf_p2",
                 "build_discrepancy_report"),
    "experiments": ("validate_config", "run_experiment"),
}

# Modules whose public calls count as engine calls (the end of set-up).
ENGINE_MODULES = ("montecarlo", "analytic", "dominant")


def layer_of(module_name: str) -> str:
    return _LAYER_OF_MODULE.get(module_name, module_name.rsplit(".", 1)[-1])


def rebind(fn, make_wrapper) -> None:
    """Replace ``fn`` in every loaded mmwcov module that binds it.

    ``make_wrapper(site)`` builds the replacement for the module whose layer
    is ``site``.
    """
    sites = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "mmwcov" or name.startswith("mmwcov.")):
            continue
        sites += [(module, attr) for attr, value in list(vars(module).items()) if value is fn]
    for module, attr in sites:
        setattr(module, attr, make_wrapper(layer_of(module.__name__)))


def _size(x) -> int:
    return int(getattr(x, "size", 1))


def _union_length(intervals) -> float:
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


class _Frame:
    __slots__ = ("name", "start", "covered", "cross")

    def __init__(self, name: str, start: float):
        self.name = name
        self.start = start
        self.covered = 0.0     # time of same-thread children
        self.cross = []        # (start, end) of children on worker threads


class Tracer:
    """Aggregating span recorder; see the module docstring."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.paused = False
        self.multi_worker_calls = []   # (plan, n_workers, curve, seconds)
        self._local = threading.local()
        self._tables = []
        self._main_stack = None

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], defaultdict(float))
            self._tables.append(state[1])
            if threading.current_thread() is threading.main_thread():
                self._main_stack = state[0]
        return state

    def in_call(self, name: str) -> bool:
        """True when the innermost open span of this thread is ``name``."""
        stack = self._state()[0]
        return bool(stack) and stack[-1].name == name

    def span(self, key: str, fn, args, kwargs, count=None):
        """Call ``fn`` inside a span; ``count(args, kwargs, result)`` returns
        a dict of named counts added to the key."""
        stack, table = self._state()
        if stack:
            parent, cross = stack[-1], False
        else:
            main = self._main_stack
            parent = main[-1] if main and main is not stack else None
            cross = parent is not None
        frame = _Frame(key.split("@", 1)[0], self.clock())
        # An inner span of the same function (an integrand of a nested
        # integral) is already inside the outer one's inclusive time.
        outermost = all(f.name != frame.name for f in stack)
        stack.append(frame)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            table[f"{key}.raised.{type(exc).__name__}"] += 1
            raise
        finally:
            stack.pop()
            end = self.clock()
            duration = end - frame.start
            table[key + ".calls"] += 1
            if outermost:
                table[key + ".incl"] += duration
            table[key + ".self"] += duration - frame.covered - _union_length(frame.cross)
            if parent is not None:
                if cross:
                    parent.cross.append((frame.start, end))
                else:
                    parent.covered += duration
        if count is not None:
            for suffix, value in count(args, kwargs, result).items():
                table[f"{key}.{suffix}"] += value
        return result

    def table(self) -> dict:
        """All threads' accumulators merged into one flat dict."""
        merged = defaultdict(float)
        for table in self._tables:
            for key, value in list(table.items()):
                merged[key] += value
        return dict(merged)


# ---------------------------------------------------------------------------
# Counts recorded per traced function
# ---------------------------------------------------------------------------


def _arg(args, kwargs, index, name, default=None):
    return args[index] if len(args) > index else kwargs.get(name, default)


def _trials(args, kwargs, result):
    return {"trials": _arg(args, kwargs, 0, "plan").n_trials}


def _statistic(args, kwargs, result):
    return {"trials": _arg(args, kwargs, 0, "plan").n_trials, "accepted": len(result[0])}


def _result_size(args, kwargs, result):
    return {"n": _size(result)}


def _first_arg_size(args, kwargs, result):
    return {"n": _size(args[0]) if args else 1}


def _rows(args, kwargs, result):
    rows = 0
    for path in result:
        if str(path).endswith(".csv"):
            with open(path, encoding="utf-8") as fh:
                rows += sum(1 for _ in fh) - 1
    return {"rows": rows}


_COUNTS = {
    "montecarlo.run_coverage": _trials,
    "montecarlo.run_power_ccdf": _trials,
    "montecarlo.sample_statistic": _statistic,
    "radio.sample_fading": _result_size,
    "radio.gain_3gpp": _first_arg_size,
    "radio.gain_approx": _first_arg_size,
    "geometry.angular_offset": _result_size,
    "dominant.gain_ratio_pdf_p2": _first_arg_size,
    "dominant.gain_ratio_ccdf_p2": _first_arg_size,
    "dominant.pathloss_fade_ratio_ccdf_p2": _first_arg_size,
    "experiments.run_experiment": _rows,
}


def _traced(tracer: Tracer, name: str, fn, site: str):
    key = f"{name}@{site}"
    count = _COUNTS.get(name)

    if name == "numerics.integrate_1d":
        integrand_key = f"{site}.integrand@numerics"

        def points(args, kwargs, result):
            return {"n": _size(args[0])}

        @functools.wraps(fn)
        def wrapper(f, *args, **kwargs):
            # integrate_1d calls itself for reversed or doubly infinite
            # ranges; the outer span already covers those calls.
            if tracer.paused or tracer.in_call(name):
                return fn(f, *args, **kwargs)

            def integrand(x):
                return tracer.span(integrand_key, f, (x,), {}, points)

            return tracer.span(key, fn, (integrand, *args), kwargs)
        return wrapper

    if name == "montecarlo.run_coverage":
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            start = tracer.clock()
            curve = tracer.span(key, fn, args, kwargs, count)
            workers = _arg(args, kwargs, 1, "n_workers", 1)
            if workers > 1:
                tracer.multi_worker_calls.append(
                    (_arg(args, kwargs, 0, "plan"), workers, curve, tracer.clock() - start))
            return curve
        return wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.paused:
            return fn(*args, **kwargs)
        return tracer.span(key, fn, args, kwargs, count)
    return wrapper


def install_tracing(tracer: Tracer) -> None:
    """Wrap every TRACED function at every mmwcov module that binds it."""
    for layer, names in TRACED.items():
        module = importlib.import_module(f"mmwcov.{layer}")
        for fname in names:
            fn = getattr(module, fname)
            rebind(fn, lambda site, fn=fn, name=f"{layer}.{fname}": _traced(tracer, name, fn, site))


def install_first_call_hook(on_first_call) -> None:
    """Call ``on_first_call()`` once, before the first engine call runs.

    Wraps the public functions of the engine modules; after the first call
    each wrapper costs one attribute test.
    """
    fired = []

    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not fired:
                fired.append(True)
                on_first_call()
            return fn(*args, **kwargs)
        return wrapper

    for layer in ENGINE_MODULES:
        module = importlib.import_module(f"mmwcov.{layer}")
        for fname in module.__all__:
            fn = getattr(module, fname)
            if isinstance(fn, types.FunctionType):
                # One wrapper for all sites, so install_tracing still finds
                # every binding of it by identity.
                wrapper = make(fn)
                rebind(fn, lambda site, wrapper=wrapper: wrapper)


# ---------------------------------------------------------------------------
# Per-layer metrics from an aggregated table
# ---------------------------------------------------------------------------


def _sum(table: dict, name: str, field: str, sites=None) -> float:
    """Sum ``field`` over keys ``name@site`` (every site when ``sites`` is None)."""
    total = 0.0
    for key, value in table.items():
        span, _, rest = key.partition("@")
        site, _, suffix = rest.partition(".")
        if span == name and suffix == field and (sites is None or site in sites):
            total += value
    return total


def _layer_self(table: dict, layer: str) -> float:
    return sum((v for k, v in table.items()
                if k.endswith(".self") and k.split(".", 1)[0] == layer), 0.0)


def layer_metrics(table: dict) -> dict:
    """The per-layer metrics that come straight from the span table."""
    gains = ("radio.gain_3gpp", "radio.gain_approx")
    m = {
        "montecarlo.run_coverage_s": _sum(table, "montecarlo.run_coverage", "incl"),
        "montecarlo.self_s": _layer_self(table, "montecarlo"),
        "montecarlo.trials": sum(_sum(table, f"montecarlo.{f}", "trials")
                                 for f in TRACED["montecarlo"]),
        "montecarlo.sample_statistic_s": _sum(table, "montecarlo.sample_statistic", "incl"),
        "radio.sample_fading_s": _sum(table, "radio.sample_fading", "incl"),
        "radio.sample_fading_draws": _sum(table, "radio.sample_fading", "n"),
        "radio.gain_s.montecarlo": sum(_sum(table, g, "incl", ("montecarlo",)) for g in gains),
        "geometry.angular_offset_s": _sum(table, "geometry.angular_offset", "incl"),
        "geometry.angular_offset_evals": _sum(table, "geometry.angular_offset", "n"),
        "analytic.coverage_p1_s": _sum(table, "analytic.coverage_p1", "incl"),
        "analytic.coverage_p2_s": _sum(table, "analytic.coverage_p2", "incl"),
        "analytic.coverage_p3_s": _sum(table, "analytic.coverage_p3", "incl"),
        "analytic.integrand_s": _sum(table, "analytic.integrand", "incl"),
        "analytic.self_s": _layer_self(table, "analytic"),
        "analytic.gain_panels": sum(_sum(table, g, "calls", ("analytic",)) for g in gains),
        "analytic.gain_evals": sum(_sum(table, g, "n", ("analytic",)) for g in gains),
        "numerics.quadrature_errors": _sum(table, "numerics.integrate_1d", "raised.QuadratureError"),
    }
    for caller in ("analytic", "dominant"):
        m[f"numerics.integrate_calls.{caller}"] = _sum(
            table, "numerics.integrate_1d", "calls", (caller,))
        m[f"numerics.integrand_points.{caller}"] = _sum(table, f"{caller}.integrand", "n")
        m[f"numerics.self_s.{caller}"] = _sum(table, "numerics.integrate_1d", "self", (caller,))
    trials = _sum(table, "montecarlo.sample_statistic", "trials")
    accepted = _sum(table, "montecarlo.sample_statistic", "accepted")
    m["montecarlo.acceptance"] = accepted / trials if trials else 0.0
    for fname in ("coverage_dom_p2", "coverage_dom_p3", "build_discrepancy_report"):
        m[f"dominant.{fname}_s"] = _sum(table, f"dominant.{fname}", "incl")
    for fname in ("gain_ratio_pdf_p2", "gain_ratio_ccdf_p2", "pathloss_fade_ratio_ccdf_p2"):
        m[f"dominant.{fname}_s"] = _sum(table, f"dominant.{fname}", "incl")
        m[f"dominant.{fname}_points"] = _sum(table, f"dominant.{fname}", "n")
    m["dominant.self_s"] = _layer_self(table, "dominant")
    m["experiments.validate_config_s"] = _sum(table, "experiments.validate_config", "incl")
    m["experiments.self_s"] = _sum(table, "experiments.run_experiment", "self")
    m["experiments.rows_written"] = _sum(table, "experiments.run_experiment", "rows")
    return m
