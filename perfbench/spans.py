"""Layer tracing from outside the program.

``Tracer.install`` replaces each traced public name of ``lqdisc`` with a
timing wrapper at every module that binds it (the package imports with
``from .x import y``, so one function has several bindings).  Each call
records a span ``(id, name, start, end, parent, request, thread)`` in memory;
``Tracer.write`` stores them when the run ends.  A traced name that the
program no longer has is reported in ``Tracer.absent`` and skipped.

The pure functions at the bottom turn spans into per-layer figures and are
what the benchmark's tests exercise.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


def _arg(name: str):
    """Counter helper: the value of parameter ``name`` of a bound call."""
    return lambda bound, result: bound.arguments[name]


@dataclass(frozen=True)
class Target:
    """One traced name: ``layer`` is the span name; ``counts`` pairs a
    counter name with a function of (bound arguments, result)."""

    layer: str
    module: str
    attr: str
    calls: bool = True
    span: bool = True
    counts: tuple = ()


TARGETS = (
    Target("linalg.expm", "lqdisc.linalg", "expm"),
    Target("linalg.lu", "lqdisc.linalg", "LuFactorization.__init__"),
    Target("linalg.lu", "lqdisc.linalg", "LuFactorization.solve", calls=False),
    # called once or twice per fixed step: counted, not timed, so that its
    # time stays in the caller's self time and the span list stays small
    Target("linalg.symmetrize", "lqdisc.linalg", "symmetrize", span=False),
    Target("butcher.precompute", "lqdisc.butcher", "precompute"),
    Target("ode_method.discretize_ode", "lqdisc.ode_method", "discretize_ode",
           counts=(("ode_method.steps", _arg("n_steps")),)),
    Target("doubling.discretize_step_doubling", "lqdisc.doubling",
           "discretize_step_doubling", counts=(("doubling.doublings", _arg("doublings")),)),
    Target("expm_method.discretize_expm", "lqdisc.expm_method", "discretize_expm"),
    Target("expm_method.build_expm_blocks", "lqdisc.expm_method", "build_expm_blocks"),
    Target("lqsolve.solve_finite_horizon", "lqdisc.lqsolve", "solve_finite_horizon",
           counts=(("lqsolve.stages", lambda bound, result: bound.arguments["disc"].horizon),)),
    Target("model.continuous_model_from_dict", "lqdisc.model",
           "continuous_model_from_dict"),
    Target("model.require_valid", "lqdisc.model", "require_valid"),
    Target("model.discrete_model_to_dict", "lqdisc.model", "discrete_model_to_dict"),
    Target("cli.main", "lqdisc.cli", "main"),
    Target("stochastic.em_interval_ops", "lqdisc.stochastic", "em_interval_ops",
           counts=(("stochastic.em_interval_ops.nsub_sq", lambda bound, result: bound.arguments["n_sub"] ** 2),)),
    Target("stochastic.cost_moments_streaming", "lqdisc.stochastic",
           "cost_moments_streaming",
           counts=(("stochastic.cost_moments_streaming.steps",
                   lambda bound, result: bound.arguments["model"].horizon),)),
    Target("stochastic.expected_cost", "lqdisc.stochastic", "expected_cost"),
    Target("stochastic.noise_rate_integral_ode", "lqdisc.stochastic",
           "noise_rate_integral_ode"),
    Target("stochastic.propagate_covariance", "lqdisc.stochastic",
           "propagate_covariance"),
    Target("stochastic.em_reformulate", "lqdisc.stochastic", "em_reformulate",
           counts=(("stochastic.em_reformulate.q_big_mb", lambda bound, result: result.dim ** 2 * 8 / 1e6),)),
    Target("stochastic.cost_moments", "lqdisc.stochastic", "cost_moments"),
    Target("stochastic.monte_carlo", "lqdisc.stochastic", "monte_carlo"),
    Target("sampling.normal_block", "lqdisc.sampling", "normal_block",
           counts=(("sampling.normal_block.normals", lambda bound, result: result.size),)),
)


class Tracer:
    """Spans and counters of one traced phase."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self.request: int | None = None
        self.absent: list[str] = []
        self.main_thread = threading.get_ident()
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _count(self, key: str, value: float, keep_max: bool = False) -> None:
        with self._lock:
            self.counters[key] += value
            if keep_max:
                self.maxima[key] = max(self.maxima[key], value)

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        signature = inspect.signature(fn) if target.counts else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if target.calls:
                tracer._count(f"{target.layer}.calls", 1)
            if not target.span:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, target.layer, start, end, parent,
                                     tracer.request, threading.get_ident()))
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, measure in target.counts:
                    tracer._count(key, float(measure(bound, result)),
                                  keep_max=key.endswith("_mb"))
            return result

        return wrapper

    def install(self, targets=TARGETS) -> None:
        """Wrap every target at each ``lqdisc`` module that binds it."""
        for target in targets:
            try:
                module = importlib.import_module(target.module)
            except ImportError:
                self.absent.append(f"{target.module}.{target.attr}")
                continue
            owner_name, _, attr = target.attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(f"{target.module}.{target.attr}")
                continue
            wrapper = self._wrap(target, original)
            if owner_name:                    # a method: one class object
                self._restore.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod in list(sys.modules.values()):
                name = getattr(mod, "__name__", "")
                if name != "lqdisc" and not name.startswith("lqdisc."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write(self, path: str, labels: list) -> None:
        """Store spans, counters and each request id's label as JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"absent": self.absent, "counters": dict(self.counters),
                       "requests": labels, "spans": self.spans}, fh)


# -- analysis (pure functions on span tuples) ----------------------------------

def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def attribute_orphans(spans, main_thread) -> list:
    """Give each parentless span of a worker thread its parent by time window.

    A worker thread's first span has no parent on its own stack; its parent
    is the innermost main-thread span of the same request whose interval
    contains it (for Monte Carlo blocks, the enclosing ``monte_carlo``).
    """
    main = [s for s in spans if s[6] == main_thread]
    out = []
    for span in spans:
        sid, name, start, end, parent, request, thread = span
        if parent is None and thread != main_thread:
            holders = [m for m in main
                       if m[5] == request and m[2] <= start and end <= m[3]]
            if holders:
                parent = max(holders, key=lambda m: m[2])[0]
        out.append((sid, name, start, end, parent, request, thread))
    return out


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for sid, name, start, end, parent, request, thread in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, name, start, end, parent, request, thread in spans:
        inside = [(max(s, start), min(e, end)) for s, e in children.get(sid, ())
                  if min(e, end) > max(s, start)]
        out[sid] = (end - start) - union_length(inside)
    return out


def concurrency(intervals) -> float:
    """Summed interval length over covered length: 1.0 serial, 2.0 two-way."""
    covered = union_length(intervals)
    return sum(e - s for s, e in intervals) / covered if covered > 0 else 0.0


def layer_figures(spans, counters, maxima, main_thread, requests: int) -> dict:
    """Per-layer figures of a traced phase.

    ``<layer>.self_ms`` is the mean self time per call, ``<layer>.calls`` and
    the other counts are per request, ``*_mb`` counts keep their largest
    single value.
    """
    spans = attribute_orphans(spans, main_thread)
    own = self_times(spans)
    self_sum = defaultdict(float)
    for span in spans:
        self_sum[span[1]] += own[span[0]]
    out = {}
    for target in TARGETS:
        calls = counters.get(f"{target.layer}.calls", 0.0)
        out[f"{target.layer}.calls"] = calls / requests
        if target.span:
            out[f"{target.layer}.self_ms"] = (
                1e3 * self_sum[target.layer] / calls if calls else 0.0)
        for key, _ in target.counts:
            out[key] = (maxima.get(key, 0.0) if key.endswith("_mb")
                        else counters.get(key, 0.0) / requests)
    blocks = [(s[2], s[3]) for s in spans if s[1] == "sampling.normal_block"]
    busy = sum(e - s for s, e in blocks)
    out["sampling.normal_block.normals_per_s"] = (
        counters.get("sampling.normal_block.normals", 0.0) / busy if busy else 0.0)
    out["sampling.normal_block.concurrency"] = concurrency(blocks)
    steps = counters.get("ode_method.steps", 0.0)
    out["ode_method.us_per_step"] = (
        1e6 * self_sum["ode_method.discretize_ode"] / steps if steps else 0.0)
    return out
