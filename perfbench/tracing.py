"""Per-layer tracing done from outside the package.

The tracer replaces public functions of ``freemoments`` modules (and the two
linear-algebra kernels ``rmtlab`` looks up at call time) with timing
wrappers, in every namespace that binds them, and restores the originals on
:meth:`Tracer.disable`.  No file of the package is edited.

Each call is a span.  A span's self time is its duration minus the time of
the traced spans it encloses; a module's self time is the sum over its
functions.  Spans are aggregated as they close, except the outermost span of
each query, which is kept with the query's identifier.
"""
from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.linalg

from freemoments import exactcomb, freeconv, moments, ratpoly, rmtlab, specfun

Work = Optional[Callable[[tuple, dict], float]]


@dataclass
class FunctionStats:
    module: str
    calls: int = 0
    self_s: float = 0.0
    work: float = 0.0
    depth: int = 0
    # durations of calls not nested in a call of the same function
    durations: list[float] = field(default_factory=list)


def quantile(values: list[float], q: float) -> float:
    """Median for ``q = 0.5``, otherwise the nearest-rank quantile; 0 if empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    if q == 0.5:
        return statistics.median(ordered)
    return ordered[max(0, -(-len(ordered) * round(100 * q) // 100) - 1)]


def _points(args: tuple, kwargs: dict) -> float:
    return float(kwargs["points"] if "points" in kwargs else args[5])


def _steps(args: tuple, kwargs: dict) -> float:
    return float(args[0].steps)


# (metric name, module whose self time it counts to, owners that bind it, attribute, work)
_TARGETS = [
    ("exactcomb.stirling_first", "exactcomb", (exactcomb, moments), "stirling_first", None),
    ("exactcomb.verify_stirling_identity", "exactcomb", (exactcomb,), "verify_stirling_identity", None),
    ("ratpoly.evaluate", "ratpoly", (ratpoly.RationalPolynomial,), "__call__", None),
    ("ratpoly.construct", "ratpoly", (ratpoly.RationalPolynomial,), "__init__", None),
    ("moments.semicircle_uniform_moment", "moments", (moments,), "semicircle_uniform_moment", None),
    ("moments.moment_polynomial", "moments", (moments,), "moment_polynomial", None),
    ("moments.moment_polynomials_from_recursion", "moments", (moments,), "moment_polynomials_from_recursion", None),
    ("moments.free_lognormal_moment", "moments", (moments,), "free_lognormal_moment", None),
    ("moments.additive_mgf", "moments", (moments,), "additive_mgf", None),
    ("moments.free_lognormal_moment_alpha", "moments", (moments,), "free_lognormal_moment_alpha", None),
    ("specfun.laguerre", "specfun", (specfun, moments), "laguerre", None),
    ("specfun.kummer_1f1", "specfun", (specfun, moments), "kummer_1f1", None),
    ("freeconv.density_grid", "freeconv", (freeconv,), "density_grid", _points),
    ("freeconv.grid_moments", "freeconv", (freeconv,), "grid_moments", _points),
    ("freeconv.exp_pushforward_density", "freeconv", (freeconv,), "exp_pushforward_density", None),
    ("freeconv.detect_support", "freeconv", (freeconv,), "detect_support", None),
    ("freeconv.free_lognormal_support", "freeconv", (freeconv,), "free_lognormal_support", None),
    ("rmtlab.sample_multiplicative", "rmtlab", (rmtlab,), "sample_multiplicative", _steps),
    ("rmtlab.sample_additive", "rmtlab", (rmtlab,), "sample_additive", None),
    ("rmtlab.empirical_moments", "rmtlab", (rmtlab,), "empirical_moments", None),
    # looked up as scipy.linalg.expm and np.linalg.eigvalsh inside rmtlab
    ("rmtlab.expm", "scipy", (scipy.linalg,), "expm", None),
    ("rmtlab.eigvalsh", "numpy", (np.linalg,), "eigvalsh", None),
]


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, FunctionStats] = {}
        self.query_spans: list[tuple[int, str, float]] = []
        self.query_id = -1
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object, object]] = []
        for name, module, owners, attr, work in _TARGETS:
            original = getattr(owners[0], attr)
            self.stats[name] = FunctionStats(module)
            wrapper = self._wrap(name, original, work)
            for owner in owners:
                self._patches.append((owner, attr, getattr(owner, attr), wrapper))

    def _wrap(self, name: str, fn, work: Work):
        stat = self.stats[name]
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            stat.depth += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                children = stack.pop()
                stat.depth -= 1
                stat.calls += 1
                stat.self_s += duration - children
                if stat.depth == 0:
                    stat.durations.append(duration)
                    if work is not None:
                        stat.work += work(args, kwargs)
                if stack:
                    stack[-1] += duration
                else:
                    self.query_spans.append((self.query_id, name, duration))

        traced.__wrapped__ = fn
        return traced

    def enable(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def disable(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def _quantile_ms(self, name: str, q: float) -> float:
        return 1e3 * quantile(self.stats[name].durations, q)

    def _rate(self, names: tuple[str, ...]) -> float:
        busy = sum(sum(self.stats[n].durations) for n in names)
        work = sum(self.stats[n].work for n in names)
        return work / busy if busy > 0 else 0.0

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics: ``name -> (value, unit)``; 0 for a layer not reached."""
        out: dict[str, tuple[float, str]] = {}
        p50 = [
            "exactcomb.verify_stirling_identity",
            "ratpoly.evaluate",
            "moments.semicircle_uniform_moment",
            "moments.moment_polynomial",
            "moments.moment_polynomials_from_recursion",
            "moments.free_lognormal_moment",
            "moments.additive_mgf",
            "moments.free_lognormal_moment_alpha",
            "specfun.laguerre",
            "specfun.kummer_1f1",
            "freeconv.density_grid",
            "freeconv.grid_moments",
            "freeconv.exp_pushforward_density",
            "freeconv.detect_support",
            "rmtlab.sample_multiplicative",
            "rmtlab.sample_additive",
            "rmtlab.empirical_moments",
        ]
        for name in p50:
            out[f"{name}.p50_ms"] = (self._quantile_ms(name, 0.5), "ms")
        out["freeconv.density_grid.p90_ms"] = (self._quantile_ms("freeconv.density_grid", 0.9), "ms")
        for name in ("exactcomb.stirling_first", "specfun.laguerre", "specfun.kummer_1f1", "rmtlab.expm"):
            out[f"{name}.calls"] = (float(self.stats[name].calls), "count")
        for module in ("exactcomb", "ratpoly", "moments", "specfun", "freeconv", "rmtlab"):
            busy = sum(s.self_s for s in self.stats.values() if s.module == module)
            out[f"{module}.self_s"] = (busy, "s")
        out["rmtlab.expm.self_s"] = (self.stats["rmtlab.expm"].self_s, "s")
        out["rmtlab.eigvalsh.self_s"] = (self.stats["rmtlab.eigvalsh"].self_s, "s")
        out["freeconv.points_per_s"] = (self._rate(("freeconv.density_grid", "freeconv.grid_moments")), "1/s")
        out["rmtlab.steps_per_s"] = (self._rate(("rmtlab.sample_multiplicative",)), "1/s")
        return out
