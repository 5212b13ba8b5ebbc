"""Control tasks: fixed work, outside the package, that tracks the host's speed.

The host hands out its cores at a speed that drifts by up to a factor of two
over minutes, far more than a change to the program should be judged by.
Each workload therefore runs a control task between its queries: fixed inputs,
code of the benchmark's own, and the same kind of work as the workload's
queries (``Fraction`` arithmetic, a Python series loop, numpy sweeps over a
complex grid, dense linear algebra).  The program never runs inside a
control, so no change to the program can move it.

A speed scale is the median time of the control runs made near some moment,
divided by the control's nominal time, its median on the reference machine
(2-vCPU Xeon, Python 3.11, one BLAS thread).  Dividing a query time by the
scale at that moment gives the time the query would have taken at the
reference speed.
"""
from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction
from typing import Callable

import numpy as np
from numpy.linalg import eigvalsh
from scipy.linalg import expm


def fraction_sums() -> Fraction:
    """Big-integer ``Fraction`` arithmetic, as in ``exact``."""
    total = Fraction(0)
    for i in range(1, 1200):
        total += Fraction(i * i + 1, i + 7) ** 2
    return total


def complex_series() -> complex:
    """A Python loop of complex powers and divisions, as in ``series``."""
    total, z = 0j, 0.3 + 0.2j
    for j in range(1, 24000):
        total += z ** (j % 40) / (j + 1.5)
    return total


_GRID = np.linspace(-3.0, 3.0, 2000) + 1e-3j


def grid_sweeps() -> np.ndarray:
    """Elementwise complex numpy sweeps over a 2000-point grid, as in ``density``."""
    w = _GRID.copy()
    for _ in range(150):
        w = 0.5 * (w + _GRID / (w + 1.0)) + np.sqrt(w * w - 4.0 + 0j) * 1e-3
    return w


_RNG = np.random.default_rng(1)
_GENERATOR = _RNG.standard_normal((96, 96))
_GENERATOR = (_GENERATOR + _GENERATOR.T) / 20.0
_SYMMETRIC = _RNG.standard_normal((300, 300))
_SYMMETRIC = _SYMMETRIC + _SYMMETRIC.T


def dense_algebra() -> np.ndarray:
    """``expm``, repeated GEMM and one ``eigvalsh``, as in ``montecarlo``."""
    u = expm(1j * _GENERATOR)
    for _ in range(10):
        u = u @ u
    return eigvalsh(_SYMMETRIC)


class ControlRunner:
    """Runs a control task between program calls, whenever the control's
    total time falls below ``share`` of the program's, and records when each
    control run started and how long it took."""

    def __init__(self, task: Callable[[], object], share: float) -> None:
        self.task = task
        self.share = share
        self.program_s = 0.0
        self.at: list[float] = []
        self.took: list[float] = []
        self._total = 0.0

    def after_call(self, seconds: float) -> None:
        self.program_s += seconds
        while self._total < self.share * self.program_s:
            t0 = time.perf_counter()
            self.task()
            took = time.perf_counter() - t0
            self.at.append(t0)
            self.took.append(took)
            self._total += took

    def scales(self, at: list[float], nominal_s: float, nearest: int = 9) -> list[float]:
        """For each instant in ``at``, the median time of the ``nearest``
        control runs started closest to it, over the nominal time: above 1
        on a slower host."""
        scales = []
        for t in at:
            i = bisect.bisect(self.at, t)
            candidates = range(max(0, i - nearest), min(len(self.at), i + nearest))
            closest = sorted(candidates, key=lambda j: abs(self.at[j] - t))[:nearest]
            scales.append(statistics.median(self.took[j] for j in closest) / nominal_s)
        return scales
