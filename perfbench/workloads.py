"""The four workloads: query rounds drawn from the seed, and their checks.

A round is a fixed list of query kinds whose inputs are drawn fresh from
``Random(f"{workload}/{seed}/{round}")``.  Orders, times, sizes and
fractional exponents are stratified inside a round, so every round has the
same mix of cheap and expensive queries whatever the seed; integer orders,
whose cost moves in steps, and matrix sizes cycle through their stratum with
the round index, so that runs of the same length see the same orders and
sizes.  Program calls go through module attributes at call time, so the
tracer's wrappers see them.

Each workload names its control task (``controls``) and the control's
median time on the reference machine, ``CONTROL_NOMINAL_S``.

Each query carries its own check against an oracle from ``oracles`` or a
property the method must have.  ``kept_fault`` marks the fixed-input queries
that fail on a fault of the program; they count as failed, not as incorrect.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Optional

import numpy as np

from freemoments import exactcomb, freeconv, moments, rmtlab

import controls
import oracles


@dataclass
class Query:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]
    kept_fault: bool = False
    # draws the same sample again, for the determinism check
    resample: Optional[Callable[[], Any]] = None


@dataclass
class Round:
    queries: list[Query]
    # round-level check over the results (None where a query raised);
    # returns the indices of the queries it finds wrong
    check: Optional[Callable[[list[Any]], set[int]]] = None


def _rational(rng: random.Random, lo: float, hi: float, den: int = 1024) -> Fraction:
    """A rational in ``[lo, hi]`` whose float is exact."""
    return Fraction(rng.randint(math.ceil(lo * den), math.floor(hi * den)), den)


GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _spread(rng: random.Random, index: int, slot: int, slots: int, lo: float, hi: float) -> Fraction:
    """A rational in ``[lo, hi]`` whose float is exact, for a time whose cost
    grows steeply: a golden-ratio sequence in the round index, shifted by
    ``slot / slots``, plus a seed-drawn jitter of a tenth of that shift.  A
    run of any length covers the interval evenly, so a run's slowest queries
    do not depend on the luck of its draws."""
    u = (index * GOLDEN + (slot + rng.random() / 10) / slots) % 1.0
    first, last = math.ceil(lo * 1024), math.floor(hi * 1024)
    return Fraction(first + round(u * (last - first)), 1024)


def _close(value: float, ref, rel: float) -> bool:
    return math.isfinite(value) and abs(value - float(ref)) <= rel * abs(float(ref))


class Exact:
    """Exact rational moments, closed-form and recursive moment polynomials,
    and blocks of the Stirling identity check."""

    name = "exact"
    control = staticmethod(controls.fraction_sums)
    CONTROL_NOMINAL_S = 6.745e-3

    def __init__(self) -> None:
        self.oracle = oracles.FreeCumulantOracle()
        self.stirling = oracles.StirlingOracle()

    def warm(self) -> None:
        self.oracle.moment(60, Fraction(1), Fraction(0), Fraction(1))
        self.stirling(42, 0)

    def _moment(self, n: int, a: Fraction, b: Fraction, c: Fraction) -> Query:
        return Query(
            "semicircle_uniform_moment",
            lambda: moments.semicircle_uniform_moment(n, a, b, c),
            lambda r: r == self.oracle.moment(n, a, b, c),
        )

    def _polynomial(self, n: int, t: Fraction) -> Query:
        return Query(
            "moment_polynomial",
            lambda: moments.moment_polynomial(n)(t),
            lambda r: r == self.oracle.moment(n, t, -t, Fraction(0)),
        )

    def _recursion(self, n_max: int, t: Fraction) -> Query:
        return Query(
            "moment_polynomials_from_recursion",
            lambda: [p(t) for p in moments.moment_polynomials_from_recursion(n_max)],
            lambda r: r == self.oracle.moments(n_max, t, -t, Fraction(0)),
        )

    def _stirling_block(self, pairs: list[tuple[int, int]]) -> Query:
        def check(results) -> bool:
            return all(
                r.equal and r.rhs == r.lhs and r.lhs == 2 * l * self.stirling(1 + m, 1 + l)
                for (l, m), r in zip(pairs, results)
            )

        return Query(
            "verify_stirling_identity",
            lambda: [exactcomb.verify_stirling_identity(l, m) for l, m in pairs],
            check,
        )

    def round(self, rng: random.Random, index: int) -> Round:
        queries = []
        for k in range(6):  # orders 11..40 in strata of five
            b = _rational(rng, -3, 1, 16)
            queries.append(
                self._moment(
                    11 + 5 * k + (index + k) % 5,
                    _rational(rng, 1 / 16, 4, 16),
                    b,
                    b + _rational(rng, 1 / 16, 4, 16),
                )
            )
        for k in range(4):  # orders 20..59 in strata of ten
            queries.append(self._polynomial(20 + 10 * k + (index + 3 * k) % 10, _rational(rng, 1 / 32, 4, 32)))
        # recursion depth 16..20, O(n^4) in Fraction: a fifth of the passed
        # queries, so the 90th percentile sits at their median
        for k in range(3):
            queries.append(self._recursion(16 + (3 * index + k) % 5, _rational(rng, 1 / 32, 4, 32)))
        for _ in range(2):
            queries.append(self._stirling_block([(rng.randint(1, 40), rng.randint(1, 40)) for _ in range(8)]))
        return Round(queries)


class Series:
    """Float series: integer moments of the free log-normal law (Laguerre),
    the additive mgf at integer order (1F1) and fractional moments."""

    name = "series"
    control = staticmethod(controls.complex_series)
    CONTROL_NOMINAL_S = 7.044e-3
    # laguerre overflows: (150, 2) raises OverflowError, (100, 8) returns inf
    # where the true moments are 3.477e194 and 9.3846e307
    FAULTS = ((150, 2.0), (100, 8.0))
    # stratified passes per round: longer stretches of program calls between
    # the rounds' mpmath checks
    PASSES = 4

    def __init__(self) -> None:
        self.fault_refs = {key: oracles.lognormal_moment(*key) for key in self.FAULTS}

    def warm(self) -> None:
        pass

    @staticmethod
    def _integer_moment(n: int, t: float, ref=None, kept_fault: bool = False) -> Query:
        return Query(
            "free_lognormal_moment",
            lambda: moments.free_lognormal_moment(n, t),
            lambda r: _close(r, oracles.lognormal_moment(n, t) if ref is None else ref, 1e-12),
            kept_fault,
        )

    @staticmethod
    def _mgf(n: int, t: float) -> Query:
        return Query(
            "additive_mgf",
            lambda: moments.additive_mgf(n, t),
            lambda r: r.imag == 0 and _close(r.real, oracles.additive_mgf(n, t), 1e-12),
        )

    @staticmethod
    def _alpha(alpha: complex, t: float) -> Query:
        def check(r) -> bool:
            ref = complex(oracles.lognormal_moment_alpha(alpha, t))
            return abs(r - ref) <= 1e-9 * (1.0 + abs(ref))

        return Query("free_lognormal_moment_alpha", lambda: moments.free_lognormal_moment_alpha(alpha, t), check)

    def round(self, rng: random.Random, index: int) -> Round:
        queries = []
        for cycle in range(self.PASSES * index, self.PASSES * (index + 1)):
            for k in range(12):  # orders 1..99 in twelve strata
                queries.append(self._integer_moment(1 + (100 * k) // 12 + (cycle + k) % 8, rng.uniform(0.1, 4.0)))
            for k in range(6):
                queries.append(self._mgf(1 + (100 * k) // 6 + (cycle + k) % 16, rng.uniform(0.1, 4.0)))
            for k in range(8):  # |alpha| <= 5, one draw per octant of the disk
                radius = 5.0 * math.sqrt(rng.uniform(0.0025, 1.0))
                angle = 2.0 * math.pi * (k + rng.random()) / 8
                alpha = complex(radius * math.cos(angle), radius * math.sin(angle))
                queries.append(self._alpha(alpha, rng.uniform(0.1, 2.0)))
        for n, t in self.FAULTS:
            queries.append(self._integer_moment(n, t, self.fault_refs[(n, t)], kept_fault=True))
        return Round(queries)


class Density:
    """Subordination densities: density grid, exp pushforward and support
    detection as one query, contour moments as another."""

    name = "density"
    control = staticmethod(controls.grid_sweeps)
    CONTROL_NOMINAL_S = 9.242e-3
    STRATA = 5  # t in [0.25 * 2^k, 0.25 * 2^(k+1)]
    # eta = 1e-5 stops at t = 4: above t ~ 6.2 a grid point next to a support
    # edge needs more than the solver's 10_000 sweeps
    ETA_STRATA = {1e-3: 5, 1e-5: 4}
    MARGIN = 0.5
    POINTS = 2000
    CONTOUR_POINTS = 4000
    ORDERS = 6

    def __init__(self) -> None:
        self.oracle = oracles.FreeCumulantOracle()

    def warm(self) -> None:
        self.oracle.moment(self.ORDERS, Fraction(1), Fraction(0), Fraction(1))

    def _window(self, t: float) -> tuple[float, float, float]:
        s = oracles.log_edge(t)
        return s, -s - self.MARGIN, s + self.MARGIN

    def _chain(self, t: float, eta: float) -> Query:
        s, x_lo, x_hi = self._window(t)
        spacing = (x_hi - x_lo) / (self.POINTS - 1)

        def call():
            grid = freeconv.density_grid(2.0 * math.sqrt(t), -t / 2, t / 2, x_lo, x_hi, self.POINTS, eta)
            nu = freeconv.exp_pushforward_density(grid)
            return grid.mass_estimate, nu.mass_estimate, freeconv.detect_support(nu, multiplicative=True)

        def check(r) -> bool:
            mass, nu_mass, support = r
            # the Cauchy tails beyond the window hold about 2 eta / (pi margin)
            lost = 4.0 * eta / self.MARGIN + 1e-4
            edge_tol = 2.0 * spacing + 2e-3
            return (
                abs(mass - 1.0) <= lost
                and abs(nu_mass - 1.0) <= lost
                and abs(math.log(support.lower) + s) <= edge_tol
                and abs(math.log(support.upper) - s) <= edge_tol
            )

        return Query("density_chain", call, check)

    def _contour(self, t: Fraction, eta: float) -> Query:
        tf = float(t)
        s, x_lo, x_hi = self._window(tf)

        def check(r) -> bool:
            exact = self.oracle.moments(self.ORDERS, t, -t / 2, t / 2)
            scale = max(1.0, s)
            return len(r) == self.ORDERS + 1 and all(
                abs(value - float(m)) <= 1e-4 * scale**n for n, (value, m) in enumerate(zip(r, exact))
            )

        return Query(
            "grid_moments",
            lambda: freeconv.grid_moments(
                2.0 * math.sqrt(tf), -tf / 2, tf / 2, x_lo, x_hi, self.CONTOUR_POINTS, eta, self.ORDERS
            ),
            check,
        )

    @staticmethod
    def _support(t: float) -> Query:
        def check(r) -> bool:
            lower, upper = oracles.biane_edges(t)
            return _close(r.lower, lower, 1e-9) and _close(r.upper, upper, 1e-9)

        return Query("free_lognormal_support", lambda: freeconv.free_lognormal_support(t), check, kept_fault=True)

    def round(self, rng: random.Random, index: int) -> Round:
        queries = []
        for k in range(self.STRATA):
            for eta, strata in self.ETA_STRATA.items():
                if k < strata:
                    # two contour queries per density chain, so the median
                    # falls inside the contour queries' spread, not in the
                    # gap between the two kinds
                    lo, hi = 0.25 * 2**k, 0.25 * 2 ** (k + 1)
                    queries.append(self._chain(float(_spread(rng, index, 0, 3, lo, hi)), eta))
                    for slot in (1, 2):
                        queries.append(self._contour(_spread(rng, index, slot, 3, lo, hi), eta))
            # the closed form is wrong at every t; a fixed t per stratum keeps
            # the failed share independent of the seed
            queries.append(self._support(0.25 * 2**k * math.sqrt(2.0)))
        return Round(queries)


class MonteCarlo:
    """Single random-matrix trials of both models with their empirical moments."""

    name = "montecarlo"
    control = staticmethod(controls.dense_algebra)
    CONTROL_NOMINAL_S = 8.125e-3
    ORDERS = 4
    GRID = 3  # strata per axis: sizes x times

    def __init__(self) -> None:
        self.oracle = oracles.FreeCumulantOracle()

    def warm(self) -> None:
        self.oracle.moment(self.ORDERS, Fraction(1), Fraction(-1), Fraction(1))

    @staticmethod
    def _trial(model: str, size: int, t: float, seed: int, trial: int) -> Query:
        if model == "multiplicative":
            config = rmtlab.MultiplicativeModelConfig(size=size, time=t, steps=math.ceil(10 * t), seed=seed)
            sample = lambda: rmtlab.sample_multiplicative(config, trial=trial)  # noqa: E731
        else:
            config = rmtlab.AdditiveModelConfig(size=size, time=t, seed=seed)
            sample = lambda: rmtlab.sample_additive(config, trial=trial)  # noqa: E731

        def call():
            spectrum = sample()
            return spectrum, rmtlab.empirical_moments(spectrum, MonteCarlo.ORDERS)

        def check(r) -> bool:
            spectrum, m = r
            eigs = spectrum.eigenvalues
            direct = [float(np.mean(eigs**n)) for n in range(1, MonteCarlo.ORDERS + 1)]
            return (
                eigs.shape == (size,)
                and bool(np.isfinite(eigs).all())
                and bool((np.diff(eigs) >= 0).all())
                and (model == "additive" or eigs[0] > 0)
                and np.allclose(m, direct, rtol=1e-12, atol=1e-12)
            )

        return Query(model, call, check, resample=sample)

    def _oracle(self, model: str, t: Fraction) -> np.ndarray:
        if model == "multiplicative":
            return np.array([float(oracles.lognormal_moment(n, float(t))) for n in range(1, self.ORDERS + 1)])
        return np.array([float(m) for m in self.oracle.moments(self.ORDERS, t, -t, t)[1:]])

    def round(self, rng: random.Random, index: int) -> Round:
        seed = rng.getrandbits(63)
        queries, times = [], []
        for i in range(self.GRID):
            for j in range(self.GRID):
                trial = self.GRID * i + j
                lo, hi = 0.25 + 1.75 * j / self.GRID, 0.25 + 1.75 * (j + 1) / self.GRID
                t = _spread(rng, index, 2 * i, 2 * self.GRID, lo, hi)
                # sizes, whose cube sets the cost, cycle through their stratum
                # with the round index, so every run has the same tail
                size = 64 + 64 * i // self.GRID + (8 * index + 7 * j) % 21
                queries.append(self._trial("multiplicative", size, float(t), seed, trial))
                times.append(t)
                t = _spread(rng, index, 2 * i + 1, 2 * self.GRID, lo, hi)
                size = 200 + 200 * i // self.GRID + (29 * index + 23 * j) % 66
                queries.append(self._trial("additive", size, float(t), seed, trial))
                times.append(t)

        def check(results: list[Any]) -> set[int]:
            wrong: set[int] = set()
            for model, offset in (("multiplicative", 0), ("additive", 1)):
                idx = list(range(offset, len(queries), 2))
                if any(results[i] is None for i in idx):
                    continue  # the raising query is already counted
                deviations = []
                for i in idx:
                    exact = self._oracle(model, times[i])
                    if model == "multiplicative":
                        deviations.append(results[i][1] / exact - 1.0)
                    else:  # odd moments vanish: scale by the spread instead
                        deviations.append((results[i][1] - exact) / exact[1] ** (np.arange(1, self.ORDERS + 1) / 2))
                deviations = np.array(deviations)
                mean = deviations.mean(axis=0)
                std_err = deviations.std(axis=0, ddof=1) / math.sqrt(len(idx))
                # six standard errors plus the time-step bias of the Euler
                # scheme (about 1% per order at steps = ceil(10 t)) and the
                # O(1/N^2) finite-size bias
                bias = 0.03 * np.arange(1, self.ORDERS + 1) if model == "multiplicative" else 0.02
                if (np.abs(mean) > 6.0 * std_err + bias).any():
                    wrong.update(idx)
                # the same (seed, trial) must give the same spectrum
                again = queries[idx[0]].resample()
                if not np.array_equal(again.eigenvalues, results[idx[0]][0].eigenvalues):
                    wrong.add(idx[0])
            return wrong

        return Round(queries, check)


WORKLOADS = {w.name: w for w in (Exact, Series, Density, MonteCarlo)}
