"""Monte Carlo random-matrix laboratory.

Two matrix models whose empirical spectra converge (as the matrix size
grows) to measures this package computes exactly:

* additive: a Hermitian Gaussian matrix plus an evenly spaced
  deterministic drift; the spectrum approaches the free sum of a
  semicircle of radius ``2 sqrt(t)`` and ``Uniform[-t, t]``.
* multiplicative: ``H = G G*`` for a matrix geometric Brownian motion
  ``G`` on GL(N, C); the spectrum approaches the free log-normal law.
  Each increment is a matrix exponential, taken by a truncated Taylor
  series in Paterson-Stockmeyer form whose degree a rigorous remainder
  bound picks, so sampling needs numpy alone.

Sampling is deterministic given ``(seed, trial)``: per-trial streams are
spawned from a counter-based Philox generator, so results do not depend
on scheduling and trials may run in any order or in parallel.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import IO, Literal

import numpy as np

from ._errors import PositivityError
from .moments import free_lognormal_moment, semicircle_uniform_moment

__all__ = [
    "AdditiveModelConfig",
    "MultiplicativeModelConfig",
    "EmpiricalSpectrum",
    "PositivityError",
    "additive_drift",
    "additive_matrix",
    "sample_additive",
    "sample_multiplicative",
    "empirical_moments",
    "MomentComparison",
    "ConvergenceReport",
    "convergence_report",
]

_MAX_SEED = 2**64 - 1

_UNIT_ROUNDOFF = 2.0**-53
_TAYLOR_DEGREES = (4, 8, 12, 16)
# 1/j! through the last term that the remainder bound of the top degree reads
_INVERSE_FACTORIALS = tuple(
    1.0 / math.factorial(j) for j in range(_TAYLOR_DEGREES[-1] + 5)
)


def _check_seed(seed: int) -> None:
    if not 0 <= seed <= _MAX_SEED:
        raise ValueError("seed must fit in 64 unsigned bits")


@dataclass(frozen=True)
class AdditiveModelConfig:
    """Hermitian Gaussian matrix with drift ``(t/N) diag(1-N, 3-N, ..., N-1)``."""

    size: int
    time: float
    seed: int = 0

    def __post_init__(self) -> None:
        if self.size < 2:
            raise ValueError("size must be at least 2")
        if not self.time > 0:
            raise ValueError("time must be positive")
        _check_seed(self.seed)


@dataclass(frozen=True)
class MultiplicativeModelConfig:
    """Left-increment Euler scheme for geometric Brownian motion on GL(N, C).

    ``steps`` counts increments over the simulated horizon ``time/2``;
    ``steps >= ceil(10 * time)`` is recommended (not enforced) to keep the
    O(delta) discretization bias below typical Monte Carlo noise.
    """

    size: int
    time: float
    steps: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.size < 2:
            raise ValueError("size must be at least 2")
        if not self.time > 0:
            raise ValueError("time must be positive")
        if self.steps < 1:
            raise ValueError("steps must be at least 1")
        _check_seed(self.seed)


@dataclass(frozen=True, eq=False)
class EmpiricalSpectrum:
    """Eigenvalues of one sampled matrix, sorted ascending, plus run metadata."""

    eigenvalues: np.ndarray
    model: str
    size: int
    time: float
    seed: int
    trial: int
    steps: int | None = None

    def __post_init__(self) -> None:
        eigs = np.asarray(self.eigenvalues, dtype=float)
        object.__setattr__(self, "eigenvalues", eigs)
        if eigs.ndim != 1 or eigs.size != self.size:
            raise ValueError("expected one eigenvalue per matrix row")
        if np.any(np.diff(eigs) < 0):
            raise ValueError("eigenvalues must be sorted ascending")
        if self.model not in ("additive", "multiplicative"):
            raise ValueError("model must be 'additive' or 'multiplicative'")

    def to_csv(self, stream: IO[str]) -> None:
        stream.write("index,eigenvalue\n")
        for i, value in enumerate(self.eigenvalues):
            stream.write(f"{i},{float(value)!r}\n")


def _rng(seed: int, trial: int) -> np.random.Generator:
    # Philox is counter-based: the (entropy, spawn_key) pair fixes the
    # stream, so trial k is reproducible without generating trials < k.
    sequence = np.random.SeedSequence(entropy=seed, spawn_key=(trial,))
    return np.random.Generator(np.random.Philox(sequence))


def _taylor_tail(norms: list[float], degree: int) -> float:
    """Bound on ``||sum_{j > degree} Y^j / j!||_F`` from ``norms[r-1] >= ||Y^r||_F``.

    ``norms`` bounds the first four powers.  The Frobenius norm is
    submultiplicative, so ``||Y^(4a+r)|| <= ||Y^4||^a ||Y^r||``; past the
    first block of four terms each block shrinks at least by the factor
    ``||Y^4|| / (degree + 2)^4``.
    """
    ratio = norms[3] / (degree + 2) ** 4
    if ratio >= 1.0:
        return math.inf
    block = norms[3] ** (degree // 4) * sum(
        bound * _INVERSE_FACTORIALS[degree + r] for r, bound in enumerate(norms, 1)
    )
    return block / (1.0 - ratio)


def _expm(x: np.ndarray) -> np.ndarray:
    """``exp(x)`` by a Taylor polynomial evaluated by Paterson-Stockmeyer.

    From the Frobenius norms of ``x, x^2, x^3, x^4`` it takes the smallest
    scaling ``Y = 2^-s x`` and then the smallest degree on
    ``_TAYLOR_DEGREES`` whose remainder bound (``_taylor_tail``) is at most
    unit roundoff relative to ``sqrt(N) e^(-||Y||_F)``, a lower bound of
    ``||e^Y||_F`` (the singular values of ``e^Y`` are at least
    ``1 / ||e^-Y||_2``).  The polynomial is evaluated by Horner's rule in
    ``Y^4``, which costs ``degree/4 - 1`` products after the three that form
    the powers, and squared ``s`` times.  The blocks
    ``c_4k+1 Y + c_4k+2 Y^2 + c_4k+3 Y^3`` (the top one plus
    ``c_degree Y^4``) come from one real product of their coefficients with
    the powers; each ``c_4k I`` goes on the diagonal after the rest of its
    Horner step.  Leaves ``x`` unchanged and returns a new array; returns
    NaNs when a power of ``x`` overflows.
    """
    n = x.shape[0]
    # the powers, then up to four Horner blocks: one allocation a call
    work = np.empty((8, n, n), dtype=complex)
    powers = work[:4]
    powers[0] = x
    np.matmul(powers[0], powers[0], out=powers[1])
    np.matmul(powers[1], powers[0], out=powers[2])
    np.matmul(powers[1], powers[1], out=powers[3])
    norms = [math.sqrt(np.vdot(p, p).real) for p in powers]
    if not math.isfinite(sum(norms)):
        return np.full_like(x, math.nan)
    s, degree = next(
        (s, m)
        for s in itertools.count()
        for m in _TAYLOR_DEGREES
        if _taylor_tail([math.ldexp(b, -r * s) for r, b in enumerate(norms, 1)], m)
        <= _UNIT_ROUNDOFF * math.sqrt(n) * math.exp(-math.ldexp(norms[0], -s))
    )
    # row k holds c_4k+1 .. c_4k+4 scaled as Y .. Y^4; only the top block
    # keeps its Y^4 term, the others take it from the next block up
    c = _INVERSE_FACTORIALS
    coefficients = np.reshape(c[1 : degree + 1], (-1, 4)) * [
        math.ldexp(1.0, -r * s) for r in range(1, 5)
    ]
    coefficients[:-1, 3] = 0.0
    # the float view puts a power's real and imaginary parts in one row
    blocks = work[4 : 4 + len(coefficients)]
    np.matmul(
        coefficients,
        powers.view(float).reshape(4, -1),
        out=blocks.view(float).reshape(len(blocks), -1),
    )
    x4 = powers[3]
    if s:
        x4 *= math.ldexp(1.0, -4 * s)
    # the products write to two buffers in turn, the last to a new array,
    # so the result owns its memory and is no view that keeps `work` alive
    top = len(blocks) - 1
    products = top + s
    out, spare = np.empty_like(x), powers[0]
    if products % 2 == 0:
        out, spare = spare, out
    e = blocks[top]
    # c_4k I holds the largest entries of its step: added before the
    # smaller terms, it would round their low bits away
    e.flat[:: n + 1] += c[4 * top]
    if not products:
        return e.copy()
    for k in range(top - 1, -1, -1):
        e = np.matmul(e, x4, out=out)
        e += blocks[k]
        e.flat[:: n + 1] += c[4 * k]
        out, spare = spare, out
    for _ in range(s):
        e = np.matmul(e, e, out=out)
        out, spare = spare, out
    return e


def additive_drift(size: int, time: float) -> np.ndarray:
    """Drift eigenvalues ``(t/N)(1-N, 3-N, ..., N-1)``: mean 0, max < t."""
    return (time / size) * np.arange(1 - size, size, 2, dtype=float)


def additive_matrix(config: AdditiveModelConfig, *, trial: int = 0) -> np.ndarray:
    """One draw of the drifted Hermitian matrix (before diagonalization).

    Noise entry variance is t/N — diagonal real N(0, t/N), off-diagonal
    complex with total variance t/N — so the noise spectrum alone tends to
    the semicircle of radius ``2 sqrt(t)``.
    """
    n = config.size
    scale = 0.5 * math.sqrt(config.time / n)
    # one draw in the order of two (n, n) draws: real parts, then imaginary
    a, b = _rng(config.seed, trial).standard_normal((2, n, n))
    noise = np.empty((n, n), dtype=complex)
    np.multiply(np.add(a, a.T, out=noise.real), scale, out=noise.real)
    np.multiply(np.subtract(b, b.T, out=noise.imag), scale, out=noise.imag)
    noise.real.flat[:: n + 1] += additive_drift(n, config.time)
    return noise


def sample_additive(
    config: AdditiveModelConfig, *, trial: int = 0
) -> EmpiricalSpectrum:
    """Spectrum of one additive-model draw."""
    eigs = np.linalg.eigvalsh(additive_matrix(config, trial=trial))
    return EmpiricalSpectrum(
        eigenvalues=eigs,
        model="additive",
        size=config.size,
        time=config.time,
        seed=config.seed,
        trial=trial,
    )


def sample_multiplicative(
    config: MultiplicativeModelConfig, *, trial: int = 0
) -> EmpiricalSpectrum:
    """Spectrum of ``H = G G*`` after ``steps`` left increments of ``G``.

    Each step multiplies by ``exp(dC)`` where ``dC`` has i.i.d. centered
    complex Gaussian entries of variance ``delta/N``, ``delta = (t/2)/steps``
    (the E tr H benchmark e^{t/2} fixes the horizon t/2).  No deterministic
    compensator is subtracted: for these increments ``E[dC^2] = 0``
    entrywise, so the Ito correction calibrates to the zero matrix and the
    residual per-step bias on moments is O(delta^2), O(delta * t) in total.
    The exponential is a Taylor polynomial whose truncation error is bounded
    by unit roundoff (see ``_expm``), so samples differ from those of an
    exact exponential only by rounding.  Raises :class:`PositivityError`
    when ``H`` overflows or has a nonpositive eigenvalue.
    """
    n, steps = config.size, config.steps
    rng = _rng(config.seed, trial)
    delta = (config.time / 2.0) / steps
    scale = math.sqrt(delta / (2.0 * n))
    draw = np.empty((2, n, n))
    x = np.empty((n, n), dtype=complex)

    def increment() -> np.ndarray:
        # the real parts of X, then its imaginary parts, from one draw
        rng.standard_normal(out=draw)
        np.multiply(draw[0], scale, out=x.real)
        np.multiply(draw[1], scale, out=x.imag)
        return _expm(x)

    g = increment()
    spare = np.empty_like(g)
    for _ in range(steps - 1):
        g, spare = np.matmul(g, increment(), out=spare), g
    h = g @ g.conj().T
    h = (h + h.conj().T) / 2.0
    if not np.isfinite(h).all():
        raise PositivityError(
            f"G G* overflowed: discretization too coarse "
            f"(steps={steps} for time={config.time})"
        )
    eigs = np.linalg.eigvalsh(h)
    if eigs[0] <= 0:
        raise PositivityError(
            f"nonpositive eigenvalue {eigs[0]!r}: discretization too coarse "
            f"(steps={steps} for time={config.time})"
        )
    return EmpiricalSpectrum(
        eigenvalues=eigs,
        model="multiplicative",
        size=n,
        time=config.time,
        seed=config.seed,
        trial=trial,
        steps=steps,
    )


def empirical_moments(
    spectrum: EmpiricalSpectrum,
    n_max: int,
    transform: Literal["identity", "log"] = "identity",
) -> np.ndarray:
    """Moments ``mean(lambda^n)`` (or ``mean(log(lambda)^n)``) for n = 1..n_max."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    if transform == "identity":
        values = spectrum.eigenvalues
    elif transform == "log":
        if spectrum.eigenvalues[0] <= 0:
            raise ValueError("log transform requires strictly positive eigenvalues")
        values = np.log(spectrum.eigenvalues)
    else:
        raise ValueError("transform must be 'identity' or 'log'")
    powers = values[:, None] ** np.arange(1, n_max + 1)
    return powers.mean(axis=0)


@dataclass(frozen=True)
class MomentComparison:
    """One (matrix size, moment order) row of a convergence report."""

    size: int
    order: int
    empirical: float
    oracle: float
    rel_err: float | None
    std_err: float


@dataclass(frozen=True)
class ConvergenceReport:
    model: str
    time: float
    trials: int
    n_max: int
    seed: int
    steps: int | None
    rows: tuple[MomentComparison, ...]

    def rows_for(self, size: int) -> tuple[MomentComparison, ...]:
        return tuple(row for row in self.rows if row.size == size)

    def to_json(self) -> str:
        sizes = sorted({row.size for row in self.rows})
        results = []
        for size in sizes:
            rows = self.rows_for(size)
            results.append(
                {
                    "N": size,
                    "moments": [row.empirical for row in rows],
                    "oracle": [row.oracle for row in rows],
                    "rel_err": [row.rel_err for row in rows],
                    "std_err": [row.std_err for row in rows],
                }
            )
        payload = {
            "model": self.model,
            "t": self.time,
            "trials": self.trials,
            "n_max": self.n_max,
            "seed": self.seed,
            "steps": self.steps,
            "results": results,
        }
        return json.dumps(payload, indent=2)


def _oracle_moments(model: str, time: float, n_max: int) -> list[float]:
    if model == "additive":
        return [
            float(semicircle_uniform_moment(n, time, -time, time))
            for n in range(1, n_max + 1)
        ]
    return [free_lognormal_moment(n, time) for n in range(1, n_max + 1)]


def convergence_report(
    model: Literal["additive", "multiplicative"],
    time: float,
    sizes: list[int],
    trials: int,
    n_max: int,
    *,
    seed: int = 0,
    steps: int | None = None,
) -> ConvergenceReport:
    """Average empirical moments over trials and compare against exact values.

    ``rel_err`` is ``|mean - oracle| / |oracle|``, or None when the oracle
    moment is exactly zero (odd moments of the symmetric additive limit);
    ``std_err`` is the across-trial standard error of the mean.
    """
    if model not in ("additive", "multiplicative"):
        raise ValueError("model must be 'additive' or 'multiplicative'")
    if trials < 2:
        raise ValueError("need at least 2 trials for a standard error")
    if not sizes:
        raise ValueError("need at least one matrix size")
    if model == "multiplicative" and steps is None:
        steps = max(1, math.ceil(10 * time))
    if model == "additive":
        steps = None

    oracle = _oracle_moments(model, time, n_max)
    rows: list[MomentComparison] = []
    for size in sizes:
        samples = np.empty((trials, n_max))
        for trial in range(trials):
            if model == "additive":
                spectrum = sample_additive(
                    AdditiveModelConfig(size=size, time=time, seed=seed),
                    trial=trial,
                )
            else:
                assert steps is not None
                spectrum = sample_multiplicative(
                    MultiplicativeModelConfig(
                        size=size, time=time, steps=steps, seed=seed
                    ),
                    trial=trial,
                )
            samples[trial] = empirical_moments(spectrum, n_max)
        means = samples.mean(axis=0)
        errs = samples.std(axis=0, ddof=1) / math.sqrt(trials)
        for order in range(1, n_max + 1):
            target = oracle[order - 1]
            rel = abs(means[order - 1] - target) / abs(target) if target else None
            rows.append(
                MomentComparison(
                    size=size,
                    order=order,
                    empirical=float(means[order - 1]),
                    oracle=target,
                    rel_err=rel,
                    std_err=float(errs[order - 1]),
                )
            )
    return ConvergenceReport(
        model=model,
        time=time,
        trials=trials,
        n_max=n_max,
        seed=seed,
        steps=steps,
        rows=tuple(rows),
    )
