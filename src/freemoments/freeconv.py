"""Numerical free-convolution analysis.

Cauchy transforms of the semicircle and uniform laws, a Newton subordination
solver for their free additive convolution, Stieltjes inversion
onto density grids, the exponential pushforward, and the closed-form support
of the free log-normal law.

Branch discipline: square roots and logarithms use principal branches, and
every transform value is checked against the Nevanlinna sign ``Im G < 0``
before it is returned; a violation raises instead of silently corrupting the
density.  The uniform law's logarithm is taken in real arithmetic: its real
part from ``log1p`` or ``log`` of a modulus, its imaginary part from
``arctan2``, which gives the principal argument in ``(-pi, pi]``.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import IO

import numpy as np

__all__ = [
    "SubordinationError",
    "BranchError",
    "cauchy_semicircle",
    "cauchy_uniform",
    "free_sum_cauchy",
    "DensityGrid",
    "density_grid",
    "grid_moments",
    "exp_pushforward_density",
    "SupportInterval",
    "free_lognormal_support",
    "detect_support",
]


class SubordinationError(RuntimeError):
    """The Newton subordination solve did not converge within its budget of
    10 000 vectorized steps."""


class BranchError(ArithmeticError):
    """A transform landed on the wrong branch (``Im G >= 0``)."""


def _as_upper(z) -> np.ndarray:
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if not (z.imag > 0).all():
        raise ValueError("argument must lie in the open upper half-plane")
    return z


def _edge_sqrt(z: np.ndarray, radius: float) -> np.ndarray:
    # sqrt(z^2 - R^2) analytic off [-R, R], asymptotic to z: split the branch
    # cut between the two factors so each principal cut stays on the real axis
    return np.sqrt(z - radius) * np.sqrt(z + radius)


def _cauchy_semicircle_raw(z: np.ndarray, radius: float) -> np.ndarray:
    # rationalized form of 2 (z - sqrt(z^2 - R^2)) / R^2: the difference
    # cancels catastrophically for |z| >> R, the sum below never does
    # (both terms have positive imaginary part on the upper half-plane)
    return 2.0 / (z + _edge_sqrt(z, radius))


def _uniform_transform(wlo: np.ndarray, whi: np.ndarray, width: float) -> np.ndarray:
    # G_U(w) = log((w - lo)/(w - hi)) / width from wlo = w - lo, whi = w - hi,
    # the principal log taken in real arithmetic.  With q = width / whi and
    # u = wlo / whi = 1 + q: for |q| < 1/2 the log is log1p(q), whose real
    # part 0.5 log1p(a(2 + a) + b^2) (q = a + ib) keeps every digit when the
    # interval is much narrower than the distance to w; elsewhere it is
    # log|u|, which stays exact next to lo, where 1 + q cancels.  arctan2
    # gives the principal argument on either side.
    if width == 0.0:
        return 1.0 / wlo
    r = 1.0 / whi
    q = width * r
    u = wlo * r
    a, b = q.real, q.imag
    near = a * a + b * b < 0.25
    # both branches run at every point, which is cheaper than masked ufuncs;
    # the branch not taken may meet log(0) or leave log1p's domain
    with np.errstate(divide="ignore", invalid="ignore"):
        modulus = np.where(near, 0.5 * np.log1p(a * (2.0 + a) + b * b), np.log(np.abs(u)))
    phase = np.arctan2(np.where(near, b, u.imag), np.where(near, 1.0 + a, u.real))
    log = np.empty_like(q)
    log.real = modulus
    log.imag = phase
    return log / width


def _check_herglotz(g: np.ndarray, what: str) -> None:
    if not (g.imag < 0).all():
        raise BranchError(f"{what}: Im G must be negative on the upper half-plane")


def cauchy_semicircle(z: complex, radius: float) -> complex:
    """Cauchy transform ``2 (z - sqrt(z^2 - R^2)) / R^2`` of the semicircle law.

    Branch chosen so that ``G(z) ~ 1/z`` at infinity and ``Im G < 0``;
    evaluated in the cancellation-free form ``2 / (z + sqrt(z^2 - R^2))``.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    g = _cauchy_semicircle_raw(_as_upper(z), radius)
    _check_herglotz(g, "semicircle transform")
    return complex(g.item())


def cauchy_uniform(z: complex, lo: float, hi: float) -> complex:
    """Cauchy transform ``log((z - lo)/(z - hi)) / (hi - lo)`` of ``Uniform[lo, hi]``.

    Principal logarithm; ``lo == hi`` degenerates to the point-mass transform
    ``1/(z - lo)``.
    """
    if lo > hi:
        raise ValueError("need lo <= hi")
    lo, hi = float(lo), float(hi)
    z = _as_upper(z)
    g = _uniform_transform(z - lo, z - hi, hi - lo)
    _check_herglotz(g, "uniform transform")
    return complex(g.item())


# Each continuation stage divides the height above the real axis by this
# factor and starts Newton from the previous stage's root, moved along the
# tangent dG/dz to the new height.  With the tangent step a factor of 1000
# reaches eta = 1e-3 in 2 stages and 1e-5 in 3.  Larger factors, up to a
# single jump to eta, also converge, but on 2000-4000 point grids at
# t <= 8 they did not shorten the solve measurably, so each jump stays at
# three decades.
_CONTINUATION = 1000.0
_EPS = float(np.finfo(float).eps)
# Newton stopping rule, read at call time: a point stops when its step falls
# below _TOLERANCE * max(1, |G|) or its residual reaches roundoff, and a
# solve raises SubordinationError after _MAX_ITERATIONS vectorized steps.
_TOLERANCE = 1e-13
_MAX_ITERATIONS = 10_000


def _newton_stage(
    z: np.ndarray,
    g: np.ndarray,
    c: float,
    lo: float,
    hi: float,
    tolerance: float,
    budget: int,
) -> int:
    """Newton on ``G - G_U(z - c G) = 0`` in place over ``g``; returns the
    unspent budget of vectorized steps."""
    active = np.arange(z.size)
    while active.size:
        if budget == 0:
            raise SubordinationError(
                f"{active.size} of {z.size} grid points did not converge before "
                f"the Newton step budget ran out (tolerance {tolerance:g})"
            )
        budget -= 1
        current = g[active]
        w = z[active] - c * current
        wlo, whi = w - lo, w - hi
        residual = current - _uniform_transform(wlo, whi, hi - lo)
        # F'(G), dividing twice: the product (w - lo)(w - hi) overflows first
        step = residual / (1.0 - c / wlo / whi)
        new = current - step
        # keep Im G < 0, so that w stays in the upper half-plane; a step that
        # underflows to zero leaves G as it was, for _check_herglotz to judge
        outside = np.flatnonzero(new.imag >= 0)
        while outside.size:
            step[outside] *= 0.5
            new[outside] = current[outside] - step[outside]
            outside = outside[(new[outside].imag >= 0) & (step[outside] != 0)]
        g[active] = new
        # near a support edge F' -> 0 and the step settles at roundoff / |F'|
        # above the tolerance while the residual is already at roundoff
        scale = np.maximum(1.0, np.abs(current))
        done = (np.abs(step) <= tolerance * scale) | (
            np.abs(residual) <= 4.0 * _EPS * scale
        )
        active = active[~done]
    return budget


def _subordination_cauchy(z: np.ndarray, radius: float, lo: float, hi: float) -> np.ndarray:
    """Vectorized G of ``Semicircle(radius) boxplus Uniform[lo, hi]`` at z.

    The semicircle's R-transform is ``c G`` with ``c = radius^2 / 4``, so G is
    the root of ``F(G) = G - G_U(z - c G)`` with ``Im G < 0`` (Biane, Indiana
    Univ. Math. J. 46, 1997), and ``F'(G) = 1 - c / ((w - lo)(w - hi))`` at
    ``w = z - c G``.  Newton continues down from height ``max(1, Im z)``,
    started at ``1 / (z - (lo + hi) / 2)``, dividing the height by
    ``_CONTINUATION`` (1000) per stage until it reaches ``Im z``.  Between
    stages a tangent predictor moves each root by ``dG/dz * i (h' - h)``,
    with ``dG/dz = -1 / ((w - lo)(w - hi) - c)``; a point whose prediction
    is not finite or leaves ``Im G < 0`` starts from its old root instead.
    """
    c = 0.25 * radius * radius
    x, eta = z.real, z.imag
    height = np.maximum(1.0, eta)
    g = 1.0 / (x + 1j * height - 0.5 * (lo + hi))
    budget = _MAX_ITERATIONS
    while True:
        budget = _newton_stage(x + 1j * height, g, c, lo, hi, _TOLERANCE, budget)
        if (height == eta).all():
            break
        lower = np.maximum(height / _CONTINUATION, eta)
        # tangent predictor: dG/dz = -1 / ((w - lo)(w - hi) - c), written
        # with the same two divisions as F'
        w = x + 1j * height - c * g
        k = 1.0 / (w - lo) / (w - hi)
        guess = g - k / (1.0 - c * k) * (1j * (lower - height))
        np.copyto(g, guess, where=np.isfinite(guess) & (guess.imag < 0))
        height = lower
    _check_herglotz(g, "subordination result")
    return g


def free_sum_cauchy(z: complex, radius: float, lo: float, hi: float) -> complex:
    """Cauchy transform of ``Semicircle(radius) boxplus Uniform[lo, hi]``.

    Subordination through the linear R-transform of the semicircle: G is the
    root of ``G = G_U(z - (radius^2/4) G)`` with ``Im G < 0``, found by
    Newton's method continued down in ``Im z`` from height 1.  A point stops
    when its Newton step falls below ``1e-13 * max(1, |G|)`` or its residual
    reaches roundoff; a budget of 10 000 vectorized Newton steps bounds the
    solve.  ``lo == hi`` (point mass) and tiny ``radius`` reproduce the
    single-measure transforms.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if lo > hi:
        raise ValueError("need lo <= hi")
    g = _subordination_cauchy(_as_upper(z), radius, float(lo), float(hi))
    return complex(g.item())


@dataclass(frozen=True)
class SupportInterval:
    lower: float
    upper: float


def free_lognormal_support(t: float) -> SupportInterval:
    """Biane's support ``[((t+2) - q)/2 e^(-q/2), ((t+2) + q)/2 e^(q/2)]`` of
    the free log-normal law at time ``t``, with ``q = sqrt(t(t+4))``.

    The endpoints are ``exp(-S(t))`` and ``exp(S(t))``, where
    ``S(t) = sqrt(t(1 + t/4)) + 2 asinh(sqrt(t)/2)`` is the right edge of
    ``Semicircle(2 sqrt(t)) boxplus Uniform[-t/2, t/2]``.  They multiply to 1
    (the law of the logarithm is symmetric) and tend to 1 as ``t -> 0``.
    """
    if t <= 0:
        raise ValueError("time must be positive")
    q = math.sqrt(t * (t + 4.0))
    return SupportInterval(
        lower=0.5 * ((t + 2.0) - q) * math.exp(-0.5 * q),
        upper=0.5 * ((t + 2.0) + q) * math.exp(0.5 * q),
    )


@dataclass(frozen=True, eq=False)
class DensityGrid:
    """Sampled density: strictly increasing abscissae, nonnegative values,
    the inversion smoothing ``eta``, and a trapezoid mass estimate."""

    abscissae: np.ndarray
    values: np.ndarray
    eta: float
    mass_estimate: float

    def __post_init__(self) -> None:
        x = np.asarray(self.abscissae, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if x.ndim != 1 or x.shape != v.shape or x.size < 2:
            raise ValueError("abscissae and values must be 1-d of equal length >= 2")
        if not (np.diff(x) > 0).all():
            raise ValueError("abscissae must increase strictly")
        if (v < 0).any():
            raise ValueError("density values must be nonnegative")
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        object.__setattr__(self, "abscissae", x)
        object.__setattr__(self, "values", v)

    def moment(self, n: int) -> float:
        """Trapezoid estimate of ``int x^n density(x) dx``.

        Carries the O(eta) kernel-spreading bias of the smoothed density;
        :func:`grid_moments` is the bias-cancelling alternative when the
        underlying transform is available.
        """
        if n < 0:
            raise ValueError("order must be a natural number")
        return float(np.trapezoid(self.abscissae**n * self.values, self.abscissae))

    def to_csv(self, stream: IO[str]) -> None:
        stream.write("x,density\n")
        for x, v in zip(self.abscissae, self.values):
            stream.write(f"{float(x)!r},{float(v)!r}\n")

    def to_json(self) -> str:
        return json.dumps(
            {
                "abscissae": [float(x) for x in self.abscissae],
                "values": [float(v) for v in self.values],
                "eta": self.eta,
                "mass_estimate": self.mass_estimate,
            }
        )


def density_grid(
    radius: float,
    lo: float,
    hi: float,
    x_lo: float,
    x_hi: float,
    points: int,
    eta: float,
) -> DensityGrid:
    """Stieltjes inversion ``-Im G(x + i eta) / pi`` of the free sum on a grid.

    Smoothing bias is O(eta); the grid should resolve eta (spacing well below
    it) and extend past the support far enough for the smoothing tails if the
    mass estimate is to mean anything.
    """
    if not x_lo < x_hi:
        raise ValueError("need x_lo < x_hi")
    if points < 2:
        raise ValueError("need at least 2 grid points")
    if eta <= 0:
        raise ValueError("eta must be positive")
    x = np.linspace(x_lo, x_hi, points)
    g = _subordination_cauchy(x + 1j * eta, radius, float(lo), float(hi))
    values = -g.imag / math.pi
    mass = float(np.trapezoid(values, x))
    return DensityGrid(abscissae=x, values=values, eta=eta, mass_estimate=mass)


def grid_moments(
    radius: float,
    lo: float,
    hi: float,
    x_lo: float,
    x_hi: float,
    points: int,
    eta: float,
    n_max: int,
) -> list[float]:
    """Moments ``m_0 .. m_{n_max}`` of the free sum from its transform on a grid.

    Integrates the analytic ``z^n G(z)`` along the horizontal contour at
    height ``eta`` (same abscissae and smoothing as :func:`density_grid`) and
    adds the two vertical end segments of the enclosing rectangle, so the
    smoothing bias of naive ``x^n density`` quadrature cancels identically:

        m_n = -(1/pi) Im int z^n G(z) dx
              + (eta/pi) (Re[z^n G]_right_end - Re[z^n G]_left_end) + O(eta^2)

    The window must contain the whole support (margin > 0).  Contrast with
    :meth:`DensityGrid.moment`, whose plain trapezoid carries the documented
    O(eta) kernel-spreading bias.
    """
    if n_max < 0:
        raise ValueError("order must be a natural number")
    if not x_lo < x_hi:
        raise ValueError("need x_lo < x_hi")
    if points < 2:
        raise ValueError("need at least 2 grid points")
    if eta <= 0:
        raise ValueError("eta must be positive")
    x = np.linspace(x_lo, x_hi, points)
    z = x + 1j * eta
    g = _subordination_cauchy(z, radius, float(lo), float(hi))
    out: list[float] = []
    zg = g  # z^n G(z), one multiplication by z per order
    for _ in range(n_max + 1):
        line = -float(np.trapezoid(zg.imag, x)) / math.pi
        ends = (eta / math.pi) * float(zg[-1].real - zg[0].real)
        out.append(line + ends)
        zg = zg * z
    return out


def exp_pushforward_density(grid: DensityGrid) -> DensityGrid:
    """Pushforward of a log-variable density under ``x -> e^x``.

    New abscissae ``e^x`` with values ``density(x) / e^x``; the mass estimate
    is recomputed on the new (nonuniform) grid and agrees with the input up to
    discretization error.
    """
    y = np.exp(grid.abscissae)
    values = grid.values / y
    mass = float(np.trapezoid(values, y))
    return DensityGrid(abscissae=y, values=values, eta=grid.eta, mass_estimate=mass)


def detect_support(
    grid: DensityGrid, threshold: float = 1e-2, *, multiplicative: bool = False
) -> SupportInterval:
    """Support edges read off a density grid: outermost abscissae where the
    density exceeds ``threshold`` times its maximum.

    With ``multiplicative=True`` (positive abscissae only) the thresholded
    quantity is ``x * density(x)``, the density in the multiplicative scale:
    for laws spread over decades, like exponential pushforwards, the raw
    density at the upper edge is suppressed by the Jacobian and a global
    relative threshold would otherwise never see it.
    """
    if not 0 < threshold < 1:
        raise ValueError("threshold must lie in (0, 1)")
    profile = grid.values
    if multiplicative:
        if (grid.abscissae <= 0).any():
            raise ValueError("multiplicative detection needs positive abscissae")
        profile = grid.abscissae * grid.values
    cutoff = threshold * float(profile.max())
    idx = np.flatnonzero(profile > cutoff)
    if idx.size == 0:
        raise ValueError("density nowhere exceeds the detection threshold")
    return SupportInterval(
        lower=float(grid.abscissae[idx[0]]), upper=float(grid.abscissae[idx[-1]])
    )
