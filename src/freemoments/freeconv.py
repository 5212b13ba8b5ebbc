"""Numerical free-convolution analysis.

Cauchy transforms of the semicircle and uniform laws, a subordination solver
for their free additive convolution (a Halley step with a Newton fallback),
started from the transform's boundary values on Biane's real-axis curve,
Stieltjes inversion onto density grids, the exponential pushforward, the
closed-form support of the free log-normal law, and exponential moments as a
contour integral in the subordination variable, with no series and no
solver.

Biane's curve is solved in one place: one Newton solve of its angle
equation (``_biane_angles``) serves both the solver's start and the
contour, whose height is the curve's apex; ``_biane_points`` and
``_biane_offsets`` hold its geometry; and ``_uniform_transform`` is the one
kernel for the uniform law's transform, on the curve, in the solver and on
the contour.

A density grid whose law and window are both centred on 0 (every free
log-normal window is) is solved on its right half only: for a law symmetric
about 0, ``G(-conj z) = -conj G(z)`` gives the left half, on abscissae that
are the exact negatives of the right ones.  The final residual check of the
solver and the Nevanlinna test then run on the reflected half too, so
every returned point passes each exactly once.

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

from ._errors import BranchError, SubordinationError
from .specfun import _CANCELLATION_LIMIT, SeriesConvergenceError, _raise_not_finite, _times_exp

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


def _as_upper(z) -> np.ndarray:
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if not np.isfinite(z).all():
        raise ValueError(f"z must be finite, got {z}")
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
    # a grid on the solver's centred half, or Biane's curve, takes one branch
    # at every point: only that branch runs.  The log1p branch keeps its
    # argument above -3/4.  A mixed mask runs both branches at every point,
    # which is cheaper than masked ufuncs; the branch not taken may meet
    # log(0) or leave log1p's domain.
    if near.all():
        modulus = 0.5 * np.log1p(a * (2.0 + a) + b * b)
        phase = np.arctan2(b, 1.0 + a)
    elif not near.any():
        with np.errstate(divide="ignore"):
            modulus = np.log(np.abs(u))
        phase = np.arctan2(u.imag, u.real)
    else:
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
    Arguments that are nan, infinite or past the float range raise
    ``ValueError``.
    """
    _raise_not_finite(radius=radius)
    if radius <= 0:
        raise ValueError("radius must be positive")
    g = _cauchy_semicircle_raw(_as_upper(z), radius)
    _check_herglotz(g, "semicircle transform")
    return complex(g.item())


def cauchy_uniform(z: complex, lo: float, hi: float) -> complex:
    """Cauchy transform ``log((z - lo)/(z - hi)) / (hi - lo)`` of ``Uniform[lo, hi]``.

    Principal logarithm; ``lo == hi`` degenerates to the point-mass transform
    ``1/(z - lo)``.  Arguments that are nan, infinite or past the float
    range raise ``ValueError``.
    """
    _raise_not_finite(lo=lo, hi=hi)
    if lo > hi:
        raise ValueError("need lo <= hi")
    lo, hi = float(lo), float(hi)
    z = _as_upper(z)
    g = _uniform_transform(z - lo, z - hi, hi - lo)
    _check_herglotz(g, "uniform transform")
    return complex(g.item())


_EPS = float(np.finfo(float).eps)
# Solver stopping rule, read at call time: a point stops when its step falls
# below _TOLERANCE * max(1, |G|) or its residual reaches roundoff; a
# solve raises SubordinationError after _MAX_ITERATIONS vectorized steps, or
# when a point it would return fails the final residual check.
_TOLERANCE = 1e-13
_MAX_ITERATIONS = 10_000
# The Newton stage starts from the boundary values on the real axis, sampled
# at this many points of Biane's curve and at a quarter as many real points
# beyond each support edge, and interpolated linearly in between.
_CURVE_SAMPLES = 200


def _biane_points(c: float, lo: float, hi: float) -> tuple[float, float]:
    """``R = sqrt(h^2 + c)``, the distance from the centre of ``[lo, hi]`` to
    Biane's points ``mid ± R`` (h the half-width), and ``R - h`` in a form
    that does not cancel."""
    half = 0.5 * (hi - lo)
    spread = math.sqrt(half * half + c)
    return spread, c / (spread + half)


def _biane_offsets(c: float, lo: float, hi: float, phi: np.ndarray) -> tuple[np.ndarray, ...]:
    """``u - lo`` and ``u - hi`` at ``u = mid - R cos(phi)``, each in the
    form that does not cancel at its edge (``R`` from :func:`_biane_points`)."""
    spread, gap = _biane_points(c, lo, hi)
    ulo = 2.0 * spread * np.sin(0.5 * phi) ** 2 - gap
    return ulo, gap - 2.0 * spread * np.cos(0.5 * phi) ** 2


def _biane_angles(c: float, width: float, product: np.ndarray) -> np.ndarray:
    """The angles theta in ``(0, pi]`` at which ``[lo, hi]`` subtends Biane's
    curve (:func:`_biane_curve`) above the points u with
    ``(u - lo)(u - hi) = product``, each ``< c``.

    ``omega = u + i v`` lies on the circle through lo and hi that sees
    ``[lo, hi]`` at theta, so ``(u - lo)(u - hi) + v^2 = width v cot(theta)``;
    with ``v = c theta / width`` and multiplied by ``sin(theta) / theta``,
    this is an equation in theta that is smooth on ``[0, pi]``.  Newton
    solves it from the upper bound that ``theta cot(theta) <= 1 - theta^2/3``
    gives; no step may more than halve theta or pass pi.
    """
    k = (c / width) ** 2
    theta = np.minimum(np.sqrt((c - product) / (c / 3.0 + k)), math.pi)
    for _ in range(50):
        sin, cos = np.sin(theta), np.cos(theta)
        sinc = sin / theta
        value = c * cos - k * theta * sin - product * sinc
        # d sinc / d theta, by its series where the quotient cancels
        dsinc = np.where(theta > 1e-3, (cos - sinc) / theta, -theta / 3.0)
        slope = -c * sin - k * (sin + theta * cos) - product * dsinc
        step = value / slope
        # the root is positive, so no step may more than halve theta (the
        # same bits as np.clip, at a third of its cost)
        theta = np.minimum(np.maximum(theta - step, 0.5 * theta), math.pi)
        if not np.abs(step).max() > 64.0 * _EPS:
            break
    return theta


def _biane_curve(c: float, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Boundary values ``G(x + i0)`` of ``Semicircle(2 sqrt c) boxplus
    Uniform[lo, hi]`` (``lo < hi``) at increasing x from one support edge to
    the other.

    With ``omega = z - c G`` the subordination equation reads
    ``z = omega + c G_U(omega)`` and ``G = G_U(omega)``.  As z runs along the
    support, omega runs along Biane's curve (Biane, Indiana Univ. Math. J.
    46, 1997): the point ``u + i v``, ``u`` in ``[u-, u+]``, at which
    ``[lo, hi]`` subtends the angle ``theta = width v / c``
    (:func:`_biane_angles`).  There ``x = u + c Re G_U(omega)`` increases
    with u, ``Im G = -theta / width``, and the density is
    ``theta / (pi width)``.  ``u± = mid ± R`` (:func:`_biane_points`), where
    ``theta = 0``, map to the support edges ``u± + c G_U(u±)``.  The samples
    are ``u = mid - R cos(phi)``, which resolve the square-root edges.
    """
    width = hi - lo
    phi = np.arange(_CURVE_SAMPLES) * (math.pi / (_CURVE_SAMPLES - 1))
    ulo, uhi = _biane_offsets(c, lo, hi, phi)
    # theta = 0 at both edges; Newton runs on the angles between them, where
    # (u - lo)(u - hi) < c
    theta = np.concatenate(([0.0], _biane_angles(c, width, ulo[1:-1] * uhi[1:-1]), [0.0]))
    iv = 1j * (c / width) * theta
    g = np.empty(theta.size, dtype=complex)
    g.real = _uniform_transform(ulo + iv, uhi + iv, width).real
    g.imag = -theta / width
    return lo + ulo + c * g.real, g


def _real_axis_start(z: np.ndarray, c: float, lo: float, hi: float) -> np.ndarray:
    """First guess for the Newton stage: the boundary value ``G(Re z + i0)``,
    interpolated linearly in ``Re z`` between samples of the real axis.
    Beyond the support the value is real; ``w = z - c G`` then still lies in
    the upper half-plane.

    On the support the samples come from :func:`_biane_curve`.  Beyond it
    omega is real, ``u = mid ± R cosh(psi)`` with ``u - hi`` on the right and
    ``lo - u`` on the left both ``R - h + 2 R sinh^2(psi / 2)``.  They go out
    to ``|u - mid| = max |Re z - mid|`` (at least 2 R), which covers every
    ``Re z``, since ``x - u`` has the sign of ``u - mid`` there.
    """
    x = z.real
    width = hi - lo
    mid = 0.5 * (lo + hi)
    spread, gap = _biane_points(c, lo, hi)
    curve_x, curve_g = _biane_curve(c, lo, hi)
    extent = max(float(x.max()) - mid, mid - float(x.min()), 2.0 * spread)
    count = _CURVE_SAMPLES // 4
    psi = np.arange(1, count + 1) * (math.acosh(extent / spread) / count)
    beyond = gap + 2.0 * spread * np.sinh(0.5 * psi) ** 2
    # G is odd about mid on the real axis beyond the support
    outer_g = np.log1p(width / beyond) / width
    outer_x = hi + beyond + c * outer_g
    zeros = np.zeros(count)
    abscissae = np.concatenate(((lo + hi) - outer_x[::-1], curve_x, outer_x))
    real = np.interp(x, abscissae, np.concatenate((-outer_g[::-1], curve_g.real, outer_g)))
    imag = np.interp(x, abscissae, np.concatenate((zeros, curve_g.imag, zeros)))
    g = np.empty_like(z)
    g.real = real
    g.imag = imag
    return g


def _newton_stage(
    z: np.ndarray,
    g: np.ndarray,
    c: float,
    lo: float,
    hi: float,
    tolerance: float,
    budget: int,
) -> None:
    """A Halley step with a Newton fallback on ``F(G) = G - G_U(z - c G) = 0``,
    in place over ``g``, for at most ``budget`` vectorized steps.

    With ``ratio = c / ((w - lo)(w - hi))``, ``F' = 1 - ratio`` and
    ``F'' = -ratio^2 (2w - lo - hi)``, so Halley's step
    ``N / (1 - N F'' / (2 F'))``, N the Newton step ``F / F'``, costs a few
    products more than Newton's and converges cubically.  Where
    ``|N F'' / (2 F')| >= 1/2``, next to a support edge where ``F' -> 0``,
    the point takes the Newton step instead.

    ``w - lo`` and ``w - hi`` are formed from the end e of ``[lo, hi]``
    nearer to ``Re z``, as ``(z - e) - c G`` plus ``e - lo`` or ``e - hi``:
    next to an end this keeps the digits that ``w = z - c G`` would lose,
    and the rounding error of ``w - e`` is common to both, so it cancels in
    their ratio far from ``[lo, hi]``.

    Raises SubordinationError when the budget runs out, or when, at the end,
    a point fails :func:`_check_residual`.
    """
    ze, to_lo, to_hi = _end_offsets(z, lo, hi)
    every = slice(None)
    active = every  # views, not gathers, until the first point stops
    while True:
        if budget == 0:
            left = z.size if active is every else active.size
            raise SubordinationError(
                f"{left} of {z.size} grid points did not converge before "
                f"the solver's step budget ran out (tolerance {tolerance:g})"
            )
        budget -= 1
        current = g[active]
        we = ze[active] - c * current
        wlo, whi = we + to_lo[active], we + to_hi[active]
        residual = current - _uniform_transform(wlo, whi, hi - lo)
        # dividing twice: the product (w - lo)(w - hi) overflows first
        ratio = c / wlo / whi
        slope = 1.0 - ratio
        newton = residual / slope
        # -N F'' / (2 F'), dropped where it is not small
        correction = newton * (ratio * ratio) * (wlo + whi) / (2.0 * slope)
        step = newton / (1.0 + np.where(np.abs(correction) < 0.5, correction, 0.0))
        # the step measures the distance to the root; near a support edge
        # F' -> 0 and it settles at roundoff / |F'| above the tolerance while
        # the residual is already at roundoff
        scale = np.maximum(1.0, np.abs(current))
        done = (np.abs(step) <= tolerance * scale) | (np.abs(residual) <= 4.0 * _EPS * scale)
        new = current - step
        # keep Im G <= 0, so that w stays in the upper half-plane: a point
        # that crosses the real axis is reflected back, which brings it
        # closer to the root, since the root has Im G < 0 (a halved step can
        # stall next to the real axis, far from the root)
        new.imag = -np.abs(new.imag)
        g[active] = new
        if done.all():
            break
        if done.any():
            active = np.flatnonzero(~done) if active is every else active[~done]
    _check_residual(z, g, c, lo, hi, tolerance)


def _end_offsets(z: np.ndarray, lo: float, hi: float) -> tuple[np.ndarray, ...]:
    """``z - e`` for the end e of ``[lo, hi]`` nearer to ``Re z``, and the
    offsets ``e - lo`` and ``e - hi`` that turn ``w - e`` into ``w - lo`` and
    ``w - hi``."""
    near_hi = z.real > 0.5 * (lo + hi)
    to_lo = np.where(near_hi, hi - lo, 0.0)
    return z - np.where(near_hi, hi, lo), to_lo, to_lo - (hi - lo)


def _check_residual(
    z: np.ndarray, g: np.ndarray, c: float, lo: float, hi: float, tolerance: float
) -> None:
    """Raise SubordinationError unless at every point the residual of
    ``G = G_U(z - c G)`` is at most
    ``tolerance * (max(1, |G|) + (|z - e| + |c G|) |G_U'(w)|)``: the most
    that relative errors of ``tolerance`` in G and in the two terms of
    ``w - e`` could explain (``w - e`` formed as in :func:`_newton_stage`).
    """
    ze, to_lo, to_hi = _end_offsets(z, lo, hi)
    cg = c * g
    we = ze - cg
    wlo, whi = we + to_lo, we + to_hi
    residual = np.abs(g - _uniform_transform(wlo, whi, hi - lo))
    bound = tolerance * (
        np.maximum(1.0, np.abs(g)) + (np.abs(ze) + np.abs(cg)) / np.abs(wlo * whi)
    )
    failed = np.count_nonzero(~(residual <= bound))
    if failed:
        raise SubordinationError(
            f"{failed} of {z.size} grid points stopped with a residual above "
            f"{tolerance:g} times its roundoff scale"
        )


def _subordination_cauchy(z: np.ndarray, radius: float, lo: float, hi: float) -> np.ndarray:
    """Vectorized G of ``Semicircle(radius) boxplus Uniform[lo, hi]`` at z.

    The semicircle's R-transform is ``c G`` with ``c = radius^2 / 4``, so G is
    the root of ``F(G) = G - G_U(z - c G)`` with ``Im G < 0`` (Biane, Indiana
    Univ. Math. J. 46, 1997), and ``F'(G) = 1 - c / ((w - lo)(w - hi))`` at
    ``w = z - c G``.  One stage of Halley steps with a Newton fallback
    (:func:`_newton_stage`) runs at the height of z, started from the
    boundary values on the real axis (:func:`_real_axis_start`), which lie
    within interpolation error of G at any small height; ``lo == hi`` starts
    from the closed-form transform of the shifted semicircle.
    """
    c = 0.25 * radius * radius
    if lo == hi:
        g = _cauchy_semicircle_raw(z - lo, radius)
    else:
        g = _real_axis_start(z, c, lo, hi)
    _newton_stage(z, g, c, lo, hi, _TOLERANCE, _MAX_ITERATIONS)
    _check_herglotz(g, "subordination result")
    return g


def free_sum_cauchy(z: complex, radius: float, lo: float, hi: float) -> complex:
    """Cauchy transform of ``Semicircle(radius) boxplus Uniform[lo, hi]``.

    Subordination through the linear R-transform of the semicircle: G is the
    root of ``G = G_U(z - (radius^2/4) G)`` with ``Im G < 0``, found by one
    stage of Halley steps with a Newton fallback at ``z``, started from the
    transform's boundary value ``G(Re z + i0)`` on Biane's real-axis curve;
    a step that would cross the real axis is reflected back into
    ``Im G < 0``.  A point stops when its step falls below
    ``1e-13 * max(1, |G|)`` or its residual reaches roundoff; a budget of
    10 000 vectorized steps bounds the solve, and a final residual check
    refuses any point that stopped short of the root.  Both raise
    ``SubordinationError``.  ``lo == hi`` (point mass) and tiny ``radius``
    reproduce the single-measure transforms.  Arguments that are nan,
    infinite or past the float range raise ``ValueError``.
    """
    _check_law(radius, lo, hi)
    g = _subordination_cauchy(_as_upper(z), radius, float(lo), float(hi))
    return complex(g.item())


def _check_law(radius: float, lo: float, hi: float) -> None:
    """Reject a semicircle radius or uniform interval that names no law."""
    _raise_not_finite(radius=radius, lo=lo, hi=hi)
    if radius <= 0:
        raise ValueError("radius must be positive")
    if lo > hi:
        raise ValueError("need lo <= hi")


def _grid_cauchy(
    radius: float,
    lo: float,
    hi: float,
    x_lo: float,
    x_hi: float,
    points: int,
    eta: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Abscissae x from ``x_lo`` to ``x_hi`` and G of the free sum at
    ``x + i eta``, after checking the arguments.

    A law and a window both centred on 0 (``lo == -hi``, ``x_lo == -x_hi``)
    make the grid symmetric, and ``G(-conj z) = -conj G(z)`` for a law
    symmetric about 0.  Then only ``x >= 0`` is solved: the left abscissae
    are the exact negatives of the right ones (``np.linspace``'s need not
    be), the middle one of an odd grid is exactly 0, and the left half of G
    is ``-conj`` of the right.  The reflected points then pass the same
    residual and Herglotz checks as the solved ones, so every returned point
    is checked once.  Any other grid is solved whole, on ``np.linspace``.
    """
    _check_law(radius, lo, hi)
    _raise_not_finite(x_lo=x_lo, x_hi=x_hi, eta=eta)
    if not x_lo < x_hi:
        raise ValueError("need x_lo < x_hi")
    if points < 2:
        raise ValueError("need at least 2 grid points")
    if eta <= 0:
        raise ValueError("eta must be positive")
    lo, hi = float(lo), float(hi)
    x = np.linspace(x_lo, x_hi, points)
    if lo != -hi or x_lo != -x_hi:
        return x, _subordination_cauchy(x + 1j * eta, radius, lo, hi)
    half = points // 2
    if points % 2:
        x[half] = 0.0
    x[:half] = -x[::-1][:half]
    z = x + 1j * eta
    g = np.empty_like(z)
    g[half:] = _subordination_cauchy(z[half:], radius, lo, hi)
    g[:half] = -g[::-1][:half].conj()
    _check_residual(z[:half], g[:half], 0.25 * radius * radius, lo, hi, _TOLERANCE)
    _check_herglotz(g[:half], "reflected subordination result")
    return x, g


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
    A ``t`` that is nan, infinite or past the float range raises
    ``ValueError``.
    """
    _raise_not_finite(t=t)
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

    The abscissae are ``np.linspace(x_lo, x_hi, points)``, except that a law
    and a window both centred on 0 solve only ``x >= 0`` and reflect the
    rest, ``G(-x + i eta) = -conj G(x + i eta)``, on abscissae made exactly
    antisymmetric (within 1 ulp of ``np.linspace``; the middle point of an
    odd grid is exactly 0).  Every returned point, solved or reflected,
    passes the solver's final residual check and ``Im G < 0``.  Arguments
    that are nan or infinite, a ``radius <= 0`` and ``lo > hi`` raise
    ``ValueError``.
    """
    x, g = _grid_cauchy(radius, lo, hi, x_lo, x_hi, points, eta)
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

    The window must contain the whole support (margin > 0).  G comes from
    the same grid, the same reflection of a centred window and the same
    checks as in :func:`density_grid`.
    """
    if n_max < 0:
        raise ValueError("order must be a natural number")
    x, g = _grid_cauchy(radius, lo, hi, x_lo, x_hi, points, eta)
    z = x + 1j * eta
    out: list[float] = []
    # np.trapezoid's arithmetic, with the spacings taken once; one order at a
    # time, since one trapezoid over the stacked (n_max + 1, points) rows
    # took about 3x as long, in its larger temporaries.  Each order's terms
    # go into one buffer.
    spacing = np.diff(x)
    terms = np.empty_like(spacing)
    zg = g  # z^n G(z), multiplied by z in place after each order
    y = zg.imag
    for n in range(n_max + 1):
        np.add(y[1:], y[:-1], out=terms)
        np.multiply(spacing, terms, out=terms)
        np.divide(terms, 2.0, out=terms)
        line = -float(terms.sum()) / math.pi
        ends = (eta / math.pi) * float(zg[-1].real - zg[0].real)
        out.append(line + ends)
        if n < n_max:
            np.multiply(zg, z, out=zg)
    return out


# Trapezoid rule of _contour_mgf, read at call time: N doubles from
# _CONTOUR_NODES until two successive sums agree to _CONTOUR_TOLERANCE times
# the largest term, and refuses past _CONTOUR_MAX_NODES
_CONTOUR_NODES = 64
_CONTOUR_MAX_NODES = 2**16
_CONTOUR_TOLERANCE = 1e-14


def _contour_mgf(alpha: complex, c: float, lo: float, hi: float) -> complex:
    """``E[e^(alpha X)]``, ``X ~ Semicircle(2 sqrt c) boxplus Uniform[lo, hi]``
    (``lo < hi``), as ``(1/2 pi i) oint e^(alpha z) G_U(w) dz(w)`` in the
    subordination variable w, ``z(w) = w + c G_U(w)``, around ``[lo, hi]``.

    The contour is the ellipse through Biane's points ``mid ± sqrt(h^2 + c)``
    (:func:`_biane_points`) as high as the apex of Biane's curve, above
    ``u = mid`` (:func:`_biane_angles`), on which z stays near the real axis;
    the trapezoid rule in the angle converges geometrically (Trefethen and
    Weideman, SIAM Rev. 56, 2014).
    ``e^(alpha z)`` is scaled by its largest modulus on the first nodes.
    Raises :class:`SeriesConvergenceError` when the sum does not settle, when
    its largest term exceeds ``2**26`` times the value, or past the float
    range.
    """
    width = hi - lo
    spread, _ = _biane_points(c, lo, hi)
    # the apex is above u = mid, where (u - lo)(u - hi) = -h^2
    apex = _biane_angles(c, width, np.array([-0.25 * width * width]))
    height = (c / width) * float(apex[0])
    law = f"(alpha={alpha}, c={c}, lo={lo}, hi={hi})"
    nodes, new, shift = _CONTOUR_NODES, slice(None), None
    total, largest, value = 0j, 0.0, math.nan  # the first sum has none to agree with
    while nodes <= _CONTOUR_MAX_NODES:
        # w = mid - spread cos(phi) - i height sin(phi), counterclockwise
        phi = np.arange(nodes)[new] * (2.0 * math.pi / nodes)
        sin = np.sin(phi)
        ulo, uhi = _biane_offsets(c, lo, hi, phi)
        wlo, whi = ulo - 1j * height * sin, uhi - 1j * height * sin
        g = _uniform_transform(wlo, whi, width)
        power = alpha * (lo + wlo + c * g)
        if shift is None:
            shift = float(power.real.max())
        dw = spread * sin - 1j * height * np.cos(phi)
        values = np.exp(power - shift) * g * (1.0 - c / (wlo * whi)) * dw
        total += complex(values.sum())
        largest = max(largest, float(np.abs(values).max()))
        previous, value = value, total / (1j * nodes)
        if abs(value - previous) <= _CONTOUR_TOLERANCE * largest:
            break
        nodes, new = 2 * nodes, slice(1, None, 2)
    else:
        raise SeriesConvergenceError(f"contour integral did not settle {law}")
    if not alpha.imag:
        value = complex(value.real)  # the terms at phi and -phi are conjugates
    if not largest <= _CANCELLATION_LIMIT * abs(value):
        raise SeriesConvergenceError(f"contour integral lost over half its digits {law}")
    try:
        return _times_exp(value, 0, shift)
    except OverflowError:
        raise SeriesConvergenceError(f"E[e^(alpha X)] exceeds the float range {law}") from None


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
