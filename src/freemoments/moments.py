"""Moment engines.

Exact moments (as polynomials in the time parameter, or as rationals for
fixed rational parameters) of free additive convolutions of a semicircle, a
uniform law, and point masses; moments of the free log-normal spectral law in
Laguerre and confluent-hypergeometric form; and the moment-level identity
check tying the two families together through the exponential map.

Two deliberately independent routes exist for the time-coupled moments: a
closed form in Stirling numbers and a quadratic recursion derived from the
time evolution of the pair.  The recursion route never touches Stirling
numbers, so the two implementations can act as oracles for each other.

The exact kernels sum integer numerators over one common denominator and
build each returned ``Fraction`` once, instead of normalising a ``Fraction``
at every term; they return the same ``Fraction`` values.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .exactcomb import _stirling_rows
from .exactcomb import stirling_first  # noqa: F401  (perfbench/tracing.py patches it here)
from .measures import (
    Dirac,
    ExpImage,
    FreeLogNormal,
    FreeSum,
    MeasureSpec,
    Scaled,
    Semicircle,
    Uniform,
)
from .ratpoly import RationalPolynomial
from .specfun import (
    SeriesConvergenceError,
    _raise_not_finite,
    _series_1f1,
    _series_past_float_range,
    kummer_1f1,
    laguerre,
)

__all__ = [
    "moment_polynomial",
    "moment_polynomials_from_recursion",
    "semicircle_uniform_moment",
    "free_lognormal_moment",
    "free_lognormal_moment_alpha",
    "free_lognormal_moment_alpha_series",
    "additive_mgf",
    "MomentAgreement",
    "verify_exp_image_moments",
    "moment",
    "mgf",
]

ExactScalar = Union[int, Fraction]

# Largest relative gap |value - other| / (1 + |value|) accepted between the
# direct and the Kummer-reflected fractional-moment sums, read at call time.
_CROSS_CHECK_TOLERANCE = 1e-10
# |alpha t| from which the large-argument expansion stands in for a
# fractional-moment sum that refuses, at real alpha: the part it drops is of
# relative size about e^(-|alpha t|), below 1e-13 here
_LARGE_ARGUMENT = 30.0


def _stirling_weights(k: int) -> list[tuple[int, int]]:
    """``(j, s(1+j, k+1-j))`` for ``ceil(k/2) <= j <= k``, the range where the
    Stirling number is nonzero: the numerators of the closed moment forms,
    whose denominators are ``j! (1+j)!``."""
    rows = _stirling_rows(1 + k)
    return [(j, rows[1 + j][k + 1 - j]) for j in range((k + 1) // 2, k + 1)]


def _factorial_weights(n: int) -> list[int]:
    """``n! (n+1)! / (j! (1+j)!)`` for ``j = 0 .. n``: the factors that put the
    closed-form terms over the common denominator ``n! (n+1)!``."""
    weight = [1] * (n + 1)
    for j in range(n, 0, -1):
        weight[j - 1] = weight[j] * j * (j + 1)
    return weight


def moment_polynomial(n: int) -> RationalPolynomial:
    """n-th moment of ``Semicircle(2 sqrt(t)) boxplus Uniform[-t, 0]`` in ``t``.

    Closed form ``n! sum_j t^j s(1+j, n+1-j) / (j! (1+j)!)`` with ``j``
    running from ``ceil(n/2)`` to ``n``; exact rational coefficients, built
    as the integer numerators ``s(1+j, n+1-j) n! (n+1)! / (j! (1+j)!)`` over
    the common denominator ``(n+1)!``.
    """
    if n < 0:
        raise ValueError("order must be a natural number")
    weight = _factorial_weights(n)
    numerators = [0] * (n + 1)
    for j, s in _stirling_weights(n):
        numerators[j] = s * weight[j]
    return RationalPolynomial._from_integers(numerators, math.factorial(n + 1))


def moment_polynomials_from_recursion(n_max: int) -> list[RationalPolynomial]:
    """Moment polynomials ``m_0 .. m_{n_max}`` from the quadratic recursion.

    Coefficients ``c(n, k)`` of ``t^k`` in ``m_n`` satisfy

        (n - k) c(n, k) = (n/2) sum_{l<k} sum_{1<=j<=n-k}
                          c(j+l-1, l) c(n-l-j-1, k-1-l)

    seeded by ``c(0, 0) = 1``, ``c(n, 0) = 0`` and closed by the diagonal
    ``c(n, n) = (-1)^n / (1 + n)``.  No Stirling numbers anywhere, which is
    the point: this is the oracle for :func:`moment_polynomial`.

    With ``a = j+l-1`` and ``b = n-l-j-1`` the double sum is the coefficient
    of ``t^(k-1)`` in ``sum_{a+b=n-2} m_a(t) m_b(t)``, since ``c(a, l) = 0``
    for ``l > a``.  Row ``a`` is read as the integer numerators of ``m_a``
    over its reduced common denominator ``D_a``.  The products are summed
    over ``common = lcm(D_a D_b)``, one integer Cauchy product per pair
    ``a <= b``, and row ``n`` is written over
    ``common * lcm(1+n, 2(n-k) for 0 < k < n)``, which the polynomial
    reduces to ``D_n`` with one gcd.  Each row enters the products from its
    first nonzero numerator on: ``c(a, l) = 0`` for ``l < ceil(a/2)``, but
    the recursion finds where each row starts instead of assuming it.
    """
    if n_max < 0:
        raise ValueError("order must be a natural number")
    polynomials: list[RationalPolynomial] = []
    # (first, numerators[first:]) of each row, from its first nonzero numerator
    tails: list[tuple[int, tuple[int, ...]]] = []
    for n in range(n_max + 1):
        # acc[k-1] / common = [t^(k-1)] sum_{a+b=n-2} m_a m_b, pairs a <= b
        pairs = [(polynomials[a], polynomials[n - 2 - a]) for a in range(n // 2)]
        common = math.lcm(*(left._denominator * right._denominator for left, right in pairs))
        acc = [0] * (n - 1)
        for a, (left, right) in enumerate(pairs):
            scale = common // (left._denominator * right._denominator) * (1 if 2 * a == n - 2 else 2)
            left_first, left_tail = tails[a]
            right_first, right_tail = tails[n - 2 - a]
            for i, x in enumerate(left_tail, left_first + right_first):
                x *= scale
                for degree, y in enumerate(right_tail, i):
                    acc[degree] += x * y
        # c(n, k) = n acc[k-1] / (2 (n-k) common) and c(n, n) over one denominator
        divisors = math.lcm(1 + n, *(2 * (n - k) for k in range(1, n)))
        row = [0] * (n + 1)
        for k in range(1, n):
            row[k] = n * acc[k - 1] * (divisors // (2 * (n - k)))
        row[n] = (-1) ** n * (divisors // (1 + n)) * common
        polynomial = RationalPolynomial._from_integers(row, divisors * common)
        numerators = polynomial._numerators
        first = next(k for k, value in enumerate(numerators) if value)
        polynomials.append(polynomial)
        tails.append((first, numerators[first:]))
    return polynomials


def _scaled_powers(x: Fraction, n: int) -> list[int]:
    """``x^e`` over the denominator ``q^n`` of ``x^n``: ``p^e q^(n-e)``, e = 0..n."""
    p, q = x.numerator, x.denominator
    up, down = [1], [1]
    for _ in range(n):
        up.append(up[-1] * p)
        down.append(down[-1] * q)
    return [u * d for u, d in zip(up, reversed(down))]


def semicircle_uniform_moment(
    n: int, a: ExactScalar, b: ExactScalar, c: ExactScalar
) -> Fraction:
    """Exact n-th moment of ``Semicircle(2 sqrt(a)) boxplus Uniform[b, c]``.

    ``a > 0``, ``b <= c`` (``b == c`` collapses the uniform to a point mass).
    The closed form is an outer binomial shift by ``c`` of the inner Stirling
    sum in the interval width; ``0^0 = 1`` conventions apply throughout.  The
    terms are summed as integers over the one denominator
    ``n! (n+1)! (q_a q_w q_c)^n`` of the denominators ``q`` of ``a``, the
    width and ``c``; it is a multiple of every term's, because ``j! (1+j)!``
    divides ``n! (n+1)!`` for ``j <= n``.
    """
    if n < 0:
        raise ValueError("order must be a natural number")
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    if a <= 0:
        raise ValueError("semicircle variance parameter must be positive")
    if b > c:
        raise ValueError("need b <= c")
    width = c - b
    a_pow, w_pow, c_pow = (_scaled_powers(x, n) for x in (a, width, c))
    weight = _factorial_weights(n)
    total = 0
    falling = 1  # n! / (n-k)!
    for k in range(n + 1):
        inner = 0
        for j, s in _stirling_weights(k):
            inner += s * weight[j] * w_pow[2 * j - k] * a_pow[k - j]
        total += falling * c_pow[n - k] * inner
        falling *= n - k
    denominator = weight[0] * (a.denominator * width.denominator * c.denominator) ** n
    return Fraction(total, denominator)


def free_lognormal_moment(n: int, t: float) -> float:
    """n-th moment ``e^(nt/2) L_{n-1}^{(1)}(-nt) / n`` of the free log-normal law.

    Raises ``OverflowError`` when the moment exceeds the float range, and
    ``ValueError`` when ``t`` is nan or infinite.
    """
    if not math.isfinite(t):
        _raise_not_finite(t=t)
    if n < 1:
        raise ValueError("order must be a positive integer")
    if t <= 0:
        raise ValueError("time must be positive")
    value = laguerre(n - 1, 1.0, -n * t) / n * math.exp(n * t / 2.0)
    if math.isinf(value):
        raise OverflowError(f"moment {n} at t={t} exceeds the float range")
    return value


def _moment_sum(a: complex, x: complex, s: complex) -> complex:
    """``e^s 1F1(a; 2; x)``, one route to a fractional moment; when ``e^s`` or
    the sum overflows, it is summed again with a carried binary exponent."""
    try:
        return cmath.exp(s) * _series_1f1(a, 2.0, x)[0]
    except OverflowError:
        pass
    except SeriesConvergenceError as refusal:
        if not isinstance(refusal.__cause__, OverflowError):
            raise
    return _series_past_float_range(a, 2.0, x, s)


def _large_argument_moment(alpha: float, t: float) -> float:
    """``int x^alpha d nu_t`` at real alpha from the large-argument expansion
    of ``1F1`` (DLMF 13.7.2), a route that shares no term with the series.

    The moment is even in alpha (Kummer's transformation), so with
    ``beta = |alpha|`` and ``z = beta t`` it is
    ``e^(z/2) z^(beta - 1) / Gamma(1 + beta) sum_k (1 - beta)_k (-beta)_k / (k! z^k)``,
    up to a part of relative size about ``e^(-z)``.  The sum stops after two
    consecutive terms below ``1e-15`` of it, or where a nonpositive integer
    ``1 - beta`` or ``-beta`` ends it; it raises
    :class:`SeriesConvergenceError` once its terms grow before that, since the
    expansion diverges.
    """
    beta = abs(alpha)
    z = beta * t
    term = total = 1.0
    previous_small = False
    k = 0
    while term != 0.0:
        step = (1.0 - beta + k) * (k - beta) / ((k + 1) * z)
        if abs(step) >= 1.0:
            raise SeriesConvergenceError(
                f"large-argument expansion diverges before it settles (alpha={alpha}, t={t})"
            )
        term *= step
        total += term
        k += 1
        if abs(term) > 1e-15 * abs(total):
            previous_small = False
        elif previous_small:
            break
        else:
            previous_small = True
    log_scale = 0.5 * z + (beta - 1.0) * math.log(z) - math.lgamma(1.0 + beta)
    try:
        return math.exp(log_scale) * total
    except OverflowError:
        raise SeriesConvergenceError(
            f"moment {alpha} at t={t} exceeds the float range"
        ) from None


def _reflected_moment_sum(alpha: complex, t: float) -> complex:
    """The Kummer-reflected sum ``e^(-alpha t/2) 1F1(1 + alpha; 2; alpha t)``."""
    alpha = complex(alpha)
    return _moment_sum(1 + alpha, alpha * t, -alpha * t / 2.0)


def _fractional_moment_sums(alpha: complex, t: float) -> tuple[complex, complex]:
    """The direct and the Kummer-reflected sums of ``int x^alpha d nu_t``.

    A sum that overflows is summed past the float range.  At real alpha with
    ``|alpha t| >= 30``, one sum that refuses even then (its terms cancel)
    is replaced by :func:`_large_argument_moment`; otherwise the first
    refusal is raised.
    """
    sums: list = []
    for route in (free_lognormal_moment_alpha_series, _reflected_moment_sum):
        try:
            sums.append(route(alpha, t))
        except SeriesConvergenceError as refusal:
            sums.append(refusal)
    refusals = [r for r in sums if isinstance(r, SeriesConvergenceError)]
    if refusals:
        alpha = complex(alpha)
        if len(refusals) == 2 or alpha.imag or abs(alpha.real * t) < _LARGE_ARGUMENT:
            raise refusals[0]
        stand_in = complex(_large_argument_moment(alpha.real, t))
        sums = [stand_in if r is refusals[0] else r for r in sums]
    return sums[0], sums[1]


def free_lognormal_moment_alpha(alpha: complex, t: float) -> complex:
    """Fractional moment ``e^(alpha t / 2) 1F1(1 - alpha; 2; -alpha t)``.

    Sums two different series: the direct one in ``-alpha t`` and its Kummer
    reflection ``e^(-alpha t) 1F1(1 + alpha; 2; alpha t)``.  Returns the
    reflected sum when ``Re(alpha) t > 1``, as :func:`kummer_1f1` would, and
    raises :class:`SeriesConvergenceError` if the two disagree beyond
    ``1e-10`` relative to ``1 + |value|``.  A sum that overflows the float
    range is summed again with a carried binary exponent, so a moment in
    range is returned, and one past it raises.  At real alpha with
    ``|alpha t| >= 30`` the sum not returned may refuse because its terms
    cancel; the large-argument expansion of ``1F1`` then checks the returned
    one in its place.  Arguments that are nan or infinite raise
    ``ValueError``.
    """
    if not (cmath.isfinite(alpha) and math.isfinite(t)):
        _raise_not_finite(alpha=alpha, t=t)
    direct, reflected = _fractional_moment_sums(alpha, t)
    alpha = complex(alpha)
    value, other = (reflected, direct) if alpha.real * t > 1.0 else (direct, reflected)
    if not abs(value - other) <= _CROSS_CHECK_TOLERANCE * (1 + abs(value)):
        raise SeriesConvergenceError(
            f"fractional-moment routes disagree at alpha={alpha}, t={t}: "
            f"{value} vs {other}"
        )
    return value


def free_lognormal_moment_alpha_series(alpha: complex, t: float) -> complex:
    """Fractional moment by the direct series ``e^(alpha t/2) 1F1(1 - alpha; 2; -alpha t)``.

    Term by term this is ``e^(alpha t/2) (1/alpha) sum_j C(alpha, 1+j) (alpha t)^j / j!``.
    A sum that overflows is summed again with a carried binary exponent.
    Arguments that are nan or infinite raise ``ValueError``.
    """
    alpha = complex(alpha)
    if not (cmath.isfinite(alpha) and math.isfinite(t)):
        _raise_not_finite(alpha=alpha, t=t)
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    if t <= 0:
        raise ValueError("time must be positive")
    return _moment_sum(1 - alpha, -alpha * t, alpha * t / 2.0)


def additive_mgf(alpha: complex, t: float) -> complex:
    """``E[e^(alpha X)]`` for ``X ~ Semicircle(2 sqrt(t)) boxplus Uniform[-t, 0]``.

    Closed form ``1F1(1 - alpha; 2; -alpha t)``; at integer ``alpha = n`` this
    matches ``e^(-nt/2)`` times the n-th free log-normal moment.  Arguments
    that are nan or infinite raise ``ValueError``.
    """
    alpha = complex(alpha)
    if not (cmath.isfinite(alpha) and math.isfinite(t)):
        _raise_not_finite(alpha=alpha, t=t)
    if t <= 0:
        raise ValueError("time must be positive")
    if alpha == 0:
        return 1 + 0j
    return kummer_1f1(1 - alpha, 2.0, -alpha * t)


@dataclass(frozen=True)
class MomentAgreement:
    """Side-by-side integer moments of the free log-normal law via two routes."""

    time: float
    orders: tuple[int, ...]
    laguerre_values: tuple[float, ...]
    hypergeometric_values: tuple[float, ...]
    deviations: tuple[float, ...]
    tolerance: float

    @property
    def max_deviation(self) -> float:
        return max(self.deviations) if self.deviations else 0.0

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tolerance


def verify_exp_image_moments(
    n_max: int, t: float, tolerance: float = 1e-10
) -> MomentAgreement:
    """Check ``e^(nt/2) 1F1(1-n; 2; -nt)`` against the Laguerre moments.

    Deviations are measured relative to ``1 + |value|`` for ``n = 1 .. n_max``.
    """
    if n_max < 1:
        raise ValueError("need n_max >= 1")
    orders = tuple(range(1, n_max + 1))
    via_laguerre = []
    via_1f1 = []
    deviations = []
    for n in orders:
        lag = free_lognormal_moment(n, t)
        hyp = math.exp(n * t / 2.0) * additive_mgf(n, t).real
        via_laguerre.append(lag)
        via_1f1.append(hyp)
        deviations.append(abs(lag - hyp) / (1 + abs(lag)))
    return MomentAgreement(
        time=float(t),
        orders=orders,
        laguerre_values=tuple(via_laguerre),
        hypergeometric_values=tuple(via_1f1),
        deviations=tuple(deviations),
        tolerance=tolerance,
    )


# ---------------------------------------------------------------------------
# dispatch over measure specifications


def _flatten_free_sum(parts) -> list[MeasureSpec]:
    flat: list[MeasureSpec] = []
    for part in parts:
        if isinstance(part, FreeSum):
            flat.extend(_flatten_free_sum(part.parts))
        else:
            flat.append(part)
    return flat


def _free_sum_components(parts):
    """Split a free sum into (semicircle | None, uniform | None, shift)."""
    semicircle = None
    uniform = None
    shift = Fraction(0)
    for part in _flatten_free_sum(parts):
        if isinstance(part, Semicircle):
            if semicircle is not None:
                raise ValueError("free sum supports at most one semicircle part")
            semicircle = part
        elif isinstance(part, Uniform):
            if part.lo == part.hi:
                shift += Fraction(part.lo)
                continue
            if uniform is not None:
                raise ValueError("free sum supports at most one uniform part")
            uniform = part
        elif isinstance(part, Dirac):
            shift += Fraction(part.center)
        else:
            raise ValueError(
                "free sum moments cover semicircle, uniform, and point-mass "
                f"parts only, got {type(part).__name__}"
            )
    return semicircle, uniform, shift


def moment(measure: MeasureSpec, order: int) -> Union[Fraction, float]:
    """n-th moment of a measure specification.

    Exact Fraction for the polynomial family (semicircle, uniform, point
    masses, their scalings and free sums); float for exponential images and
    the free log-normal law.
    """
    if order < 0:
        raise ValueError("order must be a natural number")
    if isinstance(measure, Semicircle):
        if order % 2:
            return Fraction(0)
        k = order // 2
        catalan = Fraction(math.comb(2 * k, k), k + 1)
        return catalan * (Fraction(measure.radius) / 2) ** order
    if isinstance(measure, Uniform):
        lo, hi = Fraction(measure.lo), Fraction(measure.hi)
        if lo == hi:
            return lo**order
        return (hi ** (order + 1) - lo ** (order + 1)) / ((order + 1) * (hi - lo))
    if isinstance(measure, Dirac):
        return Fraction(measure.center) ** order
    if isinstance(measure, Scaled):
        return Fraction(measure.factor) ** order * moment(measure.inner, order)
    if isinstance(measure, FreeSum):
        return _free_sum_moment(measure, order)
    if isinstance(measure, ExpImage):
        if order == 0:
            return 1.0
        return mgf(measure.inner, order).real
    if isinstance(measure, FreeLogNormal):
        if order == 0:
            return 1.0
        return free_lognormal_moment(order, float(measure.time))
    raise TypeError(f"unsupported measure {type(measure).__name__}")


def _free_sum_moment(measure: FreeSum, order: int) -> Fraction:
    semicircle, uniform, shift = _free_sum_components(measure.parts)
    if semicircle is None and uniform is None:
        return shift**order
    if semicircle is None:
        lo, hi = Fraction(uniform.lo) + shift, Fraction(uniform.hi) + shift
        return moment(Uniform(lo, hi), order)
    a = (Fraction(semicircle.radius) / 2) ** 2
    if uniform is None:
        return semicircle_uniform_moment(order, a, shift, shift)
    return semicircle_uniform_moment(
        order, a, Fraction(uniform.lo) + shift, Fraction(uniform.hi) + shift
    )


def _semicircle_mgf(radius: float, alpha: complex) -> complex:
    # 0F1(; 2; x) = sum_k x^k / (k! (k+1)!) with x = (radius * alpha / 2)^2
    return _series_1f1(None, 2.0, (radius * alpha / 2.0) ** 2)[0]


def mgf(measure: MeasureSpec, alpha: complex) -> complex:
    """``E[e^(alpha X)]`` for the polynomial measure family.

    Free sums of a semicircle with a uniform law reduce to the closed
    hypergeometric form by rescaling onto the time-coupled pair; exponential
    images and the free log-normal law are out of scope here (their linear
    moments live in :func:`moment`).
    """
    alpha = complex(alpha)
    if isinstance(measure, Dirac):
        return cmath.exp(alpha * complex(measure.center))
    if isinstance(measure, Uniform):
        lo, hi = float(measure.lo), float(measure.hi)
        if lo == hi or alpha == 0:
            return cmath.exp(alpha * lo) if lo == hi else 1 + 0j
        return (cmath.exp(alpha * hi) - cmath.exp(alpha * lo)) / (alpha * (hi - lo))
    if isinstance(measure, Semicircle):
        return _semicircle_mgf(float(measure.radius), alpha)
    if isinstance(measure, Scaled):
        return mgf(measure.inner, alpha * complex(measure.factor))
    if isinstance(measure, FreeSum):
        semicircle, uniform, shift = _free_sum_components(measure.parts)
        shift_factor = cmath.exp(alpha * float(shift))
        if semicircle is None and uniform is None:
            return shift_factor
        if semicircle is None:
            return shift_factor * mgf(uniform, alpha)
        if uniform is None:
            return shift_factor * _semicircle_mgf(float(semicircle.radius), alpha)
        a = (float(semicircle.radius) / 2.0) ** 2
        width = float(uniform.hi) - float(uniform.lo)
        gamma = a / width
        tau = width * width / a
        upper = cmath.exp(alpha * float(uniform.hi))
        return shift_factor * upper * additive_mgf(alpha * gamma, tau)
    raise TypeError(
        f"exponential moments not defined here for {type(measure).__name__}"
    )
