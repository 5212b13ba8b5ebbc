"""Moment engines.

Exact moments (as polynomials in the time parameter, or as rationals for
fixed rational parameters) of free additive convolutions of a semicircle, a
uniform law, and point masses; and moments of the free log-normal spectral
law in Laguerre and confluent-hypergeometric form.

Two deliberately independent routes exist for the time-coupled moments: a
closed form in Stirling numbers and a quadratic recursion derived from the
time evolution of the pair.  The recursion route never touches Stirling
numbers, so the two implementations can act as oracles for each other.
Its rows, each fixed by the rows before it, live in a published table that
is grown by rebinding to a longer copy, and only to the order asked for:
the cost of a row rises steeply with its order, so growing geometrically,
as the Stirling table does, would build costly rows no caller asked for.
Every exponential moment ``E[e^(alpha X)]`` of a semicircle-uniform free
sum, fractional moments of the free log-normal law included, is a series
sum that :func:`_confirmed_mgf` returns only once a second route confirms it.

The exact kernels work in integers and build each returned ``Fraction``
once, instead of normalising a ``Fraction`` at every term; they return the
same ``Fraction`` values.  The moment polynomials put integer numerators
over one common denominator; :func:`semicircle_uniform_moment` sums its
closed form by Horner steps in the width-to-``c`` ratio nested inside
Horner steps in ``a``, which take part of the factorial weights as small
factors instead of full-size products.
"""
from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import TYPE_CHECKING, Union

from .exactcomb import _stirling_rows
from .exactcomb import stirling_first  # noqa: F401  (perfbench/tracing.py patches it here)
from .ratpoly import RationalPolynomial
from .specfun import (
    SeriesConvergenceError,
    _as_float,
    _nonpositive_integer,
    _raise_not_finite,
    _series_1f1,
    kummer_1f1,  # noqa: F401  (perfbench/tracing.py patches it here)
    laguerre,
)

if TYPE_CHECKING:
    from .measures import FreeSum, MeasureSpec

__all__ = [
    "moment_polynomial",
    "moment_polynomials_from_recursion",
    "semicircle_uniform_moment",
    "free_lognormal_moment",
    "free_lognormal_moment_alpha",
    "additive_mgf",
    "moment",
    "mgf",
]

ExactScalar = Union[int, Fraction]

# Largest relative gap |value - other| / (1 + |value|) accepted between two
# routes in _confirmed_mgf, read at call time; also the trust bound on a sum
_CROSS_CHECK_TOLERANCE = 1e-10


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


# A row of the recursion: m_n and (first, numerators[first:]), its integer
# numerators from the first nonzero one on, which the later rows read.
_RecursionRow = tuple[RationalPolynomial, int, tuple[int, ...]]


def _extended_recursion(table: list[_RecursionRow], n_max: int) -> list[_RecursionRow]:
    # a longer copy, rows len(table) .. n_max of the quadratic recursion
    table = table.copy()
    for n in range(len(table), n_max + 1):
        # acc[k-1] / common = [t^(k-1)] sum_{a+b=n-2} m_a m_b, pairs a <= b
        pairs = [(table[a], table[n - 2 - a]) for a in range(n // 2)]
        common = math.lcm(*(left[0]._denominator * right[0]._denominator for left, right in pairs))
        acc = [0] * (n - 1)
        for a, (left_row, right_row) in enumerate(pairs):
            left, left_first, left_tail = left_row
            right, right_first, right_tail = right_row
            scale = common // (left._denominator * right._denominator) * (1 if 2 * a == n - 2 else 2)
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
        table.append((polynomial, first, numerators[first:]))
    return table


# Rows 0 .. len - 1 of the recursion.  Growing rebinds the name to a longer
# copy and never mutates a published list, so concurrent readers stay safe.
_recursion_rows: list[_RecursionRow] = []


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

    Each row depends only on the rows before it, so the rows are kept in a
    module-level table, built by the recursion alone and published by
    rebinding to a longer copy; it is never seeded from the closed form.  A
    call past its end grows it to exactly ``n_max``, not geometrically as
    the Stirling table grows for its scattered single lookups: rows
    ``0 .. n`` cost ``O(n^4)`` integer products, so doubling would build,
    at up to 16 times the cost of the call, rows nobody asked for.  The
    returned list is the caller's own; the polynomials are immutable.
    """
    global _recursion_rows
    if n_max < 0:
        raise ValueError("order must be a natural number")
    table = _recursion_rows
    if n_max >= len(table):
        table = _recursion_rows = _extended_recursion(table, n_max)
    return [polynomial for polynomial, _, _ in table[: n_max + 1]]


def semicircle_uniform_moment(
    n: int, a: ExactScalar, b: ExactScalar, c: ExactScalar
) -> Fraction:
    """Exact n-th moment of ``Semicircle(2 sqrt(a)) boxplus Uniform[b, c]``.

    ``a > 0``, ``b <= c`` (``b == c`` collapses the uniform to a point mass).
    The closed form is an outer binomial shift by ``c`` of the inner Stirling
    sum in the interval width ``w = c - b``; ``0^0 = 1`` conventions apply
    throughout.  Grouped by the power ``i`` of ``a``, with ``k = 2i + l`` and
    ``j = i + l``, it reads

        sum_i a^i sum_l F_k s(1+j, 1+i) W_j w^l c^(n-k) / (n! (n+1)!),

    ``F_k = n!/(n-k)!`` and ``W_j = n! (n+1)! / (j! (1+j)!)``, ``l`` running
    from 0 to ``n - 2i``.  Write each argument as ``p/q``.  Times
    ``(q_w q_c)^(n-2i)``, the sum over ``l`` is a homogeneous integer
    polynomial in ``X = p_w q_c`` and ``Y = p_c q_w``; it is summed by Horner
    steps in ``X`` from ``l = n - 2i`` down, each step also taking the factor
    ``n - k`` of ``F_k / F_2i`` and each term a power of ``Y`` from one table.
    These sums are folded by Horner steps in ``Z = p_a (q_w q_c)^2`` from
    ``i = floor(n/2)`` down, each step taking the factor ``(n-2i)(n-2i-1)``
    of ``F_2i``.  The result is one integer over the denominator
    ``n! (n+1)! q_a^floor(n/2) (q_w q_c)^n``, reduced once.
    """
    if n < 0:
        raise ValueError("order must be a natural number")
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    if a <= 0:
        raise ValueError("semicircle variance parameter must be positive")
    if b > c:
        raise ValueError("need b <= c")
    width = c - b
    rows = _stirling_rows(1 + n)
    weight = _factorial_weights(n)
    q_a, q_w, q_c = a.denominator, width.denominator, c.denominator
    x, y = width.numerator * q_c, c.numerator * q_w
    z = a.numerator * (q_w * q_c) ** 2
    x_steps = [x * e for e in range(n + 1)]  # X (n-k) with e = n - k
    y_pow = [1]
    for _ in range(n):
        y_pow.append(y_pow[-1] * y)
    total = 0
    q_pow = 1  # q_a^(floor(n/2) - i)
    for i in range(n // 2, -1, -1):
        m = n - 2 * i
        # l from m down: e = m - l = n - k from 0 up, j = n - i - e from n - i down
        inner = 0
        for x_step, row, w_j, y_e in zip(
            x_steps[: m + 1], rows[n - i + 1 : i : -1], reversed(weight[i : n - i + 1]), y_pow
        ):
            inner = inner * x_step + row[1 + i] * w_j * y_e
        total = total * z * m * (m - 1) + inner * q_pow
        q_pow *= q_a
    return Fraction(total, weight[0] * q_a ** (n // 2) * (q_w * q_c) ** n)


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


def _checked_order(alpha: complex, t: float) -> complex:
    """``alpha`` as a complex; ``ValueError`` for nan, infinity or ``t <= 0``."""
    if not (cmath.isfinite(alpha) and math.isfinite(t)):
        _raise_not_finite(alpha=alpha, t=t)
    if t <= 0:
        raise ValueError("time must be positive")
    return complex(alpha)


def _mgf_routes(alpha: complex, c: float, lo: float, hi: float) -> list:
    """``(a, x, s)``, for ``e^s 1F1(a; 2; x)``, of the direct sum of ``E[e^(alpha X)]``,
    ``e^(alpha hi) 1F1(1 - alpha g; 2; -alpha w)``, and of its Kummer reflection
    ``e^(alpha lo) 1F1(1 + alpha g; 2; alpha w)``, where ``w = hi - lo``, ``g = c / w``."""
    width = hi - lo
    # g first: it is exactly 1 on the time-coupled pairs, so integer orders keep integer a
    scaled = alpha * (c / width)
    return [(1 - scaled, -alpha * width, alpha * hi), (1 + scaled, alpha * width, alpha * lo)]


def _summed(a: complex, x: complex, s: complex):
    """``(value, loss)`` of ``e^s 1F1(a; 2; x)``, or the refusal it raised."""
    try:
        return _series_1f1(a, 2.0, x, s)
    except SeriesConvergenceError as refusal:
        return refusal


def _contour(alpha: complex, c: float, lo: float, hi: float) -> complex:
    """:func:`freeconv._contour_mgf`, imported only when it runs: it loads numpy."""
    from .freeconv import _contour_mgf

    return _contour_mgf(alpha, c, lo, hi)


def _mgf_sums(alpha: complex, c: float, lo: float, hi: float) -> tuple[complex, complex]:
    """The direct and the Kummer-reflected sums of ``E[e^(alpha X)]`` (see
    :func:`_mgf_routes`); the contour integral stands in for one that
    refuses, and when both refuse the direct sum's refusal is raised."""
    sums = [_summed(*route) for route in _mgf_routes(alpha, c, lo, hi)]
    if all(isinstance(s, SeriesConvergenceError) for s in sums):
        raise sums[0]
    return tuple(
        _contour(alpha, c, lo, hi) if isinstance(s, SeriesConvergenceError) else s[0]
        for s in sums
    )


def _confirmed_mgf(alpha: complex, c: float, lo: float, hi: float) -> complex:
    """``E[e^(alpha X)]``, ``X ~ Semicircle(2 sqrt c) boxplus Uniform[lo, hi]``
    (``lo < hi``), as a sum of :func:`_mgf_routes` that a second route
    confirms to ``1e-10`` relative to ``1 + |value|``: the other sum, when
    both lost at most ``1e-10 * 2**53`` to cancellation (largest term over
    value), else the contour integral ``freeconv._contour_mgf``, which is
    never returned itself.  A terminating sum is summed first and confirms
    itself under the same loss bound: its terms are all positive, since
    ``alpha g`` is then a real integer and the sum's argument negative.
    Otherwise the reflected sum is preferred when ``Re(alpha) w > 1``, as in
    :func:`kummer_1f1`.  Else it raises :class:`SeriesConvergenceError`."""
    routes = _mgf_routes(alpha, c, lo, hi)
    if alpha.real * (hi - lo) > 1.0:
        routes.reverse()
    if _nonpositive_integer(routes[1][0]) is not None:
        routes.reverse()  # a terminating sum first; at most one of them terminates
    tolerance = _CROSS_CHECK_TOLERANCE
    trust = tolerance * 2.0**53  # a sum's rounding error is about its loss times 2**-53
    sums = [_summed(*routes[0])]
    terminates = _nonpositive_integer(routes[0][0]) is not None
    if terminates and not isinstance(sums[0], SeriesConvergenceError) and sums[0][1] <= trust:
        return sums[0][0]
    sums.append(_summed(*routes[1]))
    candidates = [s for s in sums if not isinstance(s, SeriesConvergenceError)]
    if not candidates:
        raise sums[0]
    if len(candidates) == 2:
        (value, loss), (other, other_loss) = candidates
        if max(loss, other_loss) <= trust and abs(value - other) <= tolerance * (1 + abs(value)):
            return value
    contour = _contour(alpha, c, lo, hi)
    for value, _ in candidates:
        if abs(value - contour) <= tolerance * (1 + abs(value)):
            return value
    raise SeriesConvergenceError(
        f"routes to E[e^(alpha X)] disagree at alpha={alpha}, c={c}, lo={lo}, hi={hi}: "
        f"{[value for value, _ in candidates]} vs the contour integral {contour}"
    )


def free_lognormal_moment_alpha(alpha: complex, t: float) -> complex:
    """Fractional moment ``e^(alpha t / 2) 1F1(1 - alpha; 2; -alpha t)``.

    It is ``E[e^(alpha X)]``, ``X ~ Semicircle(2 sqrt(t)) boxplus Uniform[-t/2, t/2]``,
    returned only once a different route (the other Kummer sum or a contour
    integral) confirms it to ``1e-10`` relative to ``1 + |value|``, or as a
    terminating sum of positive terms; else it raises
    :class:`SeriesConvergenceError`.  A moment in range is returned even when
    the terms or ``e^(+-alpha t/2)`` pass the float range.  Order
    ``alpha = 0`` gives 1.  Arguments that are nan or infinite raise ``ValueError``.
    """
    return _confirmed_mgf(_checked_order(alpha, t), t, -t / 2.0, t / 2.0)


def additive_mgf(alpha: complex, t: float) -> complex:
    """``E[e^(alpha X)]`` for ``X ~ Semicircle(2 sqrt(t)) boxplus Uniform[-t, 0]``.

    Closed form ``1F1(1 - alpha; 2; -alpha t)``, ``e^(-alpha t/2)`` times
    :func:`free_lognormal_moment_alpha` and returned under its confirmation
    rule.  Arguments that are nan or infinite raise ``ValueError``.
    """
    return _confirmed_mgf(_checked_order(alpha, t), t, -t, 0.0)


# ---------------------------------------------------------------------------
# dispatch over measure specifications; the classes load on first use, so
# importing this module does not load dataclasses


def _free_sum_components(parts):
    """Split a free sum, nested sums flattened, into
    (semicircle | None, uniform | None, shift)."""
    from .measures import Dirac, FreeSum, Semicircle, Uniform

    semicircle = None
    uniform = None
    shift = Fraction(0)
    pending = list(reversed(parts))  # depth first, left to right
    while pending:
        part = pending.pop()
        if isinstance(part, FreeSum):
            pending.extend(reversed(part.parts))
        elif isinstance(part, Semicircle):
            if semicircle is not None:
                raise ValueError("free sum supports at most one semicircle part")
            semicircle = part
        elif isinstance(part, Uniform) and part.lo == part.hi:
            shift += Fraction(part.lo)
        elif isinstance(part, Uniform):
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
    from .measures import Dirac, ExpImage, FreeLogNormal, FreeSum, Scaled, Semicircle, Uniform

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
        return free_lognormal_moment(order, _as_float("time", measure.time))
    raise TypeError(f"unsupported measure {type(measure).__name__}")


def _free_sum_moment(measure: FreeSum, order: int) -> Fraction:
    from .measures import Uniform

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

    Free sums of a semicircle with a uniform law follow the confirmation
    rule of :func:`free_lognormal_moment_alpha`; exponential images and the
    free log-normal law are out of scope here (their linear moments live in
    :func:`moment`).  An ``alpha`` that is nan or infinite raises
    ``ValueError``, and so does a law parameter past the float range.
    """
    from .measures import Dirac, FreeSum, Scaled, Semicircle, Uniform

    alpha = complex(alpha)
    if not cmath.isfinite(alpha):
        _raise_not_finite(alpha=alpha)
    if isinstance(measure, Dirac):
        return cmath.exp(alpha * complex(_as_float("center", measure.center)))
    if isinstance(measure, Uniform):
        lo, hi = _as_float("lo", measure.lo), _as_float("hi", measure.hi)
        if lo == hi or alpha == 0:
            return cmath.exp(alpha * lo) if lo == hi else 1 + 0j
        return (cmath.exp(alpha * hi) - cmath.exp(alpha * lo)) / (alpha * (hi - lo))
    if isinstance(measure, Semicircle):
        return _semicircle_mgf(_as_float("radius", measure.radius), alpha)
    if isinstance(measure, Scaled):
        return mgf(measure.inner, alpha * complex(_as_float("factor", measure.factor)))
    if isinstance(measure, FreeSum):
        semicircle, uniform, shift = _free_sum_components(measure.parts)
        if semicircle is not None and uniform is not None:
            lo = _as_float("lo", Fraction(uniform.lo) + shift)
            hi = _as_float("hi", Fraction(uniform.hi) + shift)
            radius = _as_float("radius", semicircle.radius)
            return _confirmed_mgf(alpha, (radius / 2.0) ** 2, lo, hi)
        shift_factor = cmath.exp(alpha * _as_float("center", shift))
        if semicircle is None and uniform is None:
            return shift_factor
        if semicircle is None:
            return shift_factor * mgf(uniform, alpha)
        return shift_factor * _semicircle_mgf(_as_float("radius", semicircle.radius), alpha)
    raise TypeError(
        f"exponential moments not defined here for {type(measure).__name__}"
    )
