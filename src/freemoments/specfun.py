"""Confluent hypergeometric series, Laguerre polynomials, and their oracles.

One term-ratio kernel sums every ``1F1`` and ``0F1`` series in the package;
it refuses a sum it cannot trust instead of returning it.  The Laguerre
recurrence and the Euler-type integral exist as independent routes, so that
tests can confront the series with other arithmetic and with quadrature
instead of with itself.
"""
from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import Union

__all__ = [
    "SeriesConvergenceError",
    "laguerre",
    "kummer_1f1",
    "euler_integral_1f1",
]

Scalar = Union[int, float, complex, Fraction]


class SeriesConvergenceError(ArithmeticError):
    """A series or quadrature failed to reach its requested tolerance."""


def laguerre(n: int, alpha: float, x: float) -> float:
    """Generalized Laguerre polynomial ``L_n^(alpha)(x)`` by its three-term recurrence.

    ``(k+1) L_{k+1} = (2k + 1 + alpha - x) L_k - (k + alpha) L_{k-1}`` from
    ``L_{-1} = 0`` and ``L_0 = 1``.  It shares nothing with the hypergeometric
    term recursion, so it serves as a cross-check for that route.  At
    ``x < 0`` the polynomials grow with the degree and the forward recurrence
    is stable; a value beyond the float range raises ``OverflowError``, and
    an ``alpha`` or ``x`` that is nan or infinite raises ``ValueError``.
    """
    if n < 0:
        raise ValueError("degree must be a natural number")
    if not (math.isfinite(alpha) and math.isfinite(x)):
        _raise_not_finite(alpha=alpha, x=x)
    previous, current = 0.0, 1.0
    for k in range(n):
        previous, current = current, (
            (2 * k + 1 + alpha - x) * current - (k + alpha) * previous
        ) / (k + 1)
    if not math.isfinite(current):
        raise OverflowError(f"L_{n}^({alpha})({x}) exceeds the float range")
    return current


def _nonpositive_integer(value: complex) -> Union[int, None]:
    """Return ``N >= 0`` with ``value == -N`` if value is a nonpositive integer."""
    if value.imag != 0.0:
        return None
    r = value.real
    if r > 0 or not float(r).is_integer():
        return None
    return -int(r)


def _terminates(a: complex, b: complex) -> bool:
    """Whether ``1F1(a; b; x)`` is a polynomial; raises at a pole in ``b``."""
    pole_a = _nonpositive_integer(a)
    pole_b = _nonpositive_integer(b)
    if pole_b is not None and (pole_a is None or pole_a > pole_b):
        raise ValueError(f"1F1 pole: b = {b} is a nonpositive integer")
    return pole_a is not None


def _raise_not_finite(**arguments: Scalar) -> None:
    """Raise ``ValueError`` naming the first argument that is nan or infinite,
    or an int or ``Fraction`` past the float range.

    The series routines test finiteness inline and call this only when that
    test fails, so a call with finite arguments pays for the test alone.
    """
    for name, value in arguments.items():
        try:
            finite = cmath.isfinite(value)
        except OverflowError:
            raise _past_float_range(name) from None
        if not finite:
            raise ValueError(f"{name} must be finite, got {value}")


def _past_float_range(name: str) -> ValueError:
    # the value itself is not quoted: it may have thousands of digits
    return ValueError(f"{name} must be finite, got a number past the float range")


def _as_float(name: str, value: Scalar) -> float:
    """``float(value)``, or ``ValueError`` naming ``name`` for an int or
    ``Fraction`` past the float range."""
    try:
        return float(value)
    except OverflowError:
        raise _past_float_range(name) from None


# Truncation contract of the series kernel, read at call time.  A term is
# "small" when |term| <= _RELATIVE_TOLERANCE * |partial sum|; summation stops
# after two consecutive small terms (a single small term can be an
# alternating-series accident) and raises past _MAX_TERMS terms.
_RELATIVE_TOLERANCE = 1e-15
_MAX_TERMS = 10_000
_CANCELLATION_LIMIT = 2.0**26  # largest term / |sum| past which half the digits are lost
# A partial sum that passes _RESCALE is scaled by 1/_RESCALE, with the sum's
# binary exponent carried apart, so that terms past the float range are summed
_RESCALE_BITS = 512
_RESCALE = 2.0**_RESCALE_BITS
# e^s is a normal float for |Re s| < _EXP_NORMAL; past it, e^s is applied
# as 2**m e^r with ln 2 split in two (Cody and Waite): m * _LN2_HI is exact
# for |m| < 2**21
_EXP_NORMAL = 708.0
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10


def _series_1f1(
    a: Union[complex, None], b: complex, x: complex, s: complex = 0
) -> tuple[complex, float]:
    """The package's one series loop: ``e^s 1F1(a; b; x)``, or ``e^s 0F1(; b; x)`` for ``a=None``.

    Returns the value and the sum's largest term over its modulus, the factor
    by which cancellation magnifies the rounding error (1 or less when
    nothing cancels).  Each term is the last times ``(a+j) x / ((b+j)(j+1))``.
    A terminating series (``a = -N``) ends after its ``N``-th term, before any
    pole in ``b``; one of ``_MAX_TERMS`` terms or more is refused as one that
    does not settle.

    Whenever the partial sum passes ``2**512`` on a term that is not small,
    ``term``, ``total`` and ``largest`` are scaled by ``2**-512`` and 512 is
    added to the sum's binary exponent.  Scaling by a power of two is exact,
    so every ratio the loop tests is the one it would test in unbounded
    range, and a sum whose terms pass the float range is summed in the same
    pass.  :func:`_times_exp` applies ``e^s`` and the exponent, and a value
    past the float range raises :class:`SeriesConvergenceError`.

    A sum whose largest term exceeds ``2**26`` times its value (more than
    half of the double-precision digits lost to cancellation), or that
    overflows within one term, raises :class:`SeriesConvergenceError`.  A
    terminating sum that fails the first test, whether it settled before its
    last term or reached it, is summed again exactly instead, when ``b`` and
    ``x`` are real and its terms stay in the float range
    (:func:`_exact_polynomial_1f1`), and reported with factor 1.

    The operands are typed once: when ``a``, ``b`` and ``x`` all have zero
    imaginary parts the loop runs on floats.  That returns the same values
    bit for bit, since a complex product, quotient or modulus with zero
    imaginary parts rounds like the real one and the imaginary part of the
    sum stays ``+0.0``.
    """
    end = None if a is None else _nonpositive_integer(a)
    if end is not None and end >= _MAX_TERMS:
        end = None
    if (a is None or a.imag == 0) and b.imag == 0 and x.imag == 0:
        p, q, z = (None if a is None else a.real), b.real, x.real
        term = total = 1.0
        resum_exactly = end is not None
    else:
        p, q, z = a, b, x
        term = total = 1 + 0j
        resum_exactly = False
    largest = 1.0
    exponent = 0
    previous_small = False
    for j in range(_MAX_TERMS if end is None else end):
        if p is None:
            term = term * z / ((q + j) * (j + 1))
        else:
            term = term * ((p + j) * z) / ((q + j) * (j + 1))
        total += term
        size = abs(term)
        if size > largest:
            largest = size
        magnitude = abs(total)
        if size > _RELATIVE_TOLERANCE * magnitude:
            previous_small = False
            if magnitude > _RESCALE:
                term, total, largest = term / _RESCALE, total / _RESCALE, largest / _RESCALE
                exponent += _RESCALE_BITS
        elif not cmath.isfinite(total):
            # an overflowed term makes the sum inf or nan, which no
            # comparison above can pass, so every overflow lands here
            raise SeriesConvergenceError(
                f"series overflowed the float range (a={a}, b={b}, x={x})"
            )
        elif previous_small:
            break
        else:
            previous_small = True
    else:
        if end is None:
            raise SeriesConvergenceError(
                f"hypergeometric series did not settle within {_MAX_TERMS} terms "
                f"(a={a}, b={b}, x={x})"
            )
        # it reached its last term; _exact_polynomial_1f1 refuses complex operands
        resum_exactly = True
    if largest > _CANCELLATION_LIMIT * abs(total):
        # re-summed exactly only while its terms stay in the float range:
        # past it, an exact sum of a few thousand terms takes a minute
        if not (resum_exactly and exponent <= _RESCALE_BITS and largest * 2.0**exponent < math.inf):
            raise SeriesConvergenceError(
                f"series lost over half its digits to cancellation (a={a}, b={b}, x={x})"
            )
        value, loss, exponent = _exact_polynomial_1f1(end, b, x), 1.0, 0
    else:
        value, loss = complex(total), largest / abs(total)
    try:
        return _times_exp(value, exponent, s), loss
    except OverflowError:
        raise SeriesConvergenceError(
            f"e^({s}) 1F1(a={a}, b={b}, x={x}) exceeds the float range"
        ) from None


def _times_exp(value: complex, exponent: int, s: complex) -> complex:
    """``2**exponent e^s value``: the plain product where that is safe, else
    ``2**(m + exponent) e^r value`` with ``s = m ln 2 + r``.  Raises
    ``OverflowError`` past the float range."""
    if exponent == 0:
        if not s:
            return value
        if abs(s.real) < _EXP_NORMAL:
            product = cmath.exp(s) * value
            if cmath.isfinite(product):
                return product
    if s:
        m = round(s.real / math.log(2))
        r = s.real - m * _LN2_HI - m * _LN2_LO
        value = cmath.exp(complex(r, s.imag)) * value
        exponent += m
    return complex(math.ldexp(value.real, exponent), math.ldexp(value.imag, exponent))


def _exact_polynomial_1f1(n: int, b: complex, x: complex) -> complex:
    """``1F1(-n; b; x)`` re-summed in ``Fraction`` and rounded once.

    For a terminating sum the float kernel cancelled: every float is a
    rational, so for real ``b`` and ``x`` the exact sum exists, exact zeros
    included.  Complex inputs raise :class:`SeriesConvergenceError`.
    """
    b, x = complex(b), complex(x)
    if b.imag or x.imag:
        raise SeriesConvergenceError(
            f"series lost over half its digits to cancellation (a={-n}, b={b}, x={x})"
        )
    b_q, x_q = Fraction(b.real), Fraction(x.real)
    term = total = Fraction(1)
    for j in range(n):
        term = term * (j - n) * x_q / ((b_q + j) * (j + 1))
        total += term
    return complex(float(total))


def kummer_1f1(a: Scalar, b: Scalar, x: Scalar) -> complex:
    """Confluent hypergeometric function ``sum_j (a)_j / (b)_j x^j / j!``.

    Rising-factorial convention via the term recursion
    ``term_{j+1} = term_j (a+j) x / ((b+j)(j+1))``.  Nonpositive-integer ``a``
    gives a polynomial, summed directly (exactly, then rounded once, where
    the float sum cancels and ``b``, ``x`` are real).  Otherwise, for
    ``Re x < -1``, the reflection ``e^x 1F1(b-a; b; -x)`` usually cancels
    less than the direct series: it is returned when nothing in it cancels,
    and else the direct series is summed too and the sum whose largest term
    is the smaller multiple of its value wins (the reflected one on a tie,
    the other one when either refuses, and the direct one's refusal when
    both do).  A sum whose terms pass the float range is summed with a
    carried binary exponent, so ``1F1(1; 2; -5000)`` returns; a value past
    the float range raises :class:`SeriesConvergenceError`.
    Nonpositive-integer ``b`` is a pole unless the numerator terminates first.
    Arguments that are nan or infinite raise ``ValueError``.
    """
    a, b, x = complex(a), complex(b), complex(x)
    if not (cmath.isfinite(a) and cmath.isfinite(b) and cmath.isfinite(x)):
        _raise_not_finite(a=a, b=b, x=x)
    if _terminates(a, b) or x.real >= -1.0:
        return _series_1f1(a, b, x)[0]
    try:
        reflected, reflected_loss = _series_1f1(b - a, b, -x, x)
    except SeriesConvergenceError:
        return _series_1f1(a, b, x)[0]
    if reflected_loss > 1.0:
        try:
            direct, direct_loss = _series_1f1(a, b, x)
        except SeriesConvergenceError:
            direct_loss = math.inf
        if direct_loss < reflected_loss:
            return direct
    return reflected


def _gamma_positive(v: float) -> float:
    if v <= 0:
        raise ValueError("gamma helper requires a positive argument")
    if float(v).is_integer():
        return float(math.factorial(int(v) - 1))
    return math.gamma(v)


# the accuracy quad aims at in euler_integral_1f1, well inside the 1e-9 it accepts
_QUAD_TOLERANCE = 1e-12


def euler_integral_1f1(a: float, b: float, x: float) -> float:
    """``1F1(a; b; x)`` through the beta-weighted exponential integral.

    ``Gamma(b) / (Gamma(a) Gamma(b-a)) * int_0^1 u^(a-1) (1-u)^(b-a-1) e^(ux) du``
    for ``b > a > 0``; adaptive quadrature, independent of the series route.
    A value whose quadrature error estimate exceeds ``1e-9`` times
    ``max(1, |value|)`` raises :class:`SeriesConvergenceError`.
    """
    if not (a > 0 and b > a):
        raise ValueError("integral representation requires b > a > 0")
    from scipy import integrate  # imported here: nothing else needs scipy.integrate

    prefactor = _gamma_positive(b) / (_gamma_positive(a) * _gamma_positive(b - a))

    def integrand(u: float) -> float:
        return u ** (a - 1.0) * (1.0 - u) ** (b - a - 1.0) * math.exp(u * x)

    value, abserr = integrate.quad(
        integrand, 0.0, 1.0, epsabs=_QUAD_TOLERANCE, epsrel=_QUAD_TOLERANCE, limit=200
    )
    if abserr > 1e-9 * max(1.0, abs(value)):
        raise SeriesConvergenceError(
            f"quadrature error estimate {abserr:.3e} too large (a={a}, b={b}, x={x})"
        )
    return prefactor * value

