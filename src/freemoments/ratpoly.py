"""Dense univariate polynomials with exact rational coefficients.

A polynomial is stored as integer numerators over one positive common
denominator, reduced so that no integer greater than 1 divides them all.
Ring operations and exact evaluation run in integer arithmetic and build at
most one ``Fraction``; the reduced ``Fraction`` coefficients are built only
when asked for.
"""
from __future__ import annotations

import math
import numbers
import sys
from fractions import Fraction
from typing import Iterable, Sequence, Union

__all__ = ["RationalPolynomial"]

Coefficient = Union[int, Fraction]


class RationalPolynomial:
    """Polynomial ``sum_k c_k t^k`` with rational ``c_k``, trailing zeros trimmed.

    Held as numerators ``n_k`` over one denominator ``D > 0`` with
    ``c_k = n_k / D`` and ``gcd(D, n_0, ..., n_d) = 1``, so equal polynomials
    have equal representations.  Immutable; the zero polynomial has degree
    ``-inf``.
    """

    __slots__ = ("_numerators", "_denominator")

    def __init__(self, coefficients: Iterable[Coefficient] = ()) -> None:
        values = [Fraction(c) for c in coefficients]
        denominator = math.lcm(*(c.denominator for c in values))
        self._reduce([c.numerator * (denominator // c.denominator) for c in values], denominator)

    @classmethod
    def _from_integers(cls, numerators: Sequence[int], denominator: int) -> "RationalPolynomial":
        """``sum_k numerators[k] t^k / denominator`` for a positive denominator."""
        poly = cls.__new__(cls)
        poly._reduce(numerators, denominator)
        return poly

    def _reduce(self, numerators: Sequence[int], denominator: int) -> None:
        numerators = list(numerators)
        while numerators and not numerators[-1]:
            numerators.pop()
        common = math.gcd(denominator, *numerators)
        if common != 1:
            numerators = [c // common for c in numerators]
            denominator //= common
        self._numerators: tuple[int, ...] = tuple(numerators)
        self._denominator: int = denominator

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self._denominator) for c in self._numerators)

    @property
    def degree(self) -> Union[int, float]:
        return len(self._numerators) - 1 if self._numerators else -math.inf

    def coefficient(self, k: int) -> Fraction:
        """Coefficient of ``t^k`` (zero past the degree)."""
        if k < 0:
            raise ValueError("exponent must be a natural number")
        if k < len(self._numerators):
            return Fraction(self._numerators[k], self._denominator)
        return Fraction(0)

    def leading_coefficient(self) -> Fraction:
        return self.coefficient(len(self._numerators) - 1) if self._numerators else Fraction(0)

    def __call__(self, t):
        """Value at ``t``: a ``Fraction`` for rational ``t`` (``int``,
        ``Fraction``, numpy integers), otherwise Horner's rule on the float
        coefficients, a ``float`` for real ``t`` and a ``complex`` for complex
        ``t``.  A real or integer array gives a float64 array and a complex
        one a complex128 array, each entry the scalar value bit for bit."""
        numerators, denominator = self._numerators, self._denominator
        if isinstance(t, numbers.Rational):
            # sum_k n_k p^k q^(d-k) over D q^d, Horner in p with q^(d-k) alongside
            p, q = int(t.numerator), int(t.denominator)
            acc, scale = 0, 1
            for c in reversed(numerators):
                acc = acc * p + c * scale
                scale *= q
            return Fraction(acc * q, denominator * scale)  # scale = q^(d+1)
        if isinstance(t, numbers.Real):
            t = float(t)
        elif isinstance(t, numbers.Complex):
            t = complex(t)
        else:
            # an array exists only once numpy is loaded, so never import it here
            np = sys.modules.get("numpy")
            if np is not None and isinstance(t, np.ndarray):
                # entry by entry: numpy's complex product can round differently from Python's
                t = t.astype(np.promote_types(t.dtype, np.float64), copy=False)
                return np.array([self(x) for x in t.ravel().tolist()], dtype=t.dtype).reshape(t.shape)
        # integer true division rounds correctly, so n_k / D is float(c_k)
        acc = t - t  # additive zero in t's arithmetic
        for c in reversed(numerators):
            acc = acc * t + c / denominator
        return acc

    def __add__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        denominator = math.lcm(self._denominator, other._denominator)
        a = [c * (denominator // self._denominator) for c in self._numerators]
        b = [c * (denominator // other._denominator) for c in other._numerators]
        if len(a) < len(b):
            a, b = b, a
        for k, c in enumerate(b):
            a[k] += c
        return RationalPolynomial._from_integers(a, denominator)

    def __neg__(self) -> "RationalPolynomial":
        return RationalPolynomial._from_integers([-c for c in self._numerators], self._denominator)

    def __sub__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, RationalPolynomial):
            a, b = self._numerators, other._numerators
            out = [0] * max(len(a) + len(b) - 1, 0)
            for i, x in enumerate(a):
                if x:
                    for k, y in enumerate(b, i):
                        out[k] += x * y
            return RationalPolynomial._from_integers(out, self._denominator * other._denominator)
        if isinstance(other, (int, Fraction)):
            return RationalPolynomial._from_integers(
                [c * other.numerator for c in self._numerators],
                self._denominator * other.denominator,
            )
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, RationalPolynomial):
            return (
                self._numerators == other._numerators
                and self._denominator == other._denominator
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._numerators, self._denominator))

    def __bool__(self) -> bool:
        return bool(self._numerators)

    def __str__(self) -> str:
        if not self._numerators:
            return "0"
        parts: list[str] = []
        for k, c in enumerate(self.coefficients):
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                var = "t" if k == 1 else f"t^{k}"
                body = var if mag == 1 else f"{mag} {var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"RationalPolynomial({self})"
