"""Symbolic descriptions of the compactly supported laws the engines accept.

These are inert value objects; moment, transform, and density machinery
dispatch on them elsewhere.  Scalar fields accept int, Fraction, or float;
exact engines keep Fraction inputs exact.  A float field that is nan or
infinite raises ``ValueError``, before any other check.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Union

from .specfun import _raise_not_finite

__all__ = [
    "Semicircle",
    "Uniform",
    "Dirac",
    "Scaled",
    "FreeSum",
    "ExpImage",
    "FreeLogNormal",
    "MeasureSpec",
]

ScalarLike = Union[int, float, Fraction]


def _check_finite(**fields: ScalarLike) -> None:
    # an int or a Fraction is finite, even past the float range
    _raise_not_finite(**{k: v for k, v in fields.items() if not isinstance(v, Rational)})


@dataclass(frozen=True)
class Semicircle:
    """Centered semicircle law with support ``[-radius, radius]``."""

    radius: ScalarLike

    def __post_init__(self) -> None:
        _check_finite(radius=self.radius)
        if self.radius <= 0:
            raise ValueError("radius must be positive")


@dataclass(frozen=True)
class Uniform:
    """Uniform law on ``[lo, hi]``; ``lo == hi`` degenerates to a point mass."""

    lo: ScalarLike
    hi: ScalarLike

    def __post_init__(self) -> None:
        _check_finite(lo=self.lo, hi=self.hi)
        if self.lo > self.hi:
            raise ValueError("need lo <= hi")


@dataclass(frozen=True)
class Dirac:
    """Point mass at ``center``."""

    center: ScalarLike

    def __post_init__(self) -> None:
        _check_finite(center=self.center)


@dataclass(frozen=True)
class Scaled:
    """Pushforward of ``inner`` under ``x -> factor * x``."""

    factor: ScalarLike
    inner: "MeasureSpec"

    def __post_init__(self) -> None:
        _check_finite(factor=self.factor)
        if self.factor == 0:
            raise ValueError("factor must be nonzero")


@dataclass(frozen=True)
class FreeSum:
    """Free additive convolution of ``parts`` (order irrelevant)."""

    parts: tuple["MeasureSpec", ...]

    def __init__(self, *parts: "MeasureSpec") -> None:
        if not parts:
            raise ValueError("free sum needs at least one part")
        object.__setattr__(self, "parts", tuple(parts))


@dataclass(frozen=True)
class ExpImage:
    """Pushforward of ``inner`` under ``x -> exp(x)``."""

    inner: "MeasureSpec"


@dataclass(frozen=True)
class FreeLogNormal:
    """Spectral law at ``time > 0`` of the free positive multiplicative
    Brownian motion; equals the exponential image of
    ``Semicircle(2 sqrt(t)) boxplus Uniform[-t/2, t/2]``."""

    time: ScalarLike

    def __post_init__(self) -> None:
        _check_finite(time=self.time)
        if self.time <= 0:
            raise ValueError("time must be positive")


MeasureSpec = Union[Semicircle, Uniform, Dirac, Scaled, FreeSum, ExpImage, FreeLogNormal]
