from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from freemoments.ratpoly import RationalPolynomial

coefficient_lists = st.lists(
    st.fractions(min_value=-10, max_value=10), min_size=0, max_size=6
)
wide_coefficient_lists = st.lists(
    st.one_of(st.integers(-(10**30), 10**30), st.fractions(max_denominator=10**30)),
    min_size=0,
    max_size=8,
)
rational_points = st.one_of(
    st.fractions(max_denominator=10**6),
    st.integers(-(10**6), 10**6),
    st.integers(-(10**6), 10**6).map(np.int64),
)
real_points = st.floats(width=64)
complex_points = st.builds(complex, real_points, real_points)


def fraction_horner(coefficients, t) -> Fraction:
    """Horner's rule with one ``Fraction`` product per coefficient."""
    acc = Fraction(0)
    for c in reversed(coefficients):
        acc = acc * t + Fraction(c)
    return acc


def float_horner(coefficients, t):
    """Horner's rule on the correctly rounded ``float(c)`` of each coefficient."""
    acc = t - t
    for c in reversed(coefficients):
        acc = acc * t + float(c)
    return acc


def test_trailing_zeros_trimmed():
    assert RationalPolynomial([1, 0, 0]) == RationalPolynomial([1])
    assert RationalPolynomial([0, 0]).degree == -math.inf


def test_degree_and_coefficients():
    p = RationalPolynomial([0, Fraction(-1, 2)])
    assert p.degree == 1
    assert p.coefficient(1) == Fraction(-1, 2)
    assert p.coefficient(7) == 0
    assert p.leading_coefficient() == Fraction(-1, 2)


def test_str_rendering():
    assert str(RationalPolynomial([1])) == "1"
    assert str(RationalPolynomial([])) == "0"
    assert str(RationalPolynomial([0, Fraction(-1, 2)])) == "-1/2 t"
    assert str(RationalPolynomial([0, 1, Fraction(1, 3)])) == "t + 1/3 t^2"
    assert (
        str(RationalPolynomial([0, 0, Fraction(-3, 2), Fraction(-1, 4)]))
        == "-3/2 t^2 - 1/4 t^3"
    )


def test_call_preserves_exactness():
    p = RationalPolynomial([1, 0, Fraction(1, 3)])
    value = p(Fraction(1, 2))
    assert value == Fraction(13, 12)
    assert isinstance(value, Fraction)


def test_call_on_floats_and_complex():
    p = RationalPolynomial([1, 2])
    assert p(0.5) == pytest.approx(2.0)
    assert p(1j) == 1 + 2j


def test_call_on_arrays():
    p = RationalPolynomial([0, 1, Fraction(1, 3)])
    xs = np.array([0.0, 1.0, 3.0])
    out = p(xs)
    assert out.dtype == np.float64
    assert np.allclose(out, [0.0, 4.0 / 3.0, 6.0])
    zs = np.array([0.5 - 0.0j, complex(-2.0, -0.0), 1j])
    out = p(zs)
    assert out.dtype == np.complex128
    assert [repr(complex(v)) for v in out] == [repr(p(complex(z))) for z in zs]
    assert p(np.array([1, 2])).dtype == np.float64


@given(wide_coefficient_lists, rational_points)
def test_exact_evaluation_matches_fraction_horner(coefficients, t):
    value = RationalPolynomial(coefficients)(t)
    expected = fraction_horner(coefficients, t)
    assert type(value) is Fraction
    assert (value.numerator, value.denominator) == (expected.numerator, expected.denominator)


@given(wide_coefficient_lists, st.one_of(real_points, complex_points))
def test_float_evaluation_matches_float_horner(coefficients, t):
    p = RationalPolynomial(coefficients)
    assert repr(p(t)) == repr(float_horner(coefficients, t))


@given(
    wide_coefficient_lists,
    st.one_of(
        st.lists(real_points, min_size=1, max_size=4),
        st.lists(complex_points, min_size=1, max_size=4),
    ),
)
def test_array_evaluation_matches_scalar_evaluation(coefficients, points):
    p = RationalPolynomial(coefficients)
    xs = np.array(points)
    out = p(xs)
    assert out.dtype == (np.complex128 if isinstance(points[0], complex) else np.float64)
    assert [repr(v.item()) for v in out] == [repr(p(x.item())) for x in xs]


@given(coefficient_lists, coefficient_lists, st.fractions(min_value=-4, max_value=4))
def test_ring_operations_agree_pointwise(a, b, x):
    p, q = RationalPolynomial(a), RationalPolynomial(b)
    assert (p + q)(x) == p(x) + q(x)
    assert (p - q)(x) == p(x) - q(x)
    assert (p * q)(x) == p(x) * q(x)


@given(coefficient_lists, st.fractions(min_value=-4, max_value=4))
def test_scalar_multiplication(a, x):
    p = RationalPolynomial(a)
    assert (p * Fraction(3, 2))(x) == Fraction(3, 2) * p(x)
    assert (-p)(x) == -p(x)


def test_equality_and_hash():
    p = RationalPolynomial([0, 1])
    q = RationalPolynomial([Fraction(0), Fraction(1)])
    assert p == q
    assert hash(p) == hash(q)
    assert p != RationalPolynomial([1])
    half = RationalPolynomial([Fraction(1, 2), 1])
    for same in (
        RationalPolynomial([Fraction(2, 4), 1]),
        RationalPolynomial._from_integers([3, 6, 0], 6),
        RationalPolynomial([1, 2]) * Fraction(1, 2),
        (half + p) - p,
    ):
        assert same == half
        assert hash(same) == hash(half)


@given(wide_coefficient_lists, wide_coefficient_lists)
def test_coefficients_are_reduced_fractions(a, b):
    p, q = RationalPolynomial(a), RationalPolynomial(b)
    expected = [Fraction(c) for c in a]
    while expected and expected[-1] == 0:
        expected.pop()
    assert list(p.coefficients) == expected
    for c in p.coefficients + (p * q - q).coefficients:
        assert type(c) is Fraction
        assert c.denominator > 0 and math.gcd(c.numerator, c.denominator) == 1
    assert (p + q) - q == p
    assert hash((p + q) - q) == hash(p)


def test_truthiness():
    assert not RationalPolynomial([])
    assert RationalPolynomial([0, 5])
