from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from freemoments import moments
from freemoments.exactcomb import stirling_first
from freemoments.measures import (
    Dirac,
    ExpImage,
    FreeLogNormal,
    FreeSum,
    Scaled,
    Semicircle,
    Uniform,
)
from freemoments.moments import (
    additive_mgf,
    free_lognormal_moment,
    free_lognormal_moment_alpha,
    free_lognormal_moment_alpha_series,
    mgf,
    moment,
    moment_polynomial,
    moment_polynomials_from_recursion,
    semicircle_uniform_moment,
    verify_exp_image_moments,
)
from freemoments.ratpoly import RationalPolynomial
from freemoments.specfun import SeriesConvergenceError

small_rationals = st.fractions(min_value=-4, max_value=4)


def fraction_loop_recursion(n_max: int) -> list[list[Fraction]]:
    """The quadratic recursion with one ``Fraction`` product per term: the
    reference the integer-numerator kernel must reproduce bit for bit."""
    table: list[list[Fraction]] = []
    for n in range(n_max + 1):
        row = [Fraction(0)] * (n + 1)
        if n == 0:
            row[0] = Fraction(1)
        else:
            row[n] = Fraction((-1) ** n, 1 + n)
            for k in range(1, n):
                acc = Fraction(0)
                for l in range(k):
                    for j in range(1, n - k + 1):
                        acc += table[j + l - 1][l] * table[n - l - j - 1][k - 1 - l]
                row[k] = Fraction(n, 2 * (n - k)) * acc
        table.append(row)
    return table


def fraction_closed_form(n: int) -> list[Fraction]:
    """Coefficients ``n! s(1+j, n+1-j) / (j! (1+j)!)`` of ``moment_polynomial(n)``,
    one ``Fraction`` each: the reference of the common-denominator build."""
    coeffs = [Fraction(0)] * (n + 1)
    for j in range((n + 1) // 2, n + 1):
        coeffs[j] = Fraction(
            math.factorial(n) * stirling_first(1 + j, n + 1 - j),
            math.factorial(j) * math.factorial(1 + j),
        )
    return coeffs


def fraction_loop_moment(n: int, a, b, c) -> Fraction:
    """The closed form of ``semicircle_uniform_moment`` with one ``Fraction``
    product per term: the bit-for-bit reference of the integer kernel."""
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    width = c - b
    total = Fraction(0)
    for k in range(n + 1):
        inner = Fraction(0)
        for j in range((k + 1) // 2, k + 1):
            weight = Fraction(
                stirling_first(1 + j, k + 1 - j), math.factorial(j) * math.factorial(1 + j)
            )
            inner += weight * width ** (2 * j - k) * a ** (k - j)
        if inner:
            total += Fraction(c ** (n - k), math.factorial(n - k)) * inner
    return math.factorial(n) * total


def as_pairs(values) -> list[tuple[int, int]]:
    """Numerators and denominators of Fractions, so equal lists are equal bit for bit."""
    assert all(type(v) is Fraction for v in values)
    return [(v.numerator, v.denominator) for v in values]


class TestMomentPolynomials:
    def test_low_orders(self):
        assert moment_polynomial(0) == RationalPolynomial([1])
        assert moment_polynomial(1) == RationalPolynomial([0, Fraction(-1, 2)])
        assert moment_polynomial(2) == RationalPolynomial([0, 1, Fraction(1, 3)])
        assert moment_polynomial(3) == RationalPolynomial(
            [0, 0, Fraction(-3, 2), Fraction(-1, 4)]
        )

    def test_degree_leading_coefficient_and_gap(self):
        for n in range(1, 31):
            poly = moment_polynomial(n)
            assert poly.degree == n
            assert poly.leading_coefficient() == Fraction((-1) ** n, 1 + n)
            for k in range((n + 1) // 2):
                assert poly.coefficient(k) == 0

    def test_recursion_oracle(self):
        recursion = moment_polynomials_from_recursion(60)
        for n in range(61):
            assert moment_polynomial(n) == recursion[n]

    def test_recursion_matches_fraction_loop_bit_for_bit(self):
        reference = fraction_loop_recursion(24)
        for poly, row in zip(moment_polynomials_from_recursion(24), reference, strict=True):
            assert as_pairs(poly.coefficients) == as_pairs(row)

    def test_closed_form_matches_fraction_coefficients_bit_for_bit(self):
        for n in range(61):
            assert as_pairs(moment_polynomial(n).coefficients) == as_pairs(fraction_closed_form(n))

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            moment_polynomial(-1)


class TestSemicircleUniformMoment:
    def test_polynomial_family_is_the_special_case(self):
        # m_n(t) is the n-th moment of Semicircle(2 sqrt t) boxplus Uniform[-t, 0]
        for t in (Fraction(1, 4), Fraction(1), Fraction(7, 3)):
            for n in range(11):
                assert semicircle_uniform_moment(n, t, -t, 0) == moment_polynomial(n)(t)

    def test_degenerate_uniform_gives_catalan(self):
        catalan = [1, 1, 2, 5, 14, 42]
        for k, c in enumerate(catalan):
            assert semicircle_uniform_moment(2 * k, 1, 0, 0) == c
            if k:
                assert semicircle_uniform_moment(2 * k - 1, 1, 0, 0) == 0

    def test_symmetric_interval_kills_odd_moments(self):
        for n in range(1, 12, 2):
            assert semicircle_uniform_moment(n, Fraction(1, 2), -3, 3) == 0

    @settings(max_examples=40)
    @given(
        st.integers(min_value=0, max_value=8),
        st.fractions(min_value=Fraction(1, 4), max_value=3),
        small_rationals,
        small_rationals,
        small_rationals,
    )
    def test_shift_equivariance(self, n, a, b, c, shift):
        b, c = min(b, c), max(b, c)
        shifted = semicircle_uniform_moment(n, a, b + shift, c + shift)
        binomial_sum = sum(
            math.comb(n, j)
            * shift ** (n - j)
            * semicircle_uniform_moment(j, a, b, c)
            for j in range(n + 1)
        )
        assert shifted == binomial_sum

    @settings(max_examples=40)
    @given(
        st.integers(min_value=0, max_value=8),
        st.fractions(min_value=Fraction(1, 4), max_value=3),
        small_rationals,
        small_rationals,
        st.sampled_from([Fraction(1, 2), Fraction(3, 2), 2, 3]),
    )
    def test_scaling_equivariance(self, n, a, b, c, factor):
        b, c = min(b, c), max(b, c)
        scaled = semicircle_uniform_moment(n, factor**2 * a, factor * b, factor * c)
        assert scaled == factor**n * semicircle_uniform_moment(n, a, b, c)

    @pytest.mark.parametrize(
        "a, b, c",
        [
            (Fraction(1, 3), Fraction(-2, 3), Fraction(1, 3)),  # non-dyadic
            (0.1, -0.3, 0.7),  # floats: large power-of-two denominators
            (Fraction(1, 3), Fraction(5, 7), Fraction(5, 7)),  # b == c
            (2, Fraction(-1, 3), 0),  # c == 0
            (Fraction(7, 5), 0, 0),  # b == c == 0
        ],
    )
    def test_matches_fraction_loop_bit_for_bit(self, a, b, c):
        for n in range(41):
            value = semicircle_uniform_moment(n, a, b, c)
            assert as_pairs([value]) == as_pairs([fraction_loop_moment(n, a, b, c)]), n

    def test_variance_additivity(self):
        assert semicircle_uniform_moment(2, 1, -1, 1) == Fraction(4, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            semicircle_uniform_moment(2, 0, -1, 1)
        with pytest.raises(ValueError):
            semicircle_uniform_moment(2, 1, 1, -1)
        with pytest.raises(ValueError):
            semicircle_uniform_moment(-1, 1, -1, 1)


class TestFreeLogNormalMoments:
    def test_first_two_moments(self):
        for t in (0.1, 1.0, 4.0):
            assert free_lognormal_moment(1, t) == pytest.approx(math.exp(t / 2), rel=1e-14)
            assert free_lognormal_moment(2, t) == pytest.approx(
                math.exp(t) * (1 + t), rel=1e-14
            )

    def test_third_moment_closed_form(self):
        for t in (0.5, 2.0):
            expect = math.exp(1.5 * t) * (1 + 3 * t + 1.5 * t * t)
            assert free_lognormal_moment(3, t) == pytest.approx(expect, rel=1e-13)

    def test_large_order_matches_mpmath(self):
        # the explicit Laguerre sum raised OverflowError at the first and
        # returned inf at the second
        with mpmath.workdps(30):
            for n, t in ((150, 2.0), (100, 8.0)):
                ref = mpmath.exp(n * t / 2) * mpmath.laguerre(n - 1, 1, -n * t) / n
                assert free_lognormal_moment(n, t) == pytest.approx(float(ref), rel=1e-14)

    def test_moment_beyond_float_range_raises(self):
        with pytest.raises(OverflowError):
            free_lognormal_moment(101, 8.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            free_lognormal_moment(0, 1.0)
        with pytest.raises(ValueError):
            free_lognormal_moment(2, 0.0)

    def test_alpha_route_extends_integer_route(self):
        for t in (0.5, 2.0):
            for n in (1, 2, 3, 5):
                via_alpha = free_lognormal_moment_alpha(n, t)
                assert via_alpha.imag == pytest.approx(0.0, abs=1e-12)
                assert via_alpha.real == pytest.approx(
                    free_lognormal_moment(n, t), rel=1e-11
                )

    def test_alpha_minus_one(self):
        # e^{-t/2} 1F1(2; 2; t) = e^{t/2}
        assert free_lognormal_moment_alpha(-1, 1.0).real == pytest.approx(
            math.exp(0.5), rel=1e-12
        )

    def test_alpha_series_agrees_on_complex_orders(self):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(42)))
        for _ in range(25):
            alpha = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
            if abs(alpha) < 0.05:
                continue
            for t in (0.5, 2.0):
                a = free_lognormal_moment_alpha(alpha, t)
                b = free_lognormal_moment_alpha_series(alpha, t)
                assert abs(a - b) <= 1e-10 * (1 + abs(a))

    def test_route_disagreement_is_typed(self):
        # the two routes disagree beyond 1e-10 here; the refusal is a
        # SeriesConvergenceError, still an ArithmeticError for old handlers
        with pytest.raises(SeriesConvergenceError):
            free_lognormal_moment_alpha(-0.85193 - 4.65839j, 3.0)

    @pytest.mark.parametrize("alpha,t", [(5, 200), (2.5, 400), (-3, 300)])
    def test_moments_past_the_float_range_of_the_sums(self, alpha, t):
        # 1.193e227, 1.34e221 and 3.68e200: one series or both overflow
        # before the factor e^(-+alpha t / 2) is applied; at (2.5, 400) the
        # direct series also cancels, and the large-argument expansion
        # checks the reflected one in its place
        with mpmath.workdps(30):
            reference = mpmath.exp(mpmath.mpf(alpha) * t / 2) * mpmath.hyp1f1(
                1 - alpha, 2, -alpha * t
            )
        value = free_lognormal_moment_alpha(alpha, t)
        assert value.imag == 0.0
        assert abs(value.real - float(reference)) <= 1e-12 * float(reference)

    @pytest.mark.parametrize("alpha,t", [(5, 400), (2.5, 600), (-3, 600), (100, 20)])
    def test_moments_past_the_float_range_are_refused(self, alpha, t):
        with pytest.raises(SeriesConvergenceError):
            free_lognormal_moment_alpha(alpha, t)

    def test_large_argument_stand_in_is_checked(self, monkeypatch):
        # the stand-in is a check, not a value: one that is off by 1e-9
        # makes the routes disagree
        exact = moments._large_argument_moment
        monkeypatch.setattr(
            moments, "_large_argument_moment", lambda alpha, t: exact(alpha, t) * (1 + 1e-9)
        )
        with pytest.raises(SeriesConvergenceError, match="disagree"):
            free_lognormal_moment_alpha(2.5, 400)

    def test_large_arguments_against_mpmath(self):
        # real alpha, |alpha t| up to 800; each value returned is within
        # 1e-12 of the 30-digit one, and 38 of the 40 are returned (4 were,
        # when a sum that overflowed or cancelled was refused)
        rng = np.random.default_rng(15)
        returned = 0
        for alpha, t in zip(rng.uniform(-8, 8, 40), rng.uniform(2, 100, 40)):
            with mpmath.workdps(30):
                reference = float(
                    mpmath.exp(mpmath.mpf(alpha) * t / 2)
                    * mpmath.hyp1f1(1 - alpha, 2, -alpha * t)
                )
            try:
                value = free_lognormal_moment_alpha(alpha, t)
            except SeriesConvergenceError:
                continue
            returned += 1
            assert abs(value - reference) <= 1e-12 * abs(reference), (alpha, t)
        assert returned >= 35

    def test_exp_image_agreement_report(self):
        report = verify_exp_image_moments(25, 4.0)
        assert report.passed
        assert report.max_deviation < 1e-12


class TestAdditiveMgf:
    def test_normalization_at_alpha_one(self):
        # 1F1(0; 2; -t) = 1 exactly: the exponential moment at 1 is unity
        for t in (0.25, 1.0, 4.0):
            assert additive_mgf(1.0, t) == pytest.approx(1.0, rel=1e-14)

    def test_alpha_zero_is_total_mass(self):
        assert additive_mgf(0.0, 3.0) == pytest.approx(1.0)

    def test_series_route_agrees_for_small_arguments(self):
        # the truncated moment series sum_k alpha^k m_k(t) / k!
        for t in (0.25, 1.0):
            for alpha in (0.3, 1.0, -0.7, 0.5 + 0.25j):
                terms = [
                    alpha**k * moment_polynomial(k)(t) / math.factorial(k)
                    for k in range(41)
                ]
                assert abs(terms[-1]) < 1e-12
                assert abs(sum(terms) - additive_mgf(alpha, t)) <= 1e-9


class TestMeasureDispatch:
    def test_semicircle_moments(self):
        sc = Semicircle(2.0)
        assert moment(sc, 0) == 1
        assert moment(sc, 1) == 0
        assert moment(sc, 2) == 1
        assert moment(sc, 4) == 2
        assert moment(sc, 6) == 5

    def test_uniform_moments(self):
        u = Uniform(-1, 1)
        assert moment(u, 2) == Fraction(1, 3)
        assert moment(u, 3) == 0
        shifted = Uniform(0, 2)
        assert moment(shifted, 1) == 1

    def test_dirac_and_scaled(self):
        assert moment(Dirac(Fraction(3, 2)), 2) == Fraction(9, 4)
        assert moment(Scaled(2, Uniform(0, 1)), 1) == 1

    def test_free_sum_routes_to_exact_engine(self):
        measure = FreeSum(Semicircle(2.0), Uniform(-1, 0))
        for n in range(9):
            # radius 2 sqrt(a) = 2 means a = 1
            assert moment(measure, n) == semicircle_uniform_moment(n, 1, -1, 0)

    def test_free_sum_with_dirac_shifts(self):
        base = FreeSum(Semicircle(2.0), Uniform(-1, 1))
        shifted = FreeSum(Semicircle(2.0), Uniform(-1, 1), Dirac(2))
        total = sum(
            math.comb(3, j) * Fraction(2) ** (3 - j) * moment(base, j)
            for j in range(4)
        )
        assert moment(shifted, 3) == total

    def test_two_semicircles_rejected(self):
        with pytest.raises(ValueError):
            moment(FreeSum(Semicircle(1.0), Semicircle(1.0)), 2)

    def test_exp_image_matches_laguerre_formula(self):
        t = 1.0
        measure = ExpImage(
            FreeSum(Semicircle(2 * math.sqrt(t)), Uniform(-t / 2, t / 2))
        )
        for n in range(1, 6):
            assert moment(measure, n) == pytest.approx(
                free_lognormal_moment(n, t), rel=1e-10
            )

    def test_free_lognormal_alias(self):
        for n in (1, 2, 3):
            assert moment(FreeLogNormal(2.0), n) == pytest.approx(
                free_lognormal_moment(n, 2.0), rel=1e-12
            )


class TestMgfDispatch:
    def test_semicircle_mgf_against_quadrature(self):
        radius = 2.0
        for alpha in (0.5, 1.0, 2.0):
            series_value = mgf(Semicircle(radius), alpha)
            density = lambda x: (2 / (math.pi * radius**2)) * math.sqrt(
                radius**2 - x**2
            )
            quad, _ = scipy.integrate.quad(
                lambda x: math.exp(alpha * x) * density(x), -radius, radius
            )
            assert series_value.real == pytest.approx(quad, rel=1e-10)
            assert series_value.imag == pytest.approx(0.0, abs=1e-14)

    def test_semicircle_mgf_on_imaginary_axis(self):
        # E[e^(alpha X)] = 2 I_1(R alpha) / (R alpha) = J_1(8) / 4 at R alpha = 8i
        value = mgf(Semicircle(2.0), 4j)
        assert value.real == pytest.approx(float(mpmath.besselj(1, 8)) / 4, rel=1e-13)
        assert value.imag == 0.0

    def test_uniform_mgf_closed_form(self):
        value = mgf(Uniform(-1, 2), 0.7)
        expect = (math.exp(0.7 * 2) - math.exp(-0.7)) / (0.7 * 3)
        assert value.real == pytest.approx(expect, rel=1e-12)

    def test_free_sum_reduces_to_1f1(self):
        for t in (0.5, 1.0, 4.0):
            measure = FreeSum(Semicircle(2 * math.sqrt(t)), Uniform(-t, 0))
            for alpha in (0.5, 1.0, 1.5 + 0.5j):
                assert mgf(measure, alpha) == pytest.approx(
                    additive_mgf(alpha, t), rel=1e-12
                )

    def test_exp_image_has_no_mgf(self):
        with pytest.raises(TypeError):
            mgf(FreeLogNormal(1.0), 1.0)
