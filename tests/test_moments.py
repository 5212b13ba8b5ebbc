from __future__ import annotations

import math
import threading
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from freemoments import checks, freeconv, moments
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
    mgf,
    moment,
    moment_polynomial,
    moment_polynomials_from_recursion,
    semicircle_uniform_moment,
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

    def test_recursion_matches_fraction_loop_bit_for_bit(self, monkeypatch):
        # from an empty table, so the kernel runs whatever ran before
        monkeypatch.setattr(moments, "_recursion_rows", [])
        reference = fraction_loop_recursion(24)
        for poly, row in zip(moment_polynomials_from_recursion(24), reference, strict=True):
            assert as_pairs(poly.coefficients) == as_pairs(row)

    def test_recursion_grows_a_partial_table(self, monkeypatch):
        monkeypatch.setattr(moments, "_recursion_rows", [])
        reference = fraction_loop_recursion(24)
        short = moment_polynomials_from_recursion(5)
        published = moments._recursion_rows
        assert len(published) == 6
        grown = moment_polynomials_from_recursion(24)
        assert len(moments._recursion_rows) == 25
        # growing publishes a longer copy; a reader of the old list sees it unchanged
        assert len(published) == 6
        for poly, row in zip(grown, reference, strict=True):
            assert as_pairs(poly.coefficients) == as_pairs(row)
        assert short == grown[:6]

    def test_recursion_smaller_order_is_the_prefix(self, monkeypatch):
        monkeypatch.setattr(moments, "_recursion_rows", [])
        longer = moment_polynomials_from_recursion(20)
        for n_max in (0, 1, 7, 20):
            assert moment_polynomials_from_recursion(n_max) == longer[: n_max + 1]

    def test_recursion_result_is_the_callers_own(self):
        first = moment_polynomials_from_recursion(12)
        expected = list(first)
        first.append(RationalPolynomial([7]))
        first[3] = RationalPolynomial([5])
        del first[0]
        assert moment_polynomials_from_recursion(12) == expected
        assert moment_polynomials_from_recursion(14)[:13] == expected

    def test_recursion_repeat_builds_no_row(self, monkeypatch):
        monkeypatch.setattr(moments, "_recursion_rows", [])
        built = []
        from_integers = RationalPolynomial._from_integers.__func__

        def counted(cls, numerators, denominator):
            built.append(len(numerators) - 1)
            return from_integers(cls, numerators, denominator)

        monkeypatch.setattr(RationalPolynomial, "_from_integers", classmethod(counted))
        expected = moment_polynomials_from_recursion(12)
        assert built == list(range(13))
        built.clear()
        assert moment_polynomials_from_recursion(12) == expected
        assert moment_polynomials_from_recursion(4) == expected[:5]
        assert built == []
        moment_polynomials_from_recursion(14)
        assert built == [13, 14]

    def test_recursion_grown_from_two_threads(self, monkeypatch):
        monkeypatch.setattr(moments, "_recursion_rows", [])
        reference = fraction_loop_recursion(24)
        start = threading.Barrier(2)
        results: dict[int, list[RationalPolynomial]] = {}

        def grow(n_max: int) -> None:
            start.wait()
            results[n_max] = moment_polynomials_from_recursion(n_max)

        threads = [threading.Thread(target=grow, args=(n_max,)) for n_max in (18, 24)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for n_max, polynomials in results.items():
            assert [as_pairs(p.coefficients) for p in polynomials] == [
                as_pairs(row) for row in reference[: n_max + 1]
            ], n_max
        # whichever thread published last, the table is a correct prefix
        table = moments._recursion_rows
        assert len(table) in (19, 25)
        assert [as_pairs(p.coefficients) for p, _, _ in table] == [
            as_pairs(row) for row in reference[: len(table)]
        ]
        assert sorted(results) == [18, 24]

    def test_closed_form_matches_fraction_coefficients_bit_for_bit(self):
        for n in range(61):
            assert as_pairs(moment_polynomial(n).coefficients) == as_pairs(fraction_closed_form(n))

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            moment_polynomial(-1)

    def test_recursion_negative_order_rejected_before_the_table(self, monkeypatch):
        published = moments._extended_recursion([], 3)

        def refuse(table, n_max):
            raise AssertionError("the table was grown")

        monkeypatch.setattr(moments, "_recursion_rows", published)
        monkeypatch.setattr(moments, "_extended_recursion", refuse)
        with pytest.raises(ValueError):
            moment_polynomials_from_recursion(-1)
        assert moments._recursion_rows is published
        assert len(published) == 4

    @pytest.mark.parametrize("rows", [0, 31])
    @pytest.mark.parametrize("n_max", [2.5, 3.0])
    def test_recursion_non_integer_order_rejected(self, monkeypatch, rows: int, n_max: float):
        published = moments._extended_recursion([], rows - 1)
        monkeypatch.setattr(moments, "_recursion_rows", published)
        with pytest.raises(TypeError):
            moment_polynomials_from_recursion(n_max)
        assert moments._recursion_rows is published
        assert len(published) == rows


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
            (Fraction(3, 4), Fraction(-5, 2), Fraction(-1, 3)),  # c < 0
            (Fraction(5, 2), Fraction(-7, 3), Fraction(-1, 5)),  # width 32/15 against c's 5
            (3, Fraction(-2, 7), Fraction(1, 3)),  # integer a, width 13/21
        ],
    )
    def test_matches_fraction_loop_bit_for_bit(self, a, b, c):
        for n in range(41):
            value = semicircle_uniform_moment(n, a, b, c)
            assert as_pairs([value]) == as_pairs([fraction_loop_moment(n, a, b, c)]), n

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(min_value=0, max_value=24),
        st.fractions(min_value=Fraction(1, 30), max_value=5, max_denominator=30),
        st.fractions(min_value=-5, max_value=5, max_denominator=30),
        st.fractions(min_value=-5, max_value=5, max_denominator=30),
        st.booleans(),
    )
    def test_matches_fraction_loop_on_random_rationals(self, n, a, b, c, point_mass):
        b, c = min(b, c), max(b, c)
        if point_mass:
            b = c
        value = semicircle_uniform_moment(n, a, b, c)
        assert as_pairs([value]) == as_pairs([fraction_loop_moment(n, a, b, c)])

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

    def test_order_zero_is_the_mass(self):
        # the direct route refused alpha = 0 with ValueError
        for t in (0.5, 3.0):
            assert free_lognormal_moment_alpha(0, t) == 1
            assert moments._mgf_sums(0j, t, -t / 2, t / 2) == (1, 1)

    def test_alpha_series_agrees_on_complex_orders(self):
        # the returned value against the direct sum alone
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(42)))
        for _ in range(25):
            alpha = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
            if abs(alpha) < 0.05:
                continue
            for t in (0.5, 2.0):
                a = free_lognormal_moment_alpha(alpha, t)
                b = moments._mgf_sums(alpha, t, -t / 2, t / 2)[0]
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
        # direct series also cancels, and the contour integral confirms the
        # reflected one in its place
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

    def test_contour_is_a_check_not_a_value(self, monkeypatch):
        # at (2.5, 400) the direct sum refuses and the contour integral
        # confirms the reflected one; a contour that is off by 1e-9 makes
        # the routes disagree, and it never confirms itself
        exact = freeconv._contour_mgf
        monkeypatch.setattr(
            freeconv, "_contour_mgf", lambda alpha, c, lo, hi: exact(alpha, c, lo, hi) * (1 + 1e-9)
        )
        with pytest.raises(SeriesConvergenceError, match="disagree"):
            free_lognormal_moment_alpha(2.5, 400)

    def test_sums_that_agree_with_small_loss_need_no_contour(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the contour integral was consulted")

        monkeypatch.setattr(freeconv, "_contour_mgf", refuse)
        for alpha, t in ((0.5, 1.0), (3.0, 2.0), (-2.0, 0.5), (1.5 - 2j, 1.0), (-4 + 3j, 2.0)):
            free_lognormal_moment_alpha(alpha, t)
            additive_mgf(alpha, t)
        law = FreeSum(Semicircle(2 * math.sqrt(0.7)), Uniform(Fraction(-3, 10), Fraction(19, 10)))
        for alpha in (0.5, -1.2, 1.5 - 2j):
            mgf(law, alpha)

    def test_sums_that_lost_digits_do_not_confirm_each_other(self):
        # both sums lose about 7 digits (largest-term ratios 8.5e6 and
        # 1.5e7) and agree to 6e-11 relative to 1 + |value|, so the direct
        # one was returned, 4.6e-10 off the 40-digit value; the contour
        # integral is 7e-15 off and confirms neither
        alpha, t = -0.8068090000082826 - 4.807018015659093j, 3.0
        (direct, direct_loss), (reflected, reflected_loss) = (
            moments._summed(*route) for route in moments._mgf_routes(alpha, t, -t / 2, t / 2)
        )
        assert abs(direct - reflected) <= moments._CROSS_CHECK_TOLERANCE * (1 + abs(direct))
        assert min(direct_loss, reflected_loss) > moments._CROSS_CHECK_TOLERANCE * 2.0**53
        with mpmath.workdps(40):
            a = mpmath.mpc(alpha)
            reference = complex(mpmath.exp(a * t / 2) * mpmath.hyp1f1(1 - a, 2, -a * t))
        assert abs(direct - reference) > 1e-10 * (1 + abs(reference))
        contour = freeconv._contour_mgf(alpha, t, -t / 2, t / 2)
        assert abs(contour - reference) <= 1e-13 * abs(reference)
        with pytest.raises(SeriesConvergenceError, match="disagree"):
            free_lognormal_moment_alpha(alpha, t)

    @pytest.mark.parametrize("alpha,t", [(-4.5183, 11.2), (-0.0616, 281.7), (0.5787, 47.09)])
    def test_moments_the_sums_could_not_settle(self, alpha, t):
        # refused while a second sum that cancelled, or an |alpha t| below
        # the large-argument expansion's gate, left no route to confirm them
        with mpmath.workdps(40):
            reference = float(
                mpmath.exp(mpmath.mpf(alpha) * t / 2) * mpmath.hyp1f1(1 - alpha, 2, -alpha * t)
            )
        value = free_lognormal_moment_alpha(alpha, t)
        assert value.imag == 0.0
        assert abs(value.real - reference) <= 1e-13 * abs(reference)

    @pytest.mark.parametrize("t", [8.0, 16.0])
    def test_complex_orders_accurate_or_refused(self, t):
        # 28 and 18 of the 40 draws return, against 17 and 1 when a sum
        # that refused, or two that disagreed, refused the moment
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(18)))
        returned = 0
        for _ in range(40):
            alpha = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
            try:
                value = free_lognormal_moment_alpha(alpha, t)
            except SeriesConvergenceError:
                continue
            returned += 1
            with mpmath.workdps(40):
                a = mpmath.mpc(alpha)
                reference = complex(mpmath.exp(a * t / 2) * mpmath.hyp1f1(1 - a, 2, -a * t))
            assert abs(value - reference) <= 1e-10 * (1 + abs(reference)), alpha
        assert returned >= 18

    def test_large_arguments_against_mpmath(self):
        # real alpha, |alpha t| up to 800; every value is returned, within
        # 1e-12 of the 30-digit one (4 were, when a sum that overflowed or
        # cancelled was refused, and 38 with the large-argument expansion)
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
        assert returned == 40

    def test_exp_image_agreement_report(self):
        assert checks.exp_image_moments(25, 4.0, 1e-12).passed
        # the check passes up to its largest deviation, and no further
        detail = "max deviation 2.075e-16 for n <= 10, t=1.0"
        assert checks.exp_image_moments(10, 1.0, 1e-10) == ("exp-image-moments", True, detail)
        assert checks.exp_image_moments(10, 1.0, 0.0) == ("exp-image-moments", False, detail)


def _mgf_reference(alpha: complex, c: float, lo: float, hi: float) -> complex:
    """``e^(alpha hi) 1F1(1 - alpha c/w; 2; -alpha w)``, ``w = hi - lo``, by
    40-digit mpmath: ``E[e^(alpha X)]`` of ``Semicircle(2 sqrt c) boxplus Uniform[lo, hi]``."""
    with mpmath.workdps(40):
        a, w = mpmath.mpc(alpha), mpmath.mpf(hi) - mpmath.mpf(lo)
        return complex(mpmath.exp(a * hi) * mpmath.hyp1f1(1 - a * c / w, 2, -a * w))


# additive_mgf's reflected sum loses a factor 1.9e5 to cancellation here
_LOSSY_ALPHA, _LOSSY_T = 5.688164932629087 - 1.6065719237188447j, 70.31512590526806


class TestAdditiveMgf:
    @pytest.mark.parametrize(
        "call, law",
        [
            # the single sum kummer_1f1 picked was 5.1e-10 off here
            (
                lambda: additive_mgf(_LOSSY_ALPHA, _LOSSY_T),
                (_LOSSY_ALPHA, _LOSSY_T, -_LOSSY_T, 0.0),
            ),
            (
                lambda: mgf(FreeSum(Semicircle(2 * math.sqrt(2)), Uniform(-5, -1)), 4j),
                (4j, 2.0, -5.0, -1.0),
            ),
            (
                lambda: mgf(FreeSum(Semicircle(10), Uniform(0, 0.1)), 1 + 3j),
                (1 + 3j, 25.0, 0.0, 0.1),
            ),
            (lambda: mgf(FreeSum(Semicircle(10), Uniform(0, 0.1)), 4j), (4j, 25.0, 0.0, 0.1)),
        ],
    )
    def test_right_or_refused(self, call, law):
        reference = _mgf_reference(*law)
        try:
            value = call()
        except SeriesConvergenceError:
            return
        assert abs(value - reference) <= 1e-10 * (1 + abs(reference))

    def test_integer_order_takes_one_sum(self, monkeypatch):
        # the terminating sum has only positive terms and confirms itself;
        # summing the other one too took about four times as long
        calls = []
        series = moments._series_1f1

        def counted(*args):
            calls.append(args)
            return series(*args)

        def refuse(*args):
            raise AssertionError("the contour integral was consulted")

        monkeypatch.setattr(moments, "_series_1f1", counted)
        monkeypatch.setattr(freeconv, "_contour_mgf", refuse)
        for n, t in ((1, 0.5), (2, 3.0), (17, 0.1), (50, 2.0), (99, 4.0)):
            calls.clear()
            additive_mgf(n, t)
            assert len(calls) == 1, (n, t)

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

    def test_exact_fields_past_the_float_range(self):
        # the specifications reject nan and infinite floats only; an int or a
        # Fraction past the float range still names a law
        big = 10**400
        assert moment(Uniform(0, big), 1) == Fraction(big, 2)
        assert moment(Dirac(Fraction(big, 3)), 2) == Fraction(big * big, 9)
        assert moment(Scaled(big, Semicircle(2)), 2) == big * big
        assert moment(FreeLogNormal(big), 0) == 1

    def test_mgf_of_a_radius_past_the_float_range_is_named(self):
        # the specification accepts it (the exact moments are defined), but
        # mgf sums in floats; before, OverflowError("int too large to convert to float")
        with pytest.raises(ValueError, match="^radius must be finite, got a number past the float range"):
            mgf(Semicircle(10**400), 1.0)

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
        # laws off the time-coupled pair, against the Taylor sum
        # sum_k alpha^k m_k / k! of the exact moments m_k
        radius = 2 * math.sqrt(0.7)
        a = Fraction(7, 10)
        left, right, half, quarter = Fraction(-3, 10), Fraction(19, 10), Fraction(1, 2), Fraction(1, 4)
        cases = [
            (FreeSum(Semicircle(radius), Uniform(left, right)), (a, left, right)),
            (FreeSum(Semicircle(radius), Uniform(-1, 0), Dirac(half)), (a, -half, half)),
            (
                FreeSum(FreeSum(Dirac(-quarter), Semicircle(radius)), FreeSum(Uniform(0, 1))),
                (a, -quarter, 1 - quarter),
            ),
            (Scaled(2, FreeSum(Semicircle(radius), Uniform(0, 1))), (4 * a, 0, 2)),
        ]
        for measure, (variance, lo, hi) in cases:
            exact = [semicircle_uniform_moment(k, variance, lo, hi) for k in range(61)]
            for alpha in (0.5, -0.8, 1.2 + 0.5j):
                terms = [alpha**k * float(m) / math.factorial(k) for k, m in enumerate(exact)]
                assert abs(terms[-1]) < 1e-15
                reference = sum(terms)
                assert abs(mgf(measure, alpha) - reference) <= 1e-12 * abs(reference)

    def test_exp_image_has_no_mgf(self):
        with pytest.raises(TypeError):
            mgf(FreeLogNormal(1.0), 1.0)
