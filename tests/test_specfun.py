from __future__ import annotations

import math
import subprocess
import sys

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from freemoments import specfun
from freemoments.measures import Semicircle
from freemoments.moments import additive_mgf, mgf
from freemoments.specfun import (
    SeriesConvergenceError,
    euler_integral_1f1,
    kummer_1f1,
    kummer_transform_check,
    laguerre,
)


class TestLaguerre:
    def test_against_scipy(self):
        xs = np.linspace(-6.0, 6.0, 13)
        for n in range(13):
            for alpha in (0.0, 1.0, 2.5, -0.5):
                for x in xs:
                    ours = laguerre(n, alpha, float(x))
                    ref = float(scipy.special.eval_genlaguerre(n, alpha, x))
                    assert ours == pytest.approx(ref, rel=1e-11, abs=1e-11)

    def test_low_order_closed_forms(self):
        for x in (-2.0, 0.0, 1.5):
            assert laguerre(0, 1.0, x) == 1.0
            assert laguerre(1, 1.0, x) == pytest.approx(2.0 - x)
            assert laguerre(2, 1.0, x) == pytest.approx(3.0 - 3.0 * x + x * x / 2.0)

    def test_degree_validation(self):
        with pytest.raises(ValueError):
            laguerre(-1, 0.0, 1.0)

    def test_large_degree_and_negative_argument(self):
        # the explicit sum overflowed in (-x)**j here; the recurrence does not
        with mpmath.workdps(30):
            for n, x in ((149, -300.0), (99, -800.0), (60, -1200.0), (120, -0.1)):
                ref = float(mpmath.laguerre(n, 1, x))
                assert laguerre(n, 1.0, x) == pytest.approx(ref, rel=1e-13), (n, x)

    def test_overflow_raises(self):
        with pytest.raises(OverflowError):
            laguerre(400, 1.0, -1e6)


class TestKummer1F1:
    def test_trivial_parameter_cases(self):
        assert kummer_1f1(0.0, 2.0, 3.7) == 1.0
        # 1F1(b; b; x) = e^x
        for b in (1.0, 2.5, 7.0):
            for x in (-2.0, 0.5, 3.0):
                assert kummer_1f1(b, b, x).real == pytest.approx(math.exp(x), rel=1e-13)

    def test_exponential_anchor(self):
        assert kummer_1f1(2.0, 2.0, 1.5).real == pytest.approx(math.exp(1.5), rel=1e-14)

    def test_terminating_polynomial(self):
        # 1F1(-2; 2; -3) = 1 + 3 + 3/2
        assert kummer_1f1(-2, 2, -3).real == pytest.approx(5.5, rel=1e-15)
        # numerator terminates at the same depth the denominator would blow up
        expect = sum(1.0 / math.factorial(j) for j in range(6))
        assert kummer_1f1(-5, -5, 1.0).real == pytest.approx(expect, rel=1e-14)
        # a = -3 terminates strictly before the b = -5 pole
        assert kummer_1f1(-3, -5, 1.0).real == pytest.approx(53.0 / 30.0, rel=1e-14)

    def test_pole_rejected(self):
        with pytest.raises(ValueError):
            kummer_1f1(1.5, -2.0, 1.0)
        with pytest.raises(ValueError):
            kummer_1f1(-6, -5, 1.0)

    def test_against_scipy_on_real_grid(self):
        for a in (-1.5, 0.3, 1.0, 2.7):
            for b in (0.5, 1.0, 3.2):
                for x in (-8.0, -2.0, -0.3, 0.4, 2.0, 9.0):
                    ours = kummer_1f1(a, b, x).real
                    ref = float(scipy.special.hyp1f1(a, b, x))
                    assert ours == pytest.approx(ref, rel=1e-10, abs=1e-12), (a, b, x)

    def test_reflection_region_matches_scipy(self):
        # large negative x exercises the e^x * 1F1(b-a; b; -x) rewrite
        for a in (0.5, 1.25):
            for b in (2.0, 3.5):
                ours = kummer_1f1(a, b, -30.0).real
                ref = float(scipy.special.hyp1f1(a, b, -30.0))
                assert ours == pytest.approx(ref, rel=1e-9)

    def test_complex_argument_symmetry(self):
        # conjugating all inputs conjugates the value
        value = kummer_1f1(1.2 + 0.5j, 2.0 + 0.1j, -1.0 + 2.0j)
        mirrored = kummer_1f1(1.2 - 0.5j, 2.0 - 0.1j, -1.0 - 2.0j)
        assert mirrored == pytest.approx(value.conjugate(), rel=1e-12)

    def test_transform_check_compares_direct_with_reflected_sum(self):
        # Re x < -1: the direct sum is 4e-9 off at the first point, the
        # reflected one 9e-9 off at the second; a check that compares the
        # reflected sum with itself passes both
        assert not kummer_transform_check(1.04 - 3.78j, 1.86, -5.94 - 13.24j)
        assert not kummer_transform_check(-4.31 + 6.67j, 5.5, -6 + 18.52j)

    @pytest.mark.parametrize(
        "a, b, x",
        [
            (1.04 - 3.78j, 1.86, -5.94 - 13.24j),  # the reflected sum cancels less
            (-4.31 + 6.67j, 5.5, -6 + 18.52j),  # the direct sum cancels less
        ],
    )
    def test_reflection_keeps_the_sum_that_cancels_less(self, a, b, x):
        # always reflecting for Re x < -1 gave 9.2e-9 at the second point,
        # where the direct sum is 4.5e-12 off
        with mpmath.workdps(30):
            ref = complex(mpmath.hyp1f1(a, b, x))
        assert abs(kummer_1f1(a, b, x) - ref) <= 1e-10 * abs(ref)

    def test_cancellation_is_refused(self):
        # mpmath gives -0.0792-0.628j; the terms reach 1e22 against a sum of 1e6
        with pytest.raises(SeriesConvergenceError):
            kummer_1f1(15.2615 + 19.0868j, 9.9776, 5.1682 + 38.5515j)

    def test_overflowed_sum_is_refused(self):
        # each sum overflows the float range before it settles; a nan sum
        # slips past both the stopping rule and the cancellation refusal
        # unless it is checked.  mpmath gives 5.0e-4 for the first one.
        for call in (
            lambda: kummer_1f1(1, 2, -2000),
            lambda: kummer_1f1(1, 2, 800),
            lambda: additive_mgf(400, 5.0),
            lambda: mgf(Semicircle(2.0), 2000.0),
        ):
            with pytest.raises(SeriesConvergenceError):
                call()

    def test_cancelled_terminating_sum_is_summed_exactly(self):
        # the float sums gave -7.07e19 and a value of the wrong sign; the
        # exact sum rounded once is the correctly rounded value
        for a, b, x in ((-60, 1, 50), (-40, 1, 30), (-1, 2, 2)):
            with mpmath.workdps(50):
                ref = float(mpmath.hyp1f1(a, b, x, zeroprec=400))
            assert kummer_1f1(a, b, x) == ref, (a, b, x)
        # L_1^(1)(2) = 1F1(-1; 2; 2) is an exact zero, which `verify kummer` evaluates
        assert kummer_1f1(-1, 2, 2) == 0
        # complex inputs have no exact re-sum: refused
        with pytest.raises(SeriesConvergenceError):
            kummer_1f1(-60, 1, 50 + 1e-3j)

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(min_value=-20, max_value=20),
        st.floats(min_value=-20, max_value=20),
        st.floats(min_value=0.5, max_value=20),
        st.floats(min_value=-10, max_value=10),
        st.floats(min_value=-40, max_value=40),
    )
    def test_accurate_or_refused_against_mpmath(self, a_re, a_im, b, x_re, x_im):
        a, x = complex(a_re, a_im), complex(x_re, x_im)
        try:
            value = kummer_1f1(a, b, x)
        except SeriesConvergenceError:
            return
        with mpmath.workdps(30):
            ref = complex(mpmath.hyp1f1(a, b, x))
        assert abs(value - ref) <= 1e-7 * abs(ref), (a, b, x)

    def test_transform_check_on_seeded_points(self):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(0)))
        for _ in range(50):
            a = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            b = complex(rng.uniform(0.5, 4), rng.uniform(-2, 2))
            x = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            assert kummer_transform_check(a, b, x)


class TestSeriesPolicy:
    def test_truncation_error(self, monkeypatch):
        monkeypatch.setattr(specfun, "_RELATIVE_TOLERANCE", 1e-15)
        monkeypatch.setattr(specfun, "_MAX_TERMS", 40)
        with pytest.raises(SeriesConvergenceError):
            kummer_1f1(1.0, 2.0, 500.0)

    def test_default_policy_is_permissive(self):
        # the sum above needs about 700 terms: 1F1(1; 2; x) = (e^x - 1) / x
        assert kummer_1f1(1.0, 2.0, 500.0).real == pytest.approx(
            math.expm1(500.0) / 500.0, rel=1e-13
        )


class TestEulerIntegral:
    def test_anchor(self):
        # 1F1(1; 2; 1) = e - 1
        assert euler_integral_1f1(1.0, 2.0, 1.0) == pytest.approx(math.e - 1, rel=1e-12)

    def test_matches_series(self):
        for a, b in ((1.0, 2.0), (0.5, 1.5), (2.0, 3.5), (1.5, 4.0)):
            for x in (-2.0, -0.5, 0.5, 2.0):
                quad = euler_integral_1f1(a, b, x)
                series = kummer_1f1(a, b, x).real
                assert abs(quad - series) <= 1e-10 * (1 + abs(series))

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            euler_integral_1f1(0.0, 2.0, 1.0)
        with pytest.raises(ValueError):
            euler_integral_1f1(2.0, 2.0, 1.0)


def test_import_leaves_scipy_integrate_out():
    # only the quadrature oracle needs scipy.integrate, and it imports it
    # itself; nothing needs scipy.linalg, not even the multiplicative sampler;
    # numpy loads with the first name of the random-matrix lab, not before
    code = (
        "import sys, freemoments, freemoments.cli; "
        "print('scipy.integrate' in sys.modules, 'scipy.linalg' in sys.modules, "
        "'numpy' in sys.modules); "
        "freemoments.sample_multiplicative("
        "freemoments.MultiplicativeModelConfig(size=8, time=0.5, steps=3)); "
        "print('scipy.linalg' in sys.modules, 'numpy' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["False", "False", "False", "False", "True"]
