from __future__ import annotations

import cmath
import math
import random
import subprocess
import sys

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from freemoments import checks, specfun
from freemoments.freeconv import free_lognormal_support
from freemoments.measures import Dirac, FreeLogNormal, Scaled, Semicircle, Uniform
from freemoments.moments import (
    additive_mgf,
    free_lognormal_moment,
    free_lognormal_moment_alpha,
    mgf,
)
from freemoments.specfun import (
    SeriesConvergenceError,
    euler_integral_1f1,
    kummer_1f1,
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
        points = [(1.04 - 3.78j, 1.86, -5.94 - 13.24j), (-4.31 + 6.67j, 5.5, -6 + 18.52j)]
        draws = iter([part for point in points for z in map(complex, point) for part in (z.real, z.imag)])

        class Stub:
            def uniform(self, low: float, high: float) -> float:
                return next(draws)

        result = checks.kummer_transform(Stub(), len(points), 1e-10)
        assert result == ("kummer-transform", False, "2 random (a, b, x) points, 2 failures")

    @pytest.mark.parametrize(
        "a, b, x",
        [
            (1.04 - 3.78j, 1.86, -5.94 - 13.24j),  # the reflected sum cancels less
            (-4.31 + 6.67j, 5.5, -6 + 18.52j),  # the direct sum cancels less
            (0.7 - 1.3j, 3.0, -1500 + 20j),  # both refuse; the rescaled reflected sum is kept
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
        # each value lies past the float range, and its sum overflows before
        # it settles; a nan sum slips past both the stopping rule and the
        # cancellation refusal unless it is checked
        for call in (
            lambda: kummer_1f1(1, 2, 800),
            lambda: additive_mgf(400, 5.0),
            lambda: mgf(Semicircle(2.0), 2000.0),
        ):
            with pytest.raises(SeriesConvergenceError):
                call()

    @pytest.mark.parametrize("x", [-709.0, -745.0, -2000.0, -5000.0])
    def test_reflection_past_the_float_range(self, x):
        # the reflected sum 1F1(1; 2; -x) overflows from x = -709 on, but the
        # value (1 - e^x) / (-x) does not; it is summed with a carried exponent
        ref = (1 - math.exp(x)) / -x
        value = kummer_1f1(1, 2, x)
        assert value.imag == 0.0
        assert abs(value.real - ref) <= 1e-12 * ref

    @pytest.mark.parametrize(
        "a, b, x",
        [
            (1.4921391541679734, -17.118658148133274, 617.104372237269),  # 1.7e306
            (0.07124536554876663, 6.0, 745.3074787539011 + 0.27233941655505994j),  # 3.9e307
            (1 + 0.5j, 2, -800 + 3j),  # the reflected terms pass the float range
            (23.858399787351665, 3.2406912886646597, -771.3261461634224 + 1.1993041813133358j),
        ],
    )
    def test_terms_past_the_float_range_against_mpmath(self, a, b, x):
        # the first two were refused while a sum whose terms overflowed was
        # summed again only for Re x < -1, and the last came back as -0.0:
        # e^x underflowed to 0 before it met a reflected sum of 3e285
        with mpmath.workdps(40):
            ref = complex(mpmath.hyp1f1(a, b, x))
        assert abs(kummer_1f1(a, b, x) - ref) <= 1e-13 * abs(ref)

    @pytest.mark.parametrize("x", [-800.0, -720.0])
    def test_underflowing_factor_is_applied_in_two_parts(self, x):
        # 1F1(61; 1; x) = e^x L_60(-x): the polynomial, 1.4e90 and 1.4e87,
        # stays in range, but e^x underflows to 0 or to a subnormal, and
        # their product came back as 0 and 3e-12 off; the polynomial's
        # terms cancel by a factor of 2e3 and 5e3
        with mpmath.workdps(40):
            ref = float(mpmath.hyp1f1(61, 1, x))
        assert abs(kummer_1f1(61, 1, x) - ref) <= 1e-11 * ref

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

    def test_cancelled_terminating_sum_that_settles_early_is_summed_exactly(self):
        # the float sum settles long before its 1000th term and cancels;
        # it was refused, since only a sum that reached its last term was
        # summed again exactly
        with mpmath.workdps(60):
            ref = float(mpmath.hyp1f1(-1000, 7.3, 9.7))
        assert kummer_1f1(-1000, 7.3, 9.7) == ref == -6.232185761373414e-10

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(min_value=-20, max_value=20),
        st.floats(min_value=-20, max_value=20),
        st.floats(min_value=0.5, max_value=20),
        st.floats(min_value=-10, max_value=10),
        st.floats(min_value=-40, max_value=40),
        st.booleans(),
    )
    def test_accurate_or_refused_against_mpmath(self, a_re, a_im, b, x_re, x_im, real):
        # real a and x take the kernel's float path
        a, x = (complex(a_re), complex(x_re)) if real else (complex(a_re, a_im), complex(x_re, x_im))
        try:
            value = kummer_1f1(a, b, x)
        except SeriesConvergenceError:
            return
        with mpmath.workdps(30):
            ref = complex(mpmath.hyp1f1(a, b, x))
        assert abs(value - ref) <= 1e-7 * abs(ref), (a, b, x)

    def test_transform_check_on_seeded_points(self):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(0)))
        assert checks.kummer_transform(rng, 50, 1e-10).passed


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


def _reference_series_1f1(a, b, x):
    """The series kernel as it stood before its operands were typed once:
    complex arithmetic throughout and a test of ``a + j == 0`` at every term."""
    term = total = 1 + 0j
    largest = 1.0
    previous_small = False
    for j in range(specfun._MAX_TERMS):
        if a is None:
            term = term * x / ((b + j) * (j + 1))
        elif a + j == 0:
            if largest > specfun._CANCELLATION_LIMIT * abs(total):
                return specfun._exact_polynomial_1f1(j, b, x), 1.0
            return total, largest / abs(total)
        else:
            term = term * ((a + j) * x) / ((b + j) * (j + 1))
        total += term
        size = abs(term)
        largest = max(largest, size)
        if size > specfun._RELATIVE_TOLERANCE * abs(total):
            previous_small = False
        elif not cmath.isfinite(total):
            raise SeriesConvergenceError(
                f"series overflowed the float range (a={a}, b={b}, x={x})"
            )
        elif previous_small:
            if largest > specfun._CANCELLATION_LIMIT * abs(total):
                raise SeriesConvergenceError(
                    f"series lost over half its digits to cancellation (a={a}, b={b}, x={x})"
                )
            return total, largest / abs(total)
        else:
            previous_small = True
    raise SeriesConvergenceError(
        f"hypergeometric series did not settle within {specfun._MAX_TERMS} terms "
        f"(a={a}, b={b}, x={x})"
    )


def _outcome(kernel, a, b, x, *s):
    """The bits of a kernel's value and loss ratio, or its exception."""
    try:
        value, loss = kernel(a, b, x, *s)
    except Exception as error:  # noqa: BLE001 - the refusal itself is compared
        return type(error), str(error)
    return value.real.hex(), value.imag.hex(), loss.hex()


def _overflowed(outcome) -> bool:
    return outcome[0] is SeriesConvergenceError and "overflowed" in outcome[1]


def _cancelled_real_polynomial(outcome, a, b, x) -> bool:
    """Whether the outcome refuses a terminating sum with real ``b`` and
    ``x`` for cancellation."""
    return (
        outcome[0] is SeriesConvergenceError
        and "cancellation" in outcome[1]
        and a is not None
        and specfun._nonpositive_integer(complex(a)) is not None
        and complex(b).imag == 0
        and complex(x).imag == 0
    )


def _reference_past_float_range(a, b, x, s):
    """``e^s 1F1(a; b; x)`` as a second pass with a carried binary exponent,
    the way sums whose terms overflow were summed before the series kernel
    carried the exponent itself: complex arithmetic throughout, ``e^s``
    applied as ``2**m e^r``, a cancelled terminating sum refused."""
    end = specfun._nonpositive_integer(a)
    if end is not None and end >= specfun._MAX_TERMS:
        end = None
    term = total = 1 + 0j
    largest = 1.0
    exponent = 0
    previous_small = False
    for j in range(specfun._MAX_TERMS if end is None else end):
        term = term * ((a + j) * x) / ((b + j) * (j + 1))
        total += term
        size = abs(term)
        if size > largest:
            largest = size
        magnitude = abs(total)
        if size > specfun._RELATIVE_TOLERANCE * magnitude:
            previous_small = False
            if magnitude > specfun._RESCALE:
                term, total, largest = term / specfun._RESCALE, total / specfun._RESCALE, largest / specfun._RESCALE
                exponent += specfun._RESCALE_BITS
        elif not cmath.isfinite(total):
            raise SeriesConvergenceError(
                f"rescaled series overflowed the float range (a={a}, b={b}, x={x})"
            )
        elif previous_small:
            break
        else:
            previous_small = True
    else:
        if end is None:
            raise SeriesConvergenceError(
                f"hypergeometric series did not settle within {specfun._MAX_TERMS} terms "
                f"(a={a}, b={b}, x={x})"
            )
    if largest > specfun._CANCELLATION_LIMIT * abs(total):
        raise SeriesConvergenceError(
            f"series lost over half its digits to cancellation (a={a}, b={b}, x={x})"
        )
    m = round(s.real / math.log(2))
    r = s.real - m * specfun._LN2_HI - m * specfun._LN2_LO
    value = cmath.exp(complex(r, s.imag)) * total
    try:
        return complex(
            math.ldexp(value.real, m + exponent), math.ldexp(value.imag, m + exponent)
        )
    except OverflowError:
        raise SeriesConvergenceError(
            f"e^({s}) 1F1(a={a}, b={b}, x={x}) exceeds the float range"
        ) from None


def _operand(rng: random.Random, real_part: float, kind: str):
    """``real_part`` as a float, a complex with imaginary part +0.0 or -0.0,
    or a complex with a drawn imaginary part."""
    if kind == "float":
        return real_part
    if kind == "complex":
        return complex(real_part, rng.choice((-1, 1)) * 10 ** rng.uniform(-3, 1.5))
    return complex(real_part, rng.choice((0.0, -0.0)))


def _magnitude(rng: random.Random, low: float, high: float) -> float:
    return rng.choice((-1, 1)) * 10 ** rng.uniform(low, high)


class TestKernelIdentity:
    """The kernel returns the same bits and refusals as the complex loop, and
    as the second pass that summed past the float range."""

    def test_same_bits_as_the_complex_loop(self):
        # where the complex loop refuses a sum that overflowed, the kernel
        # carries the exponent on: it returns the value or refuses it
        rng = random.Random(14)
        kinds = ("float", "zero", "complex")
        past_the_range = []
        cancelled = []
        for _ in range(20_000):
            shape = rng.randrange(5)
            if shape == 0:  # real operands: the float path
                kind = [rng.choice(("float", "zero")) for _ in range(3)]
            elif shape == 1:  # one or more drawn imaginary parts
                kind = [rng.choice(kinds) for _ in range(3)]
                kind[rng.randrange(3)] = "complex"
            else:
                kind = [rng.choice(kinds) for _ in range(3)]
            b = rng.choice((rng.uniform(0.05, 30.0), float(rng.randint(1, 6)), -rng.uniform(0.01, 20.0)))
            x = _magnitude(rng, -3.0, 3.3)  # up to 2000: overflow and cancellation refusals
            if shape == 2:  # terminating: a = -N, cancelled sums summed exactly
                a = -float(rng.randint(0, 80))
                b = abs(b)
            elif shape == 3:  # 0F1
                a = None
            else:
                a = _magnitude(rng, -2.0, 1.6)
            a = None if a is None else _operand(rng, a, kind[0])
            b, x = _operand(rng, b, kind[1]), _operand(rng, x, kind[2])
            ours, reference = _outcome(specfun._series_1f1, a, b, x), _outcome(_reference_series_1f1, a, b, x)
            if _overflowed(reference):
                past_the_range.append((a, b, x, ours))
            elif _cancelled_real_polynomial(reference, a, b, x) and ours != reference:
                cancelled.append((a, b, x, ours))
            else:
                assert ours == reference, (a, b, x)
        returned = 0
        for a, b, x, ours in past_the_range:
            if ours[0] is SeriesConvergenceError:
                continue
            returned += 1
            value = complex(float.fromhex(ours[0]), float.fromhex(ours[1]))
            with mpmath.workdps(40):
                ref = complex(mpmath.hyp0f1(b, x) if a is None else mpmath.hyp1f1(a, b, x))
            assert abs(value - ref) <= 1e-13 * abs(ref), (a, b, x)
        assert len(past_the_range) > 400 and returned > 0
        # where the complex loop refuses a real terminating sum that settled
        # before its last term and cancelled, the kernel sums it exactly
        for a, b, x, ours in cancelled:
            value = complex(float.fromhex(ours[0]), float.fromhex(ours[1]))
            with mpmath.workdps(60):
                ref = complex(mpmath.hyp1f1(a, b, x))
            assert abs(value - ref) <= 1e-13 * abs(ref), (a, b, x)
        assert cancelled

    def test_same_bits_as_the_rescaled_loop(self):
        # sums whose terms overflow the float range, with e^s applied to them
        rng = random.Random(17)
        compared = returned = 0
        while compared < 400:
            kind = [rng.choice(("float", "zero", "complex")) for _ in range(3)]
            if rng.randrange(3) == 0:  # terminating: a = -N
                a = _operand(rng, -float(rng.randint(300, 1200)), rng.choice(("float", "zero")))
            else:
                a = _operand(rng, _magnitude(rng, -2.0, 1.6), kind[0])
            # complex operands, as the callers pass them; zero imaginary
            # parts take the float path
            a, b, x = complex(a), complex(_operand(rng, rng.uniform(0.05, 30.0), kind[1])), complex(
                _operand(rng, _magnitude(rng, 2.6, 3.5), kind[2])
            )
            if not _overflowed(_outcome(_reference_series_1f1, a, b, x)):
                continue
            s = rng.choice((-x, x / 2, -x / 2))
            if rng.randrange(2):
                s += complex(rng.uniform(-50.0, 50.0), rng.uniform(-10.0, 10.0))
            try:
                reference = _reference_past_float_range(a, b, x, s)
            except SeriesConvergenceError as refusal:
                with pytest.raises(SeriesConvergenceError) as ours:
                    specfun._series_1f1(a, b, x, s)
                assert str(ours.value) == str(refusal), (a, b, x, s)
            else:
                value = specfun._series_1f1(a, b, x, s)[0]
                assert (value.real.hex(), value.imag.hex()) == (reference.real.hex(), reference.imag.hex()), (a, b, x, s)
                returned += 1
            compared += 1
        assert returned > 50

    @pytest.mark.parametrize("max_terms", [1, 2, 30])
    def test_same_refusals_at_the_term_limit(self, monkeypatch, max_terms):
        # a terminating sum of exactly _MAX_TERMS terms does not settle
        monkeypatch.setattr(specfun, "_MAX_TERMS", max_terms)
        rng = random.Random(max_terms)
        for n in range(max(0, max_terms - 2), max_terms + 3):
            for kind in ("float", "zero", "complex"):
                for _ in range(5):
                    a = _operand(rng, -float(n), rng.choice(("float", "zero")))
                    b = _operand(rng, rng.uniform(0.5, 4.0), kind)
                    x = _operand(rng, _magnitude(rng, -2.0, 1.0), kind)
                    assert _outcome(specfun._series_1f1, a, b, x) == _outcome(_reference_series_1f1, a, b, x)
        for _ in range(200):  # sums that need more terms than the limit
            a = _operand(rng, rng.uniform(-5.0, 5.0), rng.choice(("float", "complex")))
            x = _operand(rng, _magnitude(rng, 0.0, 1.5), rng.choice(("float", "zero", "complex")))
            assert _outcome(specfun._series_1f1, a, 2.0, x) == _outcome(_reference_series_1f1, a, 2.0, x)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_arguments_raise_value_error(bad):
    # before, these raised OverflowError, a refusal for overflow or a
    # conversion error, and free_lognormal_moment(1, nan) returned nan
    calls = [
        ("alpha", lambda: laguerre(3, bad, 1.0)),
        ("x", lambda: laguerre(3, 1.0, bad)),
        ("a", lambda: kummer_1f1(bad, 2, 1)),
        ("a", lambda: kummer_1f1(complex(1, bad), 2, 1)),
        ("b", lambda: kummer_1f1(1, bad, 1)),
        ("x", lambda: kummer_1f1(1, 2, bad)),
        ("alpha", lambda: additive_mgf(bad, 1.0)),
        ("t", lambda: additive_mgf(2, bad)),
        # before, mgf returned nan or inf + nan j, or refused for overflow
        ("alpha", lambda: mgf(Uniform(0, 1), bad)),
        ("alpha", lambda: mgf(Dirac(1), bad)),
        ("alpha", lambda: mgf(Semicircle(2), bad)),
        ("alpha", lambda: mgf(Semicircle(2), complex(0.5, bad))),
        ("radius", lambda: Semicircle(bad)),
        ("lo", lambda: Uniform(bad, 1.0)),
        ("hi", lambda: Uniform(0.0, bad)),
        ("center", lambda: Dirac(bad)),
        ("factor", lambda: Scaled(bad, Semicircle(2))),
        ("time", lambda: FreeLogNormal(bad)),
        ("t", lambda: free_lognormal_moment(1, bad)),
        ("t", lambda: free_lognormal_moment(3, bad)),
        ("alpha", lambda: free_lognormal_moment_alpha(bad, 1.0)),
        ("t", lambda: free_lognormal_moment_alpha(0.5, bad)),
    ]
    for name, call in calls:
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            call()


@pytest.mark.parametrize(
    "name, call",
    [
        ("t", lambda: free_lognormal_support(10**400)),
        ("alpha", lambda: laguerre(3, 10**400, 1.0)),
        ("alpha", lambda: mgf(Semicircle(2), 10**400)),
        ("t", lambda: free_lognormal_moment(3, 10**400)),
        ("t", lambda: additive_mgf(1.0, 10**400)),
        ("alpha", lambda: free_lognormal_moment_alpha(10**400, 1.0)),
    ],
    ids=[
        "free_lognormal_support",
        "laguerre",
        "mgf",
        "free_lognormal_moment",
        "additive_mgf",
        "free_lognormal_moment_alpha",
    ],
)
def test_orders_and_times_past_the_float_range_are_named(name, call):
    # before, OverflowError("int too large to convert to float")
    with pytest.raises(ValueError, match=f"^{name} must be finite, got a number past the float range"):
        call()


class TestEulerIntegral:
    def test_anchor(self):
        # 1F1(1; 2; 1) = e - 1
        assert euler_integral_1f1(1.0, 2.0, 1.0) == pytest.approx(math.e - 1, rel=1e-12)
        # a hard point: u^(a-1) is nearly 1/u and e^(ux) falls by e^-100
        with mpmath.workdps(30):
            ref = float(mpmath.hyp1f1(0.01, 2, -100))
        assert euler_integral_1f1(0.01, 2.0, -100.0) == pytest.approx(ref, rel=1e-10)

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
