from __future__ import annotations

import io
import json
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.integrate

from freemoments import freeconv
from freemoments.freeconv import (
    DensityGrid,
    SubordinationError,
    cauchy_semicircle,
    cauchy_uniform,
    density_grid,
    detect_support,
    exp_pushforward_density,
    free_lognormal_support,
    free_sum_cauchy,
    grid_moments,
)
from freemoments.moments import free_lognormal_moment, semicircle_uniform_moment
from freemoments.specfun import SeriesConvergenceError


def quad_transform(density, lo: float, hi: float, z: complex) -> complex:
    """Brute-force Cauchy transform by quadrature — the independent oracle."""
    real, _ = scipy.integrate.quad(
        lambda x: (density(x) * (z - x).real) / abs(z - x) ** 2, lo, hi, limit=200
    )
    imag, _ = scipy.integrate.quad(
        lambda x: (-density(x) * z.imag) / abs(z - x) ** 2, lo, hi, limit=200
    )
    return complex(real, imag)


def log_edge(t: float) -> float:
    """Right edge ``sqrt(t (1 + t/4)) + 2 asinh(sqrt(t)/2)`` of
    ``Semicircle(2 sqrt t) boxplus Uniform[-t/2, t/2]``."""
    return math.sqrt(t * (1.0 + t / 4.0)) + 2.0 * math.asinh(math.sqrt(t) / 2.0)


def subordination_root(z: complex, c: float, lo: float, hi: float, start: complex):
    """30-digit root of ``G = G_U(z - c G)`` for ``Semicircle(2 sqrt c) boxplus
    Uniform[lo, hi]`` (a point mass when ``lo == hi``), found by
    ``mpmath.findroot`` from ``start``, with ``Im G`` and ``Im(z - c G)``
    returned beside it for the Nevanlinna check."""
    with mpmath.workdps(30):
        cm, zm, lom, him = mpmath.mpf(c), mpmath.mpc(z), mpmath.mpf(lo), mpmath.mpf(hi)
        if lo == hi:
            uniform = lambda w: 1 / (w - lom)
        else:
            uniform = lambda w: mpmath.log((w - lom) / (w - him)) / (him - lom)
        root = mpmath.findroot(lambda G: G - uniform(zm - cm * G), mpmath.mpc(start))
        return complex(root), float(root.imag), float((zm - cm * root).imag)


def high_precision_root(z: complex, t: float, start: complex):
    """:func:`subordination_root` for ``Semicircle(2 sqrt t) boxplus
    Uniform[-t/2, t/2]``."""
    return subordination_root(z, t, -t / 2, t / 2, start)


def assert_matches_root(z: complex, radius: float, lo: float, hi: float) -> None:
    """``free_sum_cauchy`` at z is the Nevanlinna root to 1e-12 relative to
    ``max(1, |G|)``."""
    g = free_sum_cauchy(z, radius, lo, hi)
    reference, im_g, im_w = subordination_root(z, radius * radius / 4, lo, hi, g)
    assert im_g < 0 and im_w > 0, (z, radius, lo, hi)
    assert abs(g - reference) <= 1e-12 * max(1.0, abs(reference)), (z, radius, lo, hi)


class TestCauchyTransforms:
    def test_semicircle_anchor(self):
        # G(i) for radius 2: -i (sqrt 5 - 1)/2
        value = cauchy_semicircle(1j, 2.0)
        assert value.real == pytest.approx(0.0, abs=1e-15)
        assert value.imag == pytest.approx(-(math.sqrt(5) - 1) / 2, rel=1e-14)

    def test_uniform_anchor(self):
        assert cauchy_uniform(1j, -1, 1) == pytest.approx(-1j * math.pi / 4, rel=1e-14)

    def test_semicircle_against_quadrature(self):
        for radius in (1.0, 2.5):
            density = lambda x: (2 / (math.pi * radius**2)) * math.sqrt(
                max(radius**2 - x * x, 0.0)
            )
            for z in (0.3 + 0.7j, -1.2 + 0.1j, 2.0 + 2.0j):
                ours = cauchy_semicircle(z, radius)
                ref = quad_transform(density, -radius, radius, z)
                assert ours == pytest.approx(ref, rel=1e-8)

    def test_uniform_against_quadrature(self):
        lo, hi = -0.5, 1.5
        density = lambda x: 1.0 / (hi - lo)
        for z in (0.2 + 0.4j, 1.0 + 1.0j):
            ours = cauchy_uniform(z, lo, hi)
            ref = quad_transform(density, lo, hi, z)
            assert ours == pytest.approx(ref, rel=1e-9)

    def test_point_interval_collapses_to_resolvent(self):
        assert cauchy_uniform(2j, 0.5, 0.5) == pytest.approx(1 / (2j - 0.5), rel=1e-15)

    def test_upper_half_plane_required(self):
        with pytest.raises(ValueError):
            cauchy_semicircle(1.0 - 0.5j, 2.0)
        with pytest.raises(ValueError):
            cauchy_uniform(complex(1.0, 0.0), -1, 1)

    @pytest.mark.parametrize(
        "region", ["far_field", "log1p_switch", "next_to_lo", "next_to_hi", "bisector"]
    )
    def test_uniform_against_mpmath(self, region):
        # 30-digit log((z - lo)/(z - hi)) / (hi - lo) at the exact binary value
        # of each z; "log1p_switch" puts |z - hi| within 5 % of 2 (hi - lo),
        # on both sides of |width / (z - hi)| = 1/2
        rng = np.random.default_rng(20)
        for lo, hi in ((-0.5, 0.5), (-0.75, 1.25), (-4.0, 4.0)):
            width = hi - lo
            angle = rng.uniform(0.01, math.pi - 0.01, 100)
            if region == "far_field":
                # |z| up to 1e4: half next to the real axis, half at any angle
                size = 10 ** rng.uniform(1, 4, 100)
                axis = rng.choice([-1.0, 1.0], 100) * size + 1j * 10 ** rng.uniform(-8, 0, 100)
                z = np.where(np.arange(100) < 50, axis, size * np.exp(1j * angle))
            elif region == "log1p_switch":
                z = hi + 2.0 * width * rng.uniform(0.95, 1.05, 100) * np.exp(1j * angle)
            elif region in ("next_to_lo", "next_to_hi"):
                centre = lo if region == "next_to_lo" else hi
                z = centre + 10 ** rng.uniform(-12, -6, 100) * np.exp(1j * angle)
            else:
                z = 0.5 * (lo + hi) + 1j * 10 ** rng.uniform(-8, 4, 100)
            with mpmath.workdps(30):
                for point in z:
                    zm = mpmath.mpc(complex(point))
                    reference = complex(mpmath.log((zm - lo) / (zm - hi)) / width)
                    ours = cauchy_uniform(complex(point), lo, hi)
                    assert abs(ours - reference) <= 2e-15 * abs(reference), (lo, hi, point)

    def test_large_argument_asymptotics(self):
        # z G(z) -> 1, including far from the support where naive branch
        # combinations cancel catastrophically
        for y in (10.0, 1e3, 1e5):
            z = complex(0.7, y)
            assert abs(z * cauchy_semicircle(z, 2.0) - 1) < 5 / y
            assert abs(z * cauchy_uniform(z, -1, 1) - 1) < 5 / y


def two_branch_transform(wlo: np.ndarray, whi: np.ndarray, width: float) -> np.ndarray:
    """The uniform law's transform with both log branches taken at every
    point and one picked by ``np.where``: the form whose bits each one-branch
    path of ``freeconv._uniform_transform`` must reproduce."""
    r = 1.0 / whi
    q = width * r
    u = wlo * r
    a, b = q.real, q.imag
    near = a * a + b * b < 0.25
    with np.errstate(divide="ignore", invalid="ignore"):
        modulus = np.where(near, 0.5 * np.log1p(a * (2.0 + a) + b * b), np.log(np.abs(u)))
    phase = np.arctan2(np.where(near, b, u.imag), np.where(near, 1.0 + a, u.real))
    log = np.empty_like(q)
    log.real = modulus
    log.imag = phase
    return log / width


def transform_offsets(rng: np.random.Generator, kind: str, size: int, width: float):
    """``w - lo`` and ``w - hi`` at ``size`` points: "near" has every
    ``|width / (w - hi)| < 1/2`` (the log1p branch), "far" none, "mixed" half
    of each, and "real_axis" puts w on the real axis beside lo and beside
    hi, with both signed zeros.  w = lo itself is left out: there log|u| is
    -inf, and its division by the width leaves nan and warns in either form."""
    if kind == "mixed":
        wlo, whi = zip(transform_offsets(rng, "near", size // 2, width),
                       transform_offsets(rng, "far", size - size // 2, width))
        order = rng.permutation(size)
        return np.concatenate(wlo)[order], np.concatenate(whi)[order]
    if kind == "real_axis":
        # beside hi, |1 / (w - hi)|^2 must stay finite, as on the solver's paths
        gaps = np.array([1e-16, 1e-12, -1e-16, -1e-12]) * width
        beside_hi = rng.choice(gaps, size)
        beside_lo = rng.choice(np.concatenate(([1e-300, -1e-300], gaps)), size)
        imag = rng.choice([0.0, -0.0], size)
        at_lo = rng.random(size) < 0.5
        wlo = np.where(at_lo, beside_lo, beside_hi + width) + 1j * imag
        return wlo, np.where(at_lo, beside_lo - width, beside_hi) + 1j * imag
    if kind == "near":
        distance = width * 10 ** rng.uniform(math.log10(2.001), 8, size)
    else:
        distance = width * 10 ** rng.uniform(-12, math.log10(1.999), size)
    whi = distance * np.exp(1j * rng.uniform(-math.pi, math.pi, size))
    return whi + width, whi


class TestUniformTransformBranches:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("size", [2, 17, 2000])
    @pytest.mark.parametrize("kind", ["near", "far", "mixed", "real_axis"])
    def test_same_bits_as_both_branches(self, kind, size):
        # a mask that is all near or all far runs one branch only; the
        # result must keep every bit of the two-branch form and raise no
        # warning
        rng = np.random.default_rng([size, len(kind)])
        for lo, hi in ((-0.5, 0.5), (-0.3, 1.9), (-4.0, 4.0), (-1e-6, 1e-6)):
            width = hi - lo
            wlo, whi = transform_offsets(rng, kind, size, width)
            ours = freeconv._uniform_transform(wlo, whi, width)
            reference = two_branch_transform(wlo, whi, width)
            assert ours.tobytes() == reference.tobytes(), (kind, size, lo, hi)


class TestFreeSumCauchy:
    def test_herglotz_and_symmetry(self):
        xs = np.linspace(-4, 4, 9)
        for x in xs:
            z = complex(x, 0.05)
            g = free_sum_cauchy(z, 2.0, -1.0, 1.0)
            assert g.imag < 0
            # real measure: G(-conj z) = -conj G(z); here the law is even
            mirrored = free_sum_cauchy(complex(-x, 0.05), 2.0, -1.0, 1.0)
            assert mirrored == pytest.approx(-g.conjugate(), rel=1e-9)

    def test_degenerate_interval_is_shifted_semicircle(self):
        for z in (0.5 + 0.3j, -1.0 + 1.0j):
            combined = free_sum_cauchy(z, 2.0, 0.75, 0.75)
            assert combined == pytest.approx(cauchy_semicircle(z - 0.75, 2.0), rel=1e-11)

    def test_non_convergence_raises(self, monkeypatch):
        # from its real-axis start this point converges in 3 Newton steps
        monkeypatch.setattr(freeconv, "_MAX_ITERATIONS", 1)
        with pytest.raises(SubordinationError):
            free_sum_cauchy(0.1 + 1e-9j, 2.0, -1.0, 1.0)

    def test_agrees_with_high_precision_root(self):
        # G solves G = G_U(z - t G) for Semicircle(2 sqrt t) + Uniform[-t/2, t/2];
        # the 30-digit root with Im G < 0 and Im(z - t G) > 0 is the unique
        # Nevanlinna root, whichever start findroot is given
        for t in (0.25, 1.0, 2.0, 8.0):
            edge = log_edge(t)
            for x in (0.0, edge / 2, edge - 1e-3, edge - 1e-4, edge + 1e-4, edge + 0.3):
                for eta in (1e-1, 1e-3, 1e-5):
                    z = complex(x, eta)
                    g = free_sum_cauchy(z, 2.0 * math.sqrt(t), -t / 2, t / 2)
                    reference, im_g, im_w = high_precision_root(z, t, g)
                    assert im_g < 0 and im_w > 0
                    assert abs(g - reference) <= 1e-12 * max(1.0, abs(reference)), (t, x, eta)

    def test_random_scan_against_high_precision_root(self):
        # a third of the points uniform over the density window, two thirds
        # within 1e-3 of a support edge, where F'(G) -> 0
        rng = np.random.default_rng(1010)
        for k in range(300):
            t = rng.uniform(0.25, 8.0)
            eta = (1e-1, 1e-3, 1e-5)[k % 3]
            edge = log_edge(t)
            if k % 9 < 3:
                x = rng.uniform(-edge - 0.5, edge + 0.5)
            else:
                x = rng.choice([-edge, edge]) + rng.uniform(-1e-3, 1e-3)
            z = complex(x, eta)
            g = free_sum_cauchy(z, 2.0 * math.sqrt(t), -t / 2, t / 2)
            reference, im_g, im_w = high_precision_root(z, t, g)
            assert im_g < 0 and im_w > 0, (t, x, eta)
            assert abs(g - reference) <= 1e-12 * max(1.0, abs(reference)), (t, x, eta)

    def test_step_across_the_real_axis_reaches_the_root(self):
        # from this start the Newton step keeps crossing the real axis; when
        # such steps were halved to stay in Im G < 0, the point stopped once
        # the halved step fell below the tolerance, at 1.99997 - 6.6e-16j,
        # whose residual is 4.4e-2
        z = np.array([1.0 + 1e-3j])
        g = np.array([2.0 - 1e-6j])
        freeconv._newton_stage(z, g, 0.25, -0.125, 0.125, 1e-13, 10_000)
        reference = free_sum_cauchy(1.0 + 1e-3j, 1.0, -0.125, 0.125)
        assert abs(reference - (1.94590 - 0.28067j)) < 1e-5
        assert abs(g[0] - reference) <= 1e-12 * abs(reference)

    def test_final_residual_check_refuses(self):
        # a point may stop on a residual at roundoff, 4 eps max(1, |G|); the
        # final check holds every point to the tolerance it is given, here
        # below roundoff, and refuses what the loop let through
        z = np.linspace(-2.0, 2.0, 50) + 1e-3j
        g = freeconv._subordination_cauchy(z, 2.0, -0.5, 0.5)
        with pytest.raises(SubordinationError, match="residual"):
            freeconv._newton_stage(z, g, 1.0, -0.5, 0.5, 1e-17, 100)

    @pytest.mark.parametrize("eta", [1e-9, 1e-2, 1.0, 10.0, 1e3])
    def test_heights_beyond_the_density_window(self, eta):
        # the start is the boundary value on the real axis; far above it the
        # transform is close to 1/z instead
        for t in (0.25, 2.0, 8.0):
            edge = log_edge(t)
            for x in (0.0, edge / 2, edge - 1e-3, edge + 1e-3, edge + 2.0, -3.0 * edge - 5.0):
                assert_matches_root(complex(x, eta), 2.0 * math.sqrt(t), -t / 2, t / 2)

    def test_points_next_to_an_edge(self):
        # within 1e-6 of an edge, where F'(G) -> 0 as eta -> 0 and the linear
        # interpolation of the start is coarsest
        for t in (0.25, 1.0, 4.0, 16.0):
            edge = log_edge(t)
            for offset in (-1e-6, -1e-7, 0.0, 1e-7, 1e-6):
                for eta in (1e-7, 1e-5, 1e-3):
                    for x in (edge + offset, -edge - offset):
                        assert_matches_root(complex(x, eta), 2.0 * math.sqrt(t), -t / 2, t / 2)

    def test_point_mass_and_narrow_semicircle(self):
        # lo == hi starts from the closed-form semicircle; radius 1e-3 puts
        # Biane's curve 7.9e-7 above [lo, hi] and the support edges 4.1e-6
        # outside it, so next to lo and hi w - lo and w - hi are tiny
        for eta in (1e-9, 1e-5, 1e-2, 1.0):
            for x in (-2.5, -0.3, 0.75, 1.0, 2.0, 40.0):
                assert_matches_root(complex(x, eta), 2.0, 0.75, 0.75)
            for x in (-3.0, -0.5 - 1e-6, -0.5 + 1e-6, 0.1, 0.5 - 1e-3, 0.5 + 1e-3, 3.0):
                assert_matches_root(complex(x, eta), 1e-3, -0.5, 0.5)

    def test_point_next_to_edge_at_large_time(self):
        # 1e-4 inside the right edge at t = 8, eta = 1e-5, where a damped
        # fixed-point iteration on the subordination maps needs more than
        # 10_000 sweeps
        g = free_sum_cauchy(complex(log_edge(8.0) - 1e-4, 1e-5), 2.0 * math.sqrt(8.0), -4.0, 4.0)
        assert g.imag < 0

    def test_random_points_within_1e_6_of_an_edge(self):
        # Halley's correction is largest next to an edge, where F' -> 0
        rng = np.random.default_rng(2028)
        for _ in range(40):
            t = 0.25 * 2 ** rng.uniform(0.0, 6.0)
            eta = 10 ** rng.uniform(-7.0, -3.0)
            x = log_edge(t) + rng.uniform(-1e-6, 1e-6)
            for z in (complex(x, eta), complex(-x, eta)):
                assert_matches_root(z, 2.0 * math.sqrt(t), -t / 2, t / 2)

    def test_newton_fallback_next_to_an_edge(self, monkeypatch):
        # at the edge the real-axis start has F' near 0, so Halley's correction
        # -N F'' / (2 F') is far from small: the first step is Newton's and
        # every later one Halley's.  The solver's transform is wrapped to
        # recompute both steps from the G it is called at.
        t, eta = 1.0, 1e-5
        c, lo, hi = t, -t / 2, t / 2
        z = np.array([complex(log_edge(t), eta)])
        g = freeconv._real_axis_start(z, c, lo, hi)
        uniform = freeconv._uniform_transform
        calls = []

        def recording(wlo, whi, width):
            value = uniform(wlo, whi, width)
            ratio = c / wlo / whi
            newton = (g - value) / (1.0 - ratio)
            correction = newton * ratio**2 * (wlo + whi) / (2.0 * (1.0 - ratio))
            calls.append((g.copy(), newton, newton / (1.0 + correction), abs(correction[0])))
            return value

        monkeypatch.setattr(freeconv, "_uniform_transform", recording)
        freeconv._newton_stage(z, g, c, lo, hi, freeconv._TOLERANCE, freeconv._MAX_ITERATIONS)
        # the last call is the final residual check, at the returned G
        fallbacks = 0
        for (current, newton, halley, size), (following, *_) in zip(calls, calls[1:]):
            fallbacks += size >= 0.5
            new = current - (newton if size >= 0.5 else halley)
            new.imag = -np.abs(new.imag)
            assert np.array_equal(new, following)
        assert fallbacks == 1 and calls[0][3] >= 0.5
        reference, im_g, im_w = high_precision_root(complex(z[0]), t, complex(g[0]))
        assert im_g < 0 and im_w > 0
        assert abs(g[0] - reference) <= 1e-12 * max(1.0, abs(reference))


class TestBianeCurve:
    @pytest.mark.parametrize("t", [0.5, 2.0, 8.0])
    def test_ends_are_the_support_edges(self, t):
        # Semicircle(2 sqrt t) boxplus Uniform[-t/2, t/2] has edges
        # +-log of the free log-normal law's upper edge
        x, g = freeconv._biane_curve(t, -t / 2, t / 2)
        edge = math.log(free_lognormal_support(t).upper)
        assert abs(x[-1] - edge) <= 1e-14 * edge
        assert abs(x[0] + edge) <= 1e-14 * edge
        assert g[0].imag == 0.0 and g[-1].imag == 0.0
        assert (np.diff(x) > 0).all() and (g.imag[1:-1] < 0).all()

    def test_asymmetric_ends_against_mpmath(self):
        # the edges are u + c G_U(u) at the roots of 1 + c G_U'(u) = 0
        c, lo, hi = 0.7, -0.3, 1.9
        x, _ = freeconv._biane_curve(c, lo, hi)
        with mpmath.workdps(30):
            uniform = lambda u: mpmath.log((u - lo) / (u - hi)) / (hi - lo)
            slope = lambda u: (1 / (u - lo) - 1 / (u - hi)) / (hi - lo)
            for bracket, ours in (((lo - 5, lo - 1e-3), x[0]), ((hi + 1e-3, hi + 5), x[-1])):
                u = mpmath.findroot(lambda u: 1 + c * slope(u), bracket, solver="anderson")
                edge = float(u + c * uniform(u))
                assert abs(ours - edge) <= 1e-14 * abs(edge)

    @pytest.mark.parametrize(
        "c,lo,hi",
        [
            (0.25, -0.125, 0.125),
            (0.7, -0.3, 1.9),
            (64.0, -32.0, 32.0),
            (1e-4, -1.0, 1.0),
            (1e-8, -1.0, 1.0),
            (1.0, -1e-6, 1e-6),
        ],
    )
    @pytest.mark.filterwarnings("error")
    def test_samples_solve_the_equation_on_the_real_axis(self, c, lo, hi):
        # each sample is G(x + i0) = G_U(omega) with omega = x - c G above the
        # real axis; the ends, where omega is real, are checked above.  At
        # c = 1e-8 a sample meets log1p(-1) in the branch it does not take.
        x, g = freeconv._biane_curve(c, lo, hi)
        omega = x[1:-1] - c * g[1:-1]
        assert (omega.imag > 0).all()
        uniform = np.array([cauchy_uniform(w, lo, hi) for w in omega])
        assert np.abs(uniform - g[1:-1]).max() <= 1e-13 * max(1.0, np.abs(g).max())

    @pytest.mark.parametrize("c", [1e-12, 1e-8, 1e-4, 1.0, 64.0, 1e6, 1e10])
    def test_apex_angle(self, c):
        # at u = mid the circle equation (u - lo)(u - hi) + v^2 = width v cot(theta),
        # v = c theta / width, times sinc(theta) is smooth on [0, pi]; the
        # curve's own solve gives the apex at (u - lo)(u - hi) = -h^2.  No
        # sample of the curve sits at mid, so the apex is above every sample,
        # by about 3e-5 relative at c >= 1.  The two are compared as
        # Im G = -theta / width: at c = 1e-12, width 100 both angles round to
        # 3 ulp below pi, and -width * Im G rounds the sample's up by 1 ulp
        for width in (1e-3, 1.0, 100.0):
            lo, hi = -0.5 * width, 0.5 * width
            half_sq = (0.5 * width) ** 2
            theta = float(freeconv._biane_angles(c, width, np.array([-half_sq]))[0])
            assert 0.0 < theta < math.pi
            v = c * theta / width
            residual = (half_sq - v * v) * math.sin(theta) / theta + c * math.cos(theta)
            assert abs(residual) <= 1e-12 * (half_sq + v * v + c)
            lowest = float(freeconv._biane_curve(c, lo, hi)[1].imag.min())
            assert -theta / width <= lowest
            assert theta <= -width * lowest * (1 + 1e-4)


class TestSolverWork:
    # point evaluations of the uniform transform that the solver this one
    # replaced (Newton continued down from height 1 in stages of a factor
    # 1000, each started from a tangent predictor) spent on these grids
    CONTINUATION = {
        (0.25, 1e-3): 39262,
        (0.25, 1e-5): 50900,
        (2.0, 1e-3): 38904,
        (2.0, 1e-5): 47711,
        (8.0, 1e-3): 37284,
        (8.0, 1e-5): 45554,
    }

    @pytest.mark.parametrize("t,eta", sorted(CONTINUATION))
    def test_work_on_workload_grids(self, monkeypatch, t, eta):
        # every Newton step and every residual check evaluate G_U once; the
        # solved half and the reflected half of the grid are checked apart
        sizes = []
        checks = []
        uniform = freeconv._uniform_transform
        check = freeconv._check_residual

        def counting(wlo, whi, width):
            sizes.append(wlo.size)
            return uniform(wlo, whi, width)

        def counting_check(*args):
            checks.append(args[0].size)
            check(*args)

        monkeypatch.setattr(freeconv, "_uniform_transform", counting)
        monkeypatch.setattr(freeconv, "_check_residual", counting_check)
        edge = log_edge(t)
        grid_moments(2.0 * math.sqrt(t), -t / 2, t / 2, -edge - 0.5, edge + 0.5, 4000, eta, 0)
        assert sum(checks) == 4000
        assert len(sizes) - len(checks) <= 10  # Newton steps, without the checks
        assert sum(sizes) < 0.5 * self.CONTINUATION[(t, eta)]

    # point evaluations that plain Newton steps, from the same start and with
    # the same stopping rule, spent in the solver on these grids: 37 650 in all
    NEWTON = {
        (0.25, 1e-3): 7269,
        (0.25, 1e-5): 6019,
        (2.0, 1e-3): 6301,
        (2.0, 1e-5): 6007,
        (8.0, 1e-3): 6108,
        (8.0, 1e-5): 5946,
    }

    def test_halley_steps_on_workload_grids(self, monkeypatch):
        # Halley steps spent 30 126 (4253 to 6016 a grid); the curve's samples
        # and the two residual checks are not counted
        sizes = []
        checks = []
        uniform = freeconv._uniform_transform
        check = freeconv._check_residual

        def counting(wlo, whi, width):
            sizes.append(wlo.size)
            return uniform(wlo, whi, width)

        def counting_check(*args):
            checks.append(args[0].size)
            check(*args)

        monkeypatch.setattr(freeconv, "_uniform_transform", counting)
        monkeypatch.setattr(freeconv, "_check_residual", counting_check)
        total = 0
        for (t, eta), newton in sorted(self.NEWTON.items()):
            sizes.clear()
            checks.clear()
            edge = log_edge(t)
            grid_moments(2.0 * math.sqrt(t), -t / 2, t / 2, -edge - 0.5, edge + 0.5, 4000, eta, 0)
            solver = sum(sizes) - sum(checks) - freeconv._CURVE_SAMPLES
            assert solver < newton, (t, eta)
            total += solver
        assert total <= 31_000


class TestDensityGrid:
    def test_semicircle_center_value(self):
        # degenerate uniform: pure semicircle, density 1/pi at 0 for radius 2
        grid = density_grid(2.0, 0.0, 0.0, -2.6, 2.6, 2000, 1e-3)
        mid = grid.values[np.argmin(np.abs(grid.abscissae))]
        assert mid == pytest.approx(1 / math.pi, abs=2e-3)

    def test_uniform_dominated_plateau(self):
        # negligible semicircle: density ~ 1/2 inside [-1, 1]
        grid = density_grid(0.01, -1.0, 1.0, -1.5, 1.5, 3000, 1e-3)
        inside = np.abs(grid.abscissae) < 0.5
        assert np.allclose(grid.values[inside], 0.5, atol=5e-3)

    def test_mass_estimate_near_one(self):
        t = 1.0
        edge = math.log(free_lognormal_support(t).upper)
        grid = density_grid(2.0, -0.5, 0.5, -edge - 0.25, edge + 0.25, 2000, 1e-3)
        assert 0.98 <= grid.mass_estimate <= 1.02

    def test_edge_points_at_large_time_and_small_eta(self):
        # t = 8, eta = 1e-5: two grid points fall 2e-4 from an edge
        edge = 7.1914
        eta = 1e-5
        margin = 0.5
        grid = density_grid(
            2.0 * math.sqrt(8.0), -4.0, 4.0, -edge - margin, edge + margin, 2000, eta
        )
        # the Cauchy tails beyond the window hold about 2 eta / (pi margin)
        assert abs(grid.mass_estimate - 1.0) <= 4.0 * eta / margin + 1e-4

    @pytest.mark.parametrize("t", [16.0, 64.0])
    def test_large_time_at_tiny_eta(self, t):
        # one Newton stage from the real-axis start still converges at
        # eta = 1e-7 next to the edges of a support 75 wide (t = 64)
        eta, margin = 1e-7, 0.5
        edge = log_edge(t)
        grid = density_grid(
            2.0 * math.sqrt(t), -t / 2, t / 2, -edge - margin, edge + margin, 2000, eta
        )
        assert abs(grid.mass_estimate - 1.0) <= 4.0 * eta / margin + 1e-4

    def test_edge_point_with_stalled_newton_step(self, monkeypatch):
        # at x = -1.61745, next to the left edge, the residual reaches
        # roundoff (2.2e-16) while the Newton step stays near 1.3e-14, so a
        # step-only stopping test at tolerance 1e-14 never ends there
        t = 0.6220703125
        window = 2.1174105115801725  # log_edge(t) + 0.5
        for tolerance in (1e-13, 1e-14):
            monkeypatch.setattr(freeconv, "_TOLERANCE", tolerance)
            grid = density_grid(
                2.0 * math.sqrt(t), -t / 2, t / 2, -window, window, 2000, 1e-5
            )
            assert abs(grid.mass_estimate - 1.0) <= 4.0 * 1e-5 / 0.5 + 1e-4

    def test_validation(self):
        with pytest.raises(ValueError):
            DensityGrid(np.array([1.0, 0.5]), np.array([0.1, 0.1]), 1e-3, 1.0)
        with pytest.raises(ValueError):
            DensityGrid(np.array([0.0, 1.0]), np.array([-0.1, 0.1]), 1e-3, 1.0)
        with pytest.raises(ValueError):
            DensityGrid(np.array([0.0, 1.0]), np.array([0.1, 0.1]), 0.0, 1.0)
        with pytest.raises(ValueError):
            density_grid(2.0, 0.0, 0.0, 1.0, -1.0, 100, 1e-3)

    def test_csv_round_trip_is_bit_exact(self):
        grid = density_grid(2.0, -0.5, 0.5, -3.0, 3.0, 64, 1e-2)
        buffer = io.StringIO()
        grid.to_csv(buffer)
        text = buffer.getvalue()
        header, *lines = text.splitlines()
        assert header == "x,density"
        parsed = np.array([[float(cell) for cell in line.split(",")] for line in lines])
        assert np.array_equal(parsed[:, 0], grid.abscissae)
        assert np.array_equal(parsed[:, 1], grid.values)

    def test_json_round_trip(self):
        grid = density_grid(1.0, -0.25, 0.25, -2.0, 2.0, 32, 1e-2)
        parsed = json.loads(grid.to_json())
        assert np.array_equal(np.array(parsed["abscissae"]), grid.abscissae)
        assert np.array_equal(np.array(parsed["values"]), grid.values)
        assert parsed["eta"] == grid.eta
        assert parsed["mass_estimate"] == grid.mass_estimate


def centred_window(t: float) -> tuple[float, float, float, float, float]:
    """radius, lo, hi, x_lo, x_hi of the density workload's window at t."""
    edge = log_edge(t) + 0.5
    return 2.0 * math.sqrt(t), -t / 2, t / 2, -edge, edge


class TestCentredGrids:
    @pytest.mark.parametrize("points", [2, 3, 2000, 4001])
    @pytest.mark.parametrize("eta", [1e-3, 1e-5])
    @pytest.mark.parametrize("t", [0.25, 2.0, 8.0])
    def test_reflection_matches_a_full_solve(self, t, eta, points):
        radius, lo, hi, x_lo, x_hi = centred_window(t)
        x, g = freeconv._grid_cauchy(radius, lo, hi, x_lo, x_hi, points, eta)
        full = freeconv._subordination_cauchy(x + 1j * eta, radius, lo, hi)
        assert (np.abs(g - full) <= 1e-13 * np.maximum(1.0, np.abs(full))).all()
        # the solved half is the full solve, bit for bit
        half = points // 2
        assert np.array_equal(g[half:], full[half:])
        grid = density_grid(radius, lo, hi, x_lo, x_hi, points, eta)
        assert np.array_equal(grid.abscissae, x)
        assert np.array_equal(grid.values, -g.imag / math.pi)

    @pytest.mark.parametrize("points", [2, 3, 4, 5, 1999, 2000, 4001])
    def test_centred_abscissae(self, points):
        rng = np.random.default_rng(points)
        for edge in rng.uniform(0.5, 10.0, 20):
            x, _ = freeconv._grid_cauchy(1.0, -0.5, 0.5, -edge, edge, points, 1e-2)
            linspace = np.linspace(-edge, edge, points)
            half = points // 2
            assert np.array_equal(x, -x[::-1])
            assert (np.diff(x) > 0).all()
            assert np.array_equal(x[points - half :], linspace[points - half :])
            if points % 2:
                assert x[half] == 0.0
            # np.linspace rounds each abscissa to within about 1.5 ulp of the
            # window's end, so mirrored pairs can disagree by 3
            assert (np.abs(x - linspace) <= 3.0 * np.spacing(edge)).all()

    def test_every_point_is_checked_once(self, monkeypatch):
        checked = []
        check = freeconv._check_residual

        def recording(z, *args):
            checked.append(z.real.copy())
            check(z, *args)

        monkeypatch.setattr(freeconv, "_check_residual", recording)
        radius, lo, hi, x_lo, x_hi = centred_window(2.0)
        grid = density_grid(radius, lo, hi, x_lo, x_hi, 2001, 1e-3)
        assert len(checked) == 2
        assert np.array_equal(np.sort(np.concatenate(checked)), grid.abscissae)

    def test_reflected_half_is_checked(self, monkeypatch):
        # the residual check below roundoff refuses the reflected half alone
        check = freeconv._check_residual

        def strict_on_the_left(z, g, c, lo, hi, tolerance):
            check(z, g, c, lo, hi, 1e-17 if (z.real < 0).all() else tolerance)

        monkeypatch.setattr(freeconv, "_check_residual", strict_on_the_left)
        radius, lo, hi, x_lo, x_hi = centred_window(2.0)
        with pytest.raises(SubordinationError, match="residual"):
            density_grid(radius, lo, hi, x_lo, x_hi, 2000, 1e-3)

    def test_tolerance_below_roundoff_refuses(self, monkeypatch):
        monkeypatch.setattr(freeconv, "_TOLERANCE", 1e-17)
        radius, lo, hi, x_lo, x_hi = centred_window(1.0)
        with pytest.raises(SubordinationError, match="residual"):
            density_grid(radius, lo, hi, x_lo, x_hi, 2000, 1e-3)

    @pytest.mark.parametrize(
        "radius,lo,hi,x_lo,x_hi",
        [
            (2.0, -1.0, 0.0, -3.3, 2.3),  # criterion 7's law, Uniform[-t, 0]
            (2.0 * math.sqrt(2.0), -1.0, 1.0, -4.5, 4.0),  # off-centre window
            (2.0 * math.sqrt(2.0), -1.0, 1.0, -4.0, 4.5),
        ],
    )
    def test_other_grids_are_solved_whole(self, radius, lo, hi, x_lo, x_hi):
        # same bits as a full solve on np.linspace, and the contour moments
        # are the trapezoids of z^n G taken one order at a time
        eta, points = 1e-3, 3001
        x = np.linspace(x_lo, x_hi, points)
        z = x + 1j * eta
        g = freeconv._subordination_cauchy(z, radius, lo, hi)
        grid = density_grid(radius, lo, hi, x_lo, x_hi, points, eta)
        assert np.array_equal(grid.abscissae, x)
        assert np.array_equal(grid.values, -g.imag / math.pi)
        expected = []
        zg = g
        for _ in range(5):
            line = -float(np.trapezoid(zg.imag, x)) / math.pi
            expected.append(line + (eta / math.pi) * float(zg[-1].real - zg[0].real))
            zg = zg * z
        assert grid_moments(radius, lo, hi, x_lo, x_hi, points, eta, 4) == expected


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_arguments_raise_value_error(bad):
    # before, these ran the whole Newton budget and raised
    # SubordinationError, and free_lognormal_support(nan) returned nan edges
    grid = dict(radius=2.0, lo=-0.5, hi=0.5, x_lo=-3.0, x_hi=3.0, points=64, eta=1e-2)
    calls = []
    for name in ("radius", "lo", "hi", "x_lo", "x_hi", "eta"):
        calls.append((name, lambda name=name: density_grid(**{**grid, name: bad})))
        calls.append((name, lambda name=name: grid_moments(**{**grid, name: bad}, n_max=2)))
    for name in ("radius", "lo", "hi"):
        law = dict(radius=2.0, lo=-0.5, hi=0.5)
        calls.append((name, lambda name=name: free_sum_cauchy(0.1 + 0.1j, **{**law, name: bad})))
    # before, these warned and raised BranchError
    calls.append(("radius", lambda: cauchy_semicircle(0.1 + 0.1j, bad)))
    calls.append(("lo", lambda: cauchy_uniform(0.1 + 0.1j, bad, 1.0)))
    calls.append(("hi", lambda: cauchy_uniform(0.1 + 0.1j, 0.0, bad)))
    calls.append(("z", lambda: free_sum_cauchy(complex(bad, 0.1), 2.0, -0.5, 0.5)))
    calls.append(("z", lambda: free_sum_cauchy(complex(0.1, bad), 2.0, -0.5, 0.5)))
    calls.append(("t", lambda: free_lognormal_support(bad)))
    for name, call in calls:
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            call()


@pytest.mark.parametrize(
    "name, call",
    [
        ("radius", lambda: free_sum_cauchy(1j, 10**400, 0, 1)),
        ("hi", lambda: cauchy_uniform(1j, 0, 10**400)),
    ],
    ids=["free_sum_cauchy", "cauchy_uniform"],
)
def test_exact_law_parameters_past_the_float_range_are_named(name, call):
    # before, OverflowError("int too large to convert to float")
    with pytest.raises(ValueError, match=f"^{name} must be finite, got a number past the float range"):
        call()


@pytest.mark.filterwarnings("error")
def test_grid_arguments_that_name_no_law_raise_value_error():
    # before, both returned numbers, where free_sum_cauchy raises
    with pytest.raises(ValueError, match="radius"):
        grid_moments(-2.0, -0.5, 0.5, -3.0, 3.0, 64, 1e-2, 2)
    with pytest.raises(ValueError, match="lo <= hi"):
        density_grid(2.0, 0.5, -0.5, -3.0, 3.0, 64, 1e-2)


class TestGridMoments:
    def test_matches_exact_engine(self):
        t = 1.0
        radius = 2.0 * math.sqrt(t)
        lo, hi = -t, 0.0
        window_lo = -(radius + t) - 0.3
        window_hi = radius + 0.3
        estimates = grid_moments(radius, lo, hi, window_lo, window_hi, 4000, 1e-3, 6)
        for n in range(7):
            exact = float(semicircle_uniform_moment(n, t, -t, 0))
            assert abs(estimates[n] - exact) <= 1e-3 * max(abs(exact), 1e-2), n

    def test_contour_correction_beats_plain_trapezoid(self):
        # same grid, same eta: the plain x^n rho_eta quadrature carries the
        # documented O(eta) spreading bias, the contour version cancels it
        t = 1.0
        radius = 2.0
        grid = density_grid(radius, -t, 0.0, -3.3, 2.3, 4000, 1e-3)
        contour = grid_moments(radius, -t, 0.0, -3.3, 2.3, 4000, 1e-3, 4)
        exact = float(semicircle_uniform_moment(4, t, -t, 0))
        plain = np.trapezoid(grid.abscissae**4 * grid.values, grid.abscissae)
        assert abs(contour[4] - exact) < abs(plain - exact) / 50


def free_sum_mgf(alpha: complex, c: float, lo: float, hi: float) -> complex:
    """``E[e^(alpha X)]`` for ``X ~ Semicircle(2 sqrt c) boxplus Uniform[lo, hi]``
    in 40-digit mpmath: ``e^(alpha hi) 1F1(1 - alpha c / w; 2; -alpha w)``,
    ``w = hi - lo``."""
    with mpmath.workdps(40):
        a, c, lo, hi = mpmath.mpmathify(alpha), mpmath.mpf(c), mpmath.mpf(lo), mpmath.mpf(hi)
        w = hi - lo
        return complex(mpmath.exp(a * hi) * mpmath.hyp1f1(1 - a * c / w, 2, -a * w))


class TestContourMgf:
    @pytest.mark.parametrize("c, lo, hi", [(0.7, -0.3, 1.9), (2.0, -5.0, -1.0), (25.0, 0.0, 0.1)])
    @pytest.mark.parametrize("alpha", [1.5, -3.0, 6.0, 2 + 1j, -2.5 - 0.5j, 4j, 1 + 3j])
    def test_asymmetric_laws_against_mpmath(self, c, lo, hi, alpha):
        # moments.mgf refuses (25, 0, 0.1) at 4j and 1 + 3j, where its
        # 1F1 sum cancels, and is 3.1e-9 off at (2, -5, -1), 4j
        reference = free_sum_mgf(alpha, c, lo, hi)
        value = freeconv._contour_mgf(complex(alpha), c, lo, hi)
        assert abs(value - reference) <= 1e-13 * (1 + abs(reference))
        if isinstance(alpha, float):
            assert value.imag == 0.0

    @pytest.mark.parametrize("alpha, t", [(5.0, 200.0), (2.5, 400.0), (-3.0, 300.0)])
    def test_values_near_the_float_maximum(self, alpha, t):
        # the integrand reaches about e^531 at (5, 200); it is scaled by its
        # largest modulus, applied to the value at the end
        reference = free_sum_mgf(alpha, t, -t / 2, t / 2)
        value = freeconv._contour_mgf(complex(alpha), t, -t / 2, t / 2)
        assert abs(value - reference) <= 1e-11 * abs(reference)

    def test_refusals(self, monkeypatch):
        with pytest.raises(SeriesConvergenceError, match="float range"):
            freeconv._contour_mgf(5 + 0j, 400.0, -200.0, 200.0)
        # e^(30 i z) oscillates across the support: the value is 2.1e-4 and
        # the largest term more than 2^26 times that
        with pytest.raises(SeriesConvergenceError, match="half its digits"):
            freeconv._contour_mgf(30j, 16.0, -8.0, 8.0)
        monkeypatch.setattr(freeconv, "_CONTOUR_MAX_NODES", 64)
        with pytest.raises(SeriesConvergenceError, match="did not settle"):
            freeconv._contour_mgf(1 + 0j, 1.0, -0.5, 0.5)


class TestPushforwardAndSupport:
    def test_pushforward_preserves_mass_and_first_moment(self):
        t = 1.0
        edge = math.log(free_lognormal_support(t).upper)
        log_grid = density_grid(2.0, -0.5, 0.5, -edge - 0.25, edge + 0.25, 4000, 1e-3)
        pushed = exp_pushforward_density(log_grid)
        assert pushed.mass_estimate == pytest.approx(log_grid.mass_estimate, abs=1e-3)
        first = np.trapezoid(pushed.abscissae * pushed.values, pushed.abscissae)
        assert first == pytest.approx(free_lognormal_moment(1, t), rel=1e-3)

    def test_support_endpoints_multiply_to_one(self):
        for t in (0.1, 0.5, 1.0, 2.0, 8.0):
            support = free_lognormal_support(t)
            assert support.lower * support.upper == pytest.approx(1.0, rel=1e-12)
            assert support.lower < 1 < support.upper

    def test_support_collapses_at_small_time(self):
        support = free_lognormal_support(1e-12)
        assert support.lower == pytest.approx(1.0, abs=1e-5)
        assert support.upper == pytest.approx(1.0, abs=1e-5)

    def test_support_closed_form_at_two(self):
        support = free_lognormal_support(2.0)
        r = math.sqrt(3.0)
        assert support.lower == pytest.approx((2 - r) * math.exp(-r), rel=1e-14)
        assert support.upper == pytest.approx((2 + r) * math.exp(r), rel=1e-14)

    def test_detect_support_on_synthetic_triangle(self):
        xs = np.linspace(-2.0, 2.0, 4001)
        values = np.clip(1.0 - np.abs(xs), 0.0, None)
        grid = DensityGrid(xs, values, 1e-3, 1.0)
        # a relative threshold q on a unit-slope triangle sits q inside the edge
        found = detect_support(grid, threshold=1e-2)
        assert found.lower == pytest.approx(-1.0, abs=1.2e-2)
        assert found.upper == pytest.approx(1.0, abs=1.2e-2)

    def test_multiplicative_detection_needs_positive_axis(self):
        xs = np.linspace(-1.0, 1.0, 11)
        grid = DensityGrid(xs, np.ones_like(xs), 1e-3, 2.0)
        with pytest.raises(ValueError):
            detect_support(grid, multiplicative=True)

    def test_threshold_validated(self):
        xs = np.linspace(0.5, 1.5, 11)
        grid = DensityGrid(xs, np.ones_like(xs), 1e-3, 1.0)
        with pytest.raises(ValueError):
            detect_support(grid, threshold=0.0)
