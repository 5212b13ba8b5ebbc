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


def high_precision_root(z: complex, t: float, start: complex):
    """30-digit root of ``G = G_U(z - t G)`` for ``Semicircle(2 sqrt t) boxplus
    Uniform[-t/2, t/2]``, found by ``mpmath.findroot`` from ``start``, with
    ``Im G`` and ``Im(z - t G)`` returned beside it for the Nevanlinna check."""
    with mpmath.workdps(30):
        c, half, zm = mpmath.mpf(t), mpmath.mpf(t) / 2, mpmath.mpc(z)
        root = mpmath.findroot(
            lambda G: G - mpmath.log((zm - c * G + half) / (zm - c * G - half)) / c,
            mpmath.mpc(start),
        )
        return complex(root), float(root.imag), float((zm - c * root).imag)


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
        monkeypatch.setattr(freeconv, "_MAX_ITERATIONS", 3)
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

    def test_point_next_to_edge_at_large_time(self):
        # 1e-4 inside the right edge at t = 8, eta = 1e-5, where a damped
        # fixed-point iteration on the subordination maps needs more than
        # 10_000 sweeps
        g = free_sum_cauchy(complex(log_edge(8.0) - 1e-4, 1e-5), 2.0 * math.sqrt(8.0), -4.0, 4.0)
        assert g.imag < 0


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
        # continuation stages three decades apart still converge at
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
        assert abs(contour[4] - exact) < abs(grid.moment(4) - exact) / 50


class TestPushforwardAndSupport:
    def test_pushforward_preserves_mass_and_first_moment(self):
        t = 1.0
        edge = math.log(free_lognormal_support(t).upper)
        log_grid = density_grid(2.0, -0.5, 0.5, -edge - 0.25, edge + 0.25, 4000, 1e-3)
        pushed = exp_pushforward_density(log_grid)
        assert pushed.mass_estimate == pytest.approx(log_grid.mass_estimate, abs=1e-3)
        assert pushed.moment(1) == pytest.approx(
            free_lognormal_moment(1, t), rel=1e-3
        )

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
