from __future__ import annotations

import io
import json
import math

import mpmath
import numpy as np
import pytest
import scipy.linalg

from freemoments.moments import free_lognormal_moment, semicircle_uniform_moment
from freemoments.rmtlab import (
    AdditiveModelConfig,
    EmpiricalSpectrum,
    MultiplicativeModelConfig,
    PositivityError,
    _expm,
    additive_drift,
    additive_matrix,
    convergence_report,
    empirical_moments,
    sample_additive,
    sample_multiplicative,
)


class TestConfigs:
    def test_validation(self):
        with pytest.raises(ValueError):
            AdditiveModelConfig(size=1, time=1.0)
        with pytest.raises(ValueError):
            AdditiveModelConfig(size=10, time=0.0)
        with pytest.raises(ValueError):
            AdditiveModelConfig(size=10, time=1.0, seed=2**64)
        with pytest.raises(ValueError):
            MultiplicativeModelConfig(size=10, time=1.0, steps=0)

    def test_spectrum_invariants(self):
        with pytest.raises(ValueError):
            EmpiricalSpectrum(
                eigenvalues=np.array([2.0, 1.0]),
                model="additive",
                size=2,
                time=1.0,
                seed=0,
                trial=0,
            )
        with pytest.raises(ValueError):
            EmpiricalSpectrum(
                eigenvalues=np.array([1.0, 2.0]),
                model="mystery",
                size=2,
                time=1.0,
                seed=0,
                trial=0,
            )


class TestAdditiveModel:
    def test_deterministic_given_seed_and_trial(self):
        config = AdditiveModelConfig(size=60, time=1.0, seed=7)
        first = sample_additive(config, trial=5)
        second = sample_additive(config, trial=5)
        assert np.array_equal(first.eigenvalues, second.eigenvalues)
        other_trial = sample_additive(config, trial=6)
        assert not np.array_equal(first.eigenvalues, other_trial.eigenvalues)

    def test_drift_is_exactly_centered_and_bounded(self):
        for size, t in ((2, 1.0), (41, 2.0), (100, 0.3)):
            drift = additive_drift(size, t)
            # exactly antisymmetric as a multiset (IEEE sign symmetry), so the
            # distribution is centered exactly; a naive running sum may still
            # carry rounding dust when t/size is not dyadic
            assert np.array_equal(drift, -drift[::-1])
            assert (drift + drift[::-1]).sum() == 0.0
            assert np.abs(drift).max() <= t
            spacing = np.diff(drift)
            assert np.allclose(spacing, 2 * t / size)

    def test_zero_noise_limit_shrinks_spectrum(self):
        tiny = sample_additive(AdditiveModelConfig(size=40, time=1e-12, seed=3))
        assert np.abs(tiny.eigenvalues).max() < 1e-5

    def test_unitary_conjugation_leaves_spectrum_alone(self):
        config = AdditiveModelConfig(size=40, time=1.0, seed=11)
        matrix = additive_matrix(config, trial=0)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(99)))
        ginibre = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
        unitary, _ = np.linalg.qr(ginibre)
        rotated = unitary @ matrix @ unitary.conj().T
        direct = np.linalg.eigvalsh(matrix)
        conjugated = np.linalg.eigvalsh(rotated)
        assert np.allclose(direct, conjugated, atol=1e-10)

    def test_trace_moments_match_eigenvalue_moments(self):
        config = AdditiveModelConfig(size=50, time=1.0, seed=4)
        matrix = additive_matrix(config)
        spectrum = sample_additive(config)
        m2 = empirical_moments(spectrum, 2)[1]
        assert m2 == pytest.approx((matrix @ matrix).trace().real / 50, rel=1e-12)

    @pytest.mark.parametrize("size", [2, 41, 200])
    def test_matches_reference_construction_bit_for_bit(self, size):
        # the sampler's draws, put together as in the model's definition
        config = AdditiveModelConfig(size=size, time=1.3, seed=19)
        rng = _philox(19, 2)
        raw = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        reference = (raw + raw.conj().T) * (0.5 * math.sqrt(1.3 / size))
        reference += np.diag(additive_drift(size, 1.3))
        expected = np.linalg.eigvalsh(reference)
        matrix = additive_matrix(config, trial=2)
        assert np.array_equal(matrix, reference)
        assert np.array_equal(np.linalg.eigvalsh(matrix), expected)
        assert np.array_equal(sample_additive(config, trial=2).eigenvalues, expected)

    def test_moments_approach_free_sum(self):
        # single large sample; the free limit is Semicircle(2 sqrt t) + Unif[-t, t]
        spectrum = sample_additive(AdditiveModelConfig(size=600, time=1.0, seed=1))
        m = empirical_moments(spectrum, 4)
        assert m[1] == pytest.approx(float(semicircle_uniform_moment(2, 1, -1, 1)), rel=0.05)
        assert m[3] == pytest.approx(float(semicircle_uniform_moment(4, 1, -1, 1)), rel=0.08)


class TestMultiplicativeModel:
    def test_deterministic(self):
        config = MultiplicativeModelConfig(size=24, time=0.5, steps=6, seed=9)
        first = sample_multiplicative(config, trial=1)
        second = sample_multiplicative(config, trial=1)
        assert np.array_equal(first.eigenvalues, second.eigenvalues)

    def test_eigenvalues_positive_and_sorted(self):
        spectrum = sample_multiplicative(
            MultiplicativeModelConfig(size=50, time=1.0, steps=20, seed=2)
        )
        assert spectrum.eigenvalues[0] > 0
        assert np.all(np.diff(spectrum.eigenvalues) >= 0)

    def test_identity_limit_at_small_time(self):
        spectrum = sample_multiplicative(
            MultiplicativeModelConfig(size=30, time=1e-10, steps=1, seed=5)
        )
        assert np.allclose(spectrum.eigenvalues, 1.0, atol=1e-4)

    def test_positivity_violation_raises(self):
        # one enormous step: G G* is numerically singular and the eigensolver
        # rounds the smallest eigenvalue nonpositive
        config = MultiplicativeModelConfig(size=16, time=2000.0, steps=1, seed=0)
        with pytest.raises(PositivityError):
            sample_multiplicative(config)

    def test_overflow_raises(self):
        # G G* past the float range is refused like a nonpositive eigenvalue
        config = MultiplicativeModelConfig(size=8, time=1e6, steps=1, seed=0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(PositivityError):
                sample_multiplicative(config)

    def test_first_moment_benchmark(self):
        # E tr H / N -> e^{t/2}; modest size keeps this quick
        config = MultiplicativeModelConfig(size=80, time=1.0, steps=40, seed=7)
        means = [
            empirical_moments(sample_multiplicative(config, trial=k), 1)[0]
            for k in range(12)
        ]
        assert np.mean(means) == pytest.approx(math.exp(0.5), rel=0.03)


def _philox(seed: int, trial: int) -> np.random.Generator:
    # the sampler's per-trial stream, rebuilt here so replays do not use it
    sequence = np.random.SeedSequence(entropy=seed, spawn_key=(trial,))
    return np.random.Generator(np.random.Philox(sequence))


def _increment(rng: np.random.Generator, size: int, delta: float) -> np.ndarray:
    # the sampler's exponent, entries of variance delta/N, drawn as it draws them
    raw = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    return math.sqrt(delta / (2.0 * size)) * raw


def _rel_err(value: np.ndarray, reference: np.ndarray) -> float:
    return float(np.linalg.norm(value - reference) / np.linalg.norm(reference))


def _mpmath_expm(x: np.ndarray) -> np.ndarray:
    with mpmath.workdps(30):
        return np.array(mpmath.expm(mpmath.matrix(x.tolist())).tolist(), dtype=complex)


class TestTaylorExponential:
    def test_matches_mpmath_at_30_digits(self):
        # delta = sigma^2 runs from below the sampler's steps to norms that
        # need scaling and squaring (sigma = 20)
        for size in (1, 2, 5, 8):
            for sigma in (1e-3, 0.05, 0.5, 3.0, 20.0):
                x = _increment(_philox(5, size), size, sigma**2)
                assert _rel_err(_expm(x), _mpmath_expm(x)) <= 1e-14, (size, sigma)

    def test_matches_scipy_at_sampler_sizes(self):
        for size in (64, 126, 300):
            for delta in (2.5e-3, 0.05):
                x = _increment(_philox(17, size), size, delta)
                assert _rel_err(_expm(x), scipy.linalg.expm(x)) <= 1e-13, (size, delta)

    def test_scaling_and_squaring(self):
        # the one increment of test_positivity_violation_raises: delta = 1000
        # gives ||x||_F ~ 126, far past what degree 16 reaches unscaled
        x = _increment(_philox(0, 0), 16, 1000.0)
        result = _expm(x)
        assert np.isfinite(result).all()
        assert _rel_err(result, _mpmath_expm(x)) <= 1e-13

    def test_overflowing_powers_give_nan(self):
        x = np.full((4, 4), 1e100, dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isnan(_expm(x)).all()

    @pytest.mark.parametrize(
        "size, delta",
        [(8, 1e-12), (24, 0.05), (16, 1000.0), (4, math.nan)],
        ids=["degree-4", "horner", "scaling-and-squaring", "overflow-nan"],
    )
    def test_result_owns_its_memory(self, size, delta):
        def increment(trial):
            if math.isnan(delta):
                return np.full((size, size), 1e100 * (trial + 1), dtype=complex)
            return _increment(_philox(29, trial), size, delta)

        x = increment(0)
        before = x.copy()
        with np.errstate(over="ignore", invalid="ignore"):
            first = _expm(x)
            kept = first.copy()
            second = _expm(increment(1))
        assert np.array_equal(x, before)
        assert first.base is None
        assert not np.shares_memory(first, second)
        assert np.array_equal(first, kept, equal_nan=True)

    def test_sampler_replays_with_scipy_expm(self):
        # montecarlo-sized (delta = 0.05) and criterion-9-sized (delta =
        # 2.5e-3) steps, and one and two steps, where G starts at the first
        # exponential; the draws are the sampler's, only expm differs
        for size, time, steps in ((64, 2.0, 20), (32, 1.0, 200), (48, 0.1, 1), (48, 0.2, 2)):
            config = MultiplicativeModelConfig(size=size, time=time, steps=steps, seed=23)
            rng = _philox(23, 4)
            g = np.eye(size, dtype=complex)
            for _ in range(steps):
                g = g @ scipy.linalg.expm(_increment(rng, size, (time / 2.0) / steps))
            h = g @ g.conj().T
            expected = np.linalg.eigvalsh((h + h.conj().T) / 2.0)
            spectrum = sample_multiplicative(config, trial=4)
            np.testing.assert_allclose(spectrum.eigenvalues, expected, rtol=1e-12, atol=0)


class TestEmpiricalMoments:
    def _constant_spectrum(self, value: float, size: int = 8) -> EmpiricalSpectrum:
        return EmpiricalSpectrum(
            eigenvalues=np.full(size, value),
            model="multiplicative",
            size=size,
            time=1.0,
            seed=0,
            trial=0,
            steps=1,
        )

    def test_constant_spectrum_powers(self):
        spectrum = self._constant_spectrum(3.0)
        assert np.allclose(empirical_moments(spectrum, 3), [3.0, 9.0, 27.0])

    def test_log_transform_of_ones_vanishes(self):
        spectrum = self._constant_spectrum(1.0)
        assert np.allclose(empirical_moments(spectrum, 4, "log"), 0.0)

    def test_log_transform_requires_positive(self):
        spectrum = EmpiricalSpectrum(
            eigenvalues=np.array([-1.0, 2.0]),
            model="additive",
            size=2,
            time=1.0,
            seed=0,
            trial=0,
        )
        with pytest.raises(ValueError):
            empirical_moments(spectrum, 2, "log")

    def test_validation(self):
        spectrum = self._constant_spectrum(2.0)
        with pytest.raises(ValueError):
            empirical_moments(spectrum, 0)
        with pytest.raises(ValueError):
            empirical_moments(spectrum, 2, "sqrt")


class TestSpectrumCsv:
    def test_round_trip(self):
        spectrum = sample_additive(AdditiveModelConfig(size=12, time=1.0, seed=8))
        buffer = io.StringIO()
        spectrum.to_csv(buffer)
        lines = buffer.getvalue().strip().splitlines()
        assert lines[0] == "index,eigenvalue"
        parsed = [float(line.split(",")[1]) for line in lines[1:]]
        assert np.array_equal(np.array(parsed), spectrum.eigenvalues)


class TestConvergenceReport:
    def test_rows_and_oracles(self):
        report = convergence_report("additive", 1.0, [40], 6, 4, seed=3)
        assert report.steps is None
        assert len(report.rows) == 4
        for row in report.rows:
            expected = float(semicircle_uniform_moment(row.order, 1, -1, 1))
            assert row.oracle == pytest.approx(expected)
            if expected == 0.0:
                assert row.rel_err is None
            else:
                assert row.rel_err is not None

    def test_multiplicative_oracle_and_default_steps(self):
        report = convergence_report("multiplicative", 0.5, [16], 4, 2, seed=3)
        assert report.steps == 5  # ceil(10 t)
        assert report.rows[0].oracle == pytest.approx(free_lognormal_moment(1, 0.5))

    def test_standard_error_scales_like_clt(self):
        few = convergence_report("additive", 1.0, [40], 8, 2, seed=13)
        many = convergence_report("additive", 1.0, [40], 32, 2, seed=13)
        ratio = few.rows[1].std_err / many.rows[1].std_err
        assert 1.2 <= ratio <= 3.5  # noisy estimate of sqrt(32/8) = 2

    def test_json_is_deterministic_and_well_formed(self):
        first = convergence_report("additive", 1.0, [24], 3, 2, seed=21).to_json()
        second = convergence_report("additive", 1.0, [24], 3, 2, seed=21).to_json()
        assert first == second
        payload = json.loads(first)
        assert payload["model"] == "additive"
        assert payload["results"][0]["N"] == 24
        assert len(payload["results"][0]["moments"]) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            convergence_report("additive", 1.0, [24], 1, 2)
        with pytest.raises(ValueError):
            convergence_report("additive", 1.0, [], 4, 2)
        with pytest.raises(ValueError):
            convergence_report("brownian", 1.0, [24], 4, 2)
