"""The public surface of the package, pinned.

``freemoments.__all__`` is the whole public API.  The benchmark's tracer
replaces ``stirling_first``, ``laguerre`` and ``kummer_1f1`` where
``moments`` binds them, and reads the ``points`` argument of the two grid
routines by position, so those bindings and that position are part of the
contract too.
"""
from __future__ import annotations

import inspect

import freemoments
from freemoments import freeconv, moments

PUBLIC = {
    "AdditiveModelConfig",
    "BranchError",
    "ConvergenceReport",
    "DensityGrid",
    "Dirac",
    "EmpiricalSpectrum",
    "ExpImage",
    "FreeLogNormal",
    "FreeSum",
    "IdentityCheck",
    "MeasureSpec",
    "MomentAgreement",
    "MomentComparison",
    "MultiplicativeModelConfig",
    "PositivityError",
    "RationalPolynomial",
    "Scaled",
    "Semicircle",
    "SeriesConvergenceError",
    "SubordinationError",
    "SupportInterval",
    "Uniform",
    "__version__",
    "additive_drift",
    "additive_matrix",
    "additive_mgf",
    "alternating_binomial_sum_check",
    "binomial",
    "cauchy_semicircle",
    "cauchy_uniform",
    "convergence_report",
    "density_grid",
    "detect_support",
    "empirical_moments",
    "euler_integral_1f1",
    "exp_pushforward_density",
    "free_lognormal_moment",
    "free_lognormal_moment_alpha",
    "free_lognormal_moment_alpha_series",
    "free_lognormal_support",
    "free_sum_cauchy",
    "grid_moments",
    "kummer_1f1",
    "kummer_transform_check",
    "laguerre",
    "mgf",
    "moment",
    "moment_polynomial",
    "moment_polynomials_from_recursion",
    "rising_factorial",
    "sample_additive",
    "sample_multiplicative",
    "semicircle_uniform_moment",
    "stirling_first",
    "stirling_via_log_series",
    "verify_exp_image_moments",
    "verify_stirling_identity",
}


def test_public_names():
    assert set(freemoments.__all__) == PUBLIC
    assert len(freemoments.__all__) == len(PUBLIC)
    for name in freemoments.__all__:
        assert getattr(freemoments, name) is not None, name


def test_moments_binds_the_traced_kernels():
    assert moments.stirling_first is freemoments.stirling_first
    assert moments.laguerre is freemoments.laguerre
    assert moments.kummer_1f1 is freemoments.kummer_1f1


def test_grid_routines_take_points_sixth():
    for routine in (freeconv.density_grid, freeconv.grid_moments):
        names = list(inspect.signature(routine).parameters)
        assert names[5] == "points", routine.__name__
