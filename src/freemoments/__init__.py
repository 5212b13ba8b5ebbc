"""Exact and numerical moment machinery for free additive convolutions of
semicircle and uniform laws, and for the free log-normal spectral law.

The exact layers (``exactcomb``, ``ratpoly``, ``moments``, ``specfun``) load
with the package and need neither numpy nor scipy.  Three modules have their
names resolved on first access, so ``import freemoments`` stays cheap for
exact work: the numerical layers ``freeconv`` (subordination solver, density
grids) and ``rmtlab`` (random-matrix lab), which load numpy, and the measure
specifications of ``measures``, which load ``dataclasses``.  The typed errors
of the numerical layers load eagerly and are the same classes that
``freeconv`` and ``rmtlab`` export.
"""
from __future__ import annotations

import importlib

from ._errors import BranchError, PositivityError, SubordinationError
from .exactcomb import (
    IdentityCheck,
    stirling_first,
    stirling_via_log_series,
    verify_stirling_identity,
)
from .moments import (
    additive_mgf,
    free_lognormal_moment,
    free_lognormal_moment_alpha,
    mgf,
    moment,
    moment_polynomial,
    moment_polynomials_from_recursion,
    semicircle_uniform_moment,
)
from .ratpoly import RationalPolynomial
from .specfun import (
    SeriesConvergenceError,
    euler_integral_1f1,
    kummer_1f1,
    laguerre,
)

# public names of the numpy-backed layers and of the measure specifications,
# imported on first access (PEP 562)
_LAZY = {
    **dict.fromkeys(
        (
            "Dirac",
            "ExpImage",
            "FreeLogNormal",
            "FreeSum",
            "MeasureSpec",
            "Scaled",
            "Semicircle",
            "Uniform",
        ),
        "measures",
    ),
    **dict.fromkeys(
        (
            "DensityGrid",
            "SupportInterval",
            "cauchy_semicircle",
            "cauchy_uniform",
            "density_grid",
            "detect_support",
            "exp_pushforward_density",
            "free_lognormal_support",
            "free_sum_cauchy",
            "grid_moments",
        ),
        "freeconv",
    ),
    **dict.fromkeys(
        (
            "AdditiveModelConfig",
            "ConvergenceReport",
            "EmpiricalSpectrum",
            "MomentComparison",
            "MultiplicativeModelConfig",
            "additive_drift",
            "additive_matrix",
            "convergence_report",
            "empirical_moments",
            "sample_additive",
            "sample_multiplicative",
        ),
        "rmtlab",
    ),
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


__version__ = "0.1.0"

__all__ = [
    "IdentityCheck",
    "stirling_first",
    "stirling_via_log_series",
    "verify_stirling_identity",
    "BranchError",
    "DensityGrid",
    "SubordinationError",
    "SupportInterval",
    "cauchy_semicircle",
    "cauchy_uniform",
    "density_grid",
    "detect_support",
    "exp_pushforward_density",
    "free_lognormal_support",
    "free_sum_cauchy",
    "grid_moments",
    "Dirac",
    "ExpImage",
    "FreeLogNormal",
    "FreeSum",
    "MeasureSpec",
    "Scaled",
    "Semicircle",
    "Uniform",
    "additive_mgf",
    "free_lognormal_moment",
    "free_lognormal_moment_alpha",
    "mgf",
    "moment",
    "moment_polynomial",
    "moment_polynomials_from_recursion",
    "semicircle_uniform_moment",
    "RationalPolynomial",
    "AdditiveModelConfig",
    "ConvergenceReport",
    "EmpiricalSpectrum",
    "MomentComparison",
    "MultiplicativeModelConfig",
    "PositivityError",
    "additive_drift",
    "additive_matrix",
    "convergence_report",
    "empirical_moments",
    "sample_additive",
    "sample_multiplicative",
    "SeriesConvergenceError",
    "euler_integral_1f1",
    "kummer_1f1",
    "laguerre",
    "__version__",
]
