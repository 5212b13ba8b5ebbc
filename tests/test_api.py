"""The public surface of the package, pinned.

``freemoments.__all__`` is the whole public API.  The benchmark's tracer
replaces ``stirling_first``, ``laguerre`` and ``kummer_1f1`` where
``moments`` binds them, and reads the ``points`` argument of the two grid
routines by position, so those bindings and that position are part of the
contract too.  So is the import cost: the package, the CLI module, the
verify checks and the exact subcommands load neither numpy nor
``dataclasses`` (the measure specifications load on first use), checked in
fresh interpreters.
"""
from __future__ import annotations

import importlib
import inspect
import subprocess
import sys

import pytest

import freemoments
from freemoments import checks, freeconv, moments, rmtlab

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
    "free_lognormal_support",
    "free_sum_cauchy",
    "grid_moments",
    "kummer_1f1",
    "laguerre",
    "mgf",
    "moment",
    "moment_polynomial",
    "moment_polynomials_from_recursion",
    "sample_additive",
    "sample_multiplicative",
    "semicircle_uniform_moment",
    "stirling_first",
    "stirling_via_log_series",
    "verify_stirling_identity",
}


def test_public_names():
    assert set(freemoments.__all__) == PUBLIC
    assert len(freemoments.__all__) == len(PUBLIC)
    for name in freemoments.__all__:
        assert getattr(freemoments, name) is not None, name


@pytest.mark.parametrize(
    "module", ["exactcomb", "specfun", "moments", "ratpoly", "freeconv", "rmtlab", "measures"]
)
def test_module_public_names_resolve(module: str):
    # a stale entry in a module's __all__ would break its star import
    names = importlib.import_module(f"freemoments.{module}").__all__
    assert names and len(set(names)) == len(names)
    namespace: dict = {}
    exec(f"from freemoments.{module} import *", namespace)
    assert set(names) <= set(namespace)


@pytest.mark.parametrize("module", ["measures", "freeconv", "rmtlab"])
def test_lazy_names_are_the_module_public_names(module: str):
    # a public name added to a lazy module must reach the package too; the
    # typed errors it re-exports are bound eagerly, not through _LAZY
    lazy = {name for name, owner in freemoments._LAZY.items() if owner == module}
    public = set(importlib.import_module(f"freemoments.{module}").__all__)
    assert lazy == public - {"BranchError", "PositivityError", "SubordinationError"}


def test_moments_binds_the_traced_kernels():
    assert moments.stirling_first is freemoments.stirling_first
    assert moments.laguerre is freemoments.laguerre
    assert moments.kummer_1f1 is freemoments.kummer_1f1


def test_grid_routines_take_points_sixth():
    for routine in (freeconv.density_grid, freeconv.grid_moments):
        names = list(inspect.signature(routine).parameters)
        assert names[5] == "points", routine.__name__


def test_dir_and_star_import_cover_the_public_names():
    assert set(freemoments.__all__) <= set(dir(freemoments))
    namespace: dict = {}
    exec("from freemoments import *", namespace)
    assert set(freemoments.__all__) <= set(namespace)
    assert namespace["density_grid"] is freeconv.density_grid
    assert namespace["convergence_report"] is rmtlab.convergence_report


def test_typed_errors_are_one_class_each():
    assert freemoments.SubordinationError is freeconv.SubordinationError
    assert freemoments.BranchError is freeconv.BranchError
    assert freemoments.PositivityError is rmtlab.PositivityError


def _loaded(code: str, modules=("numpy", "dataclasses", "freemoments.measures")) -> list[str]:
    """The names in ``modules`` that a fresh interpreter has loaded after ``code``."""
    out = subprocess.run(
        [sys.executable, "-c", f"{code}\nprint(*(m for m in {modules!r} if m in sys.modules))"],
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout.splitlines()[-1].split()


def test_import_loads_no_numpy():
    # nor dataclasses: the measure specifications load on first use
    assert _loaded("import sys, freemoments, freemoments.cli, freemoments.checks") == []


def test_fractional_moment_the_sums_settle_loads_no_numpy():
    # the contour integral, which needs numpy, is imported only when the
    # two series cannot settle the value between them
    code = (
        "import sys; from freemoments.moments import free_lognormal_moment_alpha; "
        "free_lognormal_moment_alpha(0.5 + 0.5j, 1.0)"
    )
    assert _loaded(code, ("numpy",)) == []


def test_exact_subcommands_load_no_numpy():
    commands = [
        ["moments", "--n-max", "8", "--oracle"],
        ["moments", "--n-max", "4", "--mode", "at-t", "--t", "1/3"],
        ["nu", "--n", "4", "--t", "1"],
        ["nu", "--alpha", "0.5+2i", "--t", "0.5"],
        ["verify", "stirling", "--l-max", "5", "--m-max", "5"],
    ]
    code = (
        "import sys; from freemoments import cli; "
        f"assert [cli.main(argv) for argv in {commands!r}] == [0] * {len(commands)}"
    )
    assert _loaded(code) == []


def test_measure_specifications_load_on_first_use():
    # the mgf values are the bits returned while the specifications loaded
    # with the package; at 1.5 they are the correctly rounded value,
    # 5.98535922676279242798 by 40-digit mpmath (the bits ...83b, 9.0e-16
    # off, came from rescaling onto the time-coupled pair)
    code = """
import sys
from fractions import Fraction
import freemoments
assert "freemoments.measures" not in sys.modules
import dataclasses
assert freemoments.Semicircle is freemoments.measures.Semicircle
assert dataclasses.is_dataclass(freemoments.Uniform(0, 1))
law = freemoments.FreeSum(freemoments.Semicircle(2), freemoments.Uniform(0, 1))
assert freemoments.moment(law, 4) == Fraction(121, 30)
assert freemoments.mgf(law, 1.5) == complex(float.fromhex("0x1.7f1020257083cp+2"), 0.0)
assert freemoments.mgf(law, 0.5 + 2j) == complex(
    -float.fromhex("0x1.233d69a63107dp-2"), -float.fromhex("0x1.eaab34a8df12cp-5")
)
"""
    subprocess.run([sys.executable, "-c", code], check=True)


def test_moment_agreement_is_a_named_tuple():
    # the Laguerre-vs-1F1 agreement of the integer moments of nu_t is a
    # verify check, and passes up to its largest deviation and no further
    agreement = checks.exp_image_moments(10, 1.0, 1e-10)
    assert isinstance(agreement, tuple)
    assert agreement._fields == ("name", "passed", "detail")
    assert agreement.name == "exp-image-moments"
    assert agreement.detail.endswith("for n <= 10, t=1.0")
    assert agreement.passed is True
    assert checks.exp_image_moments(10, 1.0, 0.0).passed is False
