"""Typed numerical errors of the numpy-backed layers.

They live here, apart from the solvers that raise them, so that code which
only catches them (the command-line front end, the package namespace) does
not have to import numpy.  ``freeconv`` and ``rmtlab`` re-export them.
"""
from __future__ import annotations

__all__ = ["SubordinationError", "BranchError", "PositivityError"]


class SubordinationError(RuntimeError):
    """The Newton subordination solve did not converge within its budget of
    10 000 vectorized steps, or a point it stopped at fails the final
    residual check."""


class BranchError(ArithmeticError):
    """A transform landed on the wrong branch (``Im G >= 0``)."""


class PositivityError(ArithmeticError):
    """A multiplicative sample overflowed or produced a nonpositive eigenvalue.

    ``G G*`` is positive definite in exact arithmetic; a violation signals
    a discretization too coarse for the requested time horizon (or a
    numerically singular ``G``), never something to clamp silently.
    """
