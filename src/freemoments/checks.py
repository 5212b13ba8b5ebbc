"""The invariant checks behind ``freemoments verify`` and the acceptance tests.

Each check is one function that returns a :class:`Check`.  Its arguments
carry every size and bound and, for a random check, the numpy ``Generator``
that draws its points, so ``verify`` and the acceptance tests run the same
code with their own pinned values.  numpy and the ``freeconv`` and ``rmtlab``
layers load inside the functions that need them: importing this module, or
running the ``stirling`` suite, loads no numpy.  :data:`SUITES` lists each
suite's checks and :func:`run` runs one suite.
"""

from __future__ import annotations

import argparse
import math
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple

from ._errors import SubordinationError
from .exactcomb import stirling_first, stirling_via_log_series, verify_stirling_identity
from .moments import (
    _mgf_sums,
    additive_mgf,
    free_lognormal_moment,
    moment_polynomial,
    moment_polynomials_from_recursion,
    semicircle_uniform_moment,
)
from .specfun import _series_1f1, euler_integral_1f1, kummer_1f1, laguerre

if TYPE_CHECKING:
    import numpy as np


class Check(NamedTuple):
    name: str
    passed: bool
    detail: str


def _exact(name: str, failures: list, claim: str) -> Check:
    """An exact check: it passes with ``claim`` as its detail, or names its first failure."""
    return Check(name, not failures, f"fails at {failures[0]}" if failures else claim)


def stirling_identity(l_max: int, m_max: int) -> Check:
    """The inverted-binomial Stirling identity for ``1 <= l <= l_max``, ``1 <= m <= m_max``."""
    failures = [
        f"(l={l}, m={m}): {outcome.lhs} != {outcome.rhs}"
        for l in range(1, l_max + 1)
        for m in range(1, m_max + 1)
        if not (outcome := verify_stirling_identity(l, m)).equal
    ]
    return _exact("stirling-identity", failures, f"{l_max * m_max} (l, m) pairs exact")


def stirling_log_series(n_max: int) -> Check:
    """Stirling numbers by log-series coefficient extraction vs the recurrence."""
    failures = [
        (n, k)
        for n in range(n_max + 1)
        for k in range(n + 1)
        if stirling_via_log_series(n, k) != stirling_first(n, k)
    ]
    claim = f"coefficient extraction matches recurrence for n <= {n_max}"
    return _exact("stirling-log-series", failures, claim)


def alternating_binomial_sum(n_max: int) -> Check:
    """``sum_{n<=k} (-1)^n C(N, n) == (-1)^k C(N-1, k)`` for ``1 <= N <= n_max``, every ``k``."""
    failures = [
        (N, k)
        for N in range(1, n_max + 1)
        for k in range(N + 1)
        if sum((-1) ** n * math.comb(N, n) for n in range(k + 1)) != (-1) ** k * math.comb(N - 1, k)
    ]
    claim = f"partial alternating sums exact for N <= {n_max}"
    return _exact("alternating-binomial-sum", failures, claim)


def moment_polynomials(n_max: int) -> Check:
    """Closed-form moment polynomials vs the quadratic recursion, ``n <= n_max``."""
    recursion = moment_polynomials_from_recursion(n_max)
    failures = [n for n in range(n_max + 1) if moment_polynomial(n) != recursion[n]]
    claim = f"closed form equals quadratic recursion for n <= {n_max} (exact)"
    return _exact("moment-polynomials", failures, claim)


# The float checks measure deviations relative to 1 + |value|.


def kummer_transform(rng: np.random.Generator, samples: int, tol: float) -> Check:
    """Kummer's transformation at ``samples`` complex points drawn from ``rng``.

    The direct series in ``x`` is compared with the reflected series
    ``e^x 1F1(b-a; b; -x)``; ``Re b >= 0.5`` keeps ``b`` off the poles.
    """
    bad = 0
    for _ in range(samples):
        a = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        b = complex(rng.uniform(0.5, 4.0), rng.uniform(-2, 2))
        x = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        direct = _series_1f1(a, b, x)[0]
        reflected = _series_1f1(b - a, b, -x, x)[0]
        if not abs(direct - reflected) <= tol * (1 + abs(direct)):
            bad += 1
    detail = f"{samples} random (a, b, x) points, {bad} failures"
    return Check("kummer-transform", bad == 0, detail)


def euler_integral(tol: float) -> Check:
    """The ``1F1`` series vs its Euler integral on a fixed ``(a, b, x)`` grid."""
    worst = 0.0
    for a, b in ((1.0, 2.0), (0.5, 1.5), (2.0, 3.5), (1.5, 4.0)):
        for x in (-2.0, -0.5, 0.5, 2.0):
            series = kummer_1f1(a, b, x).real
            quad = euler_integral_1f1(a, b, x)
            worst = max(worst, abs(series - quad) / (1.0 + abs(series)))
    detail = f"max deviation {worst:.3e} over the (a, b, x) grid"
    return Check("euler-integral", worst <= tol, detail)


def laguerre_terminating_series(tol: float) -> Check:
    """Laguerre polynomials vs their terminating ``1F1`` series, ``n <= 8``."""
    worst = 0.0
    for n in range(9):
        for alpha in (0.0, 1.0, 2.5):
            for x in (-3.0, -1.0, 0.5, 2.0):
                direct = laguerre(n, alpha, x)
                prefactor = math.prod(alpha + 1.0 + i for i in range(n)) / math.factorial(n)
                via_1f1 = prefactor * kummer_1f1(-n, alpha + 1.0, x).real
                worst = max(worst, abs(direct - via_1f1) / (1.0 + abs(direct)))
    detail = f"max deviation {worst:.3e} for n <= 8"
    return Check("laguerre-terminating-series", worst <= tol, detail)


def _exp_image_rows(n_max: int, t: float) -> Iterator[tuple[int, float, float, float]]:
    """``(n, Laguerre moment, e^(nt/2) 1F1(1-n; 2; -nt), deviation)`` for ``1 <= n <= n_max``."""
    for n in range(1, n_max + 1):
        via_laguerre = free_lognormal_moment(n, t)
        via_1f1 = math.exp(n * t / 2.0) * additive_mgf(n, t).real
        yield n, via_laguerre, via_1f1, abs(via_laguerre - via_1f1) / (1 + abs(via_laguerre))


def exp_image_moments(n_max: int, t: float, tol: float) -> Check:
    """Integer moments of ``nu_t`` by the Laguerre and the ``1F1`` routes."""
    worst = max(deviation for *_, deviation in _exp_image_rows(n_max, t))
    detail = f"max deviation {worst:.3e} for n <= {n_max}, t={t}"
    return Check("exp-image-moments", worst <= tol, detail)


def fractional_moments(
    rng: np.random.Generator, samples: int, times: tuple[float, ...], tol: float
) -> Check:
    """Direct vs Kummer-reflected sums of ``int x^alpha d nu_t`` at each of ``times``.

    ``alpha`` is drawn from ``rng``, uniform on the square ``|Re|, |Im| <= 5``
    and kept when ``0.05 <= |alpha| <= 5``, until ``samples`` are kept.  The
    contour integral stands in for one sum that refuses; where both sums
    refuse, the check raises their refusal and the row is refused.
    """
    worst = 0.0
    drawn = 0
    while drawn < samples:
        alpha = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        if not 0.05 <= abs(alpha) <= 5.0:
            continue
        drawn += 1
        for t in times:
            direct, reflected = _mgf_sums(alpha, t, -t / 2.0, t / 2.0)
            worst = max(worst, abs(direct - reflected) / (1.0 + abs(direct)))
    shown = ", ".join(map(str, times))
    detail = f"max deviation {worst:.3e} over {samples} complex orders, t={shown}"
    return Check("fractional-moments", worst <= tol, detail)


def density_moments(t: float) -> Check:
    """Contour-grid moments of the centred free sum vs exact, ``n <= 4``, to 1e-3."""
    from .freeconv import free_lognormal_support, grid_moments

    radius = 2.0 * math.sqrt(t)
    half = t / 2.0
    window = math.log(free_lognormal_support(t).upper) + 0.25
    estimates = grid_moments(radius, -half, half, -window, window, 1200, 2e-3, 4)
    worst = 0.0
    for n in range(5):
        target = float(semicircle_uniform_moment(n, t, -half, half))
        worst = max(worst, abs(estimates[n] - target) / max(1.0, abs(target)))
    detail = f"contour grid vs exact, n <= 4, t={t}, max rel dev {worst:.3e}"
    return Check("density-moments", worst <= 1e-3, detail)


def simulate_determinism(seed: int) -> Check:
    """Two seeded reports of each random-matrix model are byte-identical."""
    from .rmtlab import convergence_report

    def repeats(model: str, t: float, size: int, steps: int | None = None) -> bool:
        first, second = (
            convergence_report(model, t, [size], 2, 2, seed=seed, steps=steps).to_json()
            for _ in range(2)
        )
        return first == second

    passed = repeats("multiplicative", 0.5, 24, steps=8) and repeats("additive", 1.0, 32)
    return Check("simulate-determinism", passed, "repeated seeded reports byte-identical")


def _generator(seed: int, key: int) -> np.random.Generator:
    """A Philox generator for one suite, apart from every other suite's draws."""
    import numpy as np

    sequence = np.random.SeedSequence(entropy=seed, spawn_key=(key,))
    return np.random.Generator(np.random.Philox(sequence))


# each check with the function that reads its arguments off the parsed ones
Suite = list[tuple[Callable[..., Check], Callable[[argparse.Namespace], tuple]]]

_STIRLING: Suite = [
    (stirling_identity, lambda a: (a.l_max, a.m_max)),
    (stirling_log_series, lambda a: (20,)),
    (alternating_binomial_sum, lambda a: (30,)),
]
_KUMMER: Suite = [
    (kummer_transform, lambda a: (_generator(a.seed, 101), a.samples, a.tolerance)),
    (euler_integral, lambda a: (a.tolerance,)),
    (laguerre_terminating_series, lambda a: (a.tolerance,)),
]
_THEOREM_MAIN: Suite = [
    (moment_polynomials, lambda a: (max(a.n_max, 10),)),
    (exp_image_moments, lambda a: (a.n_max, a.t, a.tolerance)),
    (fractional_moments, lambda a: (_generator(a.seed, 202), a.samples, (a.t,), a.tolerance)),
]
SUITES: dict[str, Suite] = {
    "stirling": _STIRLING,
    "kummer": _KUMMER,
    "theorem-main": _THEOREM_MAIN,
    "all": [
        *_STIRLING,
        *_KUMMER,
        *_THEOREM_MAIN,
        (density_moments, lambda a: (a.t,)),
        (simulate_determinism, lambda a: (a.seed,)),
    ],
}


def run(suite: Suite, args: argparse.Namespace) -> tuple[list[Check], bool]:
    """Run every check of ``suite``; return the results and whether any refused.

    A check that raises a numerical error is recorded as failed under its
    function's name, with ``refused: <message>`` as its detail.
    """
    results = []
    refused = False
    for check, arguments in suite:
        try:
            results.append(check(*arguments(args)))
        except (SubordinationError, ArithmeticError) as exc:
            refused = True
            results.append(Check(check.__name__.replace("_", "-"), False, f"refused: {exc}"))
    return results, refused
