"""Oracles the benchmark checks the package against, computed apart from it.

None of these routes calls into ``freemoments``:

* exact moments of ``Semicircle(2 sqrt(a)) ⊞ Uniform[b, c]`` come from free
  cumulants, which add under ``⊞``, turned back into moments by Lagrange
  inversion in exact ``Fraction`` arithmetic;
* Stirling numbers of the first kind come from expanding the falling
  factorial ``x (x-1) ... (x-n+1)``;
* free log-normal moments, the additive mgf and fractional moments come from
  ``mpmath`` at 30 significant digits;
* the support of the free log-normal law is Biane's closed form (J. Funct.
  Anal. 144, 1997).

Run ``python3 perfbench/oracles.py`` to run the self-tests and print the
reference values they pin.
"""
from __future__ import annotations

import math
from fractions import Fraction

import mpmath

MP_DIGITS = 30

#: Biane's edges of the free log-normal support at t = 2, to the digits
#: pinned by the self-test; ``python3 perfbench/oracles.py`` recomputes them.
BIANE_EDGES_T2 = (0.04741, 21.094)


def _series_power(coeffs: list[Fraction], exponent: int, degree: int) -> list[Fraction]:
    """Coefficients of ``C(w)^exponent`` up to ``w^degree``, for ``C(0) = 1``.

    J. C. P. Miller's recurrence ``k P_k = sum_j ((e+1) j - k) C_j P_{k-j}``.
    """
    power = [Fraction(0)] * (degree + 1)
    power[0] = Fraction(1)
    top = min(degree, len(coeffs) - 1)
    for k in range(1, degree + 1):
        acc = Fraction(0)
        for j in range(1, min(k, top) + 1):
            if coeffs[j]:
                acc += ((exponent + 1) * j - k) * coeffs[j] * power[k - j]
        power[k] = acc / k
    return power


def moment_from_cumulants(cumulants: list[Fraction], n: int) -> Fraction:
    """n-th moment of the law with free cumulants ``cumulants[1:]``.

    With ``C(w) = 1 + sum_k kappa_k w^k`` the moment series satisfies
    ``M(z) = C(z M(z))``, so Lagrange inversion gives
    ``m_n = [w^n] C(w)^(n+1) / (n+1)``.
    """
    if n == 0:
        return Fraction(1)
    series = [Fraction(1)] + [Fraction(k) for k in cumulants[1 : n + 1]]
    return _series_power(series, n + 1, n)[n] / (n + 1)


def cumulants_from_moments(moments: list[Fraction]) -> list[Fraction]:
    """Free cumulants ``kappa_0 = 0, kappa_1 .. kappa_n`` of ``moments[0..n]``.

    Inverts :func:`moment_from_cumulants` order by order: the coefficient
    ``[w^n] C^(n+1)`` is ``(n+1) kappa_n`` plus terms in lower cumulants.
    """
    kappa = [Fraction(0)] * len(moments)
    for n in range(1, len(moments)):
        lower = _series_power([Fraction(1)] + kappa[1:n], n + 1, n)[n]
        kappa[n] = moments[n] - lower / (n + 1)
    return kappa


class FreeCumulantOracle:
    """Exact moments of ``Semicircle(2 sqrt(a)) ⊞ Uniform[b, c]``.

    The semicircle contributes ``kappa_2 = a`` and nothing else.  The uniform
    law is ``b + (c - b) U`` with ``U ~ Uniform[0, 1]``; free cumulants shift
    in order 1 only and scale as ``(c - b)^k``, so the cumulants of ``U`` are
    computed once from its moments ``1/(k+1)`` and reused.
    """

    def __init__(self) -> None:
        self._unit_uniform = [Fraction(0)]

    def _unit_cumulants(self, n: int) -> list[Fraction]:
        if len(self._unit_uniform) <= n:
            size = max(n + 1, 2 * len(self._unit_uniform))
            self._unit_uniform = cumulants_from_moments(
                [Fraction(1, k + 1) for k in range(size)]
            )
        return self._unit_uniform

    def cumulants(self, a: Fraction, b: Fraction, c: Fraction, n: int) -> list[Fraction]:
        unit = self._unit_cumulants(n)
        width = c - b
        kappa = [unit[k] * width**k for k in range(n + 1)]
        if n >= 1:
            kappa[1] += b
        if n >= 2:
            kappa[2] += a
        return kappa

    def moment(self, n: int, a: Fraction, b: Fraction, c: Fraction) -> Fraction:
        return moment_from_cumulants(self.cumulants(a, b, c, n), n)

    def moments(self, n_max: int, a: Fraction, b: Fraction, c: Fraction) -> list[Fraction]:
        kappa = self.cumulants(a, b, c, n_max)
        return [moment_from_cumulants(kappa, n) for n in range(n_max + 1)]


class StirlingOracle:
    """Signed Stirling numbers of the first kind from the falling factorial."""

    def __init__(self) -> None:
        self._rows: list[list[int]] = [[1]]

    def __call__(self, n: int, k: int) -> int:
        while len(self._rows) <= n:
            i = len(self._rows) - 1
            prev = self._rows[-1]
            # x (x-1)...(x-i) = [x (x-1)...(x-i+1)] * (x - i)
            row = [0] + prev
            for j, coeff in enumerate(prev):
                row[j] -= i * coeff
            self._rows.append(row)
        return self._rows[n][k] if k <= n else 0


def biane_edges(t: float) -> tuple[float, float]:
    """Support ``[lower, upper]`` of the free log-normal law at time ``t``.

    ``((t+2) ∓ sqrt(t(t+4)))/2 * exp(∓ sqrt(t(t+4))/2)`` (Biane 1997).
    """
    root = math.sqrt(t * (t + 4.0))
    return (
        ((t + 2.0) - root) / 2.0 * math.exp(-root / 2.0),
        ((t + 2.0) + root) / 2.0 * math.exp(root / 2.0),
    )


def log_edge(t: float) -> float:
    """Half-width ``S(t) = log(upper edge)`` of the support of the log-variable."""
    return math.log(biane_edges(t)[1])


def _mp(value):
    return mpmath.mpmathify(value)


def lognormal_moment(n: int, t: float):
    """``e^(nt/2) L_{n-1}^{(1)}(-nt) / n`` in mpmath."""
    with mpmath.workdps(MP_DIGITS):
        t = _mp(t)
        return mpmath.exp(n * t / 2) * mpmath.laguerre(n - 1, 1, -n * t) / n


def additive_mgf(n: int, t: float):
    """``1F1(1 - n; 2; -n t)`` in mpmath."""
    with mpmath.workdps(MP_DIGITS):
        return mpmath.hyp1f1(1 - n, 2, -n * _mp(t))


def lognormal_moment_alpha(alpha: complex, t: float):
    """``e^(alpha t/2) 1F1(1 - alpha; 2; -alpha t)`` in mpmath."""
    with mpmath.workdps(MP_DIGITS):
        alpha, t = _mp(alpha), _mp(t)
        return mpmath.exp(alpha * t / 2) * mpmath.hyp1f1(1 - alpha, 2, -alpha * t)


def self_test() -> list[str]:
    """Check each oracle on values known in closed form; return the failures."""
    failures = []
    oracle = FreeCumulantOracle()
    semicircle = [Fraction(0), Fraction(0), Fraction(1)] + [Fraction(0)] * 20
    for n in range(21):
        catalan = Fraction(math.comb(n, n // 2), n // 2 + 1) if n % 2 == 0 else 0
        if moment_from_cumulants(semicircle, n) != catalan:
            failures.append(f"semicircle moment {n} is not the Catalan number")
    b, c = Fraction(-1, 3), Fraction(2)
    kappa = oracle.cumulants(Fraction(0), b, c, 16)
    for n in range(17):
        uniform = (c ** (n + 1) - b ** (n + 1)) / ((n + 1) * (c - b))
        if moment_from_cumulants(kappa, n) != uniform:
            failures.append(f"Uniform[{b}, {c}] moment {n} wrong")
    if oracle.moment(2, Fraction(3), b, c) != Fraction(3) + moment_from_cumulants(kappa, 2):
        failures.append("variances do not add under the free sum")
    stirling = StirlingOracle()
    if (stirling(4, 2), stirling(5, 1), stirling(6, 6)) != (11, 24, 1):
        failures.append("Stirling numbers s(4,2), s(5,1), s(6,6) wrong")
    lower, upper = biane_edges(2.0)
    if (round(lower, 5), round(upper, 3)) != BIANE_EDGES_T2:
        failures.append(f"Biane edges at t = 2 are {lower}, {upper}")
    for t in (0.25, 1.0, 8.0):
        # same edges written as exp(±S), S = 2 asinh(sqrt(t)/2) + sqrt(t (1 + t/4))
        s = 2.0 * math.asinh(math.sqrt(t) / 2.0) + math.sqrt(t * (1.0 + t / 4.0))
        if not math.isclose(log_edge(t), s, rel_tol=1e-13):
            failures.append(f"Biane edge forms disagree at t = {t}")
        if not math.isclose(biane_edges(t)[0] * biane_edges(t)[1], 1.0, rel_tol=1e-13):
            failures.append(f"Biane edges do not multiply to 1 at t = {t}")
    t = 0.7
    if not math.isclose(float(lognormal_moment(2, t)), math.exp(t) * (1 + t), rel_tol=1e-15):
        failures.append("mpmath second moment is not e^t (1 + t)")
    if not math.isclose(complex(lognormal_moment_alpha(1, t)).real, math.exp(t / 2), rel_tol=1e-15):
        failures.append("mpmath first fractional moment is not e^(t/2)")
    if not math.isclose(float(additive_mgf(3, t)), float(lognormal_moment(3, t)) * math.exp(-1.5 * t), rel_tol=1e-15):
        failures.append("mpmath mgf and moment routes disagree")
    return failures


if __name__ == "__main__":
    problems = self_test()
    lower, upper = biane_edges(2.0)
    print(f"Biane edges at t = 2: [{lower:.6g}, {upper:.6g}]")
    print(f"free log-normal m_100 at t = 8: {mpmath.nstr(lognormal_moment(100, 8.0), 8)}")
    print(f"free log-normal m_150 at t = 2: {mpmath.nstr(lognormal_moment(150, 2.0), 8)}")
    print("self-test:", "passed" if not problems else "; ".join(problems))
    raise SystemExit(1 if problems else 0)
