"""Acceptance suite: one test per shipped guarantee, one verdict line each.

Every test prints a single ``[PASS]``/``[FAIL]`` line with the decisive
numbers, so the captured output of a run doubles as a checklist.  Tolerances
are pinned in-line; nothing here is tuned at import time.  Criteria 1, 2, 4
and 6 call the check functions that ``freemoments verify`` runs
(``freemoments.checks``) with their own sizes, seeds and bounds.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from freemoments import (
    MultiplicativeModelConfig,
    checks,
    cli,
    convergence_report,
    density_grid,
    detect_support,
    empirical_moments,
    exp_pushforward_density,
    free_lognormal_moment,
    free_lognormal_support,
    grid_moments,
    kummer_1f1,
    moment_polynomial,
    sample_multiplicative,
    semicircle_uniform_moment,
)


def _verdict(ok: bool, label: str, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    return ok


def _philox(entropy: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def test_criterion_01_moment_polynomials_match_recursion():
    check = checks.moment_polynomials(30)
    assert _verdict(check.passed, "criterion 1", check.detail)


def test_criterion_02_stirling_identity_sweep():
    check = checks.stirling_identity(25, 25)
    assert _verdict(check.passed, "criterion 2", check.detail)


def test_criterion_03_laguerre_vs_hypergeometric_moments():
    worst = 0.0
    for t in (0.1, 1.0, 4.0):
        for n in range(1, 26):
            via_lag = free_lognormal_moment(n, t)
            via_1f1 = math.exp(n * t / 2.0) * kummer_1f1(1 - n, 2.0, -n * t).real
            worst = max(worst, abs(via_1f1 - via_lag) / abs(via_lag))
    assert _verdict(
        worst <= 1e-10,
        "criterion 3",
        "Laguerre route vs 1F1 route for integer moments, n <= 25, "
        f"t in {{0.1, 1, 4}}: worst relative deviation {worst:.2e} (<= 1e-10)",
    )


def test_criterion_04_fractional_moment_routes_agree():
    check = checks.fractional_moments(_philox(614), 40, (0.5, 2.0), 1e-10)
    assert _verdict(check.passed, "criterion 4", check.detail)


def test_criterion_05_degree_and_leading_coefficient():
    bad = [
        n
        for n in range(31)
        if moment_polynomial(n).degree != n
        or moment_polynomial(n).coefficient(n) != Fraction((-1) ** n, 1 + n)
    ]
    assert _verdict(
        not bad,
        "criterion 5",
        "degree n and leading coefficient (-1)^n/(1+n) exact for n <= 30 "
        f"(failures: {bad or 'none'})",
    )


def test_criterion_06_auxiliary_identity_suite():
    results = [
        checks.stirling_log_series(20),
        checks.kummer_transform(_philox(615), 50, 1e-10),
        checks.euler_integral(1e-10),
        checks.alternating_binomial_sum(30),
    ]
    assert _verdict(
        all(check.passed for check in results),
        "criterion 6",
        "; ".join(f"{check.name}: {check.detail}" for check in results),
    )


def test_criterion_07_grid_moments_match_exact():
    worst = 0.0
    for t in (0.25, 1.0, 4.0):
        radius = 2.0 * math.sqrt(t)
        numeric = grid_moments(
            radius, -t, 0.0, -(radius + t) - 0.3, radius + 0.3, 4000, 1e-3, 8
        )
        for n in range(9):
            exact = float(semicircle_uniform_moment(n, Fraction(t), Fraction(-t), 0))
            worst = max(worst, abs(numeric[n] - exact) / abs(exact))
    assert _verdict(
        worst <= 1e-3,
        "criterion 7",
        "contour moments of the subordination density vs exact moments, "
        f"n <= 8, t in {{0.25, 1, 4}}, eta = 1e-3, 4000 points: worst "
        f"relative deviation {worst:.2e} (<= 1e-3)",
    )


def test_criterion_08_support_edges_match_closed_form():
    # The closed form is Biane's pair of edges, exp(-/+ S(t)) with log-edges
    # at +/-3.0490 for t = 2.  Its independent route is the computed density:
    # edges detected where x * density(x) of the exp pushforward first and
    # last exceeds 1% of its maximum, on a window reaching past +/-3.83 + 0.4.
    t = 2.0
    radius = 2.0 * math.sqrt(t)
    edge = radius + t / 2.0
    grid = density_grid(radius, -t / 2.0, t / 2.0, -edge - 0.4, edge + 0.4, 6001, 5e-4)
    found = detect_support(exp_pushforward_density(grid), 0.01, multiplicative=True)
    closed = free_lognormal_support(t)
    dev_lo = abs(found.lower - closed.lower) / closed.lower
    dev_hi = abs(found.upper - closed.upper) / closed.upper
    assert _verdict(
        max(dev_lo, dev_hi) <= 0.01,
        "criterion 8",
        f"detected exp-pushforward support at t = 2 is "
        f"[{found.lower:.5f}, {found.upper:.5f}] vs closed form "
        f"[{closed.lower:.5f}, {closed.upper:.5f}]: relative deviations "
        f"{dev_lo:.3f} / {dev_hi:.3f} (<= 0.01)",
    )


@pytest.mark.slow
def test_criterion_09_random_matrix_convergence():
    # Additive: 50 trials at each size, exact even moments as oracle; odd
    # moments of the symmetric limit are exactly zero, so they are held to
    # 3 standard errors instead of a relative bound.
    report = convergence_report("additive", 1.0, [50, 200, 400, 800], 50, 4, seed=11)
    even_worst = max(
        row.rel_err for row in report.rows_for(400) if row.rel_err is not None
    )
    odd_worst = max(
        abs(row.empirical) / row.std_err
        for row in report.rows_for(400)
        if row.rel_err is None
    )

    def max_even_err(size: int) -> float:
        return max(r.rel_err for r in report.rows_for(size) if r.rel_err is not None)

    shrinks = max_even_err(800) < max_even_err(50)

    # Multiplicative: one pass over the trials feeds both statistics.
    config = MultiplicativeModelConfig(size=300, time=1.0, steps=200, seed=11)
    trials = 50
    m1 = np.empty(trials)
    log_first = np.empty(trials)
    for trial in range(trials):
        spectrum = sample_multiplicative(config, trial=trial)
        m1[trial] = empirical_moments(spectrum, 1)[0]
        log_first[trial] = empirical_moments(spectrum, 1, transform="log")[0]
    m1_dev = abs(m1.mean() - math.exp(0.5)) / math.exp(0.5)
    log_z = abs(log_first.mean()) / (log_first.std(ddof=1) / math.sqrt(trials))

    ok = even_worst <= 0.02 and odd_worst <= 3.0 and m1_dev <= 0.03 and log_z <= 3.0 and shrinks
    assert _verdict(
        ok,
        "criterion 9",
        f"additive N=400: even moments within {even_worst:.2e} (<= 0.02), "
        f"odd moments within {odd_worst:.2f} SE (<= 3); multiplicative "
        f"N=300: first moment within {m1_dev:.2e} of e^(1/2) (<= 0.03), "
        f"log-spectrum mean within {log_z:.2f} SE (<= 3); additive error "
        f"shrinks from N=50 ({max_even_err(50):.2e}) to N=800 "
        f"({max_even_err(800):.2e}): {shrinks}",
    )


def test_criterion_10_simulate_reports_are_deterministic(tmp_path):
    outputs = []
    for model, extra in (
        ("additive", ["--N", "32", "--trials", "2"]),
        ("multiplicative", ["--N", "24", "--trials", "3", "--steps", "8"]),
    ):
        argv = ["simulate", model, "--t", "0.5", "--seed", "11", "--format", "json"]
        pair = []
        for tag in ("a", "b"):
            path = tmp_path / f"{model}-{tag}.json"
            assert cli.main(argv + extra + ["--out", str(path)]) == 0
            pair.append(path.read_bytes())
        outputs.append(pair[0] == pair[1] and len(pair[0]) > 0)
    assert _verdict(
        all(outputs),
        "criterion 10",
        "repeated simulate runs with identical seeds emit byte-identical "
        f"JSON for both models: {outputs}",
    )
