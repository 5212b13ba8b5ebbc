from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freemoments import checks, exactcomb
from freemoments.exactcomb import (
    stirling_first,
    stirling_via_log_series,
    verify_stirling_identity,
)


def falling_factorial(x: Fraction, n: int) -> Fraction:
    """``x (x-1) ... (x-n+1)``, empty product 1: the product the Stirling
    numbers expand."""
    out = Fraction(1)
    for i in range(n):
        out *= x - i
    return out


def falling_factorial_coefficients(n: int) -> list[int]:
    """Coefficients of x(x-1)...(x-n+1), built by polynomial convolution.

    Independent oracle for the Stirling table: the k-th coefficient is
    s(n, k) by definition.
    """
    coeffs = [1]
    for j in range(n):
        # multiply by (x - j)
        shifted = [0] + coeffs
        scaled = [-j * c for c in coeffs] + [0]
        coeffs = [a + b for a, b in zip(shifted, scaled)]
    return coeffs


def fraction_loop_identity(l: int, m: int) -> tuple[Fraction, Fraction]:
    """Both sides of ``verify_stirling_identity`` with one ``Fraction`` per
    term: the reference the integer-numerator kernel must reproduce bit for bit."""
    lhs = Fraction(2 * l * stirling_first(1 + m, 1 + l))
    total = Fraction(0)
    for n in range(1, l + 1):
        for k in range(m):
            s_left = stirling_first(1 + k, n)
            s_right = stirling_first(m - k, l + 1 - n)
            if s_left and s_right:
                total += Fraction(
                    math.comb(m, k) * math.comb(m, 1 + k) * s_left * s_right,
                    math.comb(l + m - 2, n + k - 1),
                )
    return lhs, Fraction(m + 1, l + m - 1) * total


class TestStirlingFirst:
    def test_matches_falling_factorial_expansion(self):
        for n in range(21):
            oracle = falling_factorial_coefficients(n)
            for k in range(n + 1):
                assert stirling_first(n, k) == oracle[k]

    def test_hand_anchors(self):
        assert stirling_first(3, 2) == -3
        assert stirling_first(4, 2) == 11
        assert stirling_first(5, 1) == 24
        assert stirling_first(0, 0) == 1

    def test_out_of_range_is_zero(self):
        assert stirling_first(4, 7) == 0
        assert stirling_first(5, 0) == 0

    def test_negative_indices_rejected(self):
        with pytest.raises(ValueError):
            stirling_first(-1, 0)
        with pytest.raises(ValueError):
            stirling_first(3, -2)

    def test_row_sums(self):
        # sum_k s(n,k) = falling factorial at 1 = 0 for n >= 2;
        # sum_k |s(n,k)| = n! (permutations by cycle count)
        import math

        for n in range(2, 18):
            row = [stirling_first(n, k) for k in range(n + 1)]
            assert sum(row) == 0
            assert sum(abs(v) for v in row) == math.factorial(n)

    @given(st.integers(min_value=0, max_value=40), st.integers(min_value=0, max_value=41))
    def test_recurrence(self, n: int, k: int):
        assert stirling_first(n + 1, k) == (
            (stirling_first(n, k - 1) if k >= 1 else 0) - n * stirling_first(n, k)
        )

    @given(
        st.integers(min_value=0, max_value=12),
        st.fractions(min_value=-8, max_value=8),
    )
    def test_generates_falling_factorial(self, n: int, x: Fraction):
        expansion = sum(stirling_first(n, k) * x**k for k in range(n + 1))
        assert expansion == falling_factorial(x, n)


class TestLogSeriesRoute:
    def test_agrees_with_table(self):
        for n in range(21):
            for k in range(n + 1):
                assert stirling_via_log_series(n, k) == stirling_first(n, k)

    def test_cap_enforced(self):
        with pytest.raises(ValueError, match="cap"):
            stirling_via_log_series(513, 2)

    def test_k_above_n_rejected(self):
        with pytest.raises(ValueError):
            stirling_via_log_series(3, 4)


class TestStirlingIdentity:
    def test_small_anchors(self):
        low = verify_stirling_identity(1, 1)
        assert low.equal and low.lhs == 2

        # s(2, 4) = 0, so both sides vanish
        degenerate = verify_stirling_identity(3, 1)
        assert degenerate.equal and degenerate.lhs == 0

        # 2*2*s(4,3) = -24
        mixed = verify_stirling_identity(2, 3)
        assert mixed.equal and mixed.lhs == -24

    def test_sweep(self):
        for l in range(1, 11):
            for m in range(1, 11):
                outcome = verify_stirling_identity(l, m)
                assert outcome.equal, (l, m, outcome)

    def test_matches_fraction_loop_bit_for_bit(self):
        for l in range(1, 41):
            for m in range(1, 41):
                outcome = verify_stirling_identity(l, m)
                lhs, rhs = fraction_loop_identity(l, m)
                for ours, ref in ((outcome.lhs, lhs), (outcome.rhs, rhs)):
                    assert type(ours) is Fraction, (l, m)
                    assert (ours.numerator, ours.denominator) == (ref.numerator, ref.denominator), (l, m)

    @pytest.mark.parametrize("l, m", [(1, 80), (33, 79), (60, 60), (45, 61)])
    def test_matches_fraction_loop_past_the_sweep(self, monkeypatch, l: int, m: int):
        # odd and even m past the 40 x 40 sweep, from the seed tables, so
        # that both the Stirling rows and the inverse binomials grow
        monkeypatch.setattr(exactcomb, "_rows", exactcomb._extended([[1]], 16))
        monkeypatch.setattr(exactcomb, "_inverses", exactcomb._extended_inverses([], 16))
        outcome = verify_stirling_identity(l, m)
        lhs, rhs = fraction_loop_identity(l, m)
        assert outcome.equal
        for ours, ref in ((outcome.lhs, lhs), (outcome.rhs, rhs)):
            assert (ours.numerator, ours.denominator) == (ref.numerator, ref.denominator)
        assert len(exactcomb._rows) > 1 + m and len(exactcomb._inverses) > l + m - 2

    @pytest.mark.parametrize("l, m", [(17, 16), (40, 30), (90, 3)])
    def test_empty_range_reads_no_table(self, monkeypatch, l: int, m: int):
        # for l > m no n meets l+1-m+k <= n <= 1+k, and s(1+m, 1+l) = 0
        rows, inverses = exactcomb._extended([[1]], 16), exactcomb._extended_inverses([], 16)
        monkeypatch.setattr(exactcomb, "_rows", rows)
        monkeypatch.setattr(exactcomb, "_inverses", inverses)
        outcome = verify_stirling_identity(l, m)
        assert outcome == exactcomb.IdentityCheck(True, 0, 0)
        assert type(outcome.lhs) is Fraction and type(outcome.rhs) is Fraction
        assert exactcomb._rows is rows and len(rows) == 17
        assert exactcomb._inverses is inverses and len(inverses) == 17

    @pytest.mark.parametrize("l, m", [(40, 30), (3, 40)])
    def test_grows_a_fresh_table(self, monkeypatch, l: int, m: int):
        # the identity reads rows up to 1 + m when l <= m, past the 16-row
        # seed for (3, 40); (40, 30) lies in the empty range l > m and reads none
        monkeypatch.setattr(exactcomb, "_rows", exactcomb._extended([[1]], 16))
        outcome = verify_stirling_identity(l, m)
        lhs, rhs = fraction_loop_identity(l, m)
        assert outcome.equal
        for ours, ref in ((outcome.lhs, lhs), (outcome.rhs, rhs)):
            assert (ours.numerator, ours.denominator) == (ref.numerator, ref.denominator)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            verify_stirling_identity(0, 3)


class TestAlternatingBinomialSum:
    @settings(max_examples=10)
    @given(st.integers(min_value=1, max_value=30))
    def test_partial_sums(self, n_max: int):
        claim = f"partial alternating sums exact for N <= {n_max}"
        assert checks.alternating_binomial_sum(n_max) == ("alternating-binomial-sum", True, claim)
