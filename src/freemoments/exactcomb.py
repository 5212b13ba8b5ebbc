"""Exact integer and rational combinatorics.

Signed Stirling numbers of the first kind (falling-factorial convention,
``sum_k s(n, k) x^k = x (x-1) ... (x-n+1)``) by the recurrence and by
log-series coefficient extraction, and the exact double-sum identity check
that underpins the moment recursion.  All arithmetic in this module is
integer or Fraction; no floats enter or leave.
"""
from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import NamedTuple

__all__ = [
    "stirling_first",
    "stirling_via_log_series",
    "IdentityCheck",
    "verify_stirling_identity",
]

# largest n the log-series route accepts; guards accidental huge requests
_LOG_SERIES_CAP = 512


def _extended(rows: list[list[int]], max_n: int) -> list[list[int]]:
    # a longer copy, rows n + 1 from s(n + 1, k) = s(n, k - 1) - n s(n, k)
    rows = rows.copy()
    for n in range(len(rows) - 1, max_n):
        prev = rows[n]
        rows.append([0] + [prev[k - 1] - n * prev[k] for k in range(1, n + 1)] + [prev[n]])
    return rows


# Row n holds s(n, 0) .. s(n, n).  Growing rebinds the name to a longer copy
# and never mutates a published list, so concurrent readers stay safe.
_rows = _extended([[1]], 16)


def _stirling_rows(n: int) -> list[list[int]]:
    """The published table, grown to hold at least rows ``0 .. n``; row ``m``
    holds ``s(m, 0) .. s(m, m)``.  Readers index it directly instead of
    calling :func:`stirling_first` once per number."""
    global _rows
    rows = _rows
    if n >= len(rows):
        # grow geometrically so repeated scattered lookups stay amortized O(1)
        rows = _rows = _extended(rows, max(n, 2 * (len(rows) - 1)))
    return rows


def stirling_first(n: int, k: int) -> int:
    """Signed Stirling number of the first kind ``s(n, k)``.

    Memoized in a module-level table of rows; ``stirling_first(4, 2) == 11``.
    """
    if n < 0 or k < 0:
        raise ValueError("indices must be natural numbers")
    if k > n:
        return 0
    return _stirling_rows(n)[n][k]


def stirling_via_log_series(n: int, k: int) -> Fraction:
    """``s(n, k)`` by coefficient extraction: ``(n!/k!) [z^n] log(1+z)^k``.

    Exact formal power series over Fraction.  With ``log(1+z) = z L(z)``,
    ``L(z) = sum_i a_i z^i``, ``a_i = (-1)^i / (i + 1)``, the coefficient is
    ``[z^(n-k)] L^k``.  The power ``L^k = sum_m b_m z^m`` follows from
    ``L (L^k)' = k L' L^k``:
    ``b_m = (1/m) sum_{i=1..m} ((k+1) i - m) a_i b_(m-i)`` (Knuth, TAOCP
    vol. 2, section 4.7), about ``(n-k)^2 / 2`` products.  Independent of the
    recurrence table, so the two routes check each other.  ``n`` above 512
    raises ``ValueError``.
    """
    if n < 0 or k < 0:
        raise ValueError("indices must be natural numbers")
    if k > n:
        raise ValueError("log-series route requires k <= n")
    if n > _LOG_SERIES_CAP:
        raise ValueError(f"series cap {_LOG_SERIES_CAP} exceeded (n = {n})")
    degree = n - k
    series = [Fraction((-1) ** i, i + 1) for i in range(degree + 1)]
    power = [Fraction(1)]
    for m in range(1, degree + 1):
        total = sum(((k + 1) * i - m) * series[i] * power[m - i] for i in range(1, m + 1))
        power.append(total / m)
    return Fraction(math.factorial(n), math.factorial(k)) * power[degree]


def _extended_inverses(
    table: list[tuple[int, list[int]]], max_n: int
) -> list[tuple[int, list[int]]]:
    # a longer copy: entry N is L = lcm_d C(N, d) and L // C(N, d), d = 0 .. N
    table = table.copy()
    for n in range(len(table), max_n + 1):
        binomials = [math.comb(n, d) for d in range(n + 1)]
        common = math.lcm(*binomials)
        table.append((common, [common // c for c in binomials]))
    return table


# Grown like the Stirling table, by rebinding to a longer copy.
_inverses = _extended_inverses([], 16)


def _inverse_binomials(n: int) -> tuple[int, list[int]]:
    """``L = lcm_d C(n, d)`` and the list of ``L // C(n, d)``, ``d = 0 .. n``,
    so that ``sum_d a_d / C(n, d) = sum_d a_d (L // C(n, d)) / L``."""
    global _inverses
    table = _inverses
    if n >= len(table):
        table = _inverses = _extended_inverses(table, max(n, 2 * (len(table) - 1)))
    return table[n]


class IdentityCheck(NamedTuple):
    equal: bool
    lhs: Fraction
    rhs: Fraction


def verify_stirling_identity(l: int, m: int) -> IdentityCheck:
    """Exact check of ``2 l s(1+m, 1+l)`` against its inverted-binomial double sum.

    The right side sums, over ``1 <= n <= l`` and ``0 <= k <= m - 1``,

        C(m, k) C(m, 1+k) s(1+k, n) s(m-k, l+1-n) / C(l+m-2, n+k-1)

    scaled by ``(m+1)/(l+m-1)``.  Both Stirling factors are nonzero only for
    ``l+1-m+k <= n <= 1+k``, a range empty for every ``k`` when ``l > m``;
    there both sides are 0 and no table is read.  The summand is unchanged
    under ``(k, n) -> (m-1-k, l+1-n)``, so the rows ``k < m/2`` are summed
    twice and the middle row of an odd ``m`` once.  Each ``1 / C(l+m-2, d)``
    is an integer over the lcm of the binomials (a table kept per
    ``l+m-2``), so the right side sums integer numerators and is one
    ``Fraction``, normalised once.
    """
    if l < 1 or m < 1:
        raise ValueError("identity range is l >= 1, m >= 1")
    if l > m:
        return IdentityCheck(True, Fraction(0), Fraction(0))
    rows = _stirling_rows(1 + m)
    lhs = Fraction(2 * l * rows[1 + m][1 + l])
    common, scales = _inverse_binomials(l + m - 2)
    total = 0
    weight = 1  # C(m, k)
    for k in range((m + 1) // 2):
        lo, hi = max(1, l + 1 - m + k), min(l, 1 + k)
        left = rows[1 + k][lo : hi + 1]
        right = rows[m - k][l + 1 - lo : l - hi : -1]  # s(m-k, l+1-n), n = lo .. hi
        # hi + k <= l + m - 1 = len(scales) once l <= m: no slice is cut short
        scaled = scales[lo + k - 1 : hi + k]  # L // C(l+m-2, n+k-1)
        next_weight = weight * (m - k) // (k + 1)
        row = weight * next_weight * sum(map(mul, map(mul, left, right), scaled))
        total += 2 * row if 2 * k + 1 < m else row
        weight = next_weight
    rhs = Fraction((m + 1) * total, (l + m - 1) * common)
    return IdentityCheck(lhs == rhs, lhs, rhs)
