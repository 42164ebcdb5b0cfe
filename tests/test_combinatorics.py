import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fvkit import combinatorics
from fvkit.combinatorics import (
    binomial,
    check_shifted_rising_factorial_expansion,
    check_stirling_convolution,
    check_vanishing_alternating_sum,
    falling_factorial,
    rising_expansion,
    rising_factorial,
    rising_product,
    stirling1_unsigned,
)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)


def stirling_oracle(n_top):
    """Independent triangular recurrence, kept local to the tests."""
    rows = [[1]]
    for n in range(1, n_top + 1):
        prev = rows[-1]
        row = [0] * (n + 1)
        for k in range(1, n + 1):
            row[k] = prev[k - 1] + (n - 1) * (prev[k] if k < n else 0)
        rows.append(row)
    return rows


class TestFactorials:
    def test_rising_empty_product(self):
        assert rising_factorial(Fraction(17, 3), 0) == 1
        assert rising_factorial(0, 0) == 1

    def test_rising_values(self):
        assert rising_factorial(2, 3) == 24
        assert rising_factorial(Fraction(1, 2), 2) == Fraction(3, 4)

    def test_falling_values(self):
        assert falling_factorial(5, 2) == 20
        assert falling_factorial(2, 3) == 0  # factor (2-2) vanishes
        for n in range(8):
            fact = 1
            for i in range(1, n + 1):
                fact *= i
            assert falling_factorial(n, n) == fact

    def test_binomial(self):
        assert binomial(5, 2) == 10
        assert binomial(7, 0) == 1
        assert binomial(3, 4) == 0

    @given(rationals, st.integers(0, 12))
    def test_falling_is_reflected_rising(self, a, m):
        assert falling_factorial(a, m) == (-1) ** m * rising_factorial(-a, m)

    @given(st.integers(0, 30), st.integers(0, 30))
    def test_binomial_symmetry(self, m, n):
        assert binomial(m, n) == binomial(m, m - n) if n <= m else binomial(m, n) == 0

    def test_rising_ratio_used_by_series(self):
        # r_(j) = j! C(j+r-1, j)
        import math
        for r in range(1, 16):
            for j in range(16):
                assert rising_factorial(r, j) == math.factorial(j) * binomial(j + r - 1, j)


class TestStirling:
    def test_small_values_against_oracle(self):
        oracle = stirling_oracle(12)
        for n in range(13):
            for k in range(n + 1):
                assert stirling1_unsigned(n, k) == oracle[n][k]
        assert stirling1_unsigned(4, 2) == 11

    def test_edges(self):
        assert stirling1_unsigned(0, 0) == 1
        for n in range(1, 10):
            assert stirling1_unsigned(n, n) == 1
            assert stirling1_unsigned(n, 0) == 0
            assert stirling1_unsigned(n, n + 3) == 0

    def test_pascal_type_recurrence(self):
        for n in range(1, 26):
            for k in range(1, n + 1):
                assert stirling1_unsigned(n, k) == (
                    stirling1_unsigned(n - 1, k - 1) + (n - 1) * stirling1_unsigned(n - 1, k)
                )

    def test_generating_function(self):
        # rising_factorial(x, n) = sum_k |s(n,k)| x^k at 10 distinct rationals
        points = [Fraction(i, 3) for i in range(-4, 6)]
        for n in range(21):
            for x in points:
                direct = rising_factorial(x, n)
                summed = sum(stirling1_unsigned(n, k) * x**k for k in range(n + 1))
                assert direct == summed

    def test_rows_build_on_cached_rows(self):
        # row n is built from row n - 1, so an upward sweep is O(n^2), not O(n^3)
        combinatorics._stirling_row.cache_clear()
        combinatorics._stirling_row(5)
        assert combinatorics._stirling_row.cache_info().currsize == 6

    def test_first_column_is_factorial(self):
        # |s(n, 1)| = (n-1)!, from a cold cache straight to the cap
        combinatorics._stirling_row.cache_clear()
        top = combinatorics.STIRLING_MAX_N
        assert stirling1_unsigned(top, 1) == math.factorial(top - 1)
        for n in range(1, top + 1):
            assert stirling1_unsigned(n, 1) == math.factorial(n - 1)

    def test_cap(self):
        from fvkit.combinatorics import STIRLING_MAX_N
        assert STIRLING_MAX_N == 512
        assert stirling1_unsigned(512, 3) > 0
        with pytest.raises(ValueError):
            stirling1_unsigned(513, 2)


class TestVanishingAlternatingSum:
    def test_k1(self):
        assert check_vanishing_alternating_sum(1, 1, Fraction(3, 2))

    def test_examples(self):
        assert check_vanishing_alternating_sum(2, 1, 1)
        assert check_vanishing_alternating_sum(6, 3, Fraction(7, 3))

    def test_grid(self):
        for k in range(1, 9):
            for r in range(1, k + 1):
                for phi in (Fraction(1, 3), 1, Fraction(5, 2), 10):
                    assert check_vanishing_alternating_sum(k, r, phi)

    def test_rejects_bad_r(self):
        with pytest.raises(ValueError):
            check_vanishing_alternating_sum(3, 0, 1)
        with pytest.raises(ValueError):
            check_vanishing_alternating_sum(3, 4, 1)


class TestShiftedRisingExpansion:
    def test_m_equals_r_is_trivially_one(self):
        assert rising_expansion(4, 3, 5, 5) == 1
        assert check_shifted_rising_factorial_expansion(7, 7)

    def test_examples(self):
        assert check_shifted_rising_factorial_expansion(3, 1)
        assert check_shifted_rising_factorial_expansion(12, 5)

    def test_grid_both_methods(self):
        # the check at its points theta = (2i+1)/3, and the kernel at the
        # integer points theta = -m..m, roots of the direct product included
        for m in range(1, 11):
            for r in range(1, m + 1):
                assert check_shifted_rising_factorial_expansion(m, r)
                for p in range(-m, m + 1):
                    assert rising_expansion(p, 1, r, m) == rising_product(p + r, 1, m - r)

    @given(rationals, st.integers(1, 14), st.integers(0, 14))
    def test_kernel_is_the_shifted_rising_factorial(self, theta, r, extra):
        # any rational theta, negative ones included, at its own denominator
        m = r + extra
        p, q = theta.numerator, theta.denominator
        assert rising_expansion(p, q, r, m) == rising_factorial(theta + r, m - r) * q ** (m - r)

    def test_rejects(self):
        with pytest.raises(ValueError):
            check_shifted_rising_factorial_expansion(3, 0)
        with pytest.raises(ValueError):
            check_shifted_rising_factorial_expansion(3, 4)
        with pytest.raises(ValueError):
            rising_expansion(1, 1, 0, 3)


class TestStirlingConvolution:
    def test_a_equals_b_collapses(self):
        for c in range(1, 8):
            for a in range(1, c + 1):
                assert check_stirling_convolution(a, a, c)

    def test_examples(self):
        assert check_stirling_convolution(1, 2, 3)
        assert check_stirling_convolution(2, 4, 7)

    def test_grid(self):
        for c in range(1, 10):
            for b in range(1, c + 1):
                for a in range(1, b + 1):
                    assert check_stirling_convolution(a, b, c)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            check_stirling_convolution(3, 2, 5)
        with pytest.raises(ValueError):
            check_stirling_convolution(1, 4, 3)
