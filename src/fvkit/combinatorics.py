"""Exact combinatorial primitives: factorials, Stirling numbers, and the
identity checks everything else in the package leans on.

All arithmetic here is arbitrary-precision integer/rational.  No floats.
"""
from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Union

Rational = Union[int, Fraction]


def rising_product(p: int, q: int, m: int) -> int:
    """p(p+q)(p+2q)...(p+(m-1)q) for integers p and q != 0: the integer
    numerator of (p/q)_(m) over the denominator q**m, and 1 for m <= 0.  A
    negative step q gives the falling product."""
    return math.prod(range(p, p + m * q, q)) if m > 0 else 1


def rising_factorial(a: Rational, m: int) -> Rational:
    """a(a+1)...(a+m-1), with the empty product equal to 1.

    A Fraction p/q is multiplied out as the integer product over q**m and
    normalised once, so the result is the same exact Fraction.  A float a
    raises TypeError unless m = 0.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    if isinstance(a, Fraction) and m:
        q = a.denominator
        return Fraction(rising_product(a.numerator, q, m), q**m)
    return rising_product(a, 1, m)


def falling_factorial(a: Rational, m: int) -> Rational:
    """a(a-1)...(a-m+1), with the empty product equal to 1.

    For integer a with 0 <= a < m one of the factors is zero, so the
    product is zero; this is the convention the overlap pmf relies on.  A
    float a raises TypeError unless m = 0.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    if isinstance(a, Fraction) and m:
        q = a.denominator
        return Fraction(rising_product(a.numerator, -q, m), q**m)
    return rising_product(a, -1, m)


def binomial(m: int, n: int) -> int:
    """C(m, n) with C(m, n) = 0 whenever n > m or n < 0."""
    if n < 0 or n > m:
        return 0
    return math.comb(m, n)


STIRLING_MAX_N = 512  # bounds the rows the cache can hold


@functools.cache
def _stirling_row(n: int) -> tuple:
    """Row n of the unsigned Stirling numbers of the first kind, built from
    the cached row n-1 through |s(n,k)| = |s(n-1,k-1)| + (n-1)|s(n-1,k)|, so
    the rows up to n cost O(n^2) in all.  Row n-128 is built first, which
    keeps the recursion under n/128 + 128 calls deep."""
    if n == 0:
        return (1,)
    if n > 128:
        _stirling_row(n - 128)
    row = _stirling_row(n - 1) + (0,)
    return (0,) + tuple(row[k - 1] + (n - 1) * row[k] for k in range(1, n + 1))


def stirling1_unsigned(n: int, k: int) -> int:
    """|s(n, k)|: the coefficient of x^k in x(x+1)...(x+n-1), for
    n <= STIRLING_MAX_N."""
    if n < 0 or k < 0:
        raise ValueError("n and k must be >= 0")
    if k > n:
        return 0
    if n > STIRLING_MAX_N:
        raise ValueError(f"Stirling numbers capped at n <= {STIRLING_MAX_N}")
    return _stirling_row(n)[k]


def rising_expansion(p: int, q: int, r: int, m: int) -> int:
    """q**(m-r) (theta+r)_(m-r) at theta = p/q, summed through the expansion
    (theta+r)_(m-r) = sum_k k! C(k+r-1, k) C(m-r, k) theta_(m-r-k), which
    holds for 1 <= r <= m: the integer numerator of each theta_(m-r-k) is
    over q**(m-r-k), so term k carries q**k."""
    if not 0 < r <= m:
        raise ValueError("need m >= r > 0")
    total = 0
    fact_k = 1
    for k in range(m - r + 1):
        if k > 0:
            fact_k *= k
        total += (fact_k * binomial(k + r - 1, k) * binomial(m - r, k)
                  * rising_product(p, q, m - r - k) * q**k)
    return total


def check_vanishing_alternating_sum(k: int, r: int, phi: Rational) -> bool:
    """Check that sum_{l=0}^{k} (-1)^(k-l) C(k,l) (phi+l)_(k-r) is exactly 0.

    The summand is a degree k-r polynomial in l with k-r < k, so the k-th
    order alternating binomial difference annihilates it.  With phi = p/q
    every term is an integer numerator over the common q**(k-r), so the
    numerators are summed.  Requires 1 <= r <= k.
    """
    if not 1 <= r <= k:
        raise ValueError("need 1 <= r <= k")
    phi = Fraction(phi)
    p, q = phi.numerator, phi.denominator
    total = 0
    for l in range(k + 1):
        sign = -1 if (k - l) % 2 else 1
        total += sign * binomial(k, l) * rising_product(p + l * q, q, k - r)
    return total == 0


def check_shifted_rising_factorial_expansion(m: int, r: int) -> bool:
    """Check the expansion of (theta+r)_(m-r) as a weighted sum of theta_(j)
    terms (``rising_expansion``) against the direct product.

    Both sides are polynomials in theta of degree m-r, so agreeing at the
    m-r+1 distinct points theta = (2i+1)/3 proves the identity for every
    theta.  Each side is compared as its integer numerator over 3**(m-r).
    """
    if not 0 < r <= m:
        raise ValueError("need m >= r > 0")
    return all(rising_expansion(2 * i + 1, 3, r, m) == rising_product(2 * i + 1 + 3 * r, 3, m - r)
               for i in range(m - r + 1))


def check_stirling_convolution(a: int, b: int, c: int) -> bool:
    """Check C(b,a)|s(c,b)| = sum_j C(c,j)|s(c-j,a)||s(j,b-a)| for a <= b <= c."""
    if not (0 < a <= b <= c):
        raise ValueError("need 0 < a <= b <= c")
    lhs = binomial(b, a) * stirling1_unsigned(c, b)
    rhs = 0
    for j in range(b - a, c - a + 1):
        rhs += binomial(c, j) * stirling1_unsigned(c - j, a) * stirling1_unsigned(j, b - a)
    return lhs == rhs
