"""The overlap law of the Polya-urn predictive scheme over n conditioning
atoms: the distribution of how many distinct conditioning atoms an m-draw
sample hits, as closed forms, an exact enumeration of every draw path and a
vectorized Monte Carlo sampler.

The base measure is nonatomic, so a draw either hits a conditioning atom,
repeats an earlier draw, or is a fresh value.  The enumeration follows
each draw to the atom it roots at, and the sampler counts the atoms hit and
the draws rooted at an atom, with no real-number equality testing.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from fractions import Fraction
from typing import Union

from ._lazy import np
# falling_factorial and rising_factorial are unused here but stay importable:
# bench/tracing.py rebinds this module's combinatorics names
from .combinatorics import (binomial, falling_factorial, rising_expansion,  # noqa: F401
                            rising_factorial, rising_product)
from .stats import binomial_se

BRUTEFORCE_PATH_BUDGET = 10**7


@dataclass(frozen=True)
class OverlapPmf:
    """Distribution of the overlap count r over 0..min(m, n); exact
    rational probabilities."""

    m: int
    n: int
    theta: Union[Fraction, float]
    probs: tuple


@dataclass(frozen=True)
class EmpiricalOverlapPmf:
    m: int
    n: int
    theta: float
    reps: int
    probs: np.ndarray
    stderr: np.ndarray


def _check_urn_args(m: int, n: int, theta) -> None:
    """Reject m or n < 0, theta < 0, and theta + n = 0, where the first draw
    is undefined.  theta is compared as given, with no conversion."""
    if m < 0 or n < 0:
        raise ValueError("m and n must be >= 0")
    if theta < 0:
        raise ValueError("theta must be >= 0")
    if not theta + n > 0:
        raise ValueError("theta + n must be > 0 for the first draw to be defined")


def overlap_entry(r: int, m: int, n: int, theta: Fraction,
                  via_expansion: bool = False) -> tuple[int, int]:
    """P(r | m, n) for theta >= 0 through the direct form
    n_[r] C(m,r) (theta+r)_(m-r) / (theta+n)_(m), as an unnormalised
    integer pair (num, den); n_[r] = n!/(n-r)! is ``math.perm``.

    With theta = p/q both rising factorials are integer products over
    q**m, so ``den`` = q**m (theta+n)_(m) is the same for every r.
    ``via_expansion`` swaps the shifted rising factorial for its
    combinatorial expansion, tying the entry to the underlying identity.
    """
    p, q = theta.numerator, theta.denominator
    # q**(m-r) (theta+r)_(m-r); the expansion holds for r >= 1 only
    shifted = (rising_expansion(p, q, r, m) if via_expansion and r
               else rising_product(p + r * q, q, m - r))
    num = math.perm(n, r) * math.comb(m, r) * q**r * shifted
    return num, rising_product(p + n * q, q, m)


def _entry_row(m: int, n: int, theta: Fraction, via_expansion: bool = False) -> tuple:
    """``overlap_entry`` for every r, as (numerators, den) over the shared
    denominator q**m (theta+n)_(m), checked to sum to exactly den.
    Arguments are the caller's to validate."""
    nums, dens = zip(*(overlap_entry(r, m, n, theta, via_expansion)
                       for r in range(min(m, n) + 1)))
    if len(set(dens)) != 1 or sum(nums) != dens[0]:
        raise RuntimeError(f"overlap pmf does not sum to 1 for m={m}, n={n}, theta={theta}")
    return nums, dens[0]


def _as_pmf(m: int, n: int, theta: Fraction, row: tuple) -> OverlapPmf:
    nums, den = row
    return OverlapPmf(m=m, n=n, theta=theta, probs=tuple(Fraction(a, den) for a in nums))


def overlap_pmf_exact(m: int, n: int, theta) -> OverlapPmf:
    """Closed-form overlap pmf for theta > 0: ``overlap_entry`` for every
    r, exact rational output, checked to sum to exactly 1.
    ``_extended_row`` computes the other published form for
    cross-checking."""
    theta = Fraction(theta)
    if not theta > 0:
        raise ValueError("theta must be > 0 (use overlap_pmf_theta0 for theta = 0)")
    _check_urn_args(m, n, theta)
    return _as_pmf(m, n, theta, _entry_row(m, n, theta))


def _extended_row(m: int, n: int, theta: Fraction) -> tuple:
    """The extended closed form r! C(n,r) C(m,r) theta_(n) theta_(m) /
    (theta_(n+m) theta_(r)) for every r, unchecked, as (numerators, den):
    den is the product of the integer numerators of theta_(n+m) and
    theta_(K), K = min(m, n).  Requires theta > 0."""
    p, q = theta.numerator, theta.denominator
    # each theta_(k) is its integer numerator over q**k, leaving q**r on
    # top; theta_(K)/theta_(r) is the integer (theta+r)_(K-r) over q**(K-r)
    rise = partial(rising_product, p, q)
    k = min(m, n)
    top = rise(n) * rise(m)
    nums = tuple(math.factorial(r) * binomial(n, r) * binomial(m, r) * top * q**r
                 * rising_product(p + r * q, q, k - r) for r in range(k + 1))
    return nums, rise(n + m) * rise(k)


def overlap_pmf_theta0(m: int, n: int) -> OverlapPmf:
    """Overlap pmf in the theta = 0 regime (no fresh mass): requires
    m, n >= 1, and r = 0 has probability 0.  ``overlap_entry`` at theta = 0
    is n_[r] (r)_(m-r) C(m,r) / (n)_(m), every entry an integer numerator
    over one shared denominator; ``_factorial_row`` computes the other
    printed form for cross-checking."""
    if m < 1 or n < 1:
        raise ValueError("theta = 0 pmf needs m >= 1 and n >= 1")
    row = _entry_row(m, n, Fraction(0))
    if row[0][0]:
        raise RuntimeError(f"theta=0 overlap pmf invalid for m={m}, n={n}")
    return _as_pmf(m, n, Fraction(0), row)


def _factorial_row(m: int, n: int) -> tuple:
    """The theta = 0 factorial form r C(m,r) C(n,r) (n-1)! (m-1)! / (n+m-1)!
    for every r, as (numerators, den) over den = (n+m-1)!.  Requires
    m, n >= 1."""
    c = math.factorial(n - 1) * math.factorial(m - 1)
    nums = tuple(r * binomial(m, r) * binomial(n, r) * c for r in range(min(m, n) + 1))
    return nums, math.factorial(n + m - 1)


def bruteforce_path_count(m: int, n: int) -> int:
    # (n+1)(n+2)...(n+m): draw j hits one of n atoms, repeats one of j-1 draws or is fresh
    return rising_product(n + 1, 1, m)


def overlap_pmf_bruteforce(m: int, n: int, theta) -> OverlapPmf:
    """Exhaustive enumeration over every draw path of length m,
    accumulating exact path probabilities grouped by overlap count.

    This mirrors the sequential predictive rule directly and is the
    independent oracle for the closed forms.  Instances beyond the path
    budget are rejected.
    """
    theta = Fraction(theta)
    _check_urn_args(m, n, theta)
    if bruteforce_path_count(m, n) > BRUTEFORCE_PATH_BUDGET:
        raise ValueError(
            f"enumeration budget exceeded: {bruteforce_path_count(m, n)} paths "
            f"> {BRUTEFORCE_PATH_BUDGET}"
        )
    return _as_pmf(m, n, theta, _bruteforce_row(m, n, theta))


def _bruteforce_row(m: int, n: int, theta: Fraction) -> tuple:
    """The enumeration as (numerators, den).  With theta = p/q, draw j has
    probability q/(p+(n+j-1)q) for each hit or repeat and p/(p+(n+j-1)q)
    for a fresh value, so every path carries an integer weight over the
    shared denominator den = prod_j (p+(n+j-1)q), the denominator of
    ``_entry_row``; the weights are checked to sum to exactly den.
    Arguments are the caller's to validate."""
    p, q = theta.numerator, theta.denominator
    acc = [0] * (min(m, n) + 1)
    atoms = [1 << i for i in range(n)]  # the hitmask bit of each atom
    roots = [0] * m  # per draw, the bit of the atom it roots at; 0 for fresh

    def rec(j: int, weight: int, hitmask: int):
        # draw j hits one of the atoms or repeats one of the j-1 earlier draws
        # with weight q each, or is fresh with weight p
        unit = weight * q
        hits = atoms + roots[:j - 1]
        if j == m:  # the last draw completes each path: add its weight here
            for bit in hits:
                acc[(hitmask | bit).bit_count()] += unit
            if p:
                acc[hitmask.bit_count()] += weight * p
            return
        for bit in hits:
            roots[j - 1] = bit
            rec(j + 1, unit, hitmask | bit)
        if p:
            roots[j - 1] = 0
            rec(j + 1, weight * p, hitmask)

    if m:
        rec(1, 1, 0)
    else:
        acc[0] = 1  # the one empty path
    den = rising_product(p + n * q, q, m)
    if sum(acc) != den:
        raise RuntimeError(f"enumeration probabilities do not sum to 1 for m={m}, n={n}")
    return tuple(acc), den


def overlap_pmf_montecarlo(m: int, n: int, theta, reps: int,
                           rng: np.random.Generator) -> EmpiricalOverlapPmf:
    """Monte Carlo overlap frequencies with binomial standard errors, for
    instances beyond the enumeration budget.  Vectorized over replicates:
    each replicate runs the sequential predictive rule on two counts, h the
    atoms hit and a the draws rooted at an atom.  Draw j + 1 takes one u
    uniform on [0, theta + n + j); with the unhit atoms ordered first among
    the atoms, and the atom-rooted draws first among the j earlier draws,
    it hits a new atom when u < n - h and roots at an atom when u < n + a."""
    theta_f = float(theta)
    _check_urn_args(m, n, theta_f)
    if reps < 1:
        raise ValueError("reps must be >= 1")
    counts = np.zeros(min(m, n) + 1, dtype=np.int64)
    done = 0
    while done < reps:
        c = min(1 << 18, reps - done)  # replicates per chunk: a few arrays of c counts
        hit = np.zeros(c, dtype=np.int64)
        rooted = np.zeros(c, dtype=np.int64)
        for j in range(m):
            u = rng.random(c) * (theta_f + n + j)
            hit += u < n - hit
            rooted += u < n + rooted
        counts += np.bincount(hit, minlength=counts.size)
        done += c
    probs = counts / reps
    stderr = binomial_se(probs, reps)
    return EmpiricalOverlapPmf(m=m, n=n, theta=theta_f, reps=reps, probs=probs, stderr=stderr)
