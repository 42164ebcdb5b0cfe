"""The general Polya-urn predictive scheme over n conditioning atoms, and
the distribution of the overlap count: how many distinct conditioning atoms
an m-draw sample hits.

The base measure is nonatomic, so the urn is modeled purely by labels:
a draw either hits a conditioning atom, repeats an earlier draw, or is a
fresh value.  No real-number equality testing is ever involved.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from fractions import Fraction
from typing import Union

import numpy as np

# rising_factorial is unused here but stays importable: bench/tracing.py
# rebinds this module's combinatorics names
from .combinatorics import (binomial, falling_factorial, rising_expansion,  # noqa: F401
                            rising_factorial, rising_product)

BRUTEFORCE_PATH_BUDGET = 10**7


@dataclass(frozen=True)
class UrnParams:
    """theta >= 0 plus the number n of distinct conditioning atoms."""

    theta: Union[float, Fraction]
    n: int

    def __post_init__(self):
        if self.theta < 0:
            raise ValueError("theta must be >= 0")
        if self.n < 0:
            raise ValueError("n must be >= 0")
        if not self.theta + self.n > 0:
            raise ValueError("theta + n must be > 0 for the first draw to be defined")


@dataclass(frozen=True)
class HitX:
    """Draw equal to conditioning atom X_i (1-based)."""
    i: int


@dataclass(frozen=True)
class RepeatY:
    """Draw repeating the earlier draw Y_j (1-based, j < current index)."""
    j: int


@dataclass(frozen=True)
class Fresh:
    """Fresh draw from the nonatomic base: a.s. a new value."""


DrawLabel = Union[HitX, RepeatY, Fresh]


@dataclass(frozen=True)
class UrnTrace:
    params: UrnParams
    labels: tuple

    def __post_init__(self):
        for pos, lab in enumerate(self.labels, start=1):
            if isinstance(lab, HitX) and not 1 <= lab.i <= self.params.n:
                raise ValueError(f"HitX index {lab.i} outside 1..{self.params.n}")
            if isinstance(lab, RepeatY) and not 1 <= lab.j < pos:
                raise ValueError(f"RepeatY at position {pos} must reference an earlier draw")


@dataclass(frozen=True)
class OverlapPmf:
    """Distribution of the overlap count r over 0..min(m, n); exact
    rational probabilities."""

    m: int
    n: int
    theta: Union[Fraction, float]
    probs: tuple

    @cached_property
    def probs_float(self) -> np.ndarray:
        """Float copy of ``probs``, computed once and read-only."""
        out = np.array([float(p) for p in self.probs])
        out.setflags(write=False)
        return out


@dataclass(frozen=True)
class EmpiricalOverlapPmf:
    m: int
    n: int
    theta: float
    reps: int
    probs: np.ndarray
    stderr: np.ndarray


def sample_urn(params: UrnParams, m: int, rng: np.random.Generator) -> UrnTrace:
    """Sequential sample of m urn draws.  Draw j hits each conditioning atom
    with probability 1/(theta+n+j-1), repeats each earlier draw with the
    same probability, and is fresh with probability theta/(theta+n+j-1)."""
    if m < 0:
        raise ValueError("m must be >= 0")
    theta = float(params.theta)
    n = params.n
    labels = []
    for j in range(1, m + 1):
        u = rng.random() * (theta + n + j - 1)
        if u < n:
            labels.append(HitX(int(u) + 1))
        elif u < n + j - 1:
            labels.append(RepeatY(int(u - n) + 1))
        else:
            labels.append(Fresh())
    return UrnTrace(params=params, labels=tuple(labels))


def overlap_count(trace: UrnTrace) -> int:
    """Number of distinct conditioning atoms hit, resolving repeat chains
    to their root draw first."""
    roots: list[int] = []  # conditioning-atom index per draw, 0 for fresh-rooted
    hit = set()
    for lab in trace.labels:
        if isinstance(lab, HitX):
            roots.append(lab.i)
            hit.add(lab.i)
        elif isinstance(lab, RepeatY):
            r = roots[lab.j - 1]
            roots.append(r)
            if r:
                hit.add(r)
        else:
            roots.append(0)
    return len(hit)


def _check_exact_args(m: int, n: int, theta) -> Fraction:
    if m < 0 or n < 0:
        raise ValueError("m and n must be >= 0")
    theta = Fraction(theta)
    if not theta > 0:
        raise ValueError("theta must be > 0 (use overlap_pmf_theta0 for theta = 0)")
    return theta


def overlap_entry(r: int, m: int, n: int, theta: Fraction,
                  via_expansion: bool = False) -> tuple[int, int]:
    """P(r | m, n) for theta >= 0 through the direct form
    n_[r] C(m,r) (theta+r)_(m-r) / (theta+n)_(m), as an unnormalised
    integer pair (num, den).

    With theta = p/q both rising factorials are integer products over
    q**m, so ``den`` = q**m (theta+n)_(m) is the same for every r.
    ``via_expansion`` swaps the shifted rising factorial for its
    combinatorial expansion, tying the entry to the underlying identity.
    """
    p, q = theta.numerator, theta.denominator
    # q**(m-r) (theta+r)_(m-r); the expansion holds for r >= 1 only
    shifted = (rising_expansion(p, q, r, m) if via_expansion and r
               else rising_product(p + r * q, q, m - r))
    num = falling_factorial(n, r) * binomial(m, r) * q**r * shifted
    return num, rising_product(p + n * q, q, m)


def _entry_pmf(m: int, n: int, theta: Fraction, via_expansion: bool = False) -> OverlapPmf:
    # ``overlap_entry`` for every r, checked to sum to exactly 1
    nums, dens = zip(*(overlap_entry(r, m, n, theta, via_expansion)
                       for r in range(min(m, n) + 1)))
    if len(set(dens)) != 1 or sum(nums) != dens[0]:
        raise RuntimeError(f"overlap pmf does not sum to 1 for m={m}, n={n}, theta={theta}")
    return OverlapPmf(m=m, n=n, theta=theta, probs=tuple(Fraction(a, dens[0]) for a in nums))


def overlap_pmf_exact(m: int, n: int, theta, via_expansion: bool = False) -> OverlapPmf:
    """Closed-form overlap pmf for theta > 0: ``overlap_entry`` for every
    r, exact rational output, checked to sum to exactly 1.
    ``overlap_pmf_extended`` computes the other published form for
    cross-checking."""
    return _entry_pmf(m, n, _check_exact_args(m, n, theta), via_expansion)


def overlap_pmf_extended(m: int, n: int, theta) -> OverlapPmf:
    """The overlap pmf for theta > 0 through the extended closed form
    r! C(n,r) C(m,r) theta_(n) theta_(m) / (theta_(n+m) theta_(r)), entry by
    entry and unchecked: the independent counterpart of
    ``overlap_pmf_exact``."""
    theta = _check_exact_args(m, n, theta)
    p, q = theta.numerator, theta.denominator
    # each theta_(k) is its integer numerator over q**k, leaving q**r on top
    rise = partial(rising_product, p, q)
    probs = tuple(
        Fraction(math.factorial(r) * binomial(n, r) * binomial(m, r)
                 * rise(n) * rise(m) * q**r, rise(n + m) * rise(r))
        for r in range(min(m, n) + 1)
    )
    return OverlapPmf(m=m, n=n, theta=theta, probs=probs)


def overlap_pmf_theta0(m: int, n: int) -> OverlapPmf:
    """Overlap pmf in the theta = 0 regime (no fresh mass): requires
    m, n >= 1, and r = 0 has probability 0.  ``overlap_entry`` at theta = 0
    is n_[r] (r)_(m-r) C(m,r) / (n)_(m), every entry an integer numerator
    over one shared denominator; ``overlap_pmf_theta0_factorial`` computes
    the other printed form for cross-checking."""
    if m < 1 or n < 1:
        raise ValueError("theta = 0 pmf needs m >= 1 and n >= 1")
    pmf = _entry_pmf(m, n, Fraction(0))
    if pmf.probs[0] != 0:
        raise RuntimeError(f"theta=0 overlap pmf invalid for m={m}, n={n}")
    return pmf


def overlap_pmf_theta0_factorial(m: int, n: int) -> OverlapPmf:
    """The theta = 0 overlap pmf through the factorial form
    r C(m,r) C(n,r) (n-1)! (m-1)! / (n+m-1)!, entry by entry."""
    if m < 1 or n < 1:
        raise ValueError("theta = 0 pmf needs m >= 1 and n >= 1")
    c = math.factorial(n - 1) * math.factorial(m - 1)
    den = math.factorial(n + m - 1)
    probs = tuple(Fraction(r * binomial(m, r) * binomial(n, r) * c, den)
                  for r in range(min(m, n) + 1))
    return OverlapPmf(m=m, n=n, theta=Fraction(0), probs=probs)


def bruteforce_path_count(m: int, n: int) -> int:
    paths = 1
    for j in range(1, m + 1):
        paths *= n + j
    return paths


def overlap_pmf_bruteforce(m: int, n: int, theta) -> OverlapPmf:
    """Exhaustive enumeration over every label sequence of length m,
    accumulating exact path probabilities grouped by overlap count.

    This mirrors the sequential predictive rule directly and is the
    independent oracle for the closed forms.  With theta = p/q, draw j has
    probability q/(p+(n+j-1)q) for each hit or repeat and p/(p+(n+j-1)q)
    for a fresh value, so every path carries an integer weight over the
    shared denominator prod_j (p+(n+j-1)q).  Instances beyond the path
    budget are rejected.
    """
    if m < 0 or n < 0:
        raise ValueError("m and n must be >= 0")
    theta = Fraction(theta)
    if not theta + n > 0:
        raise ValueError("theta + n must be > 0")
    if bruteforce_path_count(m, n) > BRUTEFORCE_PATH_BUDGET:
        raise ValueError(
            f"enumeration budget exceeded: {bruteforce_path_count(m, n)} paths "
            f"> {BRUTEFORCE_PATH_BUDGET}"
        )
    p, q = theta.numerator, theta.denominator
    acc = [0] * (min(m, n) + 1)
    roots = [0] * m  # atom index (1-based) or 0 for fresh, per draw

    def rec(j: int, weight: int, hitmask: int):
        if j > m:
            acc[hitmask.bit_count()] += weight
            return
        unit = weight * q
        for i in range(1, n + 1):
            roots[j - 1] = i
            rec(j + 1, unit, hitmask | (1 << (i - 1)))
        for l in range(1, j):
            r = roots[l - 1]
            roots[j - 1] = r
            rec(j + 1, unit, hitmask | ((1 << (r - 1)) if r else 0))
        if p:
            roots[j - 1] = 0
            rec(j + 1, weight * p, hitmask)

    rec(1, 1, 0)
    den = rising_product(p + n * q, q, m)
    if sum(acc) != den:
        raise RuntimeError(f"enumeration probabilities do not sum to 1 for m={m}, n={n}")
    return OverlapPmf(m=m, n=n, theta=theta, probs=tuple(Fraction(a, den) for a in acc))


def overlap_pmf_montecarlo(m: int, n: int, theta, reps: int,
                           rng: np.random.Generator) -> EmpiricalOverlapPmf:
    """Monte Carlo overlap frequencies with binomial standard errors, for
    instances beyond the enumeration budget.  Vectorized over replicates;
    distributionally identical to repeated sample_urn + overlap_count."""
    if reps < 1:
        raise ValueError("reps must be >= 1")
    theta_f = float(theta)
    if not theta_f + n > 0:
        raise ValueError("theta + n must be > 0")
    kmax = min(m, n)
    counts = np.zeros(kmax + 1, dtype=np.int64)
    chunk = max(1, 4_000_000 // max(m, 1))
    done = 0
    while done < reps:
        c = min(chunk, reps - done)
        roots = np.empty((c, max(m, 1)), dtype=np.int64)
        for j in range(1, m + 1):
            u = rng.random(c) * (theta_f + n + j - 1)
            col = np.where(u < n, u.astype(np.int64), np.int64(-1))
            if j > 1:
                is_rep = (u >= n) & (u < n + j - 1)
                l = np.clip((u - n).astype(np.int64), 0, j - 2)
                prev = np.take_along_axis(roots[:, :j - 1], l[:, None], axis=1)[:, 0]
                col = np.where(is_rep, prev, col)
            roots[:, j - 1] = col
        if m == 0:
            distinct = np.zeros(c, dtype=np.int64)
        else:
            s = np.sort(roots[:, :m], axis=1)
            newval = np.ones_like(s, dtype=bool)
            newval[:, 1:] = s[:, 1:] != s[:, :-1]
            distinct = ((s >= 0) & newval).sum(axis=1)
        counts += np.bincount(distinct, minlength=kmax + 1)[:kmax + 1]
        done += c
    probs = counts / reps
    stderr = np.sqrt(probs * (1 - probs) / reps)
    return EmpiricalOverlapPmf(m=m, n=n, theta=theta_f, reps=reps, probs=probs, stderr=stderr)
