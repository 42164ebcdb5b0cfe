"""The statistics that turn a Monte Carlo run into a verdict: standard
errors, z-scores, the lag slope, and the two p-values the harnesses compute
themselves (exact equal-size two-sample Kolmogorov-Smirnov, chi-square
tail).  Only numpy, and that lazily: no fvkit module is imported here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from ._lazy import np


def check_reps(reps: int) -> None:
    if reps < 2:
        raise ValueError(f"reps must be >= 2 for a Monte Carlo standard error, got {reps}")


def binomial_se(p, n):
    """Standard error of a frequency over n trials of probability p,
    elementwise; 0 at p in {0, 1}."""
    return np.sqrt(p * (1 - p) / n)


def z(diff, se):
    """|diff| in standard errors, elementwise: 0 where there is no
    difference, inf where a zero standard error cannot explain one; NaN
    passes through.  A scalar comes back as a float."""
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(np.equal(diff, 0), 0.0, np.abs(diff) / se)
    return z if z.ndim else float(z)


@dataclass(frozen=True)
class Estimate:
    """A Monte Carlo estimate with its standard error, against a target."""

    value: float
    se: float
    target: float = 0.0

    @property
    def z(self) -> float:
        return z(self.value - self.target, self.se)

    @staticmethod
    def mean_of(samples: np.ndarray, target: float = 0.0) -> "Estimate":
        """The sample mean with its standard error, for samples.size >= 2."""
        return Estimate(float(samples.mean()),
                        float(samples.std(ddof=1) / math.sqrt(samples.size)), target)

    @staticmethod
    def var_of(samples: np.ndarray, target: float) -> "Estimate":
        """The sample variance with its standard error from the fourth
        central moment, for samples.size >= 2."""
        var = float(samples.var(ddof=1))
        m4 = float(((samples - samples.mean())**4).mean())
        return Estimate(var, float(math.sqrt(max(m4 - var**2, 0.0) / samples.size)), target)


def lag_slope(u: np.ndarray, v: np.ndarray, target: float) -> Estimate:
    """OLS slope of v on u with its heteroscedasticity-robust (HC0
    sandwich) standard error, against target; NaN when u does not vary."""
    du, dv = u - u.mean(), v - v.mean()
    sxx = float(du @ du)
    if sxx == 0:
        return Estimate(math.nan, math.nan, target)
    slope = float(du @ dv) / sxx
    score = du * (dv - slope * du)
    return Estimate(slope, math.sqrt(float(score @ score)) / sxx, target)


def ks_2samp_equal(x, y) -> tuple[float, float]:
    """Two-sided two-sample Kolmogorov-Smirnov test for equal sample sizes
    n, exact at every n: the statistic D = h/n is the largest gap between
    the two ECDFs over the pooled points, and the p-value is the chance
    that a uniform lattice path from (0, 0) to (n, n) touches |i - j| = h
    (Hodges 1958), by the Horner form of the alternating reflection sum."""
    x, y = np.sort(x), np.sort(y)
    n = x.size
    if n == 0 or y.size != n:
        raise ValueError("KS test needs two nonempty samples of equal size")
    pooled = np.concatenate([x, y])
    gaps = np.searchsorted(x, pooled, side="right") - np.searchsorted(y, pooled, side="right")
    h = int(np.abs(gaps).max())
    if h == 0:
        return 0.0, 1.0
    # P(D >= h/n) = 2 A_0 (1 - A_1 (1 - A_2 (...))), A_k = C(2n, n-(k+1)h) / C(2n, n-kh)
    P = 0.0
    for k in range(n // h, -1, -1):
        p1 = 1.0
        for j in range(h):
            p1 = (n - k * h - j) * p1 / (n + k * h + j + 1)
        P = p1 * (1.0 - P)
    return h / n, min(max(2 * P, 0.0), 1.0)


def chisquare_pvalue(counts, expected) -> float:
    """Upper-tail p-value of Pearson's chi-square statistic with k - 1
    degrees of freedom.  Observed and expected totals must agree to a relative
    sqrt(float eps)."""
    obs = np.asarray(counts, dtype=float)
    exp = np.asarray(expected, dtype=float)
    if obs.size < 2 or obs.shape != exp.shape:
        raise ValueError("chi-square test needs matching counts over at least two cells")
    tot_obs, tot_exp = obs.sum(), exp.sum()
    if abs(tot_obs - tot_exp) > np.finfo(float).eps ** 0.5 * min(tot_obs, tot_exp):
        raise ValueError(f"observed total {tot_obs} does not match expected total {tot_exp}")
    stat = float(((obs - exp) ** 2 / exp).sum())
    return chi2_sf(stat, obs.size - 1)


def chi2_sf(stat: float, df: int) -> float:
    """Upper tail of the chi-square law with df >= 1 degrees of freedom: the
    regularized upper incomplete gamma Q(df/2, x), x = stat/2, as a finite
    sum since df is an integer.  With j running over 0, 1, .., df/2 - 1
    (even df) or 1/2, 3/2, .., df/2 - 1 (odd df),
    Q = [erfc(sqrt(x)) for odd df] + sum_j e**-x x**j / Gamma(j + 1).
    The terms are at most 1 and carried by the ratio x/(j + 1); past
    x = 700, where e**-x nears the subnormal range, each is taken from its
    logarithm instead."""
    x = stat / 2
    if x == math.inf:  # a cell expected never but seen
        return 0.0
    j = df % 2 / 2
    total = math.erfc(math.sqrt(x)) if j else 0.0
    term = math.exp(-x) * x ** j / math.gamma(j + 1)
    while j < df / 2:
        total += term if x <= 700 else math.exp(j * math.log(x) - x - math.lgamma(j + 1))
        j += 1
        term *= x / j
    return min(total, 1.0)
