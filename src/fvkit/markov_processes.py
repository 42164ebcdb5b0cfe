"""The three stationary processes built on the Dirichlet machinery: the
scalar keep-or-redraw chain, the discrete-time measure-valued chain, and
the continuous-time measure-valued transition mixed by the death-count
pmf.  Plus the process-level stationarity / reversibility / composition
harnesses.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import mpmath
import numpy as np

from .death_process import DeathParams, DeathPmf, PrecisionConfig, death_pmf, sample_death_count
from .random_measures import (
    DEFAULT_TRUNCATION,
    AtomSet,
    BaseMeasure,
    DiscreteBase,
    DiscreteMeasure,
    Interval,
    Point,
    StickTruncation,
    TestSet,
    UniformBase,
    posterior,
    sample_from_measure,
    sample_posterior,
)


@dataclass(frozen=True)
class Dar1Config:
    """Keep the current state w.p. 1/(1+theta), else redraw from the base."""

    theta: float
    base: BaseMeasure

    def __post_init__(self):
        if not self.theta > 0:
            raise ValueError("theta must be > 0")


@dataclass(frozen=True)
class MeasureChainConfig:
    """Discrete-time measure chain: n draws from the current measure feed
    the posterior that generates the next measure."""

    theta: float
    base: BaseMeasure
    n: int
    trunc: StickTruncation = DEFAULT_TRUNCATION

    def __post_init__(self):
        if not self.theta > 0:
            raise ValueError("theta must be > 0")
        if self.n < 1:
            raise ValueError("n must be >= 1")


@dataclass(frozen=True)
class FvConfig:
    """Continuous-time transition of duration t: the number of conditioning
    draws is random with the death-count pmf at t."""

    theta: float
    base: BaseMeasure
    t: float
    prec: PrecisionConfig = PrecisionConfig()
    trunc: StickTruncation = DEFAULT_TRUNCATION

    def __post_init__(self):
        if not self.theta > 0:
            raise ValueError("theta must be > 0")
        if not self.t > 0:
            raise ValueError("t must be > 0")

    def death_pmf(self) -> DeathPmf:
        return death_pmf(self.t, DeathParams(self.theta), self.prec)


def measures_equal(a: DiscreteMeasure, b: DiscreteMeasure) -> bool:
    """Content equality: identical weights, positions, and residual.  Atom
    ids are nominal labels from the process-wide counter and are excluded."""
    if a.base_kind != b.base_kind or a.residual != b.residual:
        return False
    if not np.array_equal(a.weights, b.weights):
        return False
    if (a.xs is None) != (b.xs is None):
        return False
    return a.xs is None or np.array_equal(a.xs, b.xs)


# ---------------------------------------------------------------------------
# steps

def dar1_step(x, cfg: Dar1Config, rng: np.random.Generator):
    """Redraw from the base w.p. theta/(1+theta), else keep x."""
    if rng.random() * (1 + cfg.theta) < cfg.theta:
        return cfg.base.sample(rng)
    return x


def dar1_detailed_balance(cfg: Dar1Config) -> float:
    """Max violation of w(x) P(x,y) = w(y) P(y,x) on the explicit transition
    matrix over a finite-discrete base.  The off-diagonal part is
    theta*w(x)*w(y)/(1+theta), symmetric by inspection, so this is a pure
    floating-point exercise."""
    if not isinstance(cfg.base, DiscreteBase):
        raise TypeError("detailed balance check needs a finite-discrete base")
    w = np.asarray(cfg.base.weights, dtype=float)
    k = w.size
    P = cfg.theta * np.tile(w, (k, 1)) / (1 + cfg.theta) + np.eye(k) / (1 + cfg.theta)
    flux = w[:, None] * P
    return float(np.abs(flux - flux.T).max())


def _chain_step(mu: DiscreteMeasure, theta: float, base: BaseMeasure, n: int,
                trunc: StickTruncation, rng: np.random.Generator) -> DiscreteMeasure:
    atoms = sample_from_measure(mu, n, rng) if n else []
    return sample_posterior(posterior(theta, base, atoms), trunc, rng)


def measure_chain_step(mu: DiscreteMeasure, cfg: MeasureChainConfig,
                       rng: np.random.Generator) -> DiscreteMeasure:
    return _chain_step(mu, cfg.theta, cfg.base, cfg.n, cfg.trunc, rng)


def fv_step(mu: DiscreteMeasure, cfg: FvConfig, rng: np.random.Generator,
            n_override: Optional[int] = None) -> DiscreteMeasure:
    """One transition of duration cfg.t: draw the conditioning count from
    the death pmf, then run the measure-chain step with that count.  A
    count of 0 is a fresh prior draw.  ``n_override`` forces the count,
    bypassing the pmf (used to check consistency with the discrete chain).
    """
    if n_override is None:
        pmf = cfg.death_pmf()
        if pmf.residual > 1e-6:
            raise ValueError(f"death pmf residual {pmf.residual:g} too large; "
                             "tighten tail_tol")
        n = sample_death_count(pmf, rng)
    else:
        n = n_override
    return _chain_step(mu, cfg.theta, cfg.base, n, cfg.trunc, rng)


def stationary_measure(theta: float, base: BaseMeasure,
                       trunc: StickTruncation = DEFAULT_TRUNCATION,
                       rng: np.random.Generator = None) -> DiscreteMeasure:
    """A draw from the stationary law: the prior with total mass theta."""
    return sample_posterior(posterior(theta, base, []), trunc, rng)


# ---------------------------------------------------------------------------
# trajectory driver

def _state_observable(x, A: TestSet) -> float:
    if isinstance(x, Point):
        if isinstance(A, Interval):
            return float(A.lo <= x.x < A.hi)
        raise TypeError("continuous states support interval observables only")
    if isinstance(A, AtomSet):
        return float(int(x) in A.indices)
    if isinstance(A, Interval):
        raise TypeError("discrete states need atom-set observables")
    raise TypeError(f"unsupported observable {A!r}")


def run_chain(kind: str, cfg, steps: int, observables: Sequence[TestSet],
              rng: np.random.Generator, return_state: bool = False):
    """Iterate the named chain and record the observables after every step.

    Returns an array of shape (steps, len(observables)): indicator values
    for the scalar chain, measure masses for the measure-valued chains.
    Replayable from the seed.  With ``return_state`` the final chain state
    is returned alongside the trajectory.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    expected = {"dar1": Dar1Config, "measure-chain": MeasureChainConfig, "fv": FvConfig}
    if kind not in expected:
        raise ValueError(f"unknown chain kind {kind!r}")
    if not isinstance(cfg, expected[kind]):
        raise TypeError(f"kind {kind!r} needs a {expected[kind].__name__}")
    out = np.empty((steps, len(observables)))
    if kind == "dar1":
        x = cfg.base.sample(rng)
        for i in range(steps):
            x = dar1_step(x, cfg, rng)
            out[i] = [_state_observable(x, A) for A in observables]
        return (out, x) if return_state else out
    mu = stationary_measure(cfg.theta, cfg.base, cfg.trunc, rng)
    step = measure_chain_step if kind == "measure-chain" else fv_step
    for i in range(steps):
        mu = step(mu, cfg, rng)
        out[i] = [mu.mass(A) for A in observables]
    return (out, mu) if return_state else out


# ---------------------------------------------------------------------------
# harnesses

@dataclass(frozen=True)
class MomentCheck:
    """Empirical mean/variance of mu(A) after a number of chained steps,
    against the stationary targets, with Monte Carlo standard errors."""

    after_steps: int
    mean: float
    mean_se: float
    mean_target: float
    var: float
    var_se: float
    var_target: float
    reps: int

    @property
    def mean_z(self) -> float:
        return abs(self.mean - self.mean_target) / self.mean_se

    @property
    def var_z(self) -> float:
        return abs(self.var - self.var_target) / self.var_se


def _moment_check(vals: np.ndarray, after: int, p: float, theta: float) -> MomentCheck:
    reps = vals.size
    mean = float(vals.mean())
    mean_se = float(vals.std(ddof=1) / math.sqrt(reps))
    var = float(vals.var(ddof=1))
    centered = vals - vals.mean()
    m4 = float((centered**4).mean())
    var_se = float(math.sqrt(max(m4 - var**2, 1e-300) / reps))
    return MomentCheck(
        after_steps=after,
        mean=mean, mean_se=mean_se, mean_target=p,
        var=var, var_se=var_se, var_target=p * (1 - p) / (1 + theta),
        reps=reps,
    )


def stationarity_checks(kind: str, cfg, A: TestSet, reps: int,
                        checkpoints: Sequence[int], rng: np.random.Generator):
    """Start each replicate at a stationary draw, chain the step, and test
    the observable's mean and variance at the requested checkpoints."""
    if kind not in ("measure-chain", "fv"):
        raise ValueError("stationarity harness covers the measure-valued chains")
    step = measure_chain_step if kind == "measure-chain" else fv_step
    marks = sorted(set(checkpoints))
    last = marks[-1]
    vals = {m: np.empty(reps) for m in marks}
    for i in range(reps):
        mu = stationary_measure(cfg.theta, cfg.base, cfg.trunc, rng)
        for k in range(1, last + 1):
            mu = step(mu, cfg, rng)
            if k in vals:
                vals[k][i] = mu.mass(A)
    p = cfg.base.measure(A)
    return [_moment_check(vals[m], m, p, cfg.theta) for m in marks]


def _ks_2samp_equal(x, y) -> tuple[float, float]:
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


def _chisquare_pvalue(counts, expected) -> float:
    """Upper-tail p-value of Pearson's chi-square statistic with k - 1
    degrees of freedom, as the regularized upper incomplete gamma
    Q(df/2, stat/2).  Observed and expected totals must agree to a relative
    sqrt(float eps)."""
    obs = np.asarray(counts, dtype=float)
    exp = np.asarray(expected, dtype=float)
    if obs.size < 2 or obs.shape != exp.shape:
        raise ValueError("chi-square test needs matching counts over at least two cells")
    tot_obs, tot_exp = obs.sum(), exp.sum()
    if abs(tot_obs - tot_exp) > np.finfo(float).eps ** 0.5 * min(tot_obs, tot_exp):
        raise ValueError(f"observed total {tot_obs} does not match expected total {tot_exp}")
    stat = float(((obs - exp) ** 2 / exp).sum())
    return float(mpmath.gammainc((obs.size - 1) / 2, stat / 2, mpmath.inf, regularized=True))


@dataclass(frozen=True)
class CompositionReport:
    """Distributional comparison of one long transition against two chained
    shorter ones, from common stationary starts."""

    ks_stat: float
    ks_pvalue: float
    mean_diff: float
    mean_diff_se: float
    var_diff: float
    var_diff_se: float
    reps: int


def fv_chapman_kolmogorov_process_test(cfg: FvConfig, t: float, s: float, A: TestSet,
                                       reps: int, rng: np.random.Generator) -> CompositionReport:
    """Compare mu(A) after one duration-(t+s) transition against a
    duration-t then duration-s pair, per replicate from a shared stationary
    start.  Sharing starts correlates the arms positively, which only makes
    the two-sample comparison conservative."""
    cfg_ts = FvConfig(cfg.theta, cfg.base, t + s, cfg.prec, cfg.trunc)
    cfg_t = FvConfig(cfg.theta, cfg.base, t, cfg.prec, cfg.trunc)
    cfg_s = FvConfig(cfg.theta, cfg.base, s, cfg.prec, cfg.trunc)
    one = np.empty(reps)
    two = np.empty(reps)
    for i in range(reps):
        mu0 = stationary_measure(cfg.theta, cfg.base, cfg.trunc, rng)
        one[i] = fv_step(mu0, cfg_ts, rng).mass(A)
        two[i] = fv_step(fv_step(mu0, cfg_t, rng), cfg_s, rng).mass(A)
    ks_stat, ks_pvalue = _ks_2samp_equal(one, two)
    diff = one - two
    mean_diff_se = float(diff.std(ddof=1) / math.sqrt(reps))
    d2 = (one - one.mean())**2 - (two - two.mean())**2
    var_diff_se = float(d2.std(ddof=1) / math.sqrt(reps))
    return CompositionReport(
        ks_stat=ks_stat, ks_pvalue=ks_pvalue,
        mean_diff=float(diff.mean()), mean_diff_se=mean_diff_se,
        var_diff=float(one.var(ddof=1) - two.var(ddof=1)), var_diff_se=var_diff_se,
        reps=reps,
    )


@dataclass(frozen=True)
class ReversibilityReport:
    """Swap test on (mu_0(A), mu_1(A)) pairs from a stationary start: under
    reversibility the pair law is exchangeable, so the marginals agree and
    the antisymmetric cross moment E[u^2 v - u v^2] vanishes."""

    marginal_ks_pvalue: float
    cross_moment: float
    cross_moment_se: float
    reps: int


def measure_chain_reversibility_test(cfg: MeasureChainConfig, A: TestSet, reps: int,
                                     rng: np.random.Generator) -> ReversibilityReport:
    u = np.empty(reps)
    v = np.empty(reps)
    for i in range(reps):
        mu0 = stationary_measure(cfg.theta, cfg.base, cfg.trunc, rng)
        u[i] = mu0.mass(A)
        v[i] = measure_chain_step(mu0, cfg, rng).mass(A)
    d = u * u * v - u * v * v
    return ReversibilityReport(
        marginal_ks_pvalue=_ks_2samp_equal(u, v)[1],
        cross_moment=float(d.mean()),
        cross_moment_se=float(d.std(ddof=1) / math.sqrt(reps)),
        reps=reps,
    )


def dar1_retention_frequency(cfg: Dar1Config, steps: int, rng: np.random.Generator) -> float:
    """Observed fraction of steps that kept the state, detected by object
    identity.  Needs a nonatomic base: on an atomic base a redraw can land
    on the held atom, confounding the count."""
    if not isinstance(cfg.base, UniformBase):
        raise TypeError("retention frequency needs a nonatomic base")
    x = cfg.base.sample(rng)
    kept = 0
    for _ in range(steps):
        nxt = dar1_step(x, cfg, rng)
        kept += nxt is x
        x = nxt
    return kept / steps


def dar1_marginal_chisquare(cfg: Dar1Config, samples: int, rng: np.random.Generator) -> float:
    """p-value of a chi-square test of the chain's thinned marginal against
    the base weights.  Thinning stride kills autocorrelation (retention
    decays geometrically at rate 1/(1+theta))."""
    if not isinstance(cfg.base, DiscreteBase):
        raise TypeError("chi-square marginal check needs a finite-discrete base")
    keep = 1.0 / (1.0 + cfg.theta)
    stride = max(1, math.ceil(math.log(0.01) / math.log(keep)))
    x = cfg.base.sample(rng)
    counts = np.zeros(cfg.base.size, dtype=np.int64)
    for _ in range(samples):
        for _ in range(stride):
            x = dar1_step(x, cfg, rng)
        counts[int(x)] += 1
    expected = np.asarray(cfg.base.weights, dtype=float) * samples
    return _chisquare_pvalue(counts, expected)
