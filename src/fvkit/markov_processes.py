"""The three stationary processes built on the Dirichlet machinery: the
scalar keep-or-redraw chain, the discrete-time measure-valued chain, and
the continuous-time measure-valued transition mixed by the death-count
pmf.  Plus the process-level stationarity / reversibility / composition
harnesses.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import mpmath
import numpy as np

from .death_process import DeathParams, DeathPmf, PrecisionConfig, death_pmf, sample_death_count
from .random_measures import (
    DEFAULT_TRUNCATION,
    BaseMeasure,
    DiscreteBase,
    DiscreteMeasure,
    MeasureRows,
    Point,
    StickTruncation,
    TestSet,
    UniformBase,
    _dirichlet_rows,
    _draw_atoms,
    _members,
    _moment_check,
    _posterior_rows,
)
# sample_posterior and sample_from_measure are unused here but stay
# importable: bench/tracing.py rebinds this module's random_measures names
from .random_measures import sample_from_measure, sample_posterior  # noqa: F401


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


# ---------------------------------------------------------------------------
# steps

def _dar1_path(cfg: Dar1Config, steps: int, rng: np.random.Generator):
    """States 0..steps of one keep-or-redraw run as (ids, xs) arrays: a
    start drawn from the base, then at each step a redraw w.p.
    theta/(1+theta), else the state kept.  One base draw covers the start
    and every redraw; states are filled forward between redraws."""
    redraw = rng.random(steps) * (1 + cfg.theta) < cfg.theta
    ids, xs = cfg.base.sample_batch(rng, 1 + int(redraw.sum()), 1)
    idx = np.concatenate(([0], np.cumsum(redraw)))
    return ids[idx], None if xs is None else xs[idx]


def _step_rows(rows: MeasureRows, cfg, rng: np.random.Generator) -> MeasureRows:
    """One step of every row: cfg.n atom draws per row for the measure
    chain, or for the FV transition a count per row from the death pmf at
    cfg.t (a count of 0 is a fresh prior draw); the drawn atoms feed one
    posterior draw per row."""
    if isinstance(cfg, FvConfig):
        pmf = cfg.death_pmf()
        if pmf.residual > 1e-6:
            raise ValueError(f"death pmf residual {pmf.residual:g} too large; "
                             "tighten tail_tol")
        n = sample_death_count(pmf, rng, size=rows.residual.size)
    else:
        n = np.full(rows.residual.size, cfg.n)
    atom_ids, atom_xs = _draw_atoms(rows, n, rng)
    # fresh ids start past every id in the batch, so they stay unique
    # along a trajectory
    return _posterior_rows(cfg.theta, cfg.base, n, atom_ids, atom_xs, cfg.trunc, rng,
                           int(rows.ids.max(initial=0)) + 1)


def measure_chain_step(mu: DiscreteMeasure, cfg: MeasureChainConfig,
                       rng: np.random.Generator) -> DiscreteMeasure:
    return _step_rows(MeasureRows.of(mu), cfg, rng).measure()


def fv_step(mu: DiscreteMeasure, cfg: FvConfig, rng: np.random.Generator) -> DiscreteMeasure:
    """One transition of duration cfg.t: draw the conditioning count from
    the death pmf, then run the measure-chain step with that count.  A
    count of 0 is a fresh prior draw."""
    return _step_rows(MeasureRows.of(mu), cfg, rng).measure()


def stationary_measure(theta: float, base: BaseMeasure,
                       trunc: StickTruncation = DEFAULT_TRUNCATION,
                       rng: np.random.Generator = None) -> DiscreteMeasure:
    """A draw from the stationary law: the prior with total mass theta."""
    return _dirichlet_rows(float(theta), base, 1, trunc, rng).measure()


# ---------------------------------------------------------------------------
# trajectory driver

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
        ids, xs = _dar1_path(cfg, steps, rng)
        for j, A in enumerate(observables):
            out[:, j] = _members(cfg.base.kind, ids[1:], None if xs is None else xs[1:], A)
        x = Point(int(ids[-1]), float(xs[-1])) if cfg.base.kind == "continuous" else int(ids[-1])
        return (out, x) if return_state else out
    mu = stationary_measure(cfg.theta, cfg.base, cfg.trunc, rng)
    step = measure_chain_step if kind == "measure-chain" else fv_step
    for i in range(steps):
        mu = step(mu, cfg, rng)
        out[i] = [mu.mass(A) for A in observables]
    return (out, mu) if return_state else out


# ---------------------------------------------------------------------------
# harnesses

def _lag_slope(u: np.ndarray, v: np.ndarray) -> dict:
    """OLS slope of v on u with its heteroscedasticity-robust (HC0
    sandwich) standard error; NaN when u does not vary."""
    du, dv = u - u.mean(), v - v.mean()
    sxx = float(du @ du)
    if sxx == 0:
        return {"slope": math.nan, "slope_se": math.nan}
    slope = float(du @ dv) / sxx
    score = du * (dv - slope * du)
    return {"slope": slope, "slope_se": math.sqrt(float(score @ score)) / sxx}


def stationarity_checks(kind: str, cfg, A: TestSet, reps: int,
                        checkpoints: Sequence[int], rng: np.random.Generator):
    """Start reps rows at stationary draws, step them together, and test
    the observable's mean and variance at the requested checkpoints, and
    the lag identity E[mu_k(A) | mu_0(A) = u] = p + (u - p) rho**k, with
    rho = n/(theta+n) for the measure chain and exp(-theta t/2) for FV."""
    if kind not in ("measure-chain", "fv"):
        raise ValueError("stationarity harness covers the measure-valued chains")
    rho = math.exp(-cfg.theta * cfg.t / 2) if kind == "fv" else cfg.n / (cfg.theta + cfg.n)
    marks = sorted(set(checkpoints))
    rows = _dirichlet_rows(cfg.theta, cfg.base, reps, cfg.trunc, rng)
    start = rows.mass(A)
    vals = {}
    for k in range(1, marks[-1] + 1):
        rows = _step_rows(rows, cfg, rng)
        if k in marks:
            vals[k] = rows.mass(A)
    p = cfg.base.measure(A)
    return [replace(_moment_check(vals[m], m, p, cfg.theta), slope_target=rho**m,
                    **_lag_slope(start, vals[m])) for m in marks]


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
    return _chi2_sf(stat, obs.size - 1)


def _chi2_sf(stat: float, df: int) -> float:
    """Upper tail of the chi-square law with df degrees of freedom: the
    regularized upper incomplete gamma Q(df/2, stat/2)."""
    return float(mpmath.gammainc(df / 2, stat / 2, mpmath.inf, regularized=True))


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
    start = _dirichlet_rows(cfg.theta, cfg.base, reps, cfg.trunc, rng)
    one = _step_rows(start, replace(cfg, t=t + s), rng).mass(A)
    two = _step_rows(_step_rows(start, replace(cfg, t=t), rng), replace(cfg, t=s), rng).mass(A)
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
    start = _dirichlet_rows(cfg.theta, cfg.base, reps, cfg.trunc, rng)
    u = start.mass(A)
    v = _step_rows(start, cfg, rng).mass(A)
    d = u * u * v - u * v * v
    return ReversibilityReport(
        marginal_ks_pvalue=_ks_2samp_equal(u, v)[1],
        cross_moment=float(d.mean()),
        cross_moment_se=float(d.std(ddof=1) / math.sqrt(reps)),
        reps=reps,
    )


def dar1_retention_frequency(cfg: Dar1Config, steps: int, rng: np.random.Generator) -> float:
    """Observed fraction of steps that kept the state, detected by atom
    id.  Needs a nonatomic base: on an atomic base a redraw can land on the
    held atom, confounding the count."""
    if not isinstance(cfg.base, UniformBase):
        raise TypeError("retention frequency needs a nonatomic base")
    ids, _ = _dar1_path(cfg, steps, rng)
    return float(np.mean(ids[1:] == ids[:-1]))


def dar1_marginal_chisquare(cfg: Dar1Config, samples: int, rng: np.random.Generator) -> float:
    """p-value of a chi-square test of the chain's thinned marginal against
    the base weights.  Thinning stride kills autocorrelation (retention
    decays geometrically at rate 1/(1+theta))."""
    if not isinstance(cfg.base, DiscreteBase):
        raise TypeError("chi-square marginal check needs a finite-discrete base")
    keep = 1.0 / (1.0 + cfg.theta)
    stride = max(1, math.ceil(math.log(0.01) / math.log(keep)))
    ids, _ = _dar1_path(cfg, samples * stride, rng)
    counts = np.bincount(ids[stride::stride], minlength=cfg.base.size)
    expected = np.asarray(cfg.base.weights, dtype=float) * samples
    return _chisquare_pvalue(counts, expected)


def dar1_detailed_balance(cfg: Dar1Config, steps: int, rng: np.random.Generator) -> float:
    """p-value of a symmetry test on the transition counts N(x, y) of one
    run over a finite-discrete base (Bowker 1948): under detailed balance
    N(x, y) - N(y, x) has mean zero, and sum_{x<y} (N(x,y) - N(y,x))**2 /
    (N(x,y) + N(y,x)) is chi-square.  Flow conservation fixes all but the
    cycle space, so the degrees of freedom are (k-1)(k-2)/2 (Kolmogorov's
    criterion); below three atoms every chain is reversible and the
    p-value is 1."""
    if not isinstance(cfg.base, DiscreteBase):
        raise TypeError("detailed balance check needs a finite-discrete base")
    k = cfg.base.size
    if k < 3:
        return 1.0
    ids, _ = _dar1_path(cfg, steps, rng)
    N = np.bincount(ids[:-1] * k + ids[1:], minlength=k * k).reshape(k, k)
    upper = np.triu_indices(k, 1)
    both, diff = (N + N.T)[upper], (N - N.T)[upper]
    seen = both > 0
    stat = float((diff[seen] ** 2 / both[seen]).sum())
    return _chi2_sf(stat, (k - 1) * (k - 2) // 2)
