"""The three stationary processes built on the Dirichlet machinery: the
scalar keep-or-redraw chain, the discrete-time measure-valued chain, and
the continuous-time measure-valued transition mixed by the death-count
pmf.  Plus the process-level stationarity / reversibility / composition
harnesses.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

from ._lazy import np
from .death_process import DeathParams, DeathPmf, PrecisionConfig, death_pmf, sample_death_count
from .random_measures import (
    DEFAULT_TRUNCATION,
    BaseMeasure,
    DiscreteBase,
    MeasureRows,
    Point,
    StickTruncation,
    TestSet,
    UniformBase,
    _check_theta,
    _dirichlet_rows,
    _draw_atoms,
    _members,
    _moment_check,
    _posterior_rows,
)
# sample_posterior and sample_from_measure are unused here but stay
# importable: bench/tracing.py rebinds this module's random_measures names
from .random_measures import sample_from_measure, sample_posterior  # noqa: F401
from .stats import Estimate, chi2_sf, chisquare_pvalue, ks_2samp_equal, lag_slope


@dataclass(frozen=True)
class Dar1Config:
    """Keep the current state w.p. 1/(1+theta), else redraw from the base."""

    theta: float
    base: BaseMeasure

    def __post_init__(self):
        _check_theta(self.theta)


@dataclass(frozen=True)
class MeasureChainConfig:
    """Discrete-time measure chain: n draws from the current measure feed
    the posterior that generates the next measure."""

    theta: float
    base: BaseMeasure
    n: int
    trunc: StickTruncation = DEFAULT_TRUNCATION

    def __post_init__(self):
        _check_theta(self.theta)
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
        _check_theta(self.theta)
        if not self.t > 0:
            raise ValueError("t must be > 0")

    @cached_property
    def death_pmf(self) -> DeathPmf:
        """The death-count pmf at t, computed on first read and held by
        this config, so every step of a chain reads one pmf."""
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


def measure_chain_step(rows: MeasureRows, cfg: MeasureChainConfig | FvConfig,
                       rng: np.random.Generator) -> MeasureRows:
    """One step of every row of the chain that cfg names: cfg.n atom draws
    per row for the measure chain, or for the FV transition of duration
    cfg.t a count per row from the death pmf (a count of 0 is a fresh prior
    draw); the drawn atoms feed one posterior draw per row."""
    if isinstance(cfg, FvConfig):
        pmf = cfg.death_pmf
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


# fv_step is unused here but stays importable: bench/tracing.py wraps it
# by name
fv_step = measure_chain_step


# ---------------------------------------------------------------------------
# trajectory driver

def run_chain(kind: str, cfg, steps: int, observables: Sequence[TestSet],
              rng: np.random.Generator):
    """Iterate the named chain and record the observables after every step.

    Returns (trajectory, final state): the trajectory is an array of shape
    (steps, len(observables)), indicator values for the scalar chain and
    measure masses for the measure-valued chains, whose one row is merged
    into a measure only for the final state.  Replayable from the seed.
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
        return out, x
    rows = _dirichlet_rows(cfg.theta, cfg.base, 1, cfg.trunc, rng)
    for i in range(steps):
        rows = measure_chain_step(rows, cfg, rng)
        out[i] = [rows.mass(A)[0] for A in observables]
    return out, rows.measure()


# ---------------------------------------------------------------------------
# harnesses

def stationarity_checks(cfg, A: TestSet, reps: int, checkpoints: Sequence[int],
                        rng: np.random.Generator):
    """Start reps rows at stationary draws, step them together, and test
    the observable's mean and variance at the requested checkpoints, the
    lag identity E[mu_k(A) | mu_0(A) = u] = p + (u - p) rho**k, with
    rho = n/(theta+n) for the measure chain and exp(-theta t/2) for FV, and
    its degree-2 form E[f2(mu_k(A)) | mu_0(A) = u] = rho2**k f2(u).

    Here f2(x) = x**2 + c1 x + c0, with c1 = -2(1 + theta p)/(2 + theta)
    and c0 = -theta p c1/(2(1 + theta)), is the degree-2 eigenfunction of
    mu(A)'s Wright-Fisher diffusion with mutation (theta p, theta(1-p)),
    with rho2 = exp(-(1+theta) t) for FV and n(n-1)/((theta+n)(theta+n+1))
    for the measure chain.  The lag slope sees the death-count law only
    through E[N/(theta+N)]; rho2 sees its second factorial moment too.
    The chain is read off cfg's type, a MeasureChainConfig or an FvConfig."""
    if not isinstance(cfg, (MeasureChainConfig, FvConfig)):
        raise TypeError("stationarity harness covers the measure-valued chains")
    th = cfg.theta
    if isinstance(cfg, FvConfig):
        rho, rho2 = math.exp(-th * cfg.t / 2), math.exp(-(1 + th) * cfg.t)
    else:
        n = cfg.n
        rho, rho2 = n / (th + n), n * (n - 1) / ((th + n) * (th + n + 1))
    marks = sorted(set(checkpoints))
    rows = _dirichlet_rows(th, cfg.base, reps, cfg.trunc, rng)
    start = rows.mass(A)
    vals = {}
    for k in range(1, marks[-1] + 1):
        rows = measure_chain_step(rows, cfg, rng)
        if k in marks:
            vals[k] = rows.mass(A)
    p = cfg.base.measure(A)
    c1 = -2 * (1 + th * p) / (2 + th)
    c0 = -th * p * c1 / (2 * (1 + th))

    def f2(x):
        return x * (x + c1) + c0

    return [replace(_moment_check(vals[m], m, p, th),
                    slope=lag_slope(start, vals[m], rho**m),
                    eigen2_slope=lag_slope(f2(start), f2(vals[m]), rho2**m))
            for m in marks]


@dataclass(frozen=True)
class CompositionReport:
    """Distributional comparison of one long transition against two chained
    shorter ones, from common stationary starts."""

    ks_stat: float
    ks_pvalue: float
    mean_diff: Estimate
    var_diff: Estimate
    reps: int


def fv_chapman_kolmogorov_process_test(cfg: FvConfig, s: float, A: TestSet,
                                       reps: int, rng: np.random.Generator) -> CompositionReport:
    """Compare mu(A) after one duration-(t+s) transition against a
    duration-t then duration-s pair, t = cfg.t, per replicate from a shared
    stationary start.  Sharing starts correlates the arms positively, which
    only makes the two-sample comparison conservative."""
    start = _dirichlet_rows(cfg.theta, cfg.base, reps, cfg.trunc, rng)
    # one config, and so one death pmf, per duration: the second leg is cfg
    # itself when s = cfg.t
    one = measure_chain_step(start, replace(cfg, t=cfg.t + s), rng).mass(A)
    second = cfg if s == cfg.t else replace(cfg, t=s)
    two = measure_chain_step(measure_chain_step(start, cfg, rng), second, rng).mass(A)
    ks_stat, ks_pvalue = ks_2samp_equal(one, two)
    d2 = (one - one.mean())**2 - (two - two.mean())**2
    return CompositionReport(
        ks_stat=ks_stat, ks_pvalue=ks_pvalue, mean_diff=Estimate.mean_of(one - two),
        var_diff=Estimate(float(one.var(ddof=1) - two.var(ddof=1)),
                          Estimate.mean_of(d2).se),
        reps=reps,
    )


@dataclass(frozen=True)
class ReversibilityReport:
    """Swap test on (mu_0(A), mu_1(A)) pairs from a stationary start: under
    reversibility the pair law is exchangeable, so the marginals agree and
    the antisymmetric cross moment E[u^2 v - u v^2] vanishes."""

    marginal_ks_pvalue: float
    cross_moment: Estimate
    reps: int


def measure_chain_reversibility_test(cfg: MeasureChainConfig, A: TestSet, reps: int,
                                     rng: np.random.Generator) -> ReversibilityReport:
    start = _dirichlet_rows(cfg.theta, cfg.base, reps, cfg.trunc, rng)
    u = start.mass(A)
    v = measure_chain_step(start, cfg, rng).mass(A)
    return ReversibilityReport(marginal_ks_pvalue=ks_2samp_equal(u, v)[1],
                               cross_moment=Estimate.mean_of(u * u * v - u * v * v),
                               reps=reps)


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
    return chisquare_pvalue(counts, expected)


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
    return chi2_sf(stat, (k - 1) * (k - 2) // 2)
