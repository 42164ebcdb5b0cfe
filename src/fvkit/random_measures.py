"""Discrete random probability measures via stick breaking, Dirichlet
posterior updates, and the moment identities used as statistical checks.

Atom identity is structural: draws from a nonatomic base are tagged with
process-unique integer ids, so posterior conditioning atoms and fresh stick
locations can never collide through floating-point accident.  Truncation
residual is always recorded, never redistributed.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Union

import numpy as np

_UID = itertools.count(1)


def _take_uids(k: int) -> np.ndarray:
    return np.fromiter(itertools.islice(_UID, k), dtype=np.int64, count=k)


def _advance_uids_past(value: int) -> None:
    global _UID
    nxt = next(_UID)
    if value >= nxt:
        _UID = itertools.count(value + 1)


class StickBudgetError(RuntimeError):
    """Residual-target stick breaking hit the hard stick cap; the weight
    sequence is not summing fast enough (non-summable configuration)."""


# ---------------------------------------------------------------------------
# test sets

@dataclass(frozen=True)
class Interval:
    """Half-open interval [lo, hi) on the real line."""
    lo: float
    hi: float


@dataclass(frozen=True)
class AtomSet:
    """Subset of a finite-discrete base's support, by atom index."""
    indices: frozenset

    def __init__(self, indices):
        object.__setattr__(self, "indices", frozenset(int(i) for i in indices))


@dataclass(frozen=True)
class WholeSpace:
    pass


@dataclass(frozen=True)
class EmptySet:
    pass


TestSet = Union[Interval, AtomSet, WholeSpace, EmptySet]


# ---------------------------------------------------------------------------
# base measures

@dataclass(frozen=True)
class Point:
    """A location drawn from a nonatomic base: identified by uid, with a
    numeric position for interval observables."""
    uid: int
    x: float


@dataclass(frozen=True)
class UniformBase:
    """Nonatomic base: Uniform[0, 1].  Every draw is a fresh Point."""

    kind = "continuous"

    def sample(self, rng: np.random.Generator) -> Point:
        return Point(int(_take_uids(1)[0]), float(rng.random()))

    def sample_batch(self, rng: np.random.Generator, k: int):
        return _take_uids(k), rng.random(k)

    def measure(self, A: TestSet) -> float:
        if isinstance(A, WholeSpace):
            return 1.0
        if isinstance(A, EmptySet):
            return 0.0
        if isinstance(A, Interval):
            return max(0.0, min(A.hi, 1.0) - max(A.lo, 0.0))
        if isinstance(A, AtomSet):
            return 0.0
        raise TypeError(f"unsupported test set {A!r}")


@dataclass(frozen=True)
class DiscreteBase:
    """Finite-discrete base over atoms 0..k-1 with the given weights;
    optional numeric positions enable interval observables."""

    weights: tuple
    points: Optional[tuple] = None

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.size == 0 or (w < 0).any() or abs(w.sum() - 1.0) > 1e-9:
            raise ValueError("weights must be nonnegative and sum to 1")
        if self.points is not None and len(self.points) != w.size:
            raise ValueError("points must match weights in length")

    kind = "discrete"

    @property
    def size(self) -> int:
        return len(self.weights)

    @cached_property
    def _cum(self) -> np.ndarray:
        cum = np.cumsum(np.asarray(self.weights, dtype=float))
        cum.setflags(write=False)
        return cum

    def sample(self, rng: np.random.Generator) -> int:
        return int(np.searchsorted(self._cum, rng.random(), side="right"))

    def sample_batch(self, rng: np.random.Generator, k: int):
        cum = self._cum
        ids = np.searchsorted(cum, rng.random(k) * cum[-1], side="right").astype(np.int64)
        xs = None if self.points is None else np.asarray(self.points, dtype=float)[ids]
        return ids, xs

    def measure(self, A: TestSet) -> float:
        if isinstance(A, WholeSpace):
            return 1.0
        if isinstance(A, EmptySet):
            return 0.0
        if isinstance(A, AtomSet):
            return float(sum(self.weights[i] for i in A.indices if 0 <= i < self.size))
        if isinstance(A, Interval):
            if self.points is None:
                raise TypeError("interval observables need a base with points")
            pts = np.asarray(self.points, dtype=float)
            w = np.asarray(self.weights, dtype=float)
            return float(w[(pts >= A.lo) & (pts < A.hi)].sum())
        raise TypeError(f"unsupported test set {A!r}")


BaseMeasure = Union[UniformBase, DiscreteBase]


# ---------------------------------------------------------------------------
# stick breaking

@dataclass(frozen=True)
class StickBreakingParams:
    """Beta(alpha_j, beta_j) stick proportions, j = 1, 2, ...

    ``dp(theta)`` and ``poisson_dirichlet(sigma, theta)`` build the two
    standard presets; the preset tag drives the analytic summability
    verdict."""

    alpha: Callable[[int], float]
    beta: Callable[[int], float]
    preset: Optional[str] = None
    preset_args: tuple = ()

    @staticmethod
    def dp(theta) -> "StickBreakingParams":
        th = float(theta)
        if not th > 0:
            raise ValueError("dp preset requires theta > 0")
        return StickBreakingParams(lambda j: 1.0, lambda j: th, "dp", (th,))

    @staticmethod
    def poisson_dirichlet(sigma, theta) -> "StickBreakingParams":
        sg, th = float(sigma), float(theta)
        if not 0 <= sg < 1:
            raise ValueError("poisson_dirichlet preset requires 0 <= sigma < 1")
        if not th > -sg:
            raise ValueError("poisson_dirichlet preset requires theta > -sigma")
        if sg == 0 and not th > 0:
            raise ValueError("sigma = 0 degenerates to dp and needs theta > 0")
        return StickBreakingParams(
            lambda j: 1.0 - sg, lambda j: th + j * sg, "pd", (sg, th)
        )

    def shape_arrays(self, j0: int, count: int):
        js = range(j0, j0 + count)
        a = np.fromiter((self.alpha(j) for j in js), dtype=float, count=count)
        b = np.fromiter((self.beta(j) for j in js), dtype=float, count=count)
        if (a <= 0).any() or (b <= 0).any():
            raise ValueError("alpha_j and beta_j must be > 0")
        return a, b


@dataclass(frozen=True)
class StickTruncation:
    """Either a fixed number of sticks or a residual-mass target."""

    k: Optional[int] = None
    eps: Optional[float] = None
    max_sticks: int = 10**6

    def __post_init__(self):
        if (self.k is None) == (self.eps is None):
            raise ValueError("specify exactly one of k or eps")
        if self.k is not None and self.k < 1:
            raise ValueError("k must be >= 1")
        if self.eps is not None and not 0 < self.eps < 1:
            raise ValueError("eps must be in (0, 1)")

    @staticmethod
    def fixed(k: int) -> "StickTruncation":
        return StickTruncation(k=k)

    @staticmethod
    def residual(eps: float, max_sticks: int = 10**6) -> "StickTruncation":
        return StickTruncation(eps=eps, max_sticks=max_sticks)


DEFAULT_TRUNCATION = StickTruncation.residual(1e-8)

_STICK_BLOCK = 64


def _stick_weights(params: StickBreakingParams, trunc: StickTruncation,
                   rng: np.random.Generator):
    """Stick masses rho_j and the leftover residual, as (array, float)."""
    if trunc.k is not None:
        a, b = params.shape_arrays(1, trunc.k)
        w = rng.beta(a, b)
        keep = np.cumprod(1.0 - w)
        rho = w * np.concatenate(([1.0], keep[:-1]))
        return rho, float(keep[-1])
    blocks = []
    prod = 1.0
    k = 0
    while prod >= trunc.eps:
        if k >= trunc.max_sticks:
            raise StickBudgetError(
                f"residual {prod:g} still above {trunc.eps:g} after {k} sticks"
            )
        count = min(_STICK_BLOCK, trunc.max_sticks - k)
        a, b = params.shape_arrays(k + 1, count)
        w = rng.beta(a, b)
        keep = np.cumprod(1.0 - w)
        blocks.append(w * prod * np.concatenate(([1.0], keep[:-1])))
        prod *= keep[-1]
        k += count
    return np.concatenate(blocks), float(prod)


# ---------------------------------------------------------------------------
# measures

@dataclass(frozen=True)
class DiscreteMeasure:
    """Atomic probability measure: parallel arrays of atom ids, optional
    positions, and weights, plus the unassigned truncation residual."""

    base_kind: str
    ids: np.ndarray
    xs: Optional[np.ndarray]
    weights: np.ndarray
    residual: float

    def __post_init__(self):
        for arr in (self.ids, self.weights) + (() if self.xs is None else (self.xs,)):
            arr.setflags(write=False)
        if (self.weights < 0).any():
            raise ValueError("weights must be >= 0")
        if abs(self.weights.sum() + self.residual - 1.0) > 1e-12:
            raise ValueError("weights + residual must total 1")

    @property
    def atoms(self):
        """(location, weight) pairs; locations are Points for continuous
        bases and support indices for discrete bases."""
        if self.base_kind == "continuous":
            return [(Point(int(i), float(x)), float(w))
                    for i, x, w in zip(self.ids, self.xs, self.weights)]
        return [(int(i), float(w)) for i, w in zip(self.ids, self.weights)]

    def locations(self):
        if self.base_kind == "continuous":
            return [Point(int(i), float(x)) for i, x in zip(self.ids, self.xs)]
        return [int(i) for i in self.ids]

    def mass(self, A: TestSet) -> float:
        if isinstance(A, WholeSpace):
            return 1.0  # atoms plus residual partition the space
        if isinstance(A, EmptySet):
            return 0.0
        if isinstance(A, Interval):
            if self.xs is None:
                raise TypeError("interval observables need atom positions")
            sel = (self.xs >= A.lo) & (self.xs < A.hi)
            return float(self.weights[sel].sum())
        if isinstance(A, AtomSet):
            if self.base_kind != "discrete":
                raise TypeError("atom-set observables need a discrete base")
            sel = np.isin(self.ids, np.fromiter(A.indices, dtype=np.int64))
            return float(self.weights[sel].sum())
        raise TypeError(f"unsupported test set {A!r}")


def _merge_atoms(base_kind: str, ids: np.ndarray, xs, weights: np.ndarray,
                 residual: float) -> DiscreteMeasure:
    # merge weight on exact atom identity; canonical order is ascending id
    uids, inverse = np.unique(ids, return_inverse=True)
    w = np.zeros(uids.size)
    np.add.at(w, inverse, weights)
    merged_xs = None
    if xs is not None:
        merged_xs = np.empty(uids.size)
        merged_xs[inverse] = xs
    return DiscreteMeasure(base_kind=base_kind, ids=uids, xs=merged_xs,
                           weights=w, residual=residual)


def stick_break(params: StickBreakingParams, base: BaseMeasure,
                trunc: StickTruncation = DEFAULT_TRUNCATION,
                rng: np.random.Generator = None) -> DiscreteMeasure:
    """Draw a random measure: stick weights from the params, atom locations
    independently from the base."""
    rho, residual = _stick_weights(params, trunc, rng)
    ids, xs = base.sample_batch(rng, rho.size)
    return _merge_atoms(base.kind, ids, xs, rho, residual)


@dataclass(frozen=True)
class SummabilityReport:
    """Partial sums of log(1 + alpha_j/beta_j) along a ladder of J values,
    with an analytic verdict for the known presets."""

    entries: tuple  # (J, partial sum) pairs
    verdict: Optional[str]


def check_summability(params: StickBreakingParams, J: int) -> SummabilityReport:
    """Numeric ladder for the almost-sure-probability-measure criterion:
    the weights sum to 1 iff sum_j log(1 + alpha_j/beta_j) diverges."""
    if J < 1:
        raise ValueError("J must be >= 1")
    ladder = sorted({10**e for e in range(0, 10) if 10**e < J} | {J})
    entries = []
    total = 0.0
    prev = 0
    for mark in ladder:
        block = 4096
        j = prev + 1
        while j <= mark:
            count = min(block, mark - j + 1)
            a, b = params.shape_arrays(j, count)
            total += float(np.log1p(a / b).sum())
            j += count
        prev = mark
        entries.append((mark, total))
    verdict = None
    if params.preset == "dp":
        verdict = "divergent"  # constant positive terms
    elif params.preset == "pd":
        verdict = "divergent"  # harmonic-type terms ~ (1-sigma)/(sigma j)
    return SummabilityReport(entries=tuple(entries), verdict=verdict)


# ---------------------------------------------------------------------------
# posterior

@dataclass(frozen=True)
class DirichletPosterior:
    """Conditional law of the random measure given observed atoms: a
    Dirichlet process with total mass theta + n over the mixed base."""

    theta: float
    base: BaseMeasure
    atoms: tuple

    def __post_init__(self):
        if not self.theta > 0:
            raise ValueError("theta must be > 0")


def posterior(theta, base: BaseMeasure, atoms) -> DirichletPosterior:
    return DirichletPosterior(theta=float(theta), base=base, atoms=tuple(atoms))


def sample_posterior(post: DirichletPosterior,
                     trunc: StickTruncation = DEFAULT_TRUNCATION,
                     rng: np.random.Generator = None) -> DiscreteMeasure:
    """One draw from the posterior: sticks at total mass theta + n, each
    stick location a fresh base draw w.p. theta/(theta+n) or a conditioning
    atom w.p. 1/(theta+n) each.  Weight landing on the same atom id merges."""
    n = len(post.atoms)
    total = post.theta + n
    rho, residual = _stick_weights(StickBreakingParams.dp(total), trunc, rng)
    K = rho.size
    u = rng.random(K) * total
    is_fresh = u < post.theta
    nfresh = int(is_fresh.sum())
    ids = np.empty(K, dtype=np.int64)
    xs = np.empty(K) if post.base.kind == "continuous" else None
    f_ids, f_xs = post.base.sample_batch(rng, nfresh)
    ids[is_fresh] = f_ids
    if n:
        atom_pick = np.minimum((u[~is_fresh] - post.theta).astype(np.int64), n - 1)
        if post.base.kind == "continuous":
            a_ids = np.array([p.uid for p in post.atoms], dtype=np.int64)
            a_xs = np.array([p.x for p in post.atoms])
            ids[~is_fresh] = a_ids[atom_pick]
            xs[is_fresh] = f_xs
            xs[~is_fresh] = a_xs[atom_pick]
        else:
            a_ids = np.array([int(i) for i in post.atoms], dtype=np.int64)
            ids[~is_fresh] = a_ids[atom_pick]
    elif post.base.kind == "continuous":
        xs[is_fresh] = f_xs
    return _merge_atoms(post.base.kind, ids, xs, rho, residual)


def sample_from_measure(mu: DiscreteMeasure, k: int, rng: np.random.Generator):
    """k independent atom draws, proportional to weight, renormalized over
    the truncated support.  Rejects measures with residual > 1%."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if mu.residual > 0.01:
        raise ValueError(f"residual {mu.residual:g} too large to sample from")
    if k == 0:
        return []
    cum = np.cumsum(mu.weights)
    idx = np.searchsorted(cum, rng.random(k) * cum[-1], side="right")
    idx = np.minimum(idx, mu.ids.size - 1)
    if mu.base_kind == "continuous":
        return [Point(int(mu.ids[i]), float(mu.xs[i])) for i in idx]
    return [int(mu.ids[i]) for i in idx]


# ---------------------------------------------------------------------------
# batched observable sampling and the moment identity checks

def _batch_stick_count(total_mass: float, trunc: StickTruncation) -> int:
    if trunc.k is not None:
        return trunc.k
    # sticks needed so the row residual beats eps with overwhelming margin:
    # -log residual ~ Gamma(K, 1/total_mass)
    target = total_mass * math.log(1.0 / trunc.eps)
    return int(math.ceil(target + 12 * math.sqrt(max(target, 1.0)) + 30))


def _measure_mass_rows(theta: float, base: BaseMeasure, A: TestSet, reps: int,
                       trunc: StickTruncation, rng: np.random.Generator,
                       cond_in_A=None, n_cond: int = 0):
    """mu(A) for reps independent Dirichlet draws, vectorized: prior draws
    when n_cond = 0, else posterior draws conditioned on n_cond atoms whose
    A-membership indicators are in cond_in_A (reps x n_cond)."""
    if isinstance(A, WholeSpace):
        return np.ones(reps)
    if isinstance(A, EmptySet):
        return np.zeros(reps)
    total = theta + n_cond
    K = _batch_stick_count(total, trunc)
    w = rng.beta(1.0, total, size=(reps, K))
    keep = np.cumprod(1.0 - w, axis=1)
    rho = w.copy()
    rho[:, 1:] *= keep[:, :-1]
    u = rng.random((reps, K)) * total
    fresh = u < theta
    if isinstance(A, Interval):
        if base.kind == "continuous":
            pos = rng.random((reps, K))
            fresh_in = (pos >= A.lo) & (pos < A.hi)
        else:
            base_mass = base.measure(A)
            fresh_in = rng.random((reps, K)) < base_mass
    elif isinstance(A, AtomSet):
        base_mass = base.measure(A)
        fresh_in = rng.random((reps, K)) < base_mass
    else:
        raise TypeError(f"unsupported test set {A!r}")
    if n_cond:
        # fresh rows produce negative picks; they are masked out below
        pick = np.clip((u - theta).astype(np.int64), 0, n_cond - 1)
        cond = np.take_along_axis(np.asarray(cond_in_A, dtype=bool), pick, axis=1)
        member = np.where(fresh, fresh_in, cond)
    else:
        member = fresh_in
    return (rho * member).sum(axis=1)


@dataclass(frozen=True)
class MeanIdentityReport:
    expected: float
    observed_mean: float
    residual: float
    stderr: float
    reps: int


def check_mean_identity(theta, base: BaseMeasure, A: TestSet, reps: int,
                        trunc: StickTruncation = DEFAULT_TRUNCATION,
                        rng: np.random.Generator = None) -> MeanIdentityReport:
    """Monte Carlo check that the prior mean measure is the base:
    E[mu(A)] = nu_0(A)."""
    vals = _measure_mass_rows(float(theta), base, A, reps, trunc, rng)
    expected = base.measure(A)
    mean = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0
    return MeanIdentityReport(expected=expected, observed_mean=mean,
                              residual=abs(mean - expected), stderr=se, reps=reps)


@dataclass(frozen=True)
class MixtureIdentityReport:
    """First and second moments of mu(A) under (i) direct prior draws and
    (ii) the hierarchical route X ~ base then mu ~ posterior(theta, [X])."""

    mean_direct: float
    mean_hier: float
    mean_diff: float
    mean_se: float
    second_direct: float
    second_hier: float
    second_diff: float
    second_se: float
    reps: int


def check_mixture_identity(theta, base: BaseMeasure, A: TestSet, reps: int,
                           trunc: StickTruncation = DEFAULT_TRUNCATION,
                           rng: np.random.Generator = None) -> MixtureIdentityReport:
    """Statistical check that mixing the one-observation posterior over the
    base reproduces the prior."""
    th = float(theta)
    direct = _measure_mass_rows(th, base, A, reps, trunc, rng)
    if isinstance(A, (WholeSpace, EmptySet)):
        cond = np.zeros((reps, 1), dtype=bool)
    else:
        base_mass = base.measure(A)
        cond = (rng.random((reps, 1)) < base_mass)
    hier = _measure_mass_rows(th, base, A, reps, trunc, rng, cond_in_A=cond, n_cond=1)
    m1d, m1h = float(direct.mean()), float(hier.mean())
    s1 = math.sqrt((direct.var(ddof=1) + hier.var(ddof=1)) / reps) if reps > 1 else 0.0
    d2, h2 = direct**2, hier**2
    m2d, m2h = float(d2.mean()), float(h2.mean())
    s2 = math.sqrt((d2.var(ddof=1) + h2.var(ddof=1)) / reps) if reps > 1 else 0.0
    return MixtureIdentityReport(
        mean_direct=m1d, mean_hier=m1h, mean_diff=abs(m1d - m1h), mean_se=s1,
        second_direct=m2d, second_hier=m2h, second_diff=abs(m2d - m2h), second_se=s2,
        reps=reps,
    )


# ---------------------------------------------------------------------------
# serialization

def measure_to_json(mu: DiscreteMeasure) -> dict:
    return {
        "base_kind": mu.base_kind,
        "ids": [int(i) for i in mu.ids],
        "xs": None if mu.xs is None else [float(x) for x in mu.xs],
        "weights": [float(w) for w in mu.weights],
        "residual": mu.residual,
    }


def measure_from_json(d: dict) -> DiscreteMeasure:
    ids = np.asarray(d["ids"], dtype=np.int64)
    if ids.size:
        _advance_uids_past(int(ids.max()))
    return DiscreteMeasure(
        base_kind=d["base_kind"],
        ids=ids,
        xs=None if d.get("xs") is None else np.asarray(d["xs"], dtype=float),
        weights=np.asarray(d["weights"], dtype=float),
        residual=float(d["residual"]),
    )
