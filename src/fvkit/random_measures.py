"""Discrete random probability measures via stick breaking, Dirichlet
posterior updates, and the moment identities used as statistical checks.

Atom identity is structural: draws from a nonatomic base are tagged with
integer ids, each fresh one past the largest id in play, so posterior
conditioning atoms and fresh stick locations can never collide through
floating-point accident.  Ids are unique within a run and depend on nothing
else the process did.  Truncation residual is always recorded, never
redistributed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Union

import numpy as np

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

    def sample_batch(self, rng: np.random.Generator, k: int, first_id: int):
        """k fresh points: ids first_id, first_id + 1, ... and positions."""
        return first_id + np.arange(k, dtype=np.int64), rng.random(k)

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

    def sample_batch(self, rng: np.random.Generator, k: int, first_id: int):
        """k support indices and their points; first_id is unused, since
        a discrete atom's id is its index."""
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

    ``alpha`` and ``beta`` are called on an int64 array of stick indices and
    return an array of that shape, a scalar, or an array that broadcasts
    against it with leading axes of independent rows (a ``(rows, 1)`` array
    of total masses breaks one DP stick sequence per row).  ``dp(theta)``
    and ``poisson_dirichlet(sigma, theta)`` build the two standard presets."""

    alpha: Callable[[np.ndarray], Union[np.ndarray, float]]
    beta: Callable[[np.ndarray], Union[np.ndarray, float]]

    @staticmethod
    def dp(theta) -> "StickBreakingParams":
        th = float(theta)
        if not th > 0:
            raise ValueError("dp preset requires theta > 0")
        return StickBreakingParams(lambda j: 1.0, lambda j: th)

    @staticmethod
    def poisson_dirichlet(sigma, theta) -> "StickBreakingParams":
        sg, th = float(sigma), float(theta)
        if not 0 <= sg < 1:
            raise ValueError("poisson_dirichlet preset requires 0 <= sigma < 1")
        if not th > -sg:
            raise ValueError("poisson_dirichlet preset requires theta > -sigma")
        if sg == 0 and not th > 0:
            raise ValueError("sigma = 0 degenerates to dp and needs theta > 0")
        return StickBreakingParams(lambda j: 1.0 - sg, lambda j: th + j * sg)

    def shape_arrays(self, j0: int, count: int):
        js = np.arange(j0, j0 + count, dtype=np.int64)
        a, b = self.alpha(js), self.beta(js)
        ab = np.empty((2,) + np.broadcast(a, b, js).shape)
        ab[0], ab[1] = a, b  # broadcasts a scalar or a column of rows
        if ab.min() <= 0:
            raise ValueError("alpha_j and beta_j must be > 0")
        return ab[0], ab[1]


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


def _break_sticks(a, b, rng: np.random.Generator, left=1.0):
    """Beta(a, b) proportions broken along the last axis off a stick of
    length ``left`` (one per row): the stick masses and cumprod(1 - w)."""
    w = rng.beta(a, b)
    keep = np.cumprod(1.0 - w, axis=-1)
    rho = w * left
    rho[..., 1:] *= keep[..., :-1]
    return rho, keep


def _stick_weights(params: StickBreakingParams, trunc: StickTruncation,
                   rng: np.random.Generator):
    """Stick masses rho_j along the last axis and the leftover residual per
    row: one block of k sticks, or blocks of _STICK_BLOCK until every row's
    residual is below eps.  Rows are the leading axes of the params' shapes;
    plain params give one 1-D row and a 0-d residual."""
    block, cap = ((trunc.k, trunc.k) if trunc.k is not None
                  else (_STICK_BLOCK, trunc.max_sticks))
    blocks = []
    left = 1.0
    k = 0
    while not blocks or trunc.eps is not None and left.max() >= trunc.eps:
        if k >= cap:
            raise StickBudgetError(
                f"residual {np.max(left):g} still above {trunc.eps:g} after {k} sticks"
            )
        count = min(block, cap - k)
        rho, keep = _break_sticks(*params.shape_arrays(k + 1, count), rng, left=left)
        blocks.append(rho)
        left = left * keep[..., -1:]
        k += count
    return np.concatenate(blocks, axis=-1), left[..., 0]


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
        return list(zip(self.locations(), map(float, self.weights)))

    def locations(self):
        if self.base_kind == "continuous":
            return [Point(int(i), float(x)) for i, x in zip(self.ids, self.xs)]
        return [int(i) for i in self.ids]

    def mass(self, A: TestSet) -> float:
        if isinstance(A, WholeSpace):
            return 1.0  # atoms plus residual partition the space
        if isinstance(A, EmptySet):
            return 0.0
        return float(self.weights[_members(self.base_kind, self.ids, self.xs, A)].sum())


def _members(base_kind: str, ids: np.ndarray, xs, A: TestSet) -> np.ndarray:
    """Which atoms lie in A, elementwise over ids and positions of any shape."""
    if isinstance(A, Interval):
        if xs is None:
            raise TypeError("interval observables need atom positions")
        return (xs >= A.lo) & (xs < A.hi)
    if isinstance(A, AtomSet):
        if base_kind != "discrete":
            raise TypeError("atom-set observables need a discrete base")
        return np.isin(ids, np.fromiter(A.indices, dtype=np.int64))
    raise TypeError(f"unsupported test set {A!r}")


@dataclass(frozen=True)
class MeasureRows:
    """A batch of atomic measures, one per row: atom ids, optional positions
    and weights as (rows, K) arrays, and each row's residual.  Rows stay
    unmerged (an id may repeat within a row); ``measure`` merges one row."""

    base_kind: str
    ids: np.ndarray
    xs: Optional[np.ndarray]
    weights: np.ndarray
    residual: np.ndarray

    @staticmethod
    def of(mu: DiscreteMeasure) -> "MeasureRows":
        """The one-row batch holding mu."""
        return MeasureRows(mu.base_kind, mu.ids[None], None if mu.xs is None else mu.xs[None],
                           mu.weights[None], np.array([mu.residual]))

    def measure(self, i: int = 0) -> DiscreteMeasure:
        return _merge_atoms(self.base_kind, self.ids[i], None if self.xs is None else self.xs[i],
                            self.weights[i], float(self.residual[i]))

    def mass(self, A: TestSet) -> np.ndarray:
        """mu(A) per row."""
        if isinstance(A, WholeSpace):
            return np.ones(self.residual.size)
        if isinstance(A, EmptySet):
            return np.zeros(self.residual.size)
        sel = _members(self.base_kind, self.ids, self.xs, A)
        return np.where(sel, self.weights, 0.0).sum(axis=1)


def _merge_atoms(base_kind: str, ids: np.ndarray, xs, weights: np.ndarray,
                 residual: float) -> DiscreteMeasure:
    # merge weight on exact atom identity; canonical order is ascending id
    # (np.unique with return_inverse does the same at about twice the cost)
    srt = np.sort(ids)
    first = np.ones(srt.size, dtype=bool)
    first[1:] = srt[1:] != srt[:-1]
    uids = srt[first]
    inverse = np.searchsorted(uids, ids)
    w = np.bincount(inverse, weights, minlength=uids.size)  # sums in index order
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
    ids, xs = base.sample_batch(rng, rho.size, 1)
    return _merge_atoms(base.kind, ids, xs, rho, float(residual))


@dataclass(frozen=True)
class SummabilityReport:
    """Partial sums of log(1 + alpha_j/beta_j) along a ladder of J values,
    with the verdict read off the ladder's last two increments."""

    entries: tuple  # (J, partial sum) pairs
    verdict: Optional[str]


def check_summability(params: StickBreakingParams, J: int) -> SummabilityReport:
    """Numeric ladder for the almost-sure-probability-measure criterion:
    the weights sum to 1 iff sum_j log(1 + alpha_j/beta_j) diverges.  The
    verdict is a finite-J diagnostic on the last two rungs' increments per
    unit of log J: "convergent" when the last is at most a tenth of the one
    before, "divergent" when at least half, else None (also below three
    rungs).  Terms decaying like j**-p, p a little above 1, read divergent."""
    if J < 1:
        raise ValueError("J must be >= 1")
    ladder = sorted({10**e for e in range(0, 10) if 10**e < J} | {J})
    entries = []
    rates = []
    total = 0.0
    prev = 0
    for mark in ladder:
        step = 0.0
        j = prev + 1
        while j <= mark:
            count = min(4096, mark - j + 1)
            a, b = params.shape_arrays(j, count)
            step += float(np.log1p(a / b).sum())
            j += count
        if prev:
            rates.append(step / math.log(mark / prev))
        total += step
        prev = mark
        entries.append((mark, total))
    verdict = None
    if len(rates) >= 2:
        if rates[-1] <= 0.1 * rates[-2]:
            verdict = "convergent"
        elif rates[-1] >= 0.5 * rates[-2]:
            verdict = "divergent"
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


def _posterior_rows(theta: float, base: BaseMeasure, n: np.ndarray, atom_ids: np.ndarray,
                    atom_xs: Optional[np.ndarray], trunc: StickTruncation,
                    rng: np.random.Generator, first_id: int) -> MeasureRows:
    """One posterior draw per row: row i conditions on its n[i] atoms, the
    next n[i] entries of the flat atom_ids (and atom_xs, for a continuous
    base) in row order, with sticks at total mass theta + n[i] until every
    row's residual meets the truncation.  A stick lands on a fresh base
    draw w.p. theta/(theta+n[i]) or on each conditioning atom w.p.
    1/(theta+n[i]); one base.sample_batch call draws the fresh cells in
    row-major order, with ids from first_id on."""
    total = theta + n
    rho, residual = _stick_weights(
        StickBreakingParams(lambda j: 1.0, lambda j: total[:, None]), trunc, rng)
    # a stick at u < theta is fresh, else it lands on conditioning atom
    # floor(u - theta), clipped to n - 1
    u = rng.random(rho.shape) * total[:, None]
    fresh = u < theta
    pick = np.minimum(np.maximum(u - theta, 0.0).astype(np.int64), n[:, None] - 1)
    f_ids, f_xs = base.sample_batch(rng, int(fresh.sum()), first_id)
    # index of the picked atom in the flat arrays.  A row with n = 0 has only
    # fresh sticks, so its picks of -1 land on cells that the fresh draws
    # overwrite
    pick += (np.cumsum(n) - n)[:, None]

    def place(fresh_vals, atom_vals, dtype):
        out = (np.asarray(atom_vals, dtype=dtype)[pick] if atom_vals.size
               else np.empty(rho.shape, dtype=dtype))
        out[fresh] = fresh_vals
        return out

    ids = place(f_ids, atom_ids, np.int64)
    if base.kind == "continuous":
        xs = place(f_xs, atom_xs, float)
    else:
        xs = None if base.points is None else np.asarray(base.points, dtype=float)[ids]
    return MeasureRows(base.kind, ids, xs, rho, residual)


def sample_posterior(post: DirichletPosterior,
                     trunc: StickTruncation = DEFAULT_TRUNCATION,
                     rng: np.random.Generator = None) -> DiscreteMeasure:
    """One draw from the posterior: sticks at total mass theta + n, each
    stick location a fresh base draw w.p. theta/(theta+n) or a conditioning
    atom w.p. 1/(theta+n) each.  Weight landing on the same atom id merges;
    fresh ids start one past the largest conditioning id."""
    if post.base.kind == "continuous":
        ids = np.array([p.uid for p in post.atoms], dtype=np.int64)
        xs = np.array([p.x for p in post.atoms], dtype=float)
    else:
        ids, xs = np.array(post.atoms, dtype=np.int64), None
    n = np.array([len(post.atoms)])
    first_id = int(ids.max(initial=0)) + 1
    return _posterior_rows(post.theta, post.base, n, ids, xs, trunc, rng, first_id).measure()


def _draw_atoms(rows: MeasureRows, n: np.ndarray, rng: np.random.Generator):
    """n[i] independent atom draws from row i, proportional to weight and
    renormalized over the row's truncated support, as flat (ids, xs) arrays
    in row order (xs for a continuous base only).  One inverse-CDF search
    covers all rows: row i's cumulative weights, which end at most at 1,
    are offset by i, so its targets fall inside its own row (the offset
    costs the sums about log2(i) bits).  Rejects a drawing row whose
    residual exceeds 1%."""
    worst = rows.residual.max(where=n > 0, initial=0.0)
    if worst > 0.01:
        raise ValueError(f"residual {worst:g} too large to sample from")
    row = np.repeat(np.arange(n.size), n)
    idx = row  # empty when no row draws; such rows may hold no atoms
    if row.size:
        cum = np.cumsum(rows.weights, axis=1)
        target = rng.random(row.size) * cum[row, -1] + row
        cum += np.arange(n.size)[:, None]
        k = cum.shape[1]
        idx = np.minimum(np.searchsorted(cum.ravel(), target, side="right"), row * k + (k - 1))
    return (rows.ids.ravel()[idx],
            rows.xs.ravel()[idx] if rows.base_kind == "continuous" else None)


def sample_from_measure(mu: DiscreteMeasure, k: int, rng: np.random.Generator):
    """k independent atom draws, proportional to weight, renormalized over
    the truncated support.  Rejects measures with residual > 1% when k > 0."""
    if k < 0:
        raise ValueError("k must be >= 0")
    ids, xs = _draw_atoms(MeasureRows.of(mu), np.array([k]), rng)
    if mu.base_kind == "continuous":
        return [Point(int(i), float(x)) for i, x in zip(ids, xs)]
    return [int(i) for i in ids]


# ---------------------------------------------------------------------------
# batched draws and the moment identity checks

def _dirichlet_rows(theta: float, base: BaseMeasure, reps: int, trunc: StickTruncation,
                    rng: np.random.Generator, n_cond: int = 0) -> MeasureRows:
    """reps independent draws as rows through the posterior row kernel:
    prior draws when n_cond = 0, else each row the posterior given n_cond
    atoms of its own, drawn independently from the base.  At n_cond = 1
    the mixture over the atom X ~ base is the prior again."""
    ids, xs = base.sample_batch(rng, reps * n_cond, 1)
    return _posterior_rows(theta, base, np.full(reps, n_cond), ids, xs, trunc, rng,
                           reps * n_cond + 1)


# _measure_mass_rows is unused but stays importable: bench/tracing.py wraps
# it by name
_measure_mass_rows = _dirichlet_rows


def _check_masses(theta, base: BaseMeasure, A: TestSet, reps: int, trunc: StickTruncation,
                  rng: np.random.Generator, n_cond: int = 0) -> np.ndarray:
    """mu(A) per row of _dirichlet_rows, for a check that needs reps >= 2."""
    if reps < 2:
        raise ValueError(f"reps must be >= 2 for a Monte Carlo standard error, got {reps}")
    return _dirichlet_rows(float(theta), base, reps, trunc, rng, n_cond).mass(A)


@dataclass(frozen=True)
class MomentCheck:
    """Mean and variance of mu(A) against the Dirichlet prior's p = nu_0(A)
    and p(1-p)/(1+theta), with standard errors, over prior draws (after_steps
    0) or chains from the prior after that many steps; from a chain run also
    the OLS slope of mu_k(A) on mu_0(A) against rho**k (NaN without one)."""

    after_steps: int
    mean: float
    mean_se: float
    mean_target: float
    var: float
    var_se: float
    var_target: float
    reps: int
    slope: float = math.nan
    slope_se: float = math.nan
    slope_target: float = math.nan

    @property
    def mean_z(self) -> float:
        return _z(self.mean - self.mean_target, self.mean_se)

    @property
    def var_z(self) -> float:
        return _z(self.var - self.var_target, self.var_se)

    @property
    def slope_z(self) -> float:
        return _z(self.slope - self.slope_target, self.slope_se)


def _z(diff: float, se: float) -> float:
    """|diff| in standard errors: 0 when there is no difference, inf when a
    zero standard error cannot explain one."""
    if diff == 0:
        return 0.0
    return math.inf if se == 0 else abs(diff) / se


def _moment_check(vals: np.ndarray, after: int, p: float, theta: float) -> MomentCheck:
    reps = vals.size
    mean = float(vals.mean())
    mean_se = float(vals.std(ddof=1) / math.sqrt(reps))
    var = float(vals.var(ddof=1))
    centered = vals - vals.mean()
    m4 = float((centered**4).mean())
    var_se = float(math.sqrt(max(m4 - var**2, 0.0) / reps))
    return MomentCheck(
        after_steps=after,
        mean=mean, mean_se=mean_se, mean_target=p,
        var=var, var_se=var_se, var_target=p * (1 - p) / (1 + theta),
        reps=reps,
    )


def check_mean_identity(theta, base: BaseMeasure, A: TestSet, reps: int,
                        trunc: StickTruncation = DEFAULT_TRUNCATION,
                        rng: np.random.Generator = None) -> MomentCheck:
    """Monte Carlo check on one batch of reps >= 2 prior draws that
    E[mu(A)] = nu_0(A) = p and Var[mu(A)] = p(1-p)/(1+theta)."""
    vals = _check_masses(theta, base, A, reps, trunc, rng)
    return _moment_check(vals, 0, base.measure(A), float(theta))


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
    """Statistical check, on reps >= 2 draws per route, that mixing the
    one-observation posterior over the base reproduces the prior."""
    direct = _check_masses(theta, base, A, reps, trunc, rng)
    hier = _check_masses(theta, base, A, reps, trunc, rng, n_cond=1)
    m1d, m1h = float(direct.mean()), float(hier.mean())
    s1 = math.sqrt((direct.var(ddof=1) + hier.var(ddof=1)) / reps)
    d2, h2 = direct**2, hier**2
    m2d, m2h = float(d2.mean()), float(h2.mean())
    s2 = math.sqrt((d2.var(ddof=1) + h2.var(ddof=1)) / reps)
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
    """Rebuild a measure_to_json document; ValueError on one that does not
    describe a measure."""
    if d["base_kind"] not in ("continuous", "discrete"):
        raise ValueError(f"unknown base_kind {d['base_kind']!r}")
    ids = np.asarray(d["ids"])
    if ids.size and ids.dtype.kind not in "iu":
        raise ValueError("ids must be integers")
    ids = ids.astype(np.int64)
    xs = None if d.get("xs") is None else np.asarray(d["xs"], dtype=float)
    if d["base_kind"] == "continuous" and xs is None:
        raise ValueError("a continuous measure needs xs")
    weights = np.asarray(d["weights"], dtype=float)
    if any(a.ndim != 1 or a.size != ids.size for a in (ids, weights, xs) if a is not None):
        raise ValueError("ids, weights and xs must be flat lists of one length")
    if np.unique(ids).size != ids.size:
        raise ValueError("duplicate atom ids")
    residual = float(d["residual"])
    if not (np.isfinite(weights).all() and 0 <= residual <= 1):
        raise ValueError("weights must be finite and the residual in [0, 1]")
    return DiscreteMeasure(base_kind=d["base_kind"], ids=ids, xs=xs, weights=weights,
                           residual=residual)
