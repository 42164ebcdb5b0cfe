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
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Union

from . import parallel
from ._lazy import np
from .stats import Estimate, check_reps


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

    def __post_init__(self):
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise ValueError("interval endpoints must not be NaN")


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
        if w.size == 0 or not np.isfinite(w).all() or (w < 0).any() or abs(w.sum() - 1.0) > 1e-9:
            raise ValueError("weights must be finite, nonnegative and sum to 1")
        if self.points is not None and len(self.points) != w.size:
            raise ValueError("points must match weights in length")

    kind = "discrete"

    @property
    def size(self) -> int:
        return len(self.weights)

    @cached_property
    def law(self) -> "MeasureRows":
        """The base as one read-only row: atom i at id i (and points[i])."""
        return _finite_law(np.array(self.weights, dtype=float),
                           None if self.points is None else np.array(self.points, dtype=float))

    def sample_batch(self, rng: np.random.Generator, k: int, first_id: int):
        """k support indices and their points; first_id is unused, since
        a discrete atom's id is its index."""
        return _draw_atoms(self.law, np.array([k]), rng)

    def measure(self, A: TestSet) -> float:
        return float(self.law.mass(A)[0])


BaseMeasure = Union[UniformBase, DiscreteBase]


# ---------------------------------------------------------------------------
# stick breaking

@dataclass(frozen=True)
class StickBreakingParams:
    """Beta(alpha_j, beta_j) stick proportions, j = 1, 2, ...

    ``alpha`` and ``beta`` are called on an int64 array of stick indices and
    return an array of that shape or a scalar.  ``dp(theta)`` and
    ``poisson_dirichlet(sigma, theta)`` build the two standard presets;
    batched Dirichlet-process rows take ``_dp_sticks`` instead."""

    alpha: Callable[[np.ndarray], Union[np.ndarray, float]]
    beta: Callable[[np.ndarray], Union[np.ndarray, float]]

    @staticmethod
    def dp(theta) -> "StickBreakingParams":
        th = float(theta)
        if not (math.isfinite(th) and th > 0):
            raise ValueError("dp preset requires theta > 0")
        return StickBreakingParams(lambda j: 1.0, lambda j: th)

    @staticmethod
    def poisson_dirichlet(sigma, theta) -> "StickBreakingParams":
        sg, th = float(sigma), float(theta)
        if not 0 <= sg < 1:
            raise ValueError("poisson_dirichlet preset requires 0 <= sigma < 1")
        if not (math.isfinite(th) and th > -sg):
            raise ValueError("poisson_dirichlet preset requires theta > -sigma")
        if sg == 0 and not th > 0:
            raise ValueError("sigma = 0 degenerates to dp and needs theta > 0")
        return StickBreakingParams(lambda j: 1.0 - sg, lambda j: th + j * sg)

    def shape_arrays(self, j0: int, count: int):
        js = np.arange(j0, j0 + count, dtype=np.int64)
        a, b = self.alpha(js), self.beta(js)
        ab = np.empty((2, count))
        ab[0], ab[1] = a, b  # broadcasts a scalar
        if ab.min() <= 0 or not np.isfinite(ab).all():
            raise ValueError("alpha_j and beta_j must be finite and > 0")
        return ab[0], ab[1]


@dataclass(frozen=True)
class StickTruncation:
    """Either a fixed number of sticks or a residual-mass target."""

    k: Optional[int] = None
    eps: Optional[float] = None

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
    def residual(eps: float) -> "StickTruncation":
        return StickTruncation(eps=eps)


DEFAULT_TRUNCATION = StickTruncation.residual(1e-8)

MAX_STICKS = 10**6  # a residual-target draw stops with StickBudgetError past this

_STICK_BLOCK = 64


def _stick_weights(params: StickBreakingParams, trunc: StickTruncation,
                   rng: np.random.Generator):
    """Stick masses rho_j and the leftover residual: one block of k sticks,
    or blocks of _STICK_BLOCK until the residual is below eps."""
    block, cap = ((trunc.k, trunc.k) if trunc.k is not None
                  else (_STICK_BLOCK, MAX_STICKS))
    blocks = []
    left = 1.0
    k = 0
    while not blocks or trunc.eps is not None and left >= trunc.eps:
        if k >= cap:
            raise StickBudgetError(f"residual {left:g} still above {trunc.eps:g} after {k} sticks")
        count = min(block, cap - k)
        w = rng.beta(*params.shape_arrays(k + 1, count))
        keep = np.cumprod(1.0 - w)
        rho = w * left
        rho[1:] *= keep[:-1]
        blocks.append(rho)
        left = left * keep[-1]
        k += count
    return np.concatenate(blocks), left


def _dp_sticks(theta: float, share: np.ndarray, trunc: StickTruncation,
               rng: np.random.Generator):
    """Dirichlet-process stick masses at total mass theta, flat in row
    order, with the row offsets and each row's residual, row i's scaled by
    share[i].

    A Beta(1, theta) stick leaves 1 - w = exp(-E/theta) of the stick, E
    standard exponential, so after j sticks the residual is exp(-G_j/theta),
    G_j the j-th arrival of a unit-rate Poisson process.  Row i stops once
    share[i] times that is below eps, at the first arrival past
    L = theta ln(share[i]/eps) (0 if negative): it takes 1 + Poisson(L)
    sticks, its arrivals below L are sorted uniforms on [0, L] (one flat
    sort of the uniforms shifted by their row index, which costs each about
    log2(rows) bits), and its last is L + Exp(1).  A fixed truncation gives
    every row k sticks from cumulative exponentials.  Stick j weighs
    exp(-G_{j-1}/theta) (1 - exp(-(G_j - G_{j-1})/theta)), so small sticks
    keep full relative precision."""
    rows = share.size
    if trunc.k is not None:
        counts = np.full(rows, trunc.k)
        arrival = np.cumsum(rng.standard_exponential((rows, trunc.k)), axis=1).ravel()
    else:
        reach = theta * np.log(np.maximum(share / trunc.eps, 1.0))
        if 1 + reach.max(initial=0.0) > MAX_STICKS:  # the mean count, before any draw
            raise StickBudgetError(f"a residual below {trunc.eps:g} needs {1 + reach.max():.0f} "
                                   f"sticks on average, over the cap of {MAX_STICKS}")
        counts = 1 + rng.poisson(reach)
        if counts.max(initial=0) > MAX_STICKS:  # a row's count, before any stick
            raise StickBudgetError(f"a row drew {counts.max()} sticks, "
                                   f"over the cap of {MAX_STICKS}")
        row = np.repeat(np.arange(rows), counts - 1)
        below = rng.random(row.size)
        below += row
        below.sort()
        below -= row
        below *= reach[row]
        del row
        arrival = np.insert(below, np.cumsum(counts - 1), reach + rng.standard_exponential(rows))
        del below
    offsets = np.concatenate(([0], np.cumsum(counts)))
    starts = offsets[:-1]
    # in place where it can be: the cells of a batch set a chain step's peak memory
    arrival /= theta  # G_j / theta
    rho = np.empty_like(arrival)  # the spacings G_j - G_{j-1}, then the masses
    np.subtract(arrival[1:], arrival[:-1], out=rho[1:])
    rho[starts] = arrival[starts]
    np.negative(np.expm1(np.negative(rho, out=rho), out=rho), out=rho)  # 1 - exp(-spacing)
    keep = np.exp(np.negative(arrival, out=arrival), out=arrival)
    first = rho[starts]  # a row's first stick has nothing before it
    rho[1:] *= keep[:-1]
    rho[starts] = first
    rho *= np.repeat(share, counts)
    return rho, offsets, share * keep[offsets[1:] - 1]


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
        if self.xs is None and self.base_kind == "continuous":
            raise ValueError("a continuous measure needs atom positions xs")
        arrays = (self.ids, self.weights) + (() if self.xs is None else (self.xs,))
        if len({arr.shape for arr in arrays}) != 1:
            raise ValueError("ids, xs and weights must hold one entry per atom")
        ordered = np.sort(self.ids)
        if (ordered[1:] == ordered[:-1]).any():
            raise ValueError("atom ids must not repeat")
        for arr in arrays:
            arr.setflags(write=False)
        if not (self.weights >= 0).all():
            raise ValueError("weights must be >= 0")
        if not 0 <= self.residual <= 1:
            raise ValueError("residual must be in [0, 1]")
        if abs(self.weights.sum() + self.residual - 1.0) > 1e-12:
            raise ValueError("weights + residual must total 1")

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
    """A batch of atomic measures, one per row, stored flat: row i's atom
    ids, optional positions and weights are the slice
    offsets[i]:offsets[i + 1] of ids, xs and weights, and residual[i] is
    its residual.  Rows stay unmerged (an id may repeat within a row);
    ``measure`` merges one row."""

    base_kind: str
    ids: np.ndarray
    xs: Optional[np.ndarray]
    weights: np.ndarray
    offsets: np.ndarray
    residual: np.ndarray

    @staticmethod
    def of(mu: DiscreteMeasure) -> "MeasureRows":
        """The one-row batch holding mu."""
        return MeasureRows(mu.base_kind, mu.ids, mu.xs, mu.weights,
                           np.array([0, mu.ids.size]), np.array([mu.residual]))

    def measure(self, i: int = 0) -> DiscreteMeasure:
        cells = slice(self.offsets[i], self.offsets[i + 1])
        return _merge_atoms(self.base_kind, self.ids[cells],
                            None if self.xs is None else self.xs[cells],
                            self.weights[cells], float(self.residual[i]))

    def mass(self, A: TestSet) -> np.ndarray:
        """mu(A) per row."""
        if isinstance(A, WholeSpace):
            return np.ones(self.residual.size)
        if isinstance(A, EmptySet):
            return np.zeros(self.residual.size)
        inside = np.where(_members(self.base_kind, self.ids, self.xs, A), self.weights, 0.0)
        # reduceat sums from each start to the next; an empty row reads one
        # cell, so it is zeroed
        sums = np.add.reduceat(np.append(inside, 0.0), self.offsets[:-1])
        return np.where(self.offsets[1:] > self.offsets[:-1], sums, 0.0)


def _finite_law(weights: np.ndarray, xs: Optional[np.ndarray] = None,
                residual: float = 0.0) -> MeasureRows:
    """The finite discrete law with weights[i] on id i (at xs[i]) and the
    given unassigned residual, as one read-only discrete row."""
    law = MeasureRows("discrete", np.arange(weights.size, dtype=np.int64), xs, weights,
                      np.array([0, weights.size]), np.array([residual]))
    for arr in (law.ids, law.weights, law.offsets, law.residual) + (() if xs is None else (xs,)):
        arr.setflags(write=False)
    return law


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
                trunc: StickTruncation,
                rng: np.random.Generator) -> DiscreteMeasure:
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
    """Conditional law of the random measure given observed atoms
    X_1..X_n: W_0 DP(theta nu_0) + sum_j W_j delta_{X_j} with
    (W_0, W_1, ..., W_n) ~ Dir(theta, 1, ..., 1), the Dirichlet process with
    total mass theta + n over the mixed base (Ferguson 1973; Sethuraman 1994)."""

    theta: float
    base: BaseMeasure
    atoms: tuple

    def __post_init__(self):
        if not (math.isfinite(self.theta) and self.theta > 0):
            raise ValueError("theta must be > 0")
        if self.base.kind == "discrete":
            # a discrete atom's id is its index into the base
            for a in self.atoms:
                if not (isinstance(a, numbers.Integral) and 0 <= a < self.base.size):
                    raise ValueError(f"conditioning atom {a!r} is not an integer "
                                     f"in 0..{self.base.size - 1}")


def posterior(theta, base: BaseMeasure, atoms) -> DirichletPosterior:
    return DirichletPosterior(theta=float(theta), base=base, atoms=tuple(atoms))


def _posterior_rows(theta: float, base: BaseMeasure, n: np.ndarray, atom_ids: np.ndarray,
                    atom_xs: Optional[np.ndarray], trunc: StickTruncation,
                    rng: np.random.Generator, first_id: int) -> MeasureRows:
    """One posterior draw per row: row i conditions on its n[i] atoms, the
    next n[i] entries of the flat atom_ids (and atom_xs, when the base
    draws positions) in row order.  By conjugacy (Ferguson 1973) the draw
    is W_0 DP(theta nu_0) + sum_j W_j delta_{X_j} with
    (W_0, W_1, ..., W_n) ~ Dir(theta, 1, ..., 1): a Gamma(theta) per row and
    a standard exponential per atom, over their row's sum (W_0 = 1 when
    n[i] = 0).  The fresh part is _dp_sticks at total mass theta scaled by
    W_0, so the row's residual meets the truncation; one base.sample_batch
    call draws its locations in order, with ids from first_id on.  A row
    holds its fresh cells, then its atoms."""
    rows = n.size
    gamma = rng.standard_gamma(theta, rows)
    weight = rng.standard_exponential(atom_ids.size)
    row = np.repeat(np.arange(rows), n)
    total = gamma + np.bincount(row, weight, minlength=rows)
    share = np.divide(gamma, total, out=np.ones(rows), where=n > 0)
    weight /= total[row]
    rho, offsets, residual = _dp_sticks(theta, share, trunc, rng)
    ids, xs = base.sample_batch(rng, rho.size, first_id)
    at = np.repeat(offsets[1:], n)  # each row's atoms go after its fresh cells
    offsets[1:] += np.cumsum(n)
    return MeasureRows(base.kind, np.insert(ids, at, atom_ids),
                       None if xs is None else np.insert(xs, at, atom_xs),
                       np.insert(rho, at, weight), offsets, residual)


def sample_posterior(post: DirichletPosterior,
                     trunc: StickTruncation,
                     rng: np.random.Generator) -> DiscreteMeasure:
    """One draw from the posterior: Dirichlet weights W_1..W_n on the
    conditioning atoms, and sticks at total mass theta, scaled by W_0, on
    fresh base draws.  Weight landing on the same atom id merges; fresh ids
    start one past the largest conditioning id."""
    if post.base.kind == "continuous":
        ids = np.array([p.uid for p in post.atoms], dtype=np.int64)
        xs = np.array([p.x for p in post.atoms], dtype=float)
    else:
        ids = np.array(post.atoms, dtype=np.int64)
        xs = None if post.base.points is None else post.base.law.xs[ids]
    n = np.array([len(post.atoms)])
    first_id = int(ids.max(initial=0)) + 1
    return _posterior_rows(post.theta, post.base, n, ids, xs, trunc, rng, first_id).measure()


def _draw_atoms(rows: MeasureRows, n: np.ndarray, rng: np.random.Generator):
    """n[i] independent atom draws from row i, proportional to weight and
    renormalized over the row's truncated support, as flat (ids, xs) arrays
    in row order (xs when the rows carry positions).  One inverse-CDF search
    covers all rows: the cumulative sum of the flat weights runs through
    row i between the sums before and after it, so its targets fall inside
    its own row (every row before it, near 1 each, costs the sums about
    log2(i) bits).  Rejects a drawing row whose residual exceeds 1%."""
    worst = rows.residual.max(where=n > 0, initial=0.0)
    if worst > 0.01:
        raise ValueError(f"residual {worst:g} too large to sample from")
    row = np.repeat(np.arange(n.size), n)
    idx = row  # empty when no row draws; such rows may hold no atoms
    if row.size:
        cum = np.cumsum(rows.weights)
        end = np.concatenate(([0.0], cum))[rows.offsets]
        lo, hi = end[:-1][row], end[1:][row]
        target = lo + rng.random(row.size) * (hi - lo)
        idx = np.minimum(np.searchsorted(cum, target, side="right"), rows.offsets[1:][row] - 1)
    return rows.ids[idx], None if rows.xs is None else rows.xs[idx]


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


_MASS_BLOCK_CELLS = 2**16  # expected cells per block of a moment check, one substream each


def _check_masses(theta, base: BaseMeasure, A: TestSet, reps: int, trunc: StickTruncation,
                  rng: np.random.Generator, n_cond: int = 0) -> np.ndarray:
    """mu(A) per row of reps _dirichlet_rows draws, for a check that needs
    reps >= 2.

    The rows are drawn in blocks of about _MASS_BLOCK_CELLS expected cells
    (a row holds its n_cond atoms and expects at most 1 + theta ln(1/eps)
    fresh sticks under a residual truncation, k under a fixed one).  Block i draws from the i-th substream
    spawned from rng and keeps only its masses, so memory does not grow
    with reps; the blocks run as parallel jobs and join in block order, so
    the masses do not depend on the core count."""
    check_reps(reps)
    theta = float(theta)
    if not (math.isfinite(theta) and theta > 0):
        raise ValueError("theta must be > 0")
    per_row = n_cond + (trunc.k if trunc.k is not None else 1 + theta * -math.log(trunc.eps))
    block = max(1, int(_MASS_BLOCK_CELLS // per_row))
    sizes = [min(block, reps - start) for start in range(0, reps, block)]

    def masses(job):
        rows, stream = job
        return _dirichlet_rows(theta, base, rows, trunc, stream, n_cond).mass(A)

    return np.concatenate(parallel.map_jobs(masses, zip(sizes, rng.spawn(len(sizes)))))


_NO_RUN = Estimate(math.nan, math.nan, math.nan)


@dataclass(frozen=True)
class MomentCheck:
    """Mean and variance of mu(A) against the Dirichlet prior's p = nu_0(A)
    and p(1-p)/(1+theta), over prior draws (after_steps 0) or chains from
    the prior after that many steps; from a chain run also the OLS slope of
    mu_k(A) on mu_0(A) against rho**k, and of f2(mu_k(A)) on f2(mu_0(A))
    against the degree-2 eigenvalue to the k (NaN without a run)."""

    after_steps: int
    reps: int
    mean: Estimate
    var: Estimate
    slope: Estimate = _NO_RUN
    eigen2_slope: Estimate = _NO_RUN


def _moment_check(vals: np.ndarray, after: int, p: float, theta: float) -> MomentCheck:
    return MomentCheck(after_steps=after, reps=vals.size, mean=Estimate.mean_of(vals, p),
                       var=Estimate.var_of(vals, p * (1 - p) / (1 + theta)))


def check_mean_identity(theta, base: BaseMeasure, A: TestSet, reps: int,
                        trunc: StickTruncation,
                        rng: np.random.Generator) -> MomentCheck:
    """Monte Carlo check on one batch of reps >= 2 prior draws that
    E[mu(A)] = nu_0(A) = p and Var[mu(A)] = p(1-p)/(1+theta)."""
    vals = _check_masses(theta, base, A, reps, trunc, rng)
    return _moment_check(vals, 0, base.measure(A), float(theta))


@dataclass(frozen=True)
class MixtureIdentityReport:
    """First and second moments of mu(A) under the hierarchical route
    X ~ base then mu ~ posterior(theta, [X]), each against its value under
    direct prior draws as the target, with the two-sample standard error."""

    first: Estimate
    second: Estimate
    reps: int


def check_mixture_identity(theta, base: BaseMeasure, A: TestSet, direct: np.ndarray,
                           trunc: StickTruncation,
                           rng: np.random.Generator) -> MixtureIdentityReport:
    """Statistical check that mixing the one-observation posterior over the
    base reproduces the prior: direct holds mu(A) over reps >= 2 prior
    draws (in verify_measures, the prior moment rows' batch), and as many
    hierarchical draws are made here."""
    reps = direct.size
    hier = _check_masses(theta, base, A, reps, trunc, rng, n_cond=1)

    def moment(d, h):
        se = math.sqrt((d.var(ddof=1) + h.var(ddof=1)) / reps)
        return Estimate(float(h.mean()), se, float(d.mean()))

    return MixtureIdentityReport(first=moment(direct, hier),
                                 second=moment(direct**2, hier**2), reps=reps)


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
