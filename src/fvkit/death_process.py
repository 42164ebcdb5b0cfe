"""The pure death process with rate 0.5*n*(n-1+theta), started at infinity.

The marginal pmf d_n(t) is an alternating series with severe cancellation
for small t, so series evaluation runs in mpmath wide floats with the
rational coefficients carried exactly until the exponential factor is
applied.  Truncation is certified: we stop only once a computable bound
shows every remaining term is strictly smaller than its predecessor, at
which point the alternating-series bound applies.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from fractions import Fraction
from typing import Optional, Union

import mpmath
import numpy as np

from . import parallel, polya_urn
# binomial, falling_factorial and rising_factorial are unused here but stay
# importable: bench/tracing.py rebinds this module's combinatorics names
from .combinatorics import binomial, falling_factorial, rising_factorial, rising_product  # noqa: F401


class PrecisionExhaustedError(RuntimeError):
    """Raised when a series cannot be truncated within the requested tolerance.

    ``smallest_achievable`` is the tightest absolute tolerance the evaluation
    could have certified (``inf`` when the decreasing regime was never
    reached, which happens for very small t at low ``max_terms``).
    """

    def __init__(self, message: str, smallest_achievable: float):
        super().__init__(f"{message} (smallest achievable tolerance: {smallest_achievable:g})")
        self.smallest_achievable = smallest_achievable


@dataclass(frozen=True)
class DeathParams:
    """Mutation parameter theta >= 0.  theta = 0 is the coalescent regime:
    state 1 is absorbing and d_0(t) = 0 identically."""

    theta: Union[float, Fraction]

    def __post_init__(self):
        if self.theta < 0:
            raise ValueError("theta must be >= 0")

    @property
    def theta_fraction(self) -> Fraction:
        return Fraction(self.theta)

    @property
    def is_coalescent(self) -> bool:
        return self.theta == 0


@dataclass(frozen=True)
class PrecisionConfig:
    working_digits: int = 60
    tail_tol: float = 1e-12
    max_terms: int = 400

    def __post_init__(self):
        if self.working_digits < 16:
            raise ValueError("working_digits must be >= 16")
        if not self.tail_tol > 0:
            raise ValueError("tail_tol must be > 0")
        if self.max_terms < 1:
            raise ValueError("max_terms must be >= 1")


@dataclass(frozen=True)
class DeathPmf:
    """Truncated pmf of the death count at time t.

    ``probs[n]`` is d_n(t) as an mpmath float; ``term_bounds[n]`` bounds the
    absolute series-truncation error of that entry.  ``residual`` is the
    mass attributed to n > n_max.  ``clamped`` lists indices whose tiny
    negative computed values were clamped to zero.
    """

    t: float
    params: DeathParams
    probs: tuple
    term_bounds: tuple
    residual: float
    clamped: tuple
    working_digits: int

    @property
    def n_max(self) -> int:
        return len(self.probs) - 1

    @cached_property
    def probs_float(self) -> np.ndarray:
        """Float copy of ``probs``, computed once and read-only."""
        out = np.array([float(p) for p in self.probs])
        out.setflags(write=False)
        return out

    def rows(self):
        """(n, d_n, term_bound) rows for table output."""
        return [(n, float(p), b) for n, (p, b) in enumerate(zip(self.probs, self.term_bounds))]


def death_rate(n: int, params: DeathParams) -> float:
    """Rate 0.5*n*(n-1+theta) of the jump n -> n-1."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return 0.5 * n * (n - 1 + float(params.theta))


def _death_rate_fraction(n: int, theta: Fraction) -> Fraction:
    return Fraction(n, 2) * (n - 1 + theta)


def _mpf_frac(x) -> mpmath.mpf:
    # exact rational -> mpf at the current working precision
    fr = Fraction(x)
    return mpmath.mpf(fr.numerator) / fr.denominator


def _gamma_factor(m: int, theta: Fraction, t: Fraction):
    # (2m - 1 + theta) * exp(-lambda_m * t), under the caller's mp context
    lam_t = _death_rate_fraction(m, theta) * t
    return (2 * m - 1 + _mpf_frac(theta)) * mpmath.exp(-_mpf_frac(lam_t))


def _alternating_series(n: int, theta: Fraction, t: Fraction, gamma: dict,
                        prec: PrecisionConfig):
    """Sum the alternating series for d_n(t) (n >= 1) or for the n = 0
    complement sum, returning (value, error_bound) as (mpf, float).
    ``gamma`` memoizes the factors gamma_m of this (theta, t) by m.

    The rational coefficient is carried as an integer pair (num, den),
    updated by integer products each term and never normalised.

    The stop rule: at candidate index m, a closed-form bound on the term
    ratio certifies that every term from m on is strictly decreasing; if
    additionally |term_m| < tail_tol, the alternating-series bound gives
    |neglected tail| <= |term_m| and we stop without adding term m.
    """
    th = float(theta)
    tf = float(t)
    p, q = theta.numerator, theta.denominator
    # first coefficient (theta+n)_(m-1) / (n! (m-n)!) at m = max(n, 1); for
    # n = 0 this starts the complement series
    # sum_{m>=1} (-1)^(m-1) theta_(m-1)/m! gamma_m
    m = max(n, 1)
    num = rising_product(p + n * q, q, m - 1)
    den = q ** (m - 1) * math.factorial(n) * math.factorial(m - n)

    total = mpmath.mpf(0)
    peak = 0.0
    nterms = 0
    best_cert = math.inf
    sign = 1
    while nterms < prec.max_terms:
        g = gamma.get(m)
        if g is None:
            g = gamma[m] = _gamma_factor(m, theta, t)
        a_mpf = mpmath.mpf(num) / den * g
        a = abs(float(a_mpf))
        # sup over m' >= m of the rational part of the term ratio
        f = max(1.0, (th + n + m - 1) / (m + 1 - n))
        ratio_bound = f * (2 * m + 1 + th) / (2 * m - 1 + th) * math.exp(-(m + th / 2) * tf)
        if ratio_bound < 0.999:
            if a < prec.tail_tol:
                round_slack = peak * nterms * 10.0 ** (-(prec.working_digits - 2))
                if round_slack > prec.tail_tol:
                    raise PrecisionExhaustedError(
                        f"cancellation exceeds working precision for n={n}, t={tf}",
                        smallest_achievable=round_slack,
                    )
                return total, a + round_slack
            best_cert = min(best_cert, a)
        total += sign * a_mpf
        peak = max(peak, a)
        sign = -sign
        # times (theta+n+m-1)/(m+1-n)
        num *= p + (n + m - 1) * q
        den *= q * (m + 1 - n)
        m += 1
        nterms += 1
    raise PrecisionExhaustedError(
        f"series for n={n} at t={tf} did not reach tolerance {prec.tail_tol:g} "
        f"within {prec.max_terms} terms; increase max_terms or tail_tol",
        smallest_achievable=best_cert,
    )


PMF_CACHE_SIZE = 256


def death_pmf(t, params: DeathParams, prec: PrecisionConfig = PrecisionConfig()) -> DeathPmf:
    """Compute {d_n(t)} for n = 0..n_max, with n_max < max_terms chosen so
    the accumulated mass reaches 1 - tail_tol; a pmf whose first max_terms
    entries fall short of that raises ``PrecisionExhaustedError``.

    Results are memoized per (t, params, prec) in a bounded LRU cache, so
    callers share one immutable pmf per key; equal keys such as 0.5 and
    Fraction(1, 2) share an entry."""
    if not t > 0:
        raise ValueError("t must be > 0")
    return _death_pmf_cached(t, params, prec)


@lru_cache(maxsize=PMF_CACHE_SIZE)
def _death_pmf_cached(t, params: DeathParams, prec: PrecisionConfig) -> DeathPmf:
    tf = Fraction(t)
    theta = params.theta_fraction
    probs = []
    bounds = []
    clamped = []
    with mpmath.workdps(prec.working_digits):
        gamma = {}
        mass = mpmath.mpf(0)
        total_bound = 0.0
        for n in range(prec.max_terms):
            if n:
                p, b = _alternating_series(n, theta, tf, gamma, prec)
            elif params.is_coalescent:
                p, b = mpmath.mpf(0), 0.0
            else:  # d_0 is 1 minus the complement series
                alive, b = _alternating_series(0, theta, tf, gamma, prec)
                p = 1 - alive
            if p < 0:
                if float(-p) <= max(b, prec.tail_tol):
                    clamped.append(n)
                    p = mpmath.mpf(0)
                else:
                    raise PrecisionExhaustedError(
                        f"d_{n}({float(t)}) computed as {float(p):g} < 0, beyond its error bound {b:g}",
                        smallest_achievable=float(-p),
                    )
            probs.append(p)
            bounds.append(b)
            mass += p
            total_bound += b
            # the computed mass can sit below 1 - tail_tol by up to the
            # summed per-entry truncation bounds, so the stop condition
            # allows that slack; it still certifies true tail <= tail_tol
            if n and 1 - float(mass) <= prec.tail_tol + total_bound:
                break
        else:
            shortfall = 1 - float(mass) - total_bound
            raise PrecisionExhaustedError(
                f"the first {prec.max_terms} entries of the pmf at t={float(t)} fall "
                f"{shortfall:g} short of mass 1 beyond their error bounds; "
                "increase max_terms or tail_tol",
                smallest_achievable=shortfall,
            )
        residual = max(0.0, float(1 - mass))
    return DeathPmf(
        t=float(t),
        params=params,
        probs=tuple(probs),
        term_bounds=tuple(bounds),
        residual=residual,
        clamped=tuple(clamped),
        working_digits=prec.working_digits,
    )


def _inner_prec(prec: PrecisionConfig, shrink: float) -> PrecisionConfig:
    # tighten the series tolerance for use inside weighted sums, raising
    # the working precision to match so cancellation headroom is preserved
    extra = min(80, max(0, 2 * math.ceil(-math.log10(shrink)) + 8))
    digits = prec.working_digits + extra
    floor = 10.0 ** (-(digits - 10))
    return PrecisionConfig(
        working_digits=digits,
        tail_tol=max(prec.tail_tol * shrink, floor),
        max_terms=prec.max_terms,
    )


def _transition_entry(pmf: DeathPmf, n: int, r: int) -> mpmath.mpf:
    """P(count = r after s | count = n) = sum_{m>=r} P(r | n draws, m atoms) d_m(s)
    from the pmf {d_m(s)}, under the caller's mp context: the m lineages alive
    at s are the atoms of an urn, and n draws from it hit exactly r of them
    with the overlap probability ``polya_urn.overlap_entry(r, n, m, theta)``.

    Every weight is a probability, so the sum is as accurate as the pmf."""
    theta = pmf.params.theta_fraction
    acc = mpmath.mpf(0)
    for m in range(r, pmf.n_max + 1):
        num, den = polya_urn.overlap_entry(r, n, m, theta)
        acc += mpmath.mpf(num) / den * pmf.probs[m]
    return acc


def _inner_pmf(s, params: DeathParams, prec: PrecisionConfig, n: int = 1) -> DeathPmf:
    """The pmf {d_m(s)} that the urn-weighted transition sums from count n
    read, at a tail tolerance 1e-4 of the caller's.  Requires n >= 1 and
    theta > 0 (the theta = 0 regime is served by ``transition_closed_form``)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if params.is_coalescent:
        raise ValueError("theta = 0 transitions go through transition_closed_form")
    return death_pmf(s, params, _inner_prec(prec, 1e-4))


def transition_given_n(n: int, s, params: DeathParams, prec: PrecisionConfig = PrecisionConfig()):
    """Transition vector P(count = r after s | count = n now) for r = 0..n,
    recovered from the pmf series by the urn-weighted sum of
    ``_transition_entry``.  Requires theta > 0."""
    pmf = _inner_pmf(s, params, prec, n)
    with mpmath.workdps(prec.working_digits):
        return [float(_transition_entry(pmf, n, r)) for r in range(n + 1)]


def transition_closed_form(n: int, r: int, s, params: DeathParams,
                           prec: PrecisionConfig = PrecisionConfig()) -> float:
    """P(count = r after s | count = n) for the finite pure death chain with
    pairwise distinct rates, via the standard partial-fraction formula
    prod_{k>r} lambda_k sum_i exp(-lambda_i s) / prod_{j!=i} (lambda_j - lambda_i).
    This is the independent oracle for ``transition_given_n``.

    With theta = p/q each 2q lambda_k = k((k-1)q + p) is an integer, so the
    (2q)**(n-r) factors cancel and each weight is one integer over another;
    only exp(-lambda_i s) is evaluated in working precision.  The rates are
    coded here, apart from the series' ``_death_rate_fraction``."""
    if not 0 <= r <= n:
        raise ValueError("need 0 <= r <= n")
    if not s > 0:
        raise ValueError("s must be > 0")
    theta = params.theta_fraction
    p, q = theta.numerator, theta.denominator
    rates = {k: k * ((k - 1) * q + p) for k in range(r, n + 1)}  # 2q lambda_k
    if len(set(rates.values())) != len(rates):
        raise ValueError("coincident rates: closed form needs pairwise distinct rates")
    top = math.prod(rates[k] for k in range(r + 1, n + 1))
    sf = Fraction(s)
    with mpmath.workdps(prec.working_digits):
        total = mpmath.mpf(0)
        for i, rate in rates.items():
            den = math.prod(rates[j] - rate for j in rates if j != i)
            lam_s = mpmath.mpf(rate * sf.numerator) / (2 * q * sf.denominator)
            total += mpmath.mpf(top) / den * mpmath.exp(-lam_s)
        return float(total)


def _closed_form_residual(n: int, r: int, s, params: DeathParams, prec: PrecisionConfig,
                          scale=1) -> float:
    # |series - closed form| of P(count = r after s | count = n), both over scale
    pmf = _inner_pmf(s, params, prec, n)
    closed = transition_closed_form(n, r, s, params, prec) / scale
    with mpmath.workdps(prec.working_digits):
        return abs(float(_transition_entry(pmf, n, r) / _mpf_frac(scale)) - closed)


def check_survival_identity(n: int, s, params: DeathParams,
                            prec: PrecisionConfig = PrecisionConfig()) -> float:
    """Residual of: sum_m m_[n]/(theta+m)_(n) d_m(s) = exp(-lambda_n s).

    The left side is the stay-put transition probability recovered from the
    pmf series; the right side is the exponential holding-time law, the
    r = n case of ``transition_closed_form``.
    """
    return _closed_form_residual(n, n, s, params, prec)


def check_single_death_identity(n: int, s, params: DeathParams,
                                prec: PrecisionConfig = PrecisionConfig()) -> float:
    """Residual of the one-death identity: the urn-weighted pmf sum
    H(s) = sum_m m_[n-1]/(theta+m)_(n) d_m(s), which is P(n-1 | n) over
    n(n-1+theta), against its closed form
    0.5*(exp(-lambda_{n-1} s) - exp(-lambda_n s))/(lambda_n - lambda_{n-1}),
    read off ``transition_closed_form`` the same way.

    Also sanity-checks the s -> 0+ behavior of the closed form: H vanishes
    linearly, so 0 < H(1e-3) <= 5e-4, and a RuntimeError is raised if not."""
    scale = n * (n - 1 + params.theta_fraction)
    residual = _closed_form_residual(n, n - 1, s, params, prec, scale)
    h_small = transition_closed_form(n, n - 1, Fraction(1, 1000), params, prec) / scale
    if not 0 < h_small <= 5e-4:
        raise RuntimeError(f"H(1e-3) = {h_small} outside (0, 5e-4]")
    return residual


def check_chapman_kolmogorov(r: int, t, s, params: DeathParams,
                             prec: PrecisionConfig = PrecisionConfig()) -> float:
    """Residual of Chapman-Kolmogorov read literally:
    d_r(t+s) = sum_n d_n(t) P(count = r after s | count = n),
    with the transition probability from ``_transition_entry``.  The left
    side is read off the pmf at t+s; an r past its n_max reads 0, which
    that pmf's residual bounds."""
    if r < 0:
        raise ValueError("r must be >= 0")
    pmf_t, pmf_s, pmf_ts = (_inner_pmf(u, params, prec)
                            for u in (t, s, Fraction(t) + Fraction(s)))
    with mpmath.workdps(prec.working_digits):
        lhs = pmf_ts.probs[r] if r <= pmf_ts.n_max else 0
        rhs = mpmath.fsum(pmf_t.probs[n] * _transition_entry(pmf_s, n, r)
                          for n in range(r, pmf_t.n_max + 1))
        return abs(float(lhs - rhs))


def check_nonabsorption_bounds(t, params: DeathParams,
                               prec: PrecisionConfig = PrecisionConfig()) -> bool:
    """True iff exp(-lambda_1 t) < 1 - d_0(t) < (1+theta) exp(-lambda_1 t),
    strictly, certified against a margin of 10x the achieved evaluation
    error.  The middle term is the complement series itself.

    For large t the true value sits within ~exp(-(lambda_2-lambda_1)t) of
    the upper bound, far below any fixed tolerance, so the evaluation
    deepens until the margin resolves the gap; if the working precision
    cannot resolve it, the check fails loudly rather than guessing.
    """
    if not t > 0:
        raise ValueError("t must be > 0")
    if params.is_coalescent:
        raise ValueError("requires theta > 0")
    theta = params.theta_fraction
    tf = Fraction(t)
    inner = _inner_prec(prec, 1e-12)
    floor = 10.0 ** (-(inner.working_digits - 10))
    with mpmath.workdps(inner.working_digits):
        lo = mpmath.exp(-_mpf_frac(_death_rate_fraction(1, theta) * tf))
        hi = (1 + _mpf_frac(theta)) * lo
        gamma = {}
        tol = inner.tail_tol
        while True:
            alive, bound = _alternating_series(0, theta, tf, gamma,
                                               replace(inner, tail_tol=tol))
            margin = 10 * max(bound, 5e-324)
            if lo + margin < alive < hi - margin:
                return True
            if alive < lo - margin or alive > hi + margin:
                return False
            # within the margin of an endpoint: unresolved at this depth
            if tol <= floor:
                raise PrecisionExhaustedError(
                    f"bound gap at t={float(t)} is below the certifiable "
                    f"resolution at {inner.working_digits} digits",
                    smallest_achievable=bound,
                )
            tol = max(tol * 1e-12, floor)


def sample_death_count(pmf: DeathPmf, rng: np.random.Generator, size: Optional[int] = None):
    """Draw the death count from a truncated pmf, renormalized over its
    support.  Rejects pmfs whose unassigned tail mass exceeds 1%."""
    if pmf.residual > 0.01:
        raise ValueError(f"pmf residual {pmf.residual:g} too large to sample from")
    p = np.clip(pmf.probs_float, 0.0, None)
    cum = np.cumsum(p)
    total = cum[-1]
    if size is None:
        return int(np.searchsorted(cum, rng.random() * total, side="right"))
    return np.searchsorted(cum, rng.random(size) * total, side="right").astype(np.int64)


@dataclass(frozen=True)
class EmpiricalPmf:
    """Monte Carlo estimate of the death-count distribution at time t,
    simulated from a finite start n0 (approximating the start at infinity)."""

    t: float
    theta: float
    n0: int
    reps: int
    probs: np.ndarray
    stderr: np.ndarray


_MC_CHUNK_TARGET = 5_000_000  # floats per simulation chunk, one substream each
_MC_BLOCK_ROWS = 256  # rows drawn at once inside a chunk, about L2-sized


def mean_entry_time(n0: int, theta: float) -> float:
    """Mean time the infinite-start chain spends above n0:
    sum_{k>n0} 1/lambda_k = sum_{k>n0} 2/(k(k-1+theta)), about 2/n0.

    By partial fractions the sum is 2(psi(n0+theta) - psi(n0+1))/(theta-1),
    and 2 psi'(n0+1) at theta = 1; it is evaluated in that exact form with
    digits to spare for the cancellation near theta = 1.

    A finite-start simulation must discount its clock by this amount or it
    lags the infinite-start law by O(1/n0), which is several standard
    errors at a million replicates."""
    with mpmath.workdps(40):
        if theta == 1:
            return float(2 * mpmath.psi(1, n0 + 1))
        th = mpmath.mpf(theta)
        return float(2 * (mpmath.digamma(n0 + th) - mpmath.digamma(n0 + 1)) / (th - 1))


def _hold_rates(theta: float, hi: int, lo: int) -> tuple[np.ndarray, np.ndarray]:
    # holding-time columns for states hi down to lo, in jump order
    states = np.arange(hi, lo - 1, -1)
    return states, 0.5 * states * (states - 1 + theta)


def _death_chain_counts(t: float, theta: float, n0: int, reps: int,
                        rng: np.random.Generator, paired_double: bool = False):
    """Simulate the chain from n0 (and, when ``paired_double``, also from
    2*n0 reusing the same holding times for states <= n0) and return state
    counts at time t.  State 1 is absorbing when theta = 0.

    Each run's clock is discounted by the mean entry time of the
    infinite-start chain into its start state, so the counts estimate the
    infinite-start law with O(1/n0^3) bias instead of O(1/n0); the plain
    chain from n0 over a time s is the call at t = s + mean_entry_time(n0).
    Chunks draw from independently spawned substreams and run as parallel
    jobs; the result for a fixed generator is identical however the chunks
    are scheduled.
    """
    if n0 < 2:
        raise ValueError("n0 must be >= 2")
    if reps < 1:
        raise ValueError("reps must be >= 1")
    lowest = 2 if theta == 0 else 1
    _, rates_low = _hold_rates(theta, n0, lowest)
    t_low = t - mean_entry_time(n0, theta)
    if t_low <= 0:
        raise ValueError(
            f"t={t:g} is within the mean entry time of the start n0={n0}; "
            "the finite-start oracle needs a larger n0 or a larger t"
        )
    if paired_double:
        _, rates_high = _hold_rates(theta, 2 * n0, n0 + 1)
        t_hi = t - mean_entry_time(2 * n0, theta)
    start_hi = 2 * n0 if paired_double else n0
    chunk = max(1, _MC_CHUNK_TARGET // start_hi)
    nchunks = -(-reps // chunk)
    streams = rng.spawn(2 * nchunks if paired_double else nchunks)

    def run_chunk(i):
        # a Generator fills row-major, so drawing a chunk's rows one block at
        # a time reproduces a single (rows, states) draw of the whole chunk
        c = min(chunk, reps - i * chunk)
        counts = np.zeros(n0 + 1, dtype=np.int64)
        counts_hi = np.zeros(2 * n0 + 1, dtype=np.int64) if paired_double else None
        for lo in range(0, c, _MC_BLOCK_ROWS):
            rows = min(_MC_BLOCK_ROWS, c - lo)
            reach = streams[i].standard_exponential((rows, rates_low.size))
            reach /= rates_low
            np.cumsum(reach, axis=1, out=reach)
            counts += np.bincount(n0 - (reach <= t_low).sum(axis=1), minlength=n0 + 1)
            if paired_double:
                reach_hi = streams[nchunks + i].standard_exponential((rows, rates_high.size))
                reach_hi /= rates_high
                np.cumsum(reach_hi, axis=1, out=reach_hi)
                reach += reach_hi[:, -1:]
                jumps = (reach_hi <= t_hi).sum(axis=1) + (reach <= t_hi).sum(axis=1)
                counts_hi += np.bincount(2 * n0 - jumps, minlength=2 * n0 + 1)
        return counts, counts_hi

    counts = np.zeros(n0 + 1, dtype=np.int64)
    counts_hi = np.zeros(2 * n0 + 1, dtype=np.int64) if paired_double else None
    for chunk_counts, chunk_counts_hi in parallel.map_jobs(run_chunk, range(nchunks)):
        counts += chunk_counts
        if paired_double:
            counts_hi += chunk_counts_hi
    return (counts, counts_hi) if paired_double else counts


def _empirical(t: float, theta: float, n0: int, reps: int, counts: np.ndarray) -> EmpiricalPmf:
    probs = counts / reps
    stderr = np.sqrt(probs * (1 - probs) / reps)
    return EmpiricalPmf(t=t, theta=theta, n0=n0, reps=reps, probs=probs, stderr=stderr)


def mc_death_pmf(t: float, params: DeathParams, n0: int, reps: int,
                 rng: np.random.Generator) -> EmpiricalPmf:
    """Monte Carlo oracle for the death-count pmf: simulate the chain from
    the finite start n0, reps times, with the clock discounted by the mean
    time the infinite-start chain spends above n0."""
    theta = float(params.theta)
    return _empirical(t, theta, n0, reps, _death_chain_counts(t, theta, n0, reps, rng))


@dataclass(frozen=True)
class SensitivityReport:
    """Effect of doubling the finite start n0 of the Monte Carlo oracle.

    The doubled run reuses the base run's holding times for states <= n0
    (common random numbers), so the shift isolates the finite-start bias;
    the joint standard errors are reported as if the runs were independent,
    which makes shift-vs-SE comparisons conservative."""

    base: EmpiricalPmf
    doubled: EmpiricalPmf
    max_abs_shift: float
    max_shift_in_se: float


def mc_death_pmf_sensitivity(t: float, params: DeathParams, n0: int, reps: int,
                             rng: np.random.Generator) -> SensitivityReport:
    """Run the Monte Carlo oracle at n0 and 2*n0 and report the largest
    pmf shift, in absolute terms and in units of the joint standard error."""
    theta = float(params.theta)
    counts, counts_hi = _death_chain_counts(t, theta, n0, reps, rng, paired_double=True)
    base = _empirical(t, theta, n0, reps, counts)
    doubled = _empirical(t, theta, 2 * n0, reps, counts_hi)
    k = base.probs.size
    shift = np.abs(doubled.probs[:k] - base.probs)
    joint = np.sqrt(base.stderr ** 2 + doubled.stderr[:k] ** 2)
    seen = shift > 0
    max_in_se = float(np.max(shift[seen] / joint[seen])) if seen.any() else 0.0
    return SensitivityReport(
        base=base,
        doubled=doubled,
        max_abs_shift=float(shift.max()),
        max_shift_in_se=max_in_se,
    )
