"""The pure death process with rate 0.5*n*(n-1+theta), started at infinity.

The marginal pmf d_n(t) is an alternating series with severe cancellation
for small t, so series evaluation runs in wide decimal floats (the standard
library's ``decimal``, whose arithmetic is compiled C) at the working
precision plus ``GUARD_DIGITS``.  Each series coefficient starts from its
exact rational value and is carried forward by one multiply and one divide
per term.  Truncation is certified: we stop only once a computable bound
shows every remaining term is strictly smaller than its predecessor, at
which point the alternating-series bound applies.

The partial-fraction oracle ``transition_closed_form`` computes in binary
fixed point on Python integers, so the series and the oracle it is checked
against share no arithmetic.
"""
from __future__ import annotations

import decimal
import math
from dataclasses import dataclass, replace
from decimal import Decimal
from functools import cached_property, lru_cache
from fractions import Fraction
from typing import Optional, Union

from . import parallel, polya_urn, random_measures, stats
from ._lazy import np
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
        if not 0 <= self.theta < math.inf:
            raise ValueError(f"theta must be finite and >= 0, got {self.theta}")

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
        # at 1 or more every series stops at once, and an infinite target
        # never tightens in the non-absorption check's loop
        if not 0 < self.tail_tol < 1:
            raise ValueError("tail_tol must be > 0 and < 1")
        if self.max_terms < 1:
            raise ValueError("max_terms must be >= 1")


@dataclass(frozen=True)
class DeathPmf:
    """Truncated pmf of the death count at time t, kept as the caller gave
    it, so a Fraction time reaches the closed form exactly.

    ``probs[n]`` is d_n(t) as a ``decimal.Decimal`` of working_digits +
    ``GUARD_DIGITS`` significant digits; ``term_bounds[n]`` bounds the
    absolute series-truncation error of that entry.  ``residual`` is the
    mass attributed to n > n_max.  ``clamped`` lists indices whose tiny
    negative computed values were clamped to zero.
    """

    t: Union[float, Fraction]
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


def _death_rate_fraction(n: int, theta: Fraction) -> Fraction:
    """Rate n(n-1+theta)/2 of the jump n -> n-1, exactly."""
    return Fraction(n, 2) * (n - 1 + theta)


# Digits the series paths carry beyond working_digits.  They keep the
# rounding of the coefficient recurrence inside the truncation budget: see
# _alternating_series.
GUARD_DIGITS = 4


def _series_context(working_digits: int):
    """The decimal context every series path computes under: working_digits
    + GUARD_DIGITS significant digits, the widest exponent range (so no
    exp(-lambda t) underflows) and the default half-even rounding."""
    return decimal.localcontext(decimal.Context(
        prec=working_digits + GUARD_DIGITS, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN))


def _dec(x) -> Decimal:
    # exact rational -> Decimal, rounded once in the current context
    fr = Fraction(x)
    return Decimal(fr.numerator) / fr.denominator


# Digits the decays exp(-lambda_m t) of the gamma recurrence carry beyond
# the series context: see _gamma_factor.
DECAY_EXTRA_DIGITS = 10


def _gamma_factor(m: int, theta: Fraction, t: Fraction, gamma: dict) -> Decimal:
    """gamma_m = (2m - 1 + theta) exp(-lambda_m t) for m >= 1, rounded once
    into the caller's decimal context.  ``gamma`` memoizes the factors of
    one (theta, t) and context by m, filled upward from m = 1, and holds at
    key 0 the recurrence state at the highest m filled: (exp(-lambda_m t),
    exp(-(lambda_{m+1} - lambda_m) t), exp(-c t)), carried
    DECAY_EXTRA_DIGITS past the context.

    The rate is quadratic in m, so its increments have the constant
    difference c = lambda_2 - 2 lambda_1 + lambda_0 (1 for the death rate),
    and each decay exp(-lambda_m t) takes two multiplies from the one
    before, starting from exp(-lambda_0 t) = 1.  The two seeds are
    Decimal.exp of values read off ``_death_rate_fraction``.  With u' the
    unit roundoff of the carried digits, a seed of argument x is off by at
    most (1 + |x|)u' relative, so the m-th decay is off by at most
    (3 + lambda_1 t + ct) m**2 u' to first order.  While that is below
    10**9 u' = u/10, u the context's unit roundoff, gamma_m is within 1.2u;
    at m <= 400 (the default max_terms) with lambda_1 t and t at most 100
    it is below 10**8 u'."""
    if m not in gamma:
        p, q = theta.numerator, theta.denominator
        ctx = decimal.getcontext()
        with decimal.localcontext(ctx) as wide:
            wide.prec += DECAY_EXTRA_DIGITS
            if gamma:
                k = len(gamma) - 1
                decay, step, ratio = gamma[0]
            else:
                k, decay = 0, Decimal(1)
                lam0, lam1, lam2 = (_death_rate_fraction(j, theta) for j in (0, 1, 2))
                step, ratio = (_dec(-x * t).exp() for x in (lam1 - lam0, lam2 - 2 * lam1 + lam0))
            while k < m:
                k += 1
                decay *= step
                step *= ratio
                gamma[k] = ctx.divide(decay * ((2 * k - 1) * q + p), q)
            gamma[0] = (decay, step, ratio)
    return gamma[m]


def _alternating_series(n: int, theta: Fraction, t: Fraction, gamma: dict,
                        prec: PrecisionConfig):
    """Sum the alternating series for d_n(t) (n >= 1) or for the n = 0
    complement sum, returning (value, error_bound) as (Decimal, float),
    under the caller's ``_series_context``.  ``gamma`` memoizes the factors
    gamma_m of this (theta, t) by m, for ``_gamma_factor``.

    The coefficient is its exact integer ratio converted once, then
    carried in Decimal: times -(p+(n+m-1)q) / (q(m+1-n)) per term, so it
    also carries the alternating sign.  With
    u = 10**(1-P)/2 the unit roundoff at P = working_digits + GUARD_DIGITS
    digits, the k-th coefficient is off by at most (2k+1)u relative, its
    gamma factor by 1.2u (see ``_gamma_factor``), so the k-th term by
    (2k+6)u with room to spare, and each of the nterms additions by u times a
    partial sum of at most 2*peak (the terms are unimodal), so the sum is
    off by at most (nterms**2 + 8*nterms) * u * peak.  That lies inside
    the round_slack budget nterms * 10**(2-working_digits) * peak while
    nterms + 8 <= 2e5, far above any max_terms a pmf can finish.

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
    coef = Decimal(rising_product(p + n * q, q, m - 1)) / (
        q ** (m - 1) * math.factorial(n) * math.factorial(m - n))

    total = Decimal(0)
    # a float peak overflows past 1.8e308, and a float 10**(2 - working_digits)
    # underflows past 325 digits, so the term size, peak and slack are Decimal
    peak = Decimal(0)
    nterms = 0
    best_cert = Decimal("Infinity")
    while nterms < prec.max_terms:
        term = coef * _gamma_factor(m, theta, t, gamma)
        a = abs(term)
        # sup over m' >= m of the rational part of the term ratio
        f = max(1.0, (th + n + m - 1) / (m + 1 - n))
        ratio_bound = f * (2 * m + 1 + th) / (2 * m - 1 + th) * math.exp(-(m + th / 2) * tf)
        if ratio_bound < 0.999:
            if a < prec.tail_tol:
                round_slack = (peak * nterms).scaleb(2 - prec.working_digits)
                if round_slack > prec.tail_tol:
                    raise PrecisionExhaustedError(
                        f"cancellation exceeds working precision for n={n}, t={tf}",
                        smallest_achievable=float(round_slack),
                    )
                return total, float(a) + float(round_slack)
            best_cert = min(best_cert, a)
        total += term
        peak = max(peak, a)
        # times -(theta+n+m-1)/(m+1-n): the coefficient carries the sign
        coef = coef * -(p + (n + m - 1) * q) / (q * (m + 1 - n))
        m += 1
        nterms += 1
    raise PrecisionExhaustedError(
        f"series for n={n} at t={tf} did not reach tolerance {prec.tail_tol:g} "
        f"within {prec.max_terms} terms; increase max_terms or tail_tol",
        smallest_achievable=float(best_cert),
    )


def death_pmf(t, params: DeathParams, prec: PrecisionConfig = PrecisionConfig()) -> DeathPmf:
    """Compute {d_n(t)} for n = 0..n_max, with n_max < max_terms chosen so
    the accumulated mass reaches 1 - tail_tol; a pmf whose first max_terms
    entries fall short of that raises ``PrecisionExhaustedError``.

    Every call computes the pmf afresh.  A caller that reads one pmf many
    times holds it: an ``FvConfig`` holds its own, and ``verify_death`` one
    per time for the length of the call."""
    if not t > 0:
        raise ValueError("t must be > 0")
    tf = Fraction(t)
    theta = params.theta_fraction
    probs = []
    bounds = []
    clamped = []
    with _series_context(prec.working_digits):
        gamma = {}
        mass = Decimal(0)
        total_bound = 0.0
        for n in range(prec.max_terms):
            if n:
                p, b = _alternating_series(n, theta, tf, gamma, prec)
            elif params.is_coalescent:
                p, b = Decimal(0), 0.0
            else:  # d_0 is 1 minus the complement series
                alive, b = _alternating_series(0, theta, tf, gamma, prec)
                p = 1 - alive
            if p < 0:
                if float(-p) <= max(b, prec.tail_tol):
                    clamped.append(n)
                    p = Decimal(0)
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
        t=t,
        params=params,
        probs=tuple(probs),
        term_bounds=tuple(bounds),
        residual=residual,
        clamped=tuple(clamped),
        working_digits=prec.working_digits,
    )


def _tol_floor(digits: int) -> float:
    # the tightest tail_tol for that many digits, held positive past 333 digits
    return max(10.0 ** (10 - digits), math.ulp(0.0))


def _inner_prec(prec: PrecisionConfig, shrink: float) -> PrecisionConfig:
    # tighten the series tolerance for use inside weighted sums, raising
    # the working precision to match so cancellation headroom is preserved
    extra = min(80, max(0, 2 * math.ceil(-math.log10(shrink)) + 8))
    digits = prec.working_digits + extra
    return PrecisionConfig(
        working_digits=digits,
        tail_tol=max(prec.tail_tol * shrink, _tol_floor(digits)),
        max_terms=prec.max_terms,
    )


def _transition_entry(pmf: DeathPmf, n: int, r: int) -> Decimal:
    """P(count = r after s | count = n) = sum_{m>=r} P(r | n draws, m atoms) d_m(s)
    from the pmf {d_m(s)}, under the caller's decimal context: the m lineages alive
    at s are the atoms of an urn, and n draws from it hit exactly r of them
    with the overlap probability ``polya_urn.overlap_entry(r, n, m, theta)``.

    Every weight is a probability, so the sum is as accurate as the pmf."""
    theta = pmf.params.theta_fraction
    total = Decimal(0)
    for m in range(r, pmf.n_max + 1):
        num, den = polya_urn.overlap_entry(r, n, m, theta)
        total += Decimal(num) / den * pmf.probs[m]
    return total


def _inner_pmf(s, params: DeathParams, prec: PrecisionConfig) -> DeathPmf:
    """The pmf {d_m(s)} that the urn-weighted transition sums read, at a
    tail tolerance 1e-4 of the caller's.  The transition functions below
    take it from their caller, who builds it once per time."""
    return death_pmf(s, params, _inner_prec(prec, 1e-4))


def _check_urn_weighted(pmf: DeathPmf, n: int = 1) -> None:
    # the urn-weighted sums start from a count n >= 1 at theta > 0
    if n < 1:
        raise ValueError("n must be >= 1")
    if pmf.params.is_coalescent:
        raise ValueError("theta = 0 transitions go through transition_closed_form")


def transition_given_n(n: int, pmf: DeathPmf):
    """Transition vector P(count = r after s | count = n now) for r = 0..n,
    s = pmf.t, recovered from the inner pmf ``_inner_pmf(s, params, prec)``
    by the urn-weighted sum of ``_transition_entry``, summed at the pmf's
    digits.  Requires theta > 0."""
    _check_urn_weighted(pmf, n)
    with _series_context(pmf.working_digits):
        return [float(_transition_entry(pmf, n, r)) for r in range(n + 1)]


def transition_closed_form(n: int, r: int, s, params: DeathParams) -> float:
    """P(count = r after s | count = n) for the finite pure death chain with
    pairwise distinct rates, via the standard partial-fraction formula
    prod_{k>r} lambda_k sum_i exp(-lambda_i s) / prod_{j!=i} (lambda_j - lambda_i).
    This is the independent oracle for ``transition_given_n``.  It reads
    ``_closed_form_entry``, which is correctly rounded, so it takes no
    precision; the rates are coded there, apart from the series'
    ``_death_rate_fraction``."""
    if not 0 <= r <= n:
        raise ValueError("need 0 <= r <= n")
    if not s > 0:
        raise ValueError("s must be > 0")
    entry = _closed_form_entry(n, r, Fraction(s), params.theta_fraction)
    if entry is None:
        raise ValueError("coincident rates: closed form needs pairwise distinct rates")
    return entry


CLOSED_FORM_CACHE_SIZE = 1024  # the default verify death reads 420 entries
# Fixed-point bits a closed-form entry starts from; they double until the
# entry's error interval rounds to one float.
CLOSED_FORM_START_BITS = 128


@lru_cache(maxsize=4096)
def _exp_fixed(a: int, b: int, bits: int) -> int:
    """exp(-a/b) * 2**bits, for integers a >= 0 and b > 0, within 1.

    The argument is reduced to y = a/(b 2**k) < 2**-red, exp(-y) summed
    by its Taylor series and squared k times, all in fixed point at
    w = bits + g bits.  There, y is off by less than 1 unit and each
    truncated Taylor term by less than 2; the series stops at its first
    zero term, before the (w/red + 1)-th, so exp(-y) is off by less than
    2N + 2 units over its N terms.  Computed and exact values stay in
    [0, 2**w], so a squaring maps an error d to at most 2d + 1, and after
    k of them the error is below 2**k (2N + 3), which the guard g makes at
    most 2**(g-1); the final rounding to ``bits`` adds 1/2.  Memoized: the
    entries of one time, theta and precision share their decays."""
    red = max(4, math.isqrt(bits))
    k = (a // b).bit_length() + red
    guard = k + 1 + (bits + k + 64).bit_length()
    w = bits + guard
    y = (a << w) // (b << k)
    total = term = 1 << w
    j = 0
    while term:
        j += 1
        term = term * y // (j << w)
        total += -term if j % 2 else term
    for _ in range(k):
        total = total * total >> w
    return (total + (1 << (guard - 1))) >> guard


@lru_cache(maxsize=CLOSED_FORM_CACHE_SIZE)
def _closed_form_entry(n: int, r: int, s: Fraction, theta: Fraction) -> Optional[float]:
    """``transition_closed_form``, correctly rounded, or None where the
    rates lambda_r..lambda_n are not pairwise distinct (r = 0 at
    theta = 0).  Memoized in a bounded LRU cache.

    With theta = p/q each 2q lambda_k = k((k-1)q + p) is an integer, so the
    (2q)**(n-r) factors cancel and each weight is one integer over another;
    over their least common denominator lcd the weights w_i are integers.
    With E_i the decays exp(-lambda_i s) in B-bit fixed point, each within
    1 unit (``_exp_fixed``), T = sum_i w_i E_i is within W = sum_i |w_i|
    units of 2**B times the exact sum, so the entry lies in
    [(T - W), (T + W)] * prod(nodes[1:]) / (lcd 2**B).  Integer division
    rounds each end correctly, subnormals included; once both ends round
    to the same float, so does the entry.  Otherwise B doubles."""
    p, q = theta.numerator, theta.denominator
    nodes = [k * ((k - 1) * q + p) for k in range(r, n + 1)]  # 2q lambda_k
    if len(set(nodes)) != len(nodes):
        return None
    den = 2 * q * s.denominator
    dens = [math.prod(b - a for b in nodes if b != a) for a in nodes]
    lcd = math.lcm(*dens)
    weights = [lcd // d for d in dens]
    spread = sum(map(abs, weights))
    scale = math.prod(nodes[1:])
    bits = CLOSED_FORM_START_BITS
    while True:
        total = sum(w * _exp_fixed(rate * s.numerator, den, bits)
                    for w, rate in zip(weights, nodes))
        lo, hi = ((total + d * spread) * scale / (lcd << bits) for d in (-1, 1))
        if lo == hi:
            return hi
        bits *= 2


def _closed_form_residual(n: int, r: int, pmf: DeathPmf, scale=1) -> float:
    # |series - closed form| of P(count = r after s | count = n), both over
    # scale, with s, theta and the digits read off the inner pmf
    _check_urn_weighted(pmf, n)
    closed = transition_closed_form(n, r, pmf.t, pmf.params) / scale
    with _series_context(pmf.working_digits):
        return abs(float(_transition_entry(pmf, n, r) / _dec(scale)) - closed)


def check_survival_identity(n: int, pmf: DeathPmf) -> float:
    """Residual of: sum_m m_[n]/(theta+m)_(n) d_m(s) = exp(-lambda_n s),
    from the inner pmf ``_inner_pmf(s, params, prec)``.

    The left side is the stay-put transition probability recovered from the
    pmf series; the right side is the exponential holding-time law, the
    r = n case of ``transition_closed_form``.
    """
    return _closed_form_residual(n, n, pmf)


def check_single_death_identity(n: int, pmf: DeathPmf) -> float:
    """Residual of the one-death identity: the urn-weighted sum over the
    inner pmf ``_inner_pmf(s, params, prec)``
    H(s) = sum_m m_[n-1]/(theta+m)_(n) d_m(s), which is P(n-1 | n) over
    n(n-1+theta), against its closed form
    0.5*(exp(-lambda_{n-1} s) - exp(-lambda_n s))/(lambda_n - lambda_{n-1}),
    read off ``transition_closed_form`` the same way.

    Also sanity-checks the s -> 0+ behavior of the closed form: H vanishes
    linearly, so 0 < H(1e-3) <= 5e-4, and a RuntimeError is raised if not."""
    scale = n * (n - 1 + pmf.params.theta_fraction)
    residual = _closed_form_residual(n, n - 1, pmf, scale)
    h_small = transition_closed_form(n, n - 1, Fraction(1, 1000), pmf.params) / scale
    if not 0 < h_small <= 5e-4:
        raise RuntimeError(f"H(1e-3) = {h_small} outside (0, 5e-4]")
    return residual


def check_chapman_kolmogorov(r: int, pmf_t: DeathPmf, pmf_s: DeathPmf, pmf_ts: DeathPmf) -> float:
    """Residual of Chapman-Kolmogorov read literally:
    d_r(t+s) = sum_n d_n(t) P(count = r after s | count = n),
    from the inner pmfs ``_inner_pmf(u, params, prec)`` at u = t, s and
    t+s, with the transition probability from ``_transition_entry``, summed
    at the pmfs' digits.  The left side is read off the pmf at t+s; an r past
    its n_max reads 0, which that pmf's residual bounds."""
    if r < 0:
        raise ValueError("r must be >= 0")
    if (Fraction(pmf_ts.t) != Fraction(pmf_t.t) + Fraction(pmf_s.t)
            or not pmf_t.params == pmf_s.params == pmf_ts.params
            or not pmf_t.working_digits == pmf_s.working_digits == pmf_ts.working_digits):
        raise ValueError("pmf_ts must be the pmf at t + s, "
                         "all three at one theta and one working_digits")
    _check_urn_weighted(pmf_s)
    with _series_context(pmf_ts.working_digits):
        lhs = pmf_ts.probs[r] if r <= pmf_ts.n_max else 0
        rhs = sum((pmf_t.probs[n] * _transition_entry(pmf_s, n, r)
                   for n in range(r, pmf_t.n_max + 1)), Decimal(0))
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
    floor = _tol_floor(inner.working_digits)
    with _series_context(inner.working_digits):
        lo = _dec(-_death_rate_fraction(1, theta) * tf).exp()
        hi = (1 + _dec(theta)) * lo
        gamma = {}
        tol = inner.tail_tol
        while True:
            alive, bound = _alternating_series(0, theta, tf, gamma,
                                               replace(inner, tail_tol=tol))
            margin = Decimal(10 * max(bound, 5e-324))
            if lo + margin < alive < hi - margin:
                return True
            if alive < lo - margin or alive > hi + margin:
                return False
            # within the margin of an endpoint: unresolved at this depth
            if tol <= floor:
                smallest = max(bound, 5e-324)  # the margin's floor: a smaller bound rounds to 0
                where = (f"certifiable resolution at {inner.working_digits} digits" if smallest > 5e-324
                         else "float floor of the margin, which more digits cannot resolve")
                raise PrecisionExhaustedError(f"bound gap at t={float(t)} is below the {where}",
                                              smallest_achievable=smallest)
            tol = max(tol * 1e-12, floor)


def sample_death_count(pmf: DeathPmf, rng: np.random.Generator, size: Optional[int] = None):
    """Draw the death count from a truncated pmf, renormalized over its
    support: one row of random_measures._draw_atoms, which rejects a pmf
    whose unassigned tail mass exceeds 1% when it draws."""
    law = random_measures._finite_law(np.clip(pmf.probs_float, 0.0, None), residual=pmf.residual)
    counts, _ = random_measures._draw_atoms(law, np.array([1 if size is None else size]), rng)
    return int(counts[0]) if size is None else counts


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


# B_2, B_4, ..., B_12: the Bernoulli numbers of the entry time's tail
_BERNOULLI = (Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30),
              Fraction(5, 66), Fraction(-691, 2730))


def mean_entry_time(n0: int, theta: float) -> float:
    """Mean time the infinite-start chain spends above n0:
    sum_{k>n0} 1/lambda_k = sum_{k>n0} f(k), f(x) = 2/(x(x+a)), a = theta - 1,
    about 2/n0.  Requires n0 >= 1.

    The terms k = n0+1 .. N-1, N = max(n0+1, 40, ceil(8|a|)), are each
    rounded once into 40-digit decimal and summed there.  With u = 5e-40
    the unit roundoff, each of the M = N - n0 - 1 terms is off by at most
    u of itself and each addition by u of a partial sum below the result,
    so the head is off by at most 2Mu of the result: below 1e-33 of it
    while M < 1e6, which holds at any n0 for |theta - 1| < 1.2e5.
    The tail from N is its Euler-Maclaurin expansion with six Bernoulli
    terms, in exact rationals: the integral (2/a) log(1 + a/N) as 24 terms
    of its series in a/N (|a/N| <= 1/8, so the rest is below 8**-24 of
    it), f(N)/2, and -B_2j/(2j)! f^(2j-1)(N) for j = 1..6: f^(m)(x) is
    2 (-1)**m m! sum_{i=0..m} x**-(i+1) (x+a)**-(m+1-i), so the j-th term
    is B_2j/j times that sum at m = 2j - 1.
    Each f^(m) keeps one sign on [N, inf), so the remainder is at most
    2 zeta(12)/(2 pi)**12 |f^(11)(N)| <= 6e-10 * 2 * 12!/(7N/8)**13, below
    2e-19 of the result at N >= 40.  The decimal head joins the tail
    exactly, and the sum is rounded once.

    A finite-start simulation must discount its clock by this amount or it
    lags the infinite-start law by O(1/n0), which is several standard
    errors at a million replicates."""
    a = Fraction(theta) - 1
    N = max(n0 + 1, 40, math.ceil(8 * abs(a)))
    p, q = a.numerator, a.denominator
    with decimal.localcontext(decimal.Context(prec=40)):
        # 2/(k(k+a)) = 2q/(k(kq+p)), one rounding each
        head = sum((Decimal(2 * q) / (k * (k * q + p)) for k in range(n0 + 1, N)), Decimal(0))
    total = Fraction(head)
    ratio = -a / N
    total += sum(ratio ** i / (i + 1) for i in range(24)) * 2 / N
    total += 1 / (N * (N + a))
    for j, b in enumerate(_BERNOULLI, start=1):
        total += b / j * sum(Fraction(1, N ** (i + 1)) / (N + a) ** (2 * j - i)
                             for i in range(2 * j))
    return float(total)


def _hold_rates(theta: float, hi: int, lo: int) -> tuple[np.ndarray, np.ndarray]:
    # holding-time columns for states hi down to lo, in jump order
    states = np.arange(hi, lo - 1, -1)
    return states, 0.5 * states * (states - 1 + theta)


# How the oracle counts jumps without a full running sum.  A row's exact
# count is the number of its prefixes P_j <= t, P_j from a sequential float
# cumsum of the holding times; the doubled start compares fl(P_j + H) with
# t_hi instead, H being the high segment's cumsum total, and adds the count
# of high prefixes <= t_hi.  The kernel forms stand-ins:
#   A    a row sum over all but the last _MC_TAIL columns (the head),
#   Q_j  fl(A + cumsum_j), the cumsum taken over the last columns only,
#   B    a row sum of the high segment, and fl(Q_j + B) and fl(A + B).
# Each exact prefix and its stand-in are float sums of the same N
# nonnegative terms in two orders, so each lies within gamma*S of their true
# sum S, gamma = N*u/(1 - N*u), u = 2**-53 (Higham, Accuracy and Stability of
# Numerical Algorithms, 2nd ed. 2002, sec. 4.2).  They differ by at most
# 2*gamma*S, and S <= a/(1 - gamma) for the stand-in a, so
#   a <= lo  gives  exact <= lo * (1 + gamma)/(1 - gamma) <= lo * (1 + 2.1*gamma),
#   a > hi   gives  exact >= a * (1 - 3*gamma)/(1 - gamma) > hi * (1 - 2.1*gamma),
# while gamma <= 0.01, which holds for N below 9e13.  _decision_band sets
# lo = fl(t - m) and hi = fl(t + m) with m = fl(t * 4*gamma) >= 3.9*gamma*t
# after the rounding of gamma and of the product (m is floored at the
# smallest normal float, below which the product loses relative accuracy).
# With u <= gamma,
#   lo * (1 + 2.1*gamma) <= t * (1 - 3.9*gamma)(1 + u)(1 + 2.1*gamma) < t,
#   hi * (1 - 2.1*gamma) >= t * (1 + 3.9*gamma)(1 - u)(1 - 2.1*gamma) > t,
# so a stand-in outside (lo, hi] compares with t as its exact prefix does.
# A float cumsum of nonnegative terms is monotone, so one head total <= lo
# settles every head prefix, and for the doubled start every high prefix
# too, each being at most H <= fl(P_head + H).  A row whose head total
# exceeds lo (its crossing lies in the head) or with a stand-in inside
# (lo, hi] is recounted from the exact expressions.  With at most _MC_TAIL
# columns (n0 = 3, say) the head is empty, A = 0 and the tail is the row.
_MC_TAIL = 64


def _decision_band(t: float, terms: int) -> tuple[float, float]:
    """(lo, hi) around t: a sum of ``terms`` nonnegative floats that lies
    outside (lo, hi] compares with t as every other order of that sum does."""
    u = np.finfo(float).eps / 2
    gamma = terms * u / (1 - terms * u)
    m = max(t * (4 * gamma), np.finfo(float).tiny)
    return t - m, t + m


def _banded_jumps(head_total, tail, head: int, band: tuple[float, float]):
    """Jumps per row read off the stand-in sums, and the rows that must be
    recounted exactly: head total above lo, or a tail sum inside (lo, hi]."""
    lo, hi = band
    jumps = head + (tail <= lo).sum(axis=1)
    return jumps, (head_total > lo) | (jumps != head + (tail <= hi).sum(axis=1))


def _death_chain_counts(t: float, theta: float, n0: int, reps: int,
                        rng: np.random.Generator):
    """Simulate the chain from n0 and from 2*n0, the doubled start reusing
    the same holding times for states <= n0, and return the state counts of
    both runs at time t.  State 1 is absorbing when theta = 0.

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
    _, rates_high = _hold_rates(theta, 2 * n0, n0 + 1)
    t_low = t - mean_entry_time(n0, theta)
    t_hi = t - mean_entry_time(2 * n0, theta)
    if t_low <= 0:
        raise ValueError(
            f"t={t:g} is within the mean entry time of the start n0={n0}; "
            "the finite-start oracle needs a larger n0 or a larger t"
        )
    chunk = max(1, _MC_CHUNK_TARGET // (2 * n0))
    nchunks = -(-reps // chunk)
    streams = rng.spawn(2 * nchunks)
    head = max(rates_low.size - _MC_TAIL, 0)
    terms = rates_low.size + n0  # the most in any prefix
    low_band = _decision_band(t_low, terms)
    hi_band = _decision_band(t_hi, terms)

    def run_chunk(i):
        # a Generator fills row-major, so drawing a chunk's rows one block at
        # a time reproduces a single (rows, states) draw of the whole chunk
        c = min(chunk, reps - i * chunk)
        counts = np.zeros(n0 + 1, dtype=np.int64)
        counts_hi = np.zeros(2 * n0 + 1, dtype=np.int64)
        for lo in range(0, c, _MC_BLOCK_ROWS):
            rows = min(_MC_BLOCK_ROWS, c - lo)
            hold = streams[i].standard_exponential((rows, rates_low.size))
            hold /= rates_low
            head_sum = hold[:, :head].sum(axis=1)
            tail = np.cumsum(hold[:, head:], axis=1)
            tail += head_sum[:, None]
            jumps, exact = _banded_jumps(head_sum, tail, head, low_band)
            hold_hi = streams[nchunks + i].standard_exponential((rows, rates_high.size))
            hold_hi /= rates_high
            high_sum = hold_hi.sum(axis=1)
            tail += high_sum[:, None]
            jumps_hi, exact_hi = _banded_jumps(head_sum + high_sum, tail, n0 + head, hi_band)
            exact |= exact_hi
            if exact.any():
                reach = np.cumsum(hold[exact], axis=1)
                jumps[exact] = (reach <= t_low).sum(axis=1)
                reach_hi = np.cumsum(hold_hi[exact], axis=1)
                reach += reach_hi[:, -1:]
                jumps_hi[exact] = (reach_hi <= t_hi).sum(axis=1) + (reach <= t_hi).sum(axis=1)
            counts += np.bincount(n0 - jumps, minlength=n0 + 1)
            counts_hi += np.bincount(2 * n0 - jumps_hi, minlength=2 * n0 + 1)
        return counts, counts_hi

    counts = np.zeros(n0 + 1, dtype=np.int64)
    counts_hi = np.zeros(2 * n0 + 1, dtype=np.int64)
    for chunk_counts, chunk_counts_hi in parallel.map_jobs(run_chunk, range(nchunks)):
        counts += chunk_counts
        counts_hi += chunk_counts_hi
    return counts, counts_hi


def _empirical(t: float, theta: float, n0: int, reps: int, counts: np.ndarray) -> EmpiricalPmf:
    probs = counts / reps
    stderr = stats.binomial_se(probs, reps)
    return EmpiricalPmf(t=t, theta=theta, n0=n0, reps=reps, probs=probs, stderr=stderr)


def mc_death_pmf(t: float, params: DeathParams, n0: int, reps: int,
                 rng: np.random.Generator) -> EmpiricalPmf:
    """Monte Carlo oracle for the death-count pmf: simulate the chain from
    the finite start n0, reps times, with the clock discounted by the mean
    time the infinite-start chain spends above n0.  This is the start-n0
    half of ``mc_death_pmf_sensitivity``'s paired run."""
    return mc_death_pmf_sensitivity(t, params, n0, reps, rng).base


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
    counts, counts_hi = _death_chain_counts(t, theta, n0, reps, rng)
    base = _empirical(t, theta, n0, reps, counts)
    doubled = _empirical(t, theta, 2 * n0, reps, counts_hi)
    k = base.probs.size
    shift = np.abs(doubled.probs[:k] - base.probs)
    joint = np.sqrt(base.stderr ** 2 + doubled.stderr[:k] ** 2)
    return SensitivityReport(
        base=base,
        doubled=doubled,
        max_abs_shift=float(shift.max()),
        max_shift_in_se=float(np.max(stats.z(shift, joint))),
    )
