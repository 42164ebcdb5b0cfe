"""Verification suites: every identity and statistical check the package
makes, run over default or user-supplied grids, reported row by row.

Exact checks hold at zero tolerance; numerical residual checks carry their
absolute tolerance; statistical checks are reported as z-scores against a
4-standard-error budget or as p-values against a pre-registered level.
A row stores only its kind, value and limit; its verdict, text columns and
headroom come from the kind's one rule in ``_KINDS``.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import combinatorics as comb
from . import death_process as dp
from . import markov_processes as mk
from . import polya_urn as urn
from . import random_measures as rm
from . import stats
from ._lazy import np

KS_LEVEL = 1e-3
SE_BUDGET = 4.0
# The death rows' residual limits are 10 and 100 times tail_tol, so a looser
# tail_tol would let them pass a d_1 that is 10 % off; they sum floats and
# compare with correctly rounded floats, whose rounding near 1 is 1.1e-16,
# so a tighter tail_tol would fail them on a correct pmf
DEATH_TAIL_TOL_MAX = 1e-6
DEATH_TAIL_TOL_MIN = 1e-16


@dataclass(frozen=True)
class _Kind:
    passes: object     # (value, limit) -> verdict
    observed: object   # value -> text
    tolerance: object  # limit -> text
    headroom: object   # (value, limit) -> 1 or more fails; None: the kind has no margin


_KINDS = {
    "exact": _Kind(lambda v, lim: v, lambda v: "equal" if v else "UNEQUAL", lambda lim: "exact", None),
    "bounds": _Kind(lambda v, lim: v, lambda v: "inside" if v else "OUTSIDE", lambda lim: "strict", None),
    "verdict": _Kind(lambda v, lim: v == lim, str, str, None),
    "residual": _Kind(lambda v, lim: v < lim, repr, repr, lambda v, lim: v / lim),
    "z": _Kind(lambda v, lim: v < lim, "z={:.3f}".format, "{:g} SE".format, lambda v, lim: v / lim),
    # a p-value passes above its level, and p = 0 has infinite headroom
    "p": _Kind(lambda v, lim: v > lim, "p={:.5f}".format, "level {:g}".format,
               lambda v, lim: lim / v if v else math.inf),
}


@dataclass(frozen=True)
class VerifyRow:
    """One check on one instance: a value of some kind against its limit.
    The kind's rule in ``_KINDS`` derives the verdict, both text columns and
    the headroom, so the row stores none of them."""
    check: str
    instance: str
    kind: str
    value: object
    limit: object

    @property
    def passed(self):
        return _KINDS[self.kind].passes(self.value, self.limit)

    @property
    def observed(self) -> str:
        return _KINDS[self.kind].observed(self.value)

    @property
    def tolerance(self) -> str:
        return _KINDS[self.kind].tolerance(self.limit)

    @property
    def headroom(self):
        rule = _KINDS[self.kind].headroom
        return None if rule is None else rule(self.value, self.limit)


@dataclass(frozen=True)
class VerifyReport:
    suite: str
    rows: tuple

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.rows)

    @property
    def n_failed(self) -> int:
        return sum(not r.passed for r in self.rows)

    def table_rows(self):
        return [(r.check, r.instance, r.observed, r.tolerance, r.passed) for r in self.rows]


# ---------------------------------------------------------------------------

def verify_combinatorics(m_max: int = 15, k_max: int = 12, conv_max: int = 12) -> VerifyReport:
    rows = []
    phis = (Fraction(1, 3), Fraction(1), Fraction(5, 2), Fraction(10))
    for k in range(1, k_max + 1):
        for r in range(1, k + 1):
            for phi in phis:
                ok = comb.check_vanishing_alternating_sum(k, r, phi)
                rows.append(VerifyRow("vanishing-alternating-sum", f"k={k},r={r},phi={phi}",
                                      "exact", ok, None))
    for m in range(1, m_max + 1):
        for r in range(1, m + 1):
            ok = comb.check_shifted_rising_factorial_expansion(m, r)
            rows.append(VerifyRow("shifted-rising-expansion", f"m={m},r={r}", "exact", ok, None))
    for c in range(1, conv_max + 1):
        for b in range(1, c + 1):
            for a in range(1, b + 1):
                ok = comb.check_stirling_convolution(a, b, c)
                rows.append(VerifyRow("stirling-convolution", f"a={a},b={b},c={c}",
                                      "exact", ok, None))
    return VerifyReport("combinatorics", tuple(rows))


def _row(form, *args, **kwargs):
    # a form that fails its own sum-to-1 check gives no row
    try:
        return form(*args, **kwargs)
    except RuntimeError:
        return None


def _same(row_a, row_b) -> bool:
    """Whether two (numerators, den) rows hold the same rationals:
    a/d == b/e exactly when a*e == b*d.  A missing row agrees with none."""
    if row_a is None or row_b is None:
        return False
    (a, d), (b, e) = row_a, row_b
    if d == e:
        return a == b
    return len(a) == len(b) and all(x * e == y * d for x, y in zip(a, b))


def verify_urn(form_max: int = 20, bruteforce_max: int = 5, theta0_max: int = 15) -> VerifyReport:
    rows = []
    exact = functools.partial(_row, urn._entry_row)
    for theta in (Fraction(1, 3), Fraction(1), Fraction(7, 2)):
        for m in range(form_max + 1):
            for n in range(form_max + 1):
                ok = _same(exact(m, n, theta), urn._extended_row(m, n, theta))
                rows.append(VerifyRow("overlap-forms-agree", f"m={m},n={n},theta={theta}",
                                      "exact", ok, None))
    for theta in (Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(3), Fraction(7, 2)):
        for m in range(bruteforce_max + 1):
            for n in range(bruteforce_max + 1):
                ok = _same(exact(m, n, theta), _row(urn._bruteforce_row, m, n, theta))
                rows.append(VerifyRow("exact-vs-bruteforce", f"m={m},n={n},theta={theta}",
                                      "exact", ok, None))
    for m in range(1, theta0_max + 1):
        for n in range(1, theta0_max + 1):
            row = exact(m, n, Fraction(0))
            ok = _same(row, urn._factorial_row(m, n))
            zero_ok = row is not None and row[0][0] == 0
            rows.append(VerifyRow("theta0-forms-agree", f"m={m},n={n}", "exact", ok, None))
            rows.append(VerifyRow("theta0-no-overlap-mass", f"m={m},n={n}", "exact", zero_ok, None))
    for theta in (Fraction(1), Fraction(7, 2)):
        for m in range(6):
            for n in range(6):
                ok = _same(exact(m, n, theta, via_expansion=True), exact(m, n, theta))
                rows.append(VerifyRow("expansion-route-identical",
                                      f"m={m},n={n},theta={theta}", "exact", ok, None))
    return VerifyReport("urn", tuple(rows))


def _death_theta_rows(theta, svals, n_max, r_max, ck_pairs, ineq_ts, prec, outer, inner) -> list:
    params = dp.DeathParams(theta)
    rows = []
    tol10 = 10 * prec.tail_tol
    tol100 = 100 * prec.tail_tol
    for s in svals:
        pmf = outer(theta, s)
        gap = abs(sum(float(p) for p in pmf.probs) + pmf.residual - 1.0)
        rows.append(VerifyRow("pmf-normalization", f"theta={theta},t={s}",
                              "residual", gap, tol10))
        pmf_s = inner(theta, s)
        whole_rows = []
        for n in range(1, n_max + 1):
            at = f"n={n},theta={theta},s={s}"
            ra, rb, worst = dp.check_transition_row(n, pmf_s)
            rows.append(VerifyRow("survival-identity", at, "residual", ra, tol10))
            rows.append(VerifyRow("single-death-identity", at, "residual", rb, tol10))
            whole_rows.append(VerifyRow("transition-vs-closed-form", at, "residual", worst, tol10))
        rows += whole_rows
    for (t, s) in ck_pairs:
        pmfs = [inner(theta, u) for u in (t, s, Fraction(t) + Fraction(s))]
        for r in range(r_max + 1):
            res = dp.check_chapman_kolmogorov(r, *pmfs)
            rows.append(VerifyRow("chapman-kolmogorov", f"r={r},t={t},s={s},theta={theta}",
                                  "residual", res, tol100))
    for t in ineq_ts:
        ok = dp.check_nonabsorption_bounds(t, params, prec)
        rows.append(VerifyRow("nonabsorption-bounds", f"theta={theta},t={t}", "bounds", ok, None))
    return rows


def verify_death(thetas=(0.5, 1.0, 4.0), svals=(0.2, 1.0, 5.0), n_max: int = 8,
                 r_max: int = 3, ck_pairs=((0.5, 0.5), (1.0, 2.0), (2.0, 1.0)),
                 ineq_ts=(0.1, 0.5, 1.0, 3.0, 10.0),
                 prec: dp.PrecisionConfig = dp.PrecisionConfig(),
                 mc_reps: int = 0, mc_n0: int = 500, mc_seed: int = 20240817) -> VerifyReport:
    if prec.tail_tol > DEATH_TAIL_TOL_MAX:
        raise ValueError(f"verify death needs tail_tol <= {DEATH_TAIL_TOL_MAX:g}: "
                         "its residual limits scale with it")
    if prec.tail_tol < DEATH_TAIL_TOL_MIN:
        raise ValueError(f"verify death needs tail_tol >= {DEATH_TAIL_TOL_MIN:g}: "
                         "its rows are float sums, which round at 1.1e-16 near 1")
    if mc_reps != 0:  # 0 skips the Monte Carlo oracle
        stats.check_reps(mc_reps)
    # every pmf this call reads, built once per (theta, time) and dropped
    # with the call: the outer pmfs at prec, the inner ones the transition
    # sums read
    outer = functools.cache(lambda theta, t: dp.death_pmf(t, dp.DeathParams(theta), prec))
    inner = functools.cache(lambda theta, t: dp._inner_pmf(t, dp.DeathParams(theta), prec))
    rows = [row for theta in thetas
            for row in _death_theta_rows(theta, svals, n_max, r_max, ck_pairs, ineq_ts, prec,
                                         outer, inner)]
    if mc_reps:
        params = dp.DeathParams(1.0)
        rng = np.random.default_rng(mc_seed)
        rep = dp.mc_death_pmf_sensitivity(1.0, params, mc_n0, mc_reps, rng)
        d = outer(1.0, 1.0).probs_float
        k = min(d.size, rep.base.probs.size)
        se = stats.binomial_se(d[:k], mc_reps)
        zmax = float(np.max(stats.z(rep.base.probs[:k] - d[:k], se)))
        rows.append(VerifyRow("pmf-vs-monte-carlo", f"theta=1,t=1,n0={mc_n0},reps={mc_reps}",
                              "z", zmax, SE_BUDGET))
        rows.append(VerifyRow("mc-start-sensitivity", f"n0={mc_n0}->{2*mc_n0}",
                              "z", rep.max_shift_in_se, 3.0))
    return VerifyReport("death", tuple(rows))


def verify_measures(reps: int = 20000, seed: int = 7, thetas=(0.5, 1.0, 4.0),
                    sigma: float = 0.5) -> VerifyReport:
    base = rm.UniformBase()
    A = rm.Interval(0.0, 0.5)

    rows = []
    for theta in thetas:
        # each theta draws from a stream of its own
        rng = np.random.default_rng(seed)
        # the prior moment rows and the mixture's direct arm read one batch
        direct = rm._check_masses(theta, base, A, reps, rm.DEFAULT_TRUNCATION, rng)
        prior = rm._moment_check(direct, 0, base.measure(A), theta)
        mx = rm.check_mixture_identity(theta, base, A, direct, rm.DEFAULT_TRUNCATION, rng)
        rows += [VerifyRow(check, instance, "z", est.z, SE_BUDGET) for check, instance, est in (
            ("prior-mean-identity", f"theta={theta},A=[0,0.5)", prior.mean),
            ("mixture-first-moment", f"theta={theta}", mx.first),
            ("mixture-second-moment", f"theta={theta}", mx.second),
            ("prior-variance", f"theta={theta}", prior.var))]
    pd_params = rm.StickBreakingParams.poisson_dirichlet(sigma, 0.0 if sigma else 1.0)
    for check, instance, params in (
            ("summability-dp", "theta=1,J=1e4", rm.StickBreakingParams.dp(1.0)),
            ("summability-pd", f"sigma={sigma},J=1e4", pd_params)):
        verdict = rm.check_summability(params, 10**4).verdict
        rows.append(VerifyRow(check, instance, "verdict", verdict, "divergent"))
    # read off the sticks themselves: a measure built from sticks that do
    # not telescope is rejected before this row could see the gap
    rho, residual = rm._stick_weights(pd_params, rm.StickTruncation.fixed(2000),
                                      np.random.default_rng(seed + 2))
    gap = abs(float(rho.sum()) + float(residual) - 1.0)
    rows.append(VerifyRow("pd-stick-telescoping", f"sigma={sigma},K=2000", "residual", gap, 1e-12))
    return VerifyReport("measures", tuple(rows))


def verify_processes(reps: int = 10000, seed: int = 11, thetas=(0.5, 1.0, 4.0),
                     chain_ns=(1, 5), fv_ts=(0.2, 1.0, 5.0),
                     checkpoints=(1, 5)) -> VerifyReport:
    stats.check_reps(reps)
    rows = []
    base = rm.UniformBase()
    A = rm.Interval(0.0, 0.5)
    dbase = rm.DiscreteBase(weights=(0.1, 0.2, 0.3, 0.4))
    n_steps = min(10**6, 100 * reps)
    rng = np.random.default_rng(seed + 6)
    for theta in thetas:
        pv = mk.dar1_detailed_balance(mk.Dar1Config(theta, dbase), n_steps, rng)
        rows.append(VerifyRow("dar1-detailed-balance", f"theta={theta},steps={n_steps}",
                              "p", pv, KS_LEVEL))
    f = mk.dar1_retention_frequency(mk.Dar1Config(1.0, base), n_steps,
                                    np.random.default_rng(seed))
    z = stats.Estimate(f, stats.binomial_se(0.5, n_steps), 0.5).z
    rows.append(VerifyRow("dar1-retention", f"theta=1,steps={n_steps}", "z", z, SE_BUDGET))
    pv = mk.dar1_marginal_chisquare(mk.Dar1Config(1.0, dbase), max(reps, 1000),
                                    np.random.default_rng(seed + 1))
    rows.append(VerifyRow("dar1-marginal-chisquare", f"theta=1,samples={max(reps,1000)}",
                          "p", pv, KS_LEVEL))
    # (row prefix, instance, config, seed offset)
    chains = ([("measure-chain", f"theta={theta},n={n}", mk.MeasureChainConfig(theta, base, n), 2)
               for theta in thetas for n in chain_ns]
              + [("fv", f"theta={theta},t={t}", mk.FvConfig(theta, base, t), 3)
                 for theta in thetas for t in fv_ts])
    for prefix, instance, cfg, offset in chains:
        checks = mk.stationarity_checks(cfg, A, reps, checkpoints,
                                        np.random.default_rng(seed + offset))
        for c in checks:
            at = f"{instance},steps={c.after_steps}"
            rows += [VerifyRow(f"{prefix}-{name}", at, "z", est.z, SE_BUDGET)
                     for name, est in (("mean", c.mean), ("variance", c.var),
                                       ("lag-slope", c.slope), ("eigen2-slope", c.eigen2_slope))]
    rep = mk.fv_chapman_kolmogorov_process_test(mk.FvConfig(1.0, base, 0.5), 0.5, A,
                                                reps, np.random.default_rng(seed + 4))
    rows.append(VerifyRow("fv-composition-ks", f"theta=1,t=s=0.5,reps={reps}",
                          "p", rep.ks_pvalue, KS_LEVEL))
    rev = mk.measure_chain_reversibility_test(mk.MeasureChainConfig(1.0, base, 1), A,
                                              reps, np.random.default_rng(seed + 5))
    rows.append(VerifyRow("reversibility-marginal-ks", f"theta=1,reps={reps}",
                          "p", rev.marginal_ks_pvalue, KS_LEVEL))
    rows.append(VerifyRow("reversibility-cross-moment", f"theta=1,reps={reps}",
                          "z", rev.cross_moment.z, SE_BUDGET))
    return VerifyReport("processes", tuple(rows))

