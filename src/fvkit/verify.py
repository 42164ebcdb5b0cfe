"""Verification suites: every identity and statistical check the package
makes, run over default or user-supplied grids, reported row by row.

Exact checks carry tolerance 0; numerical residual checks carry their
absolute tolerance; statistical checks are reported as z-scores against a
4-standard-error budget or as p-values against a pre-registered level.
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
from ._lazy import np

KS_LEVEL = 1e-3
SE_BUDGET = 4.0


@dataclass(frozen=True)
class VerifyRow:
    check: str
    instance: str
    observed: str
    tolerance: str
    passed: bool


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


def _exact_row(check: str, instance: str, equal: bool) -> VerifyRow:
    return VerifyRow(check, instance, "equal" if equal else "UNEQUAL", "exact", equal)


def _residual_row(check: str, instance: str, residual: float, tol: float) -> VerifyRow:
    return VerifyRow(check, instance, repr(residual), repr(tol), residual < tol)


def _z_row(check: str, instance: str, z: float, budget: float = SE_BUDGET) -> VerifyRow:
    return VerifyRow(check, instance, f"z={z:.3f}", f"{budget:g} SE", z < budget)


def _pvalue_row(check: str, instance: str, p: float, level: float = KS_LEVEL) -> VerifyRow:
    return VerifyRow(check, instance, f"p={p:.5f}", f"level {level:g}", p > level)


# ---------------------------------------------------------------------------

def verify_combinatorics(m_max: int = 15, k_max: int = 12, conv_max: int = 12) -> VerifyReport:
    rows = []
    phis = (Fraction(1, 3), Fraction(1), Fraction(5, 2), Fraction(10))
    for k in range(1, k_max + 1):
        for r in range(1, k + 1):
            for phi in phis:
                ok = comb.check_vanishing_alternating_sum(k, r, phi)
                rows.append(_exact_row("vanishing-alternating-sum", f"k={k},r={r},phi={phi}", ok))
    for m in range(1, m_max + 1):
        for r in range(1, m + 1):
            ok = comb.check_shifted_rising_factorial_expansion(m, r)
            rows.append(_exact_row("shifted-rising-expansion", f"m={m},r={r}", ok))
    for c in range(1, conv_max + 1):
        for b in range(1, c + 1):
            for a in range(1, b + 1):
                ok = comb.check_stirling_convolution(a, b, c)
                rows.append(_exact_row("stirling-convolution", f"a={a},b={b},c={c}", ok))
    return VerifyReport("combinatorics", tuple(rows))


def _agree(form_a, form_b, *args) -> bool:
    # a closed form that fails its own sum-to-1 check disagrees
    try:
        return form_a(*args).probs == form_b(*args).probs
    except RuntimeError:
        return False


def verify_urn(form_max: int = 20, bruteforce_max: int = 5, theta0_max: int = 15) -> VerifyReport:
    rows = []
    for theta in (Fraction(1, 3), Fraction(1), Fraction(7, 2)):
        for m in range(form_max + 1):
            for n in range(form_max + 1):
                ok = _agree(urn.overlap_pmf_exact, urn.overlap_pmf_extended, m, n, theta)
                rows.append(_exact_row("overlap-forms-agree", f"m={m},n={n},theta={theta}", ok))
    for theta in (Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(3), Fraction(7, 2)):
        for m in range(bruteforce_max + 1):
            for n in range(bruteforce_max + 1):
                ok = _agree(urn.overlap_pmf_exact, urn.overlap_pmf_bruteforce, m, n, theta)
                rows.append(_exact_row("exact-vs-bruteforce", f"m={m},n={n},theta={theta}", ok))
    for m in range(1, theta0_max + 1):
        for n in range(1, theta0_max + 1):
            try:
                pmf = urn.overlap_pmf_theta0(m, n)
                ok = pmf.probs == urn.overlap_pmf_theta0_factorial(m, n).probs
                zero_ok = pmf.probs[0] == 0
            except RuntimeError:  # no mass at r = 0 or not summing to 1
                ok = zero_ok = False
            rows.append(_exact_row("theta0-forms-agree", f"m={m},n={n}", ok))
            rows.append(_exact_row("theta0-no-overlap-mass", f"m={m},n={n}", zero_ok))
    expansion = functools.partial(urn.overlap_pmf_exact, via_expansion=True)
    for theta in (Fraction(1), Fraction(7, 2)):
        for m in range(6):
            for n in range(6):
                ok = _agree(expansion, urn.overlap_pmf_exact, m, n, theta)
                rows.append(_exact_row("expansion-route-identical",
                                       f"m={m},n={n},theta={theta}", ok))
    return VerifyReport("urn", tuple(rows))


def verify_death(thetas=(0.5, 1.0, 4.0), svals=(0.2, 1.0, 5.0), n_max: int = 8,
                 r_max: int = 3, ck_pairs=((0.5, 0.5), (1.0, 2.0), (2.0, 1.0)),
                 ineq_ts=(0.1, 0.5, 1.0, 3.0, 10.0),
                 prec: dp.PrecisionConfig = dp.PrecisionConfig(),
                 mc_reps: int = 0, mc_n0: int = 500, mc_seed: int = 20240817) -> VerifyReport:
    if mc_reps != 0:  # 0 skips the Monte Carlo oracle
        rm._check_reps(mc_reps)
    rows = []
    tol10 = 10 * prec.tail_tol
    tol100 = 100 * prec.tail_tol
    for theta in thetas:
        params = dp.DeathParams(theta)
        for s in svals:
            pmf = dp.death_pmf(s, params, prec)
            gap = abs(sum(float(p) for p in pmf.probs) + pmf.residual - 1.0)
            rows.append(_residual_row("pmf-normalization", f"theta={theta},t={s}", gap, tol10))
            for n in range(1, n_max + 1):
                ra = dp.check_survival_identity(n, s, params, prec)
                rows.append(_residual_row("survival-identity", f"n={n},theta={theta},s={s}", ra, tol10))
                rb = dp.check_single_death_identity(n, s, params, prec)
                rows.append(_residual_row("single-death-identity", f"n={n},theta={theta},s={s}", rb, tol10))
            for n in range(1, n_max + 1):
                series = dp.transition_given_n(n, s, params, prec)
                closed = [dp.transition_closed_form(n, r, s, params, prec) for r in range(n + 1)]
                worst = max(abs(a - b) for a, b in zip(series, closed))
                rows.append(_residual_row("transition-vs-closed-form",
                                          f"n={n},theta={theta},s={s}", worst, tol10))
        for (t, s) in ck_pairs:
            for r in range(r_max + 1):
                res = dp.check_chapman_kolmogorov(r, t, s, params, prec)
                rows.append(_residual_row("chapman-kolmogorov",
                                          f"r={r},t={t},s={s},theta={theta}", res, tol100))
        for t in ineq_ts:
            ok = dp.check_nonabsorption_bounds(t, params, prec)
            rows.append(VerifyRow("nonabsorption-bounds", f"theta={theta},t={t}",
                                  "inside" if ok else "OUTSIDE", "strict", ok))
    if mc_reps:
        params = dp.DeathParams(1.0)
        rng = np.random.default_rng(mc_seed)
        rep = dp.mc_death_pmf_sensitivity(1.0, params, mc_n0, mc_reps, rng)
        pmf = dp.death_pmf(1.0, params, prec)
        d = pmf.probs_float
        k = min(d.size, rep.base.probs.size)
        se = np.sqrt(d[:k] * (1 - d[:k]) / mc_reps)
        zmax = float(np.max(rm._z(rep.base.probs[:k] - d[:k], se)))
        rows.append(_z_row("pmf-vs-monte-carlo", f"theta=1,t=1,n0={mc_n0},reps={mc_reps}", zmax))
        rows.append(_z_row("mc-start-sensitivity", f"n0={mc_n0}->{2*mc_n0}",
                           rep.max_shift_in_se, budget=3.0))
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
        rows += [_z_row("prior-mean-identity", f"theta={theta},A=[0,0.5)", prior.mean.z),
                 _z_row("mixture-first-moment", f"theta={theta}", mx.first.z),
                 _z_row("mixture-second-moment", f"theta={theta}", mx.second.z),
                 _z_row("prior-variance", f"theta={theta}", prior.var.z)]
    pd_params = rm.StickBreakingParams.poisson_dirichlet(sigma, 0.0 if sigma else 1.0)
    for check, instance, params in (
            ("summability-dp", "theta=1,J=1e4", rm.StickBreakingParams.dp(1.0)),
            ("summability-pd", f"sigma={sigma},J=1e4", pd_params)):
        verdict = rm.check_summability(params, 10**4).verdict
        rows.append(VerifyRow(check, instance, str(verdict), "divergent", verdict == "divergent"))
    mu = rm.stick_break(pd_params, base, rm.StickTruncation.fixed(2000),
                        np.random.default_rng(seed + 2))
    gap = abs(float(mu.weights.sum()) + mu.residual - 1.0)
    rows.append(_residual_row("pd-stick-telescoping", f"sigma={sigma},K=2000", gap, 1e-12))
    return VerifyReport("measures", tuple(rows))


def verify_processes(reps: int = 10000, seed: int = 11, thetas=(0.5, 1.0, 4.0),
                     chain_ns=(1, 5), fv_ts=(0.2, 1.0, 5.0),
                     checkpoints=(1, 5)) -> VerifyReport:
    rm._check_reps(reps)
    rows = []
    base = rm.UniformBase()
    A = rm.Interval(0.0, 0.5)
    dbase = rm.DiscreteBase(weights=(0.1, 0.2, 0.3, 0.4))
    n_steps = min(10**6, 100 * reps)
    rng = np.random.default_rng(seed + 6)
    for theta in thetas:
        pv = mk.dar1_detailed_balance(mk.Dar1Config(theta, dbase), n_steps, rng)
        rows.append(_pvalue_row("dar1-detailed-balance", f"theta={theta},steps={n_steps}", pv))
    f = mk.dar1_retention_frequency(mk.Dar1Config(1.0, base), n_steps,
                                    np.random.default_rng(seed))
    z = rm.Estimate(f, math.sqrt(0.25 / n_steps), 0.5).z
    rows.append(_z_row("dar1-retention", f"theta=1,steps={n_steps}", z))
    pv = mk.dar1_marginal_chisquare(mk.Dar1Config(1.0, dbase), max(reps, 1000),
                                    np.random.default_rng(seed + 1))
    rows.append(_pvalue_row("dar1-marginal-chisquare", f"theta=1,samples={max(reps,1000)}", pv))
    # (row prefix, instance, config, seed offset)
    chains = ([("measure-chain", f"theta={theta},n={n}", mk.MeasureChainConfig(theta, base, n), 2)
               for theta in thetas for n in chain_ns]
              + [("fv", f"theta={theta},t={t}", mk.FvConfig(theta, base, t), 3)
                 for theta in thetas for t in fv_ts])
    for kind, instance, cfg, offset in chains:
        checks = mk.stationarity_checks(cfg, A, reps, checkpoints,
                                        np.random.default_rng(seed + offset))
        for c in checks:
            at = f"{instance},steps={c.after_steps}"
            rows += [_z_row(f"{kind}-mean", at, c.mean.z),
                     _z_row(f"{kind}-variance", at, c.var.z),
                     _z_row(f"{kind}-lag-slope", at, c.slope.z),
                     _z_row(f"{kind}-eigen2-slope", at, c.eigen2_slope.z)]
    rep = mk.fv_chapman_kolmogorov_process_test(mk.FvConfig(1.0, base, 1.0), 0.5, 0.5, A,
                                                reps, np.random.default_rng(seed + 4))
    rows.append(_pvalue_row("fv-composition-ks", f"theta=1,t=s=0.5,reps={reps}", rep.ks_pvalue))
    rev = mk.measure_chain_reversibility_test(mk.MeasureChainConfig(1.0, base, 1), A,
                                              reps, np.random.default_rng(seed + 5))
    rows.append(_pvalue_row("reversibility-marginal-ks", f"theta=1,reps={reps}",
                            rev.marginal_ks_pvalue))
    rows.append(_z_row("reversibility-cross-moment", f"theta=1,reps={reps}",
                       rev.cross_moment.z))
    return VerifyReport("processes", tuple(rows))

