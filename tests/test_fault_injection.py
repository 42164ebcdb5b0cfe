"""Fault injection: each test plants one known bug and asserts that the
verification rows meant to catch it go red, on grids small enough to run
in seconds.  Each suite first runs unpatched on the same grid as a control."""
import math
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from fvkit import combinatorics as comb
from fvkit import death_process as dp
from fvkit import markov_processes as mk
from fvkit import polya_urn as urn
from fvkit import random_measures as rm
from fvkit import verify as V


def _failing(report, check):
    rows = [row for row in report.rows if row.check == check]
    assert rows, f"no {check} rows"
    return [row.instance for row in rows if not row.passed]


def _small_death(ineq_ts=(), prec=dp.PrecisionConfig()):
    return V.verify_death(thetas=(1.0,), svals=(1.0,), n_max=3, r_max=1,
                          ck_pairs=((0.5, 0.5),), ineq_ts=ineq_ts, prec=prec)


def _small_urn():
    return V.verify_urn(form_max=3, bruteforce_max=2, theta0_max=2)


def test_overlap_entry_perturbed_at_r1(monkeypatch):
    # P(1 | m, n) off by a relative 1e-6, in the one entry function that the
    # urn pmf and every transition weight of the death process share
    assert _small_death().ok and _small_urn().ok
    exact = urn.overlap_entry

    def perturbed(r, m, n, theta, via_expansion=False):
        num, den = exact(r, m, n, theta, via_expansion)
        return (num * (10**6 + 1), den * 10**6) if r == 1 else (num, den)

    monkeypatch.setattr(urn, "overlap_entry", perturbed)
    death = _small_death()
    # r = 1 is the stay-put entry at n = 1 and the one-death entry at n = 2
    assert "n=1,theta=1.0,s=1.0" in _failing(death, "survival-identity")
    assert "n=2,theta=1.0,s=1.0" in _failing(death, "single-death-identity")
    assert _failing(death, "transition-vs-closed-form")
    assert [i for i in _failing(death, "chapman-kolmogorov") if i.startswith("r=1,")]
    report = _small_urn()
    for check in ("overlap-forms-agree", "exact-vs-bruteforce", "expansion-route-identical"):
        assert _failing(report, check)
    # the theta = 0 pmf is built from the same entries, so its rows go red too
    assert _failing(report, "theta0-forms-agree")


def test_expansion_coefficient_shifted(monkeypatch):
    # the expansion kernel weighs theta_(m-r-k) by C(k+r, k) instead of
    # C(k+r-1, k).  At m = r the sum is its single term 1, so only those
    # criterion-1 rows stay green; the urn rows that take the expansion
    # route go red wherever some 1 <= r < m is in the pmf's support
    assert V.verify_combinatorics().ok and _small_urn().ok

    def shifted(p, q, r, m):
        return sum(math.factorial(k) * math.comb(k + r, k) * math.comb(m - r, k)
                   * comb.rising_product(p, q, m - r - k) * q**k for k in range(m - r + 1))

    monkeypatch.setattr(comb, "rising_expansion", shifted)
    monkeypatch.setattr(urn, "rising_expansion", shifted)
    report = V.verify_combinatorics()
    assert _failing(report, "shifted-rising-expansion") == [
        f"m={m},r={r}" for m in range(1, 16) for r in range(1, m)]
    assert {row.check for row in report.rows if not row.passed} == {"shifted-rising-expansion"}
    report = _small_urn()
    assert _failing(report, "expansion-route-identical") == [
        f"m={m},n={n},theta={theta}" for theta in (1, Fraction(7, 2))
        for m in range(6) for n in range(6) if m >= 2 and n >= 1]
    assert {row.check for row in report.rows if not row.passed} == {"expansion-route-identical"}


def test_stirling_row_entry_bumped(monkeypatch):
    # |s(6, 3)| is one too large.  The rows past 6 are built from row 6, so
    # they inherit the slip; only the convolution rows read Stirling numbers.
    # At a = b both sides carry the same wrong |s(c, b)|, and those rows stay
    # green
    assert V.verify_combinatorics().ok
    stirling_row = comb._stirling_row

    def bumped(n):
        r = stirling_row(n)
        return r[:3] + (r[3] + 1,) + r[4:] if n == 6 else r

    monkeypatch.setattr(comb, "_stirling_row", bumped)
    stirling_row.cache_clear()
    try:
        report = V.verify_combinatorics()
    finally:
        stirling_row.cache_clear()
    assert {row.check for row in report.rows if not row.passed} == {"stirling-convolution"}
    assert _failing(report, "stirling-convolution") == [
        f"a={a},b={b},c={c}" for c in range(6, 13) for b in range(3, c - 2) for a in range(1, b)]


def test_alternating_sum_degree_slip(monkeypatch):
    # at r = 1 the summand is (phi+l)_(k) instead of (phi+l)_(k-1): degree
    # k, which the k-th alternating difference maps to k! instead of 0, so
    # every r = 1 row goes red and no other.  No other check or kernel
    # calls the alternating sum (the urn and the series take
    # rising_product directly), so only its own family sees the slip
    assert V.verify_combinatorics().ok

    def slipped(k, r, phi):
        phi = Fraction(phi)
        p, q = phi.numerator, phi.denominator
        degree = k - r + (r == 1)
        return sum((-1) ** (k - l) * math.comb(k, l) * comb.rising_product(p + l * q, q, degree)
                   for l in range(k + 1)) == 0

    monkeypatch.setattr(comb, "check_vanishing_alternating_sum", slipped)
    report = V.verify_combinatorics()
    assert _failing(report, "vanishing-alternating-sum") == [
        f"k={k},r=1,phi={phi}" for k in range(1, 13)
        for phi in (Fraction(1, 3), 1, Fraction(5, 2), 10)]
    assert {row.check for row in report.rows if not row.passed} == {"vanishing-alternating-sum"}


def test_theta0_entry_leaks_to_r0(monkeypatch):
    # at theta = 0, 1/1000 of the shared denominator moves from r = 1 to
    # r = 0: the pmf still sums to 1, but puts mass where no draw is fresh
    assert _small_urn().ok
    exact = urn.overlap_entry

    def leaky(r, m, n, theta, via_expansion=False):
        num, den = exact(r, m, n, theta, via_expansion)
        if theta != 0:
            return num, den
        return 1000 * num + {0: den, 1: -den}.get(r, 0), 1000 * den

    monkeypatch.setattr(urn, "overlap_entry", leaky)
    report = V.verify_urn(form_max=3, bruteforce_max=2, theta0_max=3)
    grid = [f"m={m},n={n}" for m in range(1, 4) for n in range(1, 4)]
    assert _failing(report, "theta0-forms-agree") == grid
    assert _failing(report, "theta0-no-overlap-mass") == grid
    assert {row.check for row in report.rows if not row.passed} == {
        "theta0-forms-agree", "theta0-no-overlap-mass"}


def _death_with_oracle():
    return V.verify_death(thetas=(1.0,), svals=(1.0,), n_max=3, r_max=1,
                          ck_pairs=((0.5, 0.5),), ineq_ts=(0.5,), mc_reps=20_000, mc_n0=100)


def test_series_sign_flipped(monkeypatch):
    # the series factor gamma_3 enters with the wrong sign, so d_1(1) comes
    # out negative beyond its certified bound and the pmf refuses to build.
    # The error bound is each term's size: a signed bound goes negative
    # here, and the pmf's stop test then never holds
    assert _death_with_oracle().ok
    gamma = dp._gamma_factor
    monkeypatch.setattr(dp, "_gamma_factor", lambda m, theta, t, factors: (
        -1 if m == 3 else 1) * gamma(m, theta, t, factors))
    with pytest.raises(dp.PrecisionExhaustedError, match="d_1"):
        _death_with_oracle()


def test_series_hold_rate_off_by_one(monkeypatch):
    # the series factor gamma_m decays at the rate m(m + theta)/2 instead of
    # m(m - 1 + theta)/2, the slip test_hold_rate_off_by_one plants in the
    # oracle.  The Chapman-Kolmogorov row composes the wrong pmf with
    # itself, the non-absorption bounds still hold, and the n0-doubling row
    # compares two oracle runs that never read the series
    assert _death_with_oracle().ok

    def shifted(m, theta, t, factors):
        lam_t = Fraction(m, 2) * (m + theta) * t
        return (2 * m - 1 + dp._dec(theta)) * dp._dec(-lam_t).exp()

    monkeypatch.setattr(dp, "_gamma_factor", shifted)
    report = _death_with_oracle()
    assert list(dict.fromkeys(row.check for row in report.rows if not row.passed)) == [
        "survival-identity", "single-death-identity", "transition-vs-closed-form",
        "pmf-vs-monte-carlo"]


def test_series_rate_off_by_one_leaves_oracle_alone(monkeypatch):
    # the series' rate helper gives m(m + theta)/2 instead of m(m - 1 + theta)/2.
    # The partial-fraction oracle codes its rates as integers of its own, so
    # exactly the rows that compare the series with it go red, while the
    # composition and non-absorption rows read the patched rate on both sides
    assert _small_death(ineq_ts=(0.5,)).ok
    monkeypatch.setattr(dp, "_death_rate_fraction",
                        lambda n, theta: Fraction(n, 2) * (n + theta))
    report = _small_death(ineq_ts=(0.5,))
    assert len(report.rows) == 13
    for check in ("survival-identity", "single-death-identity", "transition-vs-closed-form"):
        assert _failing(report, check) == [f"n={n},theta=1.0,s=1.0" for n in (1, 2, 3)]
    assert {row.check for row in report.rows if not row.passed} == {
        "survival-identity", "single-death-identity", "transition-vs-closed-form"}


def test_complement_series_sign_flipped(monkeypatch):
    # gamma_2 enters with the wrong sign.  Only the non-absorption rows run
    # on this grid, and they read the complement series 1 - d_0(t) directly,
    # without building a pmf
    def bounds():
        return V.verify_death(svals=(), ck_pairs=())

    assert bounds().ok
    gamma = dp._gamma_factor
    monkeypatch.setattr(dp, "_gamma_factor", lambda m, theta, t, factors: (
        -1 if m == 2 else 1) * gamma(m, theta, t, factors))
    report = bounds()
    assert _failing(report, "nonabsorption-bounds") == [
        f"theta={theta},t={t}" for theta in (0.5, 1.0, 4.0) for t in (0.1, 0.5, 1.0, 3.0, 10.0)]
    assert {(row.kind, row.value) for row in report.rows} == {("bounds", False)}


def _scale_d1(monkeypatch, factor):
    # every d_1(t) series sum comes out multiplied by factor
    series = dp._alternating_series

    def scaled(n, theta, t, gamma, prec):
        value, bound = series(n, theta, t, gamma, prec)
        return (value * factor if n == 1 else value), bound

    monkeypatch.setattr(dp, "_alternating_series", scaled)


def test_d1_inflated(monkeypatch):
    # d_1(t) comes out a relative 1e-6 high, so the pmf holds more than mass
    # 1 and stops early.  The normalization row sees the excess; every row
    # that weighs d_1 against a closed form sees it too
    assert _small_death().ok
    _scale_d1(monkeypatch, 1 + Decimal(10) ** -6)
    report = _small_death()
    assert _failing(report, "pmf-normalization") == ["theta=1.0,t=1.0"]
    assert list(dict.fromkeys(row.check for row in report.rows if not row.passed)) == [
        "pmf-normalization", "survival-identity", "single-death-identity",
        "transition-vs-closed-form", "chapman-kolmogorov"]


def test_death_table_independent_of_earlier_runs():
    # one process, no cache call anywhere: a run under a fault between two
    # clean runs sees its own pmfs, and leaves none to the run after it
    clean = _small_death()
    assert clean.ok
    with pytest.MonkeyPatch.context() as mp:
        _scale_d1(mp, 1 + Decimal(10) ** -6)
        assert _failing(_small_death(), "pmf-normalization") == ["theta=1.0,t=1.0"]
    assert _small_death().table_rows() == clean.table_rows()


def test_d1_inflated_at_loosest_tail_tol(monkeypatch):
    # at the loosest tail_tol verify death accepts, a d_1(t) 10 % high
    # still turns every row of the small grid red
    prec = dp.PrecisionConfig(tail_tol=V.DEATH_TAIL_TOL_MAX)
    assert _small_death(prec=prec).ok
    _scale_d1(monkeypatch, Decimal("1.1"))
    report = _small_death(prec=prec)
    assert report.n_failed == len(report.rows) == 12


def test_d1_deflated_pmf_stops(monkeypatch):
    # d_1(t) comes out a relative 1e-6 low, so no number of entries brings
    # the mass within tail_tol of 1.  The pmf stops after max_terms entries
    # and names the shortfall, about d_1(1) * 1e-6
    params = dp.DeathParams(1.0)
    assert dp.death_pmf(1.0, params).residual < 1e-12
    _scale_d1(monkeypatch, 1 - Decimal(10) ** -6)
    with pytest.raises(dp.PrecisionExhaustedError, match="short of mass 1") as exc:
        dp.death_pmf(1.0, params)
    assert 1e-7 < exc.value.smallest_achievable < 1e-6


def test_hold_rate_off_by_one(monkeypatch):
    # the oracle's chain leaves state n at rate n(n + theta)/2 instead of
    # n(n - 1 + theta)/2, so it dies too fast.  The series rows never see
    # the oracle, and the n0-doubling row compares two runs of the same
    # wrong chain
    assert _death_with_oracle().ok

    def shifted(theta, hi, lo):
        states = np.arange(hi, lo - 1, -1)
        return 0.5 * states * (states + theta)

    monkeypatch.setattr(dp, "_hold_rates", shifted)
    report = _death_with_oracle()
    assert [row.check for row in report.rows if not row.passed] == ["pmf-vs-monte-carlo"]


def test_d1_zero_in_monte_carlo_comparison(monkeypatch):
    # d_1(1) at theta = 1 reads exactly 0, a third of the pmf's mass gone.
    # Its binomial standard error is then 0 too, and a zero standard error
    # cannot explain the oracle's d_1, so the comparison row must go red
    # rather than score that entry as agreement
    def oracle():
        return V.verify_death(thetas=(1.0,), svals=(1.0,), n_max=1, r_max=0,
                              ck_pairs=((0.5, 0.5),), ineq_ts=(1.0,), mc_reps=20_000)

    assert oracle().ok
    exact = dp.death_pmf

    def zeroed(t, params, prec=dp.PrecisionConfig()):
        pmf = exact(t, params, prec)
        if t != 1.0 or params.theta != 1.0:
            return pmf
        probs = list(pmf.probs)
        probs[1] = Decimal(0)
        return replace(pmf, probs=tuple(probs))

    monkeypatch.setattr(dp, "death_pmf", zeroed)
    report = oracle()
    assert _failing(report, "pmf-vs-monte-carlo") == ["theta=1,t=1,n0=500,reps=20000"]
    assert [row.value for row in report.rows if row.check == "pmf-vs-monte-carlo"] == [math.inf]


def _fv_processes():
    return V.verify_processes(reps=3000, seed=11, thetas=(1.0, 4.0), chain_ns=(1,),
                              fv_ts=(0.2, 0.5), checkpoints=(1,))


def test_fv_clock_doubled(monkeypatch):
    # every FV step mixes over the death pmf at 2t instead of t: the pmf
    # layer itself stays correct, but the transition runs on a wrong clock
    assert _fv_processes().ok
    monkeypatch.setattr(mk.FvConfig, "death_pmf", property(
        lambda self: dp.death_pmf(2 * self.t, dp.DeathParams(self.theta), self.prec)))
    failing = _failing(_fv_processes(), "fv-lag-slope")
    for instance in ("theta=1.0,t=0.5,steps=1", "theta=4.0,t=0.2,steps=1"):
        assert instance in failing
    death = _death_with_oracle()
    for check in ("survival-identity", "single-death-identity", "chapman-kolmogorov",
                  "transition-vs-closed-form", "nonabsorption-bounds", "pmf-vs-monte-carlo",
                  "mc-start-sensitivity"):
        assert not _failing(death, check), check


def test_death_count_spread_to_two_points(monkeypatch):
    # every FV step draws its death count from {1, 20} instead of d(t), with
    # the weights that keep E[N/(theta+N)] = exp(-theta t/2).  The mixture
    # keeps the stationary law, so the mean and variance rows hold; the lag
    # slope reads only E[N/(theta+N)], and the composition KS compares two
    # stationary samples.  The degree-2 eigenvalue also reads the second
    # factorial moment of N, so only the eigen2 rows see it, and at
    # theta = 4, t = 0.5 they read z = 3.954 at these reps
    def processes():
        return V.verify_processes(reps=4000, seed=11, thetas=(1.0, 4.0), chain_ns=(1,),
                                  fv_ts=(0.2, 0.5), checkpoints=(1,))

    assert processes().ok

    def two_point(pmf, rng, size=None):
        theta = pmf.params.theta
        hi = 20 / (theta + 20)
        p1 = (hi - math.exp(-theta * pmf.t / 2)) / (hi - 1 / (theta + 1))
        return np.where(rng.random(size) < p1, 1, 20)

    monkeypatch.setattr(mk, "sample_death_count", two_point)
    report = processes()
    assert [(row.check, row.instance) for row in report.rows if not row.passed] == [
        ("fv-eigen2-slope", f"theta={theta},t={t},steps=1")
        for theta, t in ((1.0, 0.2), (1.0, 0.5), (4.0, 0.2))]


def _posterior_processes():
    return V.verify_processes(reps=3000, seed=11, thetas=(1.0, 4.0), chain_ns=(1, 5),
                              fv_ts=(0.2, 1.0), checkpoints=(1,))


def test_posterior_conditions_on_first_atom(monkeypatch):
    # every row of the posterior kernel conditions on n copies of its first
    # atom instead of its n atoms.  With n = 1 nothing changes, and the
    # stationary mean and the lag-k slope hold for any such pick, so only
    # the variance and degree-2 eigenfunction rows at n > 1 and the
    # composition KS see it
    assert _posterior_processes().ok
    rows = mk._posterior_rows

    def first_atom(theta, base, n, atom_ids, atom_xs, trunc, rng, first_id):
        first = np.repeat(np.cumsum(n) - n, n)
        return rows(theta, base, n, atom_ids[first],
                    None if atom_xs is None else atom_xs[first], trunc, rng, first_id)

    monkeypatch.setattr(mk, "_posterior_rows", first_atom)
    report = _posterior_processes()
    # every other row stays green: each n = 1, mean, lag-slope and DAR(1) row
    failing = [(row.check, row.instance) for row in report.rows if not row.passed]
    assert failing == [
        ("measure-chain-variance", "theta=1.0,n=5,steps=1"),
        ("measure-chain-eigen2-slope", "theta=1.0,n=5,steps=1"),
        ("measure-chain-variance", "theta=4.0,n=5,steps=1"),
        ("measure-chain-eigen2-slope", "theta=4.0,n=5,steps=1"),
        ("fv-variance", "theta=1.0,t=0.2,steps=1"),
        ("fv-eigen2-slope", "theta=1.0,t=0.2,steps=1"),
        ("fv-variance", "theta=1.0,t=1.0,steps=1"),
        ("fv-eigen2-slope", "theta=1.0,t=1.0,steps=1"),
        ("fv-variance", "theta=4.0,t=0.2,steps=1"),
        ("fv-eigen2-slope", "theta=4.0,t=0.2,steps=1"),
        ("fv-composition-ks", "theta=1,t=s=0.5,reps=3000"),
    ]


def _dar1_processes():
    return V.verify_processes(reps=100, seed=11, chain_ns=(1,), fv_ts=(0.2,), checkpoints=(1,))


def _rotate_redraws(monkeypatch):
    # a redraw on a discrete base moves x to x + 1 mod k w.p. 0.2 instead of
    # drawing from the base: a net flow around the cycle 0 -> 1 -> ... -> 0
    path = mk._dar1_path

    def rotating(cfg, steps, rng):
        if cfg.base.kind == "continuous":
            return path(cfg, steps, rng)
        u = rng.random((steps, 2))
        draws, _ = cfg.base.sample_batch(rng, steps + 1, 1)
        ids = draws.copy()
        for i in range(steps):
            x = ids[i]
            if u[i, 0] * (1 + cfg.theta) < cfg.theta:
                x = (x + 1) % cfg.base.size if u[i, 1] < 0.2 else draws[i + 1]
            ids[i + 1] = x
        return ids, None

    monkeypatch.setattr(mk, "_dar1_path", rotating)


def test_dar1_redraw_rotates(monkeypatch):
    assert _dar1_processes().ok
    _rotate_redraws(monkeypatch)
    report = _dar1_processes()
    assert _failing(report, "dar1-detailed-balance") == [
        f"theta={theta},steps=10000" for theta in (0.5, 1.0, 4.0)]
    for check in ("measure-chain-mean", "measure-chain-variance", "measure-chain-lag-slope",
                  "fv-mean", "fv-variance", "fv-lag-slope", "fv-composition-ks",
                  "reversibility-marginal-ks", "reversibility-cross-moment"):
        assert not _failing(report, check), check


def _squeeze_uniform_positions(monkeypatch):
    monkeypatch.setattr(rm.UniformBase, "sample_batch", lambda self, rng, k, first_id: (
        first_id + np.arange(k, dtype=np.int64), 0.5 * rng.random(k)))


def test_uniform_positions_squeezed(monkeypatch):
    # the uniform base draws positions on [0, 0.5) instead of [0, 1), so every
    # atom, fresh or conditioning, lands in A = [0, 0.5) and mu(A) reads
    # 1 - residual.  The prior rows go red at every theta.  The mixture
    # identity holds over any base, and a one-atom posterior row's residual,
    # W_0 times its fresh part's, has the prior's law eps exp(-E/theta) (E
    # the last arrival's overshoot) whenever W_0 > eps, so its rows stay green
    assert V.verify_measures(reps=2000, seed=7).ok
    _squeeze_uniform_positions(monkeypatch)
    report = V.verify_measures(reps=2000, seed=7)
    for check in ("prior-mean-identity", "prior-variance"):
        assert _failing(report, check) == [
            f"theta={theta}" + (",A=[0,0.5)" if check == "prior-mean-identity" else "")
            for theta in (0.5, 1.0, 4.0)], check
    for check in ("mixture-first-moment", "mixture-second-moment"):
        assert not _failing(report, check), check


def _measures_failing(reps):
    report = V.verify_measures(reps=reps, seed=7)
    return [(row.check, row.instance) for row in report.rows if not row.passed]


def test_posterior_conditions_three_times(monkeypatch):
    # every row of the posterior kernel conditions on each of its atoms three
    # times, so the one-atom posterior puts mass 3/(theta + 3) on its atom.
    # Mixed over the atom its mean is still the prior's, but its second
    # moment is not: only the mixture's second-moment rows see it, and at
    # theta = 0.5 they read z = 3.689 at these reps
    assert _measures_failing(10_000) == []
    rows = rm._posterior_rows

    def thrice(theta, base, n, atom_ids, atom_xs, trunc, rng, first_id):
        return rows(theta, base, 3 * n, np.repeat(atom_ids, 3),
                    None if atom_xs is None else np.repeat(atom_xs, 3), trunc, rng, first_id)

    monkeypatch.setattr(rm, "_posterior_rows", thrice)
    assert _measures_failing(10_000) == [
        ("mixture-second-moment", f"theta={theta}") for theta in (1.0, 4.0)]


class _GammaShifted:
    """A generator whose standard_gamma draws at shape + 1; every other draw
    goes to the generator it wraps."""

    def __init__(self, rng):
        self._rng = rng

    def standard_gamma(self, shape, size=None):
        return self._rng.standard_gamma(shape + 1, size)

    def __getattr__(self, name):
        return getattr(self._rng, name)


def test_fresh_share_from_shifted_gamma(monkeypatch):
    # the posterior kernel draws its fresh share's gamma at theta + 1, so
    # (W_0, W_1, ..., W_n) ~ Dir(theta + 1, 1, ..., 1): the fresh part gets
    # the weight that the split gives the atoms on average at one more atom.
    # A prior row (n = 0) keeps W_0 = 1, so the prior rows and every mean
    # row hold; the mixture's second moment, the chains' variance and lag
    # rows and the reversibility rows see it, the more the smaller theta is
    assert _measures_failing(10_000) == [] and _posterior_processes().ok
    rows = rm._posterior_rows

    def shifted(theta, base, n, atom_ids, atom_xs, trunc, rng, first_id):
        return rows(theta, base, n, atom_ids, atom_xs, trunc, _GammaShifted(rng), first_id)

    monkeypatch.setattr(rm, "_posterior_rows", shifted)
    monkeypatch.setattr(mk, "_posterior_rows", shifted)
    assert _measures_failing(10_000) == [
        ("mixture-second-moment", f"theta={theta}") for theta in (0.5, 1.0)]
    failing = [(row.check, row.instance) for row in _posterior_processes().rows
               if not row.passed]
    assert failing == [
        ("measure-chain-variance", "theta=1.0,n=1,steps=1"),
        ("measure-chain-lag-slope", "theta=1.0,n=1,steps=1"),
        ("measure-chain-variance", "theta=1.0,n=5,steps=1"),
        ("measure-chain-lag-slope", "theta=1.0,n=5,steps=1"),
        ("measure-chain-eigen2-slope", "theta=1.0,n=5,steps=1"),
        ("measure-chain-variance", "theta=4.0,n=5,steps=1"),
        ("measure-chain-lag-slope", "theta=4.0,n=5,steps=1"),
        ("fv-variance", "theta=1.0,t=0.2,steps=1"),
        ("fv-lag-slope", "theta=1.0,t=0.2,steps=1"),
        ("fv-eigen2-slope", "theta=1.0,t=0.2,steps=1"),
        ("fv-variance", "theta=1.0,t=1.0,steps=1"),
        ("fv-lag-slope", "theta=1.0,t=1.0,steps=1"),
        ("fv-eigen2-slope", "theta=1.0,t=1.0,steps=1"),
        ("fv-variance", "theta=4.0,t=0.2,steps=1"),
        ("fv-lag-slope", "theta=4.0,t=0.2,steps=1"),
        ("reversibility-marginal-ks", "theta=1,reps=3000"),
        ("reversibility-cross-moment", "theta=1,reps=3000"),
    ]


def test_stick_beta_biased(monkeypatch):
    # every Dirichlet-process row breaks its fresh sticks at total mass
    # 1.5 theta, as if each proportion were Beta(1, 1.5 theta): the prior's
    # total mass reads 1.5 theta.
    # The mean measure is still the base, and the mixture's second-moment
    # arms part by at most about three standard errors at these reps (both
    # arms break their fresh sticks at 1.5 theta), so the prior's variance
    # rows, read off the same batch as its mean, are the ones that go red
    assert _measures_failing(2000) == []
    sticks = rm._dp_sticks
    monkeypatch.setattr(rm, "_dp_sticks", lambda theta, share, trunc, rng:
                        sticks(1.5 * theta, share, trunc, rng))
    assert _measures_failing(2000) == [
        ("prior-variance", f"theta={theta}") for theta in (0.5, 1.0, 4.0)]


def test_entry_compensation_dropped(monkeypatch):
    # the death oracle's runs start at n0 with the full clock t, instead of
    # t less the mean time the chain from infinity takes to come down to n0
    def oracle():
        return V.verify_death(thetas=(1.0,), svals=(1.0,), n_max=1, r_max=0,
                              ck_pairs=((0.5, 0.5),), ineq_ts=(), mc_reps=100_000, mc_n0=50)

    assert oracle().ok
    monkeypatch.setattr(dp, "mean_entry_time", lambda n0, theta: 0.0)
    report = oracle()
    assert [row.check for row in report.rows if not row.passed] == [
        "pmf-vs-monte-carlo", "mc-start-sensitivity"]


def test_dar1_redraws_too_rarely(monkeypatch):
    # the chain redraws w.p. theta/(2 + theta) instead of theta/(1 + theta),
    # the rate of a chain at theta/2.  That chain is still reversible with
    # the base as its marginal, so only the retention row sees the slip
    assert _dar1_processes().ok
    path = mk._dar1_path
    monkeypatch.setattr(mk, "_dar1_path",
                        lambda cfg, steps, rng: path(replace(cfg, theta=cfg.theta / 2), steps, rng))
    report = _dar1_processes()
    assert [(row.check, row.instance) for row in report.rows if not row.passed] == [
        ("dar1-retention", "theta=1,steps=10000")]


def test_dar1_redraws_from_reversed_weights(monkeypatch):
    # on a discrete base every redraw (and the start) comes from the base's
    # weights reversed.  That chain is still a reversible keep-or-redraw
    # chain, only with the wrong marginal, so only the chi-square row sees it
    def processes():
        return V.verify_processes(reps=200)

    assert processes().ok
    path = mk._dar1_path

    def reversed_redraws(cfg, steps, rng):
        if cfg.base.kind == "continuous":
            return path(cfg, steps, rng)
        base = rm.DiscreteBase(weights=cfg.base.weights[::-1])
        return path(replace(cfg, base=base), steps, rng)

    monkeypatch.setattr(mk, "_dar1_path", reversed_redraws)
    report = processes()
    assert [(row.check, row.instance) for row in report.rows if not row.passed] == [
        ("dar1-marginal-chisquare", "theta=1,samples=1000")]


def test_stick_keep_factor_dropped(monkeypatch):
    # stick j weighs w_j times the residual before its block, without the
    # prod_{i<j} (1 - w_i) of the sticks before it in the block, so the
    # masses no longer telescope to 1 - residual.  Only the telescoping row
    # reads these sticks (the Dirichlet rows break theirs in _dp_sticks),
    # and the CLI reports the red row with exit 1, not an argument error
    assert _measures_failing(2000) == []

    def keep_dropped(params, trunc, rng):  # the row's truncation is fixed
        w = rng.beta(*params.shape_arrays(1, trunc.k))
        return w, float(np.prod(1.0 - w))

    monkeypatch.setattr(rm, "_stick_weights", keep_dropped)
    assert _measures_failing(2000) == [("pd-stick-telescoping", "sigma=0.5,K=2000")]
    from fvkit import cli
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "measures", "--reps", "2000"])
    assert exc.value.code == 1


def test_dp_preset_beta_quadratic(monkeypatch):
    # the DP preset's beta_j is theta j**2 instead of theta, so
    # sum_j log(1 + alpha_j/beta_j) converges and the sticks leave mass
    # behind.  The Dirichlet rows break their sticks without the preset
    assert _measures_failing(2000) == []
    monkeypatch.setattr(rm.StickBreakingParams, "dp", staticmethod(
        lambda theta: rm.StickBreakingParams(lambda j: 1.0, lambda j: float(theta) * j**2)))
    assert _measures_failing(2000) == [("summability-dp", "theta=1,J=1e4")]


def test_pd_preset_beta_times_j(monkeypatch):
    # the PD preset's beta_j is (theta + j sigma) j instead of theta + j sigma,
    # so the summability ladder converges.  pd-stick-telescoping reads the
    # same preset and stays green: sticks telescope under any stick law
    assert _measures_failing(2000) == []
    monkeypatch.setattr(rm.StickBreakingParams, "poisson_dirichlet", staticmethod(
        lambda sigma, theta: rm.StickBreakingParams(
            lambda j: 1.0 - float(sigma), lambda j: (float(theta) + j * float(sigma)) * j)))
    assert _measures_failing(2000) == [("summability-pd", "sigma=0.5,J=1e4")]


def test_headroom_below_one_exactly_when_passed():
    # every numeric row of the small grids, clean and under one fault each
    # that turns residual, z and p rows red
    def numeric_rows(*reports):
        return [row for rep in reports for row in rep.rows if row.kind in ("residual", "z", "p")]

    rows = numeric_rows(_small_death(ineq_ts=(0.5,)), _death_with_oracle(), _dar1_processes(),
                        V.verify_measures(reps=2000, seed=7))
    assert rows and all(row.passed for row in rows)
    for fault, grid in ((lambda mp: _scale_d1(mp, 1 + Decimal(10) ** -6), _small_death),
                        (_rotate_redraws, _dar1_processes),
                        (_squeeze_uniform_positions, lambda: V.verify_measures(reps=2000, seed=7))):
        with pytest.MonkeyPatch.context() as mp:
            fault(mp)
            rows += numeric_rows(grid())
    assert {row.kind for row in rows if not row.passed} == {"residual", "z", "p"}
    for row in rows:
        assert row.passed == (row.headroom < 1), (row.check, row.instance, row.value)
