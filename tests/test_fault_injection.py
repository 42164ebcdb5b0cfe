"""Fault injection: each test plants one known bug and asserts that the
verification rows meant to catch it go red, on grids small enough to run
in seconds.  Each suite first runs unpatched on the same grid as a control."""
import numpy as np
import pytest

from fvkit import death_process as dp
from fvkit import markov_processes as mk
from fvkit import polya_urn as urn
from fvkit import random_measures as rm
from fvkit import verify as V


def _failing(report, check):
    rows = [row for row in report.rows if row.check == check]
    assert rows, f"no {check} rows"
    return [row.instance for row in rows if not row.passed]


def _small_death():
    return V.verify_death(thetas=(1.0,), svals=(1.0,), n_max=3, r_max=1,
                          ck_pairs=((0.5, 0.5),), ineq_ts=())


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
    assert not _failing(report, "theta0-forms-agree")


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
    monkeypatch.setattr(dp, "_gamma_factor",
                        lambda m, theta, t: -gamma(m, theta, t) if m == 3 else gamma(m, theta, t))
    dp._death_pmf_cached.cache_clear()
    try:
        with pytest.raises(dp.PrecisionExhaustedError, match="d_1"):
            _death_with_oracle()
    finally:
        dp._death_pmf_cached.cache_clear()


def _fv_processes():
    return V.verify_processes(reps=3000, seed=11, thetas=(1.0, 4.0), chain_ns=(1,),
                              fv_ts=(0.2, 0.5), checkpoints=(1,))


def test_fv_clock_doubled(monkeypatch):
    # every FV step mixes over the death pmf at 2t instead of t: the pmf
    # layer itself stays correct, but the transition runs on a wrong clock
    assert _fv_processes().ok
    monkeypatch.setattr(mk.FvConfig, "death_pmf",
                        lambda self: dp.death_pmf(2 * self.t, dp.DeathParams(self.theta), self.prec))
    failing = _failing(_fv_processes(), "fv-lag-slope")
    for instance in ("theta=1.0,t=0.5,steps=1", "theta=4.0,t=0.2,steps=1"):
        assert instance in failing
    death = _death_with_oracle()
    for check in ("survival-identity", "single-death-identity", "chapman-kolmogorov",
                  "transition-vs-closed-form", "nonabsorption-bounds", "pmf-vs-monte-carlo",
                  "mc-start-sensitivity"):
        assert not _failing(death, check), check


def test_posterior_conditions_on_first_atom(monkeypatch):
    # every row of the posterior kernel conditions on n copies of its first
    # atom instead of its n atoms.  With n = 1 nothing changes, and the
    # stationary mean and the lag-k slope hold for any such pick, so only
    # the variance rows at n > 1 and the composition KS see it
    def processes():
        return V.verify_processes(reps=3000, seed=11, thetas=(1.0, 4.0), chain_ns=(1, 5),
                                  fv_ts=(0.2, 1.0), checkpoints=(1,))

    assert processes().ok
    rows = mk._posterior_rows

    def first_atom(theta, base, n, atom_ids, atom_xs, trunc, rng, first_id):
        first = np.repeat(np.cumsum(n) - n, n)
        return rows(theta, base, n, atom_ids[first],
                    None if atom_xs is None else atom_xs[first], trunc, rng, first_id)

    monkeypatch.setattr(mk, "_posterior_rows", first_atom)
    report = processes()
    # every other row stays green: each n = 1, mean, lag-slope and DAR(1) row
    failing = [(row.check, row.instance) for row in report.rows if not row.passed]
    assert failing == [
        ("measure-chain-variance", "theta=1.0,n=5,steps=1"),
        ("measure-chain-variance", "theta=4.0,n=5,steps=1"),
        ("fv-variance", "theta=1.0,t=0.2,steps=1"),
        ("fv-variance", "theta=1.0,t=1.0,steps=1"),
        ("fv-variance", "theta=4.0,t=0.2,steps=1"),
        ("fv-composition-ks", "theta=1,t=s=0.5,reps=3000"),
    ]


def _dar1_processes():
    return V.verify_processes(reps=100, seed=11, chain_ns=(1,), fv_ts=(0.2,), checkpoints=(1,))


def test_dar1_redraw_rotates(monkeypatch):
    # a redraw on a discrete base moves x to x + 1 mod k w.p. 0.2 instead of
    # drawing from the base: a net flow around the cycle 0 -> 1 -> ... -> 0
    assert _dar1_processes().ok
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
    report = _dar1_processes()
    assert _failing(report, "dar1-detailed-balance") == [
        f"theta={theta},steps=10000" for theta in (0.5, 1.0, 4.0)]
    for check in ("measure-chain-mean", "measure-chain-variance", "measure-chain-lag-slope",
                  "fv-mean", "fv-variance", "fv-lag-slope", "fv-composition-ks",
                  "reversibility-marginal-ks", "reversibility-cross-moment"):
        assert not _failing(report, check), check


def test_uniform_positions_squeezed(monkeypatch):
    # the uniform base draws positions on [0, 0.5) instead of [0, 1), so every
    # atom, fresh or conditioning, lands in A = [0, 0.5) and mu(A) reads
    # 1 - residual.  The prior rows go red at every theta.  The mixture
    # identity holds over any base, so its rows see only the gap between the
    # prior's (total mass theta) and the one-atom posterior's (theta + 1)
    # truncation residuals, which shows at theta = 4
    assert V.verify_measures(reps=2000, seed=7).ok
    monkeypatch.setattr(rm.UniformBase, "sample_batch", lambda self, rng, k, first_id: (
        first_id + np.arange(k, dtype=np.int64), 0.5 * rng.random(k)))
    report = V.verify_measures(reps=2000, seed=7)
    for check in ("prior-mean-identity", "prior-variance"):
        assert _failing(report, check) == [
            f"theta={theta}" + (",A=[0,0.5)" if check == "prior-mean-identity" else "")
            for theta in (0.5, 1.0, 4.0)], check
    for check in ("mixture-first-moment", "mixture-second-moment"):
        assert _failing(report, check), check


def _measures_failing(reps):
    report = V.verify_measures(reps=reps, seed=7)
    return [(row.check, row.instance) for row in report.rows if not row.passed]


def test_posterior_conditions_three_times(monkeypatch):
    # every row of the posterior kernel conditions on each of its atoms three
    # times, so the one-atom posterior puts mass 3/(theta + 3) on its atom.
    # Mixed over the atom its mean is still the prior's, but its second
    # moment is not: only the mixture's second-moment rows see it
    assert _measures_failing(10_000) == []
    rows = rm._posterior_rows

    def thrice(theta, base, n, atom_ids, atom_xs, trunc, rng, first_id):
        return rows(theta, base, 3 * n, np.repeat(atom_ids, 3),
                    None if atom_xs is None else np.repeat(atom_xs, 3), trunc, rng, first_id)

    monkeypatch.setattr(rm, "_posterior_rows", thrice)
    assert _measures_failing(10_000) == [
        ("mixture-second-moment", f"theta={theta}") for theta in (0.5, 1.0, 4.0)]


def test_stick_beta_biased(monkeypatch):
    # every stick proportion is Beta(a, 1.5 b): the prior's total mass reads
    # 1.5 theta.  The mean measure is still the base, so the prior's variance
    # rows, read off the same batch as its mean, are the ones that go red
    assert _measures_failing(2000) == []
    sticks = rm._break_sticks
    monkeypatch.setattr(rm, "_break_sticks",
                        lambda a, b, rng, left=1.0: sticks(a, 1.5 * b, rng, left))
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
