"""Fault injection: each test plants one known bug and asserts that the
verification rows meant to catch it go red, on grids small enough to run
in seconds.  Each suite first runs unpatched on the same grid as a control."""
from math import comb

from fvkit import death_process as dp
from fvkit import markov_processes as mk
from fvkit import polya_urn as urn
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
    # urn pmf and the composition check share
    assert _small_death().ok and _small_urn().ok
    exact = urn.overlap_entry

    def perturbed(r, m, n, theta, via_expansion=False):
        num, den = exact(r, m, n, theta, via_expansion)
        return (num * (10**6 + 1), den * 10**6) if r == 1 else (num, den)

    monkeypatch.setattr(urn, "overlap_entry", perturbed)
    death = _small_death()
    assert [i for i in _failing(death, "chapman-kolmogorov") if i.startswith("r=1,")]
    for check in ("survival-identity", "single-death-identity", "transition-vs-closed-form"):
        assert not _failing(death, check)
    report = _small_urn()
    for check in ("overlap-forms-agree", "exact-vs-bruteforce", "expansion-route-identical"):
        assert _failing(report, check)
    assert not _failing(report, "theta0-forms-agree")


def test_transition_weight_perturbed(monkeypatch):
    # the transition sum's weight C(m, r) off by one at m = r + 1
    assert _small_death().ok
    monkeypatch.setattr(dp, "binomial", lambda m, r: comb(m, r) + (m == r + 1))
    death = _small_death()
    for check in ("survival-identity", "single-death-identity", "transition-vs-closed-form"):
        assert _failing(death, check), check
    assert not _failing(death, "chapman-kolmogorov")


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
    death = V.verify_death(thetas=(1.0,), svals=(1.0,), n_max=3, r_max=1,
                           ck_pairs=((0.5, 0.5),), ineq_ts=(0.5,), mc_reps=20_000, mc_n0=100)
    for check in ("survival-identity", "single-death-identity", "chapman-kolmogorov",
                  "transition-vs-closed-form", "nonabsorption-bounds", "pmf-vs-monte-carlo",
                  "mc-start-sensitivity"):
        assert not _failing(death, check), check


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
