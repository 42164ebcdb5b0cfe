import math

import numpy as np
import pytest

from conftest import assert_within_se, portable_digest
import fvkit.markov_processes as mk
import fvkit.random_measures as rm
from fvkit.markov_processes import (
    Dar1Config,
    FvConfig,
    MeasureChainConfig,
    dar1_detailed_balance,
    dar1_marginal_chisquare,
    dar1_retention_frequency,
    fv_chapman_kolmogorov_process_test,
    fv_step,
    measure_chain_reversibility_test,
    measure_chain_step,
    run_chain,
    stationarity_checks,
)
from fvkit.random_measures import (
    DEFAULT_TRUNCATION,
    AtomSet,
    DiscreteBase,
    DiscreteMeasure,
    Interval,
    Point,
    UniformBase,
    WholeSpace,
)

UB = UniformBase()
DB = DiscreteBase(weights=(0.1, 0.2, 0.3, 0.4))
A = Interval(0.0, 0.5)


def _copies(mu, k):
    """k rows, each a copy of the measure mu."""
    m = mu.ids.size
    return rm.MeasureRows(mu.base_kind, np.tile(mu.ids, k),
                          None if mu.xs is None else np.tile(mu.xs, k), np.tile(mu.weights, k),
                          np.arange(0, m * k + 1, m), np.full(k, mu.residual))


def _stationary(k, rng):
    """k rows drawn from the stationary law of the theta = 1 chains on UB."""
    return rm._dirichlet_rows(1.0, UB, k, DEFAULT_TRUNCATION, rng)


@pytest.mark.parametrize("build", [
    lambda th: Dar1Config(th, UB),
    lambda th: MeasureChainConfig(th, UB, 2),
    lambda th: FvConfig(th, UB, 0.5),
    lambda th: rm.posterior(th, UB, []),
    lambda th: rm.StickBreakingParams.dp(th),
    lambda th: rm.StickBreakingParams.poisson_dirichlet(0.5, th),
], ids=["dar1", "measure-chain", "fv", "posterior", "dp", "poisson-dirichlet"])
def test_infinite_theta_rejected_at_construction(build):
    # at theta = inf a chain never redraws and every stick weight is 0, and
    # the chain configs would fail only at their first stick budget; all but
    # the Poisson-Dirichlet preset, whose theta may be negative, share one rule
    with pytest.raises(ValueError, match="theta must be > 0|theta > -sigma"):
        build(math.inf)


class TestDar1:
    def test_detailed_balance_zero(self, rng):
        # a reversible chain carries no net flow around any cycle
        for theta in (0.5, 1.0, 4.0):
            assert dar1_detailed_balance(Dar1Config(theta, DB), 100_000, rng) > 1e-3

    def test_detailed_balance_single_atom(self, rng):
        for weights in ((1.0,), (0.3, 0.7)):  # no cycle through three atoms
            cfg = Dar1Config(2.0, DiscreteBase(weights=weights))
            assert dar1_detailed_balance(cfg, 100, rng) == 1.0

    def test_path_fills_forward_between_redraws(self, rng):
        ids, xs = mk._dar1_path(Dar1Config(1.0, UB), 1000, rng)
        assert ids.size == xs.size == 1001
        # every redraw is a fresh point with the next id; a kept state
        # repeats both the id and the position
        step = np.diff(ids)
        assert ids[0] == 1 and set(step.tolist()) == {0, 1}
        assert np.array_equal(np.diff(xs) != 0, step == 1)

    def test_huge_theta_rarely_retains(self, rng):
        f = dar1_retention_frequency(Dar1Config(1e6, UB), 100_000, rng)
        assert f < 1e-4

    def test_retention_rate(self, rng):
        steps = 1_000_000
        f = dar1_retention_frequency(Dar1Config(1.0, UB), steps, rng)
        assert_within_se(f, 0.5, math.sqrt(0.25 / steps), label="retention")

    def test_stationary_marginal_chisquare(self, rng):
        assert dar1_marginal_chisquare(Dar1Config(1.0, DB), 30_000, rng) > 1e-3

    def test_retention_needs_nonatomic_base(self, rng):
        with pytest.raises(TypeError):
            dar1_retention_frequency(Dar1Config(1.0, DB), 100, rng)


class TestMeasureChain:
    def test_single_observation_specialization(self, rng):
        cfg = MeasureChainConfig(1.0, UB, 1)
        nxt = measure_chain_step(_stationary(1, rng), cfg, rng).measure()
        assert abs(nxt.weights.sum() + nxt.residual - 1) < 1e-12

    def test_stationary_moments_one_step(self):
        cfg = MeasureChainConfig(1.0, UB, 5)
        checks = stationarity_checks(cfg, A, 4000, (1,), np.random.default_rng(5))
        assert checks[0].mean.z < 4
        assert checks[0].var.z < 4

    def test_five_step_moments(self):
        cfg = MeasureChainConfig(0.5, UB, 1)
        checks = stationarity_checks(cfg, A, 3000, (1, 5), np.random.default_rng(6))
        for c in checks:
            assert c.mean.z < 4 and c.var.z < 4


class TestFvStep:
    def test_large_t_forgets_input(self, rng):
        from scipy import stats
        cfg = FvConfig(1.0, UB, 50.0)
        lo = DiscreteMeasure("continuous", np.array([10**12], dtype=np.int64),
                             np.array([0.05]), np.array([1.0]), 0.0)
        hi = DiscreteMeasure("continuous", np.array([10**12 + 1], dtype=np.int64),
                             np.array([0.95]), np.array([1.0]), 0.0)
        a = fv_step(_copies(lo, 1500), cfg, rng).mass(A)
        b = fv_step(_copies(hi, 1500), cfg, rng).mass(A)
        assert stats.ks_2samp(a, b).pvalue > 1e-3

    def test_more_conditioning_tracks_input_closer(self, rng):
        # a count of 0 is a fresh prior draw; larger counts hold more of mu
        mu = _stationary(1, rng).measure()
        target = mu.mass(A)
        draw = {0: lambda: _stationary(1200, rng)}
        for n in (8, 64):
            draw[n] = lambda cfg=MeasureChainConfig(1.0, UB, n): measure_chain_step(
                _copies(mu, 1200), cfg, rng)
        devs = []
        for n in (0, 8, 64):
            vals = draw[n]().mass(A)
            devs.append(np.abs(vals - target).mean())
        assert devs[2] < devs[1] < devs[0]

    def test_small_t_concentrates_near_input(self, rng):
        # each config holds its pmf, and building one reads no random stream
        small, large = FvConfig(1.0, UB, 0.05), FvConfig(1.0, UB, 5.0)
        mu = _stationary(1, rng).measure()
        target = mu.mass(A)
        dev_small = np.abs(fv_step(_copies(mu, 400), small, rng).mass(A) - target).mean()
        dev_large = np.abs(fv_step(_copies(mu, 400), large, rng).mass(A) - target).mean()
        assert dev_small < dev_large

    def test_stationary_moments(self):
        cfg = FvConfig(1.0, UB, 1.0)
        checks = stationarity_checks(cfg, A, 4000, (1,), np.random.default_rng(7))
        assert checks[0].mean.z < 4 and checks[0].var.z < 4


class TestRunChain:
    def test_steps_one_row_and_merges_once(self):
        # the chain is one unmerged row, stepped by hand here at the same seed
        cfg, obs = FvConfig(1.0, UB, 1.0), [A, Interval(0.5, 1.0)]
        traj, final = run_chain("fv", cfg, 3, obs, np.random.default_rng(3))
        rng = np.random.default_rng(3)
        rows = rm._dirichlet_rows(cfg.theta, cfg.base, 1, cfg.trunc, rng)
        for i in range(3):
            rows = measure_chain_step(rows, cfg, rng)
            assert traj[i].tolist() == [rows.mass(B)[0] for B in obs]
        assert traj.shape == (3, 2)
        want = rows.measure()
        for got, exp in ((final.ids, want.ids), (final.xs, want.xs),
                         (final.weights, want.weights)):
            assert np.array_equal(got, exp)
        assert final.residual == want.residual

    def test_lengths_and_determinism(self):
        cfg = MeasureChainConfig(1.0, UB, 2)
        a, _ = run_chain("measure-chain", cfg, 7, [A, Interval(0.5, 1.0)],
                         np.random.default_rng(5))
        b, _ = run_chain("measure-chain", cfg, 7, [A, Interval(0.5, 1.0)],
                         np.random.default_rng(5))
        assert a.shape == (7, 2)
        assert np.array_equal(a, b)

    def test_dar1_discrete_observable(self):
        traj, _ = run_chain("dar1", Dar1Config(1.0, DB), 50, [AtomSet({0, 1})],
                            np.random.default_rng(6))
        assert set(np.unique(traj)) <= {0.0, 1.0}

    def test_dar1_reads_observables_off_the_path(self):
        traj, x = run_chain("dar1", Dar1Config(1.0, UB), 30, [A], np.random.default_rng(6))
        ids, xs = mk._dar1_path(Dar1Config(1.0, UB), 30, np.random.default_rng(6))
        assert np.array_equal(traj[:, 0], (xs[1:] < 0.5).astype(float))
        assert x == Point(int(ids[-1]), float(xs[-1]))
        _, i = run_chain("dar1", Dar1Config(1.0, DB), 30, [AtomSet({0})],
                         np.random.default_rng(6))
        assert type(i) is int

    def test_ids_do_not_depend_on_earlier_runs(self):
        # fresh ids come from the run, not from a counter shared by the process
        cfg = FvConfig(1.0, UB, 0.5)
        finals = [run_chain("fv", cfg, 5, [A], np.random.default_rng(4))[1]
                  for _ in range(2)]
        assert np.array_equal(finals[0].ids, finals[1].ids)

    def test_fv_chain_reads_one_pmf(self, monkeypatch):
        # the config holds its pmf, so ten steps compute it once
        times = []
        exact = mk.death_pmf
        monkeypatch.setattr(mk, "death_pmf", lambda t, *rest: times.append(t) or exact(t, *rest))
        run_chain("fv", FvConfig(1.0, UB, 0.5), 10, [A], np.random.default_rng(3))
        assert times == [0.5]

    def test_kind_config_mismatch(self):
        with pytest.raises(TypeError):
            run_chain("fv", Dar1Config(1.0, UB), 3, [A], np.random.default_rng(1))
        with pytest.raises(ValueError):
            run_chain("bogus", Dar1Config(1.0, UB), 3, [A], np.random.default_rng(1))


class TestProcessLevelComposition:
    def test_ks_not_rejected(self):
        cfg = FvConfig(1.0, UB, 0.5)
        rep = fv_chapman_kolmogorov_process_test(cfg, 0.5, A, 4000,
                                                 np.random.default_rng(11))
        assert rep.ks_pvalue > 1e-3
        assert rep.mean_diff.z < 4

    def test_one_pmf_per_duration(self, monkeypatch):
        # t = s share one config: the pmfs at t + s and at t, once each
        times = []
        exact = mk.death_pmf
        monkeypatch.setattr(mk, "death_pmf", lambda t, *rest: times.append(t) or exact(t, *rest))
        fv_chapman_kolmogorov_process_test(FvConfig(1.0, UB, 0.5), 0.5, A, 50,
                                           np.random.default_rng(11))
        assert times == [1.0, 0.5]

    def test_long_horizon_matches_prior(self):
        # both arms far past mixing: marginal is the stationary one
        cfg = FvConfig(1.0, UB, 25.0)
        rep = fv_chapman_kolmogorov_process_test(cfg, 25.0, A, 3000,
                                                 np.random.default_rng(12))
        assert rep.ks_pvalue > 1e-3


class TestReversibility:
    def test_swap_invariance(self):
        cfg = MeasureChainConfig(1.0, UB, 1)
        rep = measure_chain_reversibility_test(cfg, A, 4000, np.random.default_rng(13))
        assert rep.marginal_ks_pvalue > 1e-3
        assert rep.cross_moment.z < 4


class TestRunChainPins:
    """Digests of seeded run_chain trajectories and final measures, at
    float32 (see conftest.portable_digest), recorded with the ragged
    Dirichlet-process stick kernel and the posterior's conjugate split, and
    with the chain stepped as one unmerged row that is merged only for the
    final measure.  Ids from a continuous base start at 1 in the stationary
    draw and continue past the largest id in play at each step."""

    BASES = {
        "uniform": (UB, A),
        "discrete": (DB, AtomSet({1, 3})),
        "points": (DiscreteBase(weights=(0.1, 0.2, 0.3, 0.4), points=(0.05, 0.3, 0.6, 0.9)),
                   Interval(0.25, 0.75)),
    }
    CONFIGS = {"measure-chain": lambda base: MeasureChainConfig(1.0, base, 3),
               "fv": lambda base: FvConfig(1.0, base, 0.5)}
    PINS = {
        ("measure-chain", "uniform"): "090cefa83df5560d",
        ("measure-chain", "discrete"): "b5dc269aa813ab02",
        ("measure-chain", "points"): "8ee55a1d8736f7d9",
        ("fv", "uniform"): "a78321102f0f835e",
        ("fv", "discrete"): "08d31975a998e50e",
        ("fv", "points"): "759ee3dbb86ca877",
    }

    @pytest.mark.parametrize("kind, name", list(PINS))
    def test_run_chain(self, kind, name):
        base, obs = self.BASES[name]
        traj, final = run_chain(kind, self.CONFIGS[kind](base), 25, [obs],
                                np.random.default_rng(9))
        got = portable_digest(traj, final.ids, final.xs, final.weights,
                              np.float64(final.residual))
        assert got == self.PINS[kind, name]


def _discrete_rows(ids, weights, residual):
    """MeasureRows on a discrete base from equal-length rows of ids and weights."""
    weights = np.asarray(weights, dtype=float)
    offsets = np.arange(0, weights.size + 1, weights.shape[1])
    return rm.MeasureRows("discrete", np.asarray(ids).ravel(), None, weights.ravel(), offsets,
                          np.asarray(residual, dtype=float))


class TestBatchedKernel:
    def test_rows_draw_only_their_own_atoms(self, rng):
        # row i holds ids 10i .. 10i+9; the row-offset search must stay inside
        w = rng.random((50, 10))
        w /= w.sum(axis=1, keepdims=True)
        rows = _discrete_rows(np.arange(500).reshape(50, 10), w, np.zeros(50))
        n = np.arange(50) % 4
        got, xs = rm._draw_atoms(rows, n, rng)
        assert xs is None
        assert np.array_equal(got // 10, np.repeat(np.arange(50), n))

    def test_row_draw_frequencies_match_weights(self, rng):
        w = np.array([[0.5, 0.25, 0.25], [0.1, 0.1, 0.8]])
        rows = _discrete_rows([[0, 1, 2], [3, 4, 5]], w, np.zeros(2))
        reps = 200_000
        got, _ = rm._draw_atoms(rows, np.array([reps, reps]), rng)
        for i in range(2):
            freq = np.bincount(got[i * reps:(i + 1) * reps] - 3 * i, minlength=3) / reps
            for j in range(3):
                assert_within_se(freq[j], w[i, j], math.sqrt(w[i, j] * (1 - w[i, j]) / reps),
                                 label=f"row {i} atom {j}")

    def test_residual_check_only_on_drawing_rows(self, rng):
        rows = _discrete_rows([[0, 1], [2, 3]], [[0.5, 0.3], [0.5, 0.5]], [0.2, 0.0])
        assert rm._draw_atoms(rows, np.array([0, 3]), rng)[0].size == 3
        with pytest.raises(ValueError, match="residual 0.2 too large"):
            rm._draw_atoms(rows, np.array([1, 3]), rng)

    def test_posterior_rows_condition_on_their_own_atoms(self, rng):
        # rows hold 0, 1, 3 and 2 atoms: ids 7 | 4, 5, 6 | 8, 9
        n = np.array([0, 1, 3, 2])
        atom_ids = np.array([7, 4, 5, 6, 8, 9])
        rows = rm._posterior_rows(1.0, DB, n, atom_ids, None, DEFAULT_TRUNCATION, rng, 1)
        assert (rows.residual < DEFAULT_TRUNCATION.eps).all()
        assert np.allclose(np.add.reduceat(rows.weights, rows.offsets[:-1]) + rows.residual, 1.0,
                           rtol=0, atol=1e-12)
        # a discrete base draws ids 0..3, so ids 4..9 can only be conditioning atoms
        held = [set(ids[ids >= 4].tolist()) for ids in np.split(rows.ids, rows.offsets[1:-1])]
        assert held[0] == set() and held[1] <= {7} and held[2] <= {4, 5, 6} and held[3] <= {8, 9}
        assert held[1] and held[2] and held[3]

    def test_row_mass_matches_merged_measure(self, rng):
        cfg = FvConfig(1.0, UB, 0.3)
        start = rm._dirichlet_rows(cfg.theta, cfg.base, 20, cfg.trunc, rng)
        for rows in (start, measure_chain_step(start, cfg, rng)):
            masses = rows.mass(A)
            for i in range(20):
                assert masses[i] == pytest.approx(rows.measure(i).mass(A), abs=1e-12)

    @pytest.mark.parametrize("reps", [10, 300])
    def test_one_kernel_call_per_step(self, reps, monkeypatch):
        # every harness and run_chain step through measure_chain_step, which
        # is where bench/tracing.py counts steps
        calls = []
        step = mk.measure_chain_step

        def counted(rows, cfg, rng):
            calls.append(rows.residual.size)
            return step(rows, cfg, rng)

        monkeypatch.setattr(mk, "measure_chain_step", counted)
        cfg = MeasureChainConfig(1.0, UB, 2)
        stationarity_checks(cfg, A, reps, (1, 3), np.random.default_rng(1))
        measure_chain_reversibility_test(cfg, A, reps, np.random.default_rng(2))
        fv_chapman_kolmogorov_process_test(FvConfig(1.0, UB, 0.5), 0.5, A, reps,
                                           np.random.default_rng(3))
        run_chain("fv", FvConfig(1.0, UB, 0.5), 4, [A], np.random.default_rng(4))
        assert calls == [reps] * (3 + 1 + 3) + [1] * 4

    @pytest.mark.parametrize("cfg", [Dar1Config(1.0, UB), None])
    def test_stationarity_rejects_other_configs(self, cfg):
        # the chain is read off the config's type; nothing else is a chain
        with pytest.raises(TypeError, match="measure-valued"):
            stationarity_checks(cfg, A, 10, (1,), np.random.default_rng(1))


class TestLagSlope:
    def test_slope_and_target(self):
        cfg = MeasureChainConfig(1.0, UB, 3)
        checks = stationarity_checks(cfg, A, 4000, (1, 2), np.random.default_rng(8))
        for c in checks:
            assert c.slope.target == pytest.approx(0.75**c.after_steps)
            assert c.slope.z < 4

    def test_fv_target_is_single_lineage_survival(self):
        checks = stationarity_checks(FvConfig(2.0, UB, 0.4), A, 50, (1,), np.random.default_rng(9))
        assert checks[0].slope.target == pytest.approx(math.exp(-0.4))

    def test_constant_observable_scores_zero(self):
        # mu(whole space) = 1 on every row: zero spread, zero difference
        cfg = MeasureChainConfig(1.0, UB, 2)
        c = stationarity_checks(cfg, WholeSpace(), 20, (1,), np.random.default_rng(1))[0]
        assert c.mean.se == 0 and c.mean.z == 0
        assert c.var.se == 0 and c.var.z == 0

