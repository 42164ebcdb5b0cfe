import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_within_se, digest as _digest
from fvkit.random_measures import (
    DEFAULT_TRUNCATION,
    AtomSet,
    DiscreteBase,
    DiscreteMeasure,
    EmptySet,
    Interval,
    Point,
    StickBreakingParams,
    StickBudgetError,
    StickTruncation,
    UniformBase,
    WholeSpace,
    check_mean_identity,
    check_mixture_identity,
    check_summability,
    measure_from_json,
    measure_to_json,
    posterior,
    sample_from_measure,
    sample_posterior,
    stick_break,
    _dirichlet_rows,
)
import fvkit.random_measures as rm


def stick_moment_oracle(theta, base_mass, K=400):
    """Small-truncation stick oracle for E[mu(A)^2]: sums the per-stick
    second moments of the Beta(1, theta) stick representation directly."""
    e_w2 = 2.0 / ((theta + 1) * (theta + 2))
    e_keep2 = theta / (theta + 2)
    sum_rho2 = e_w2 * (1 - e_keep2**K) / (1 - e_keep2)
    return base_mass * sum_rho2 + (1 - sum_rho2) * base_mass**2


class TestStickBreak:
    def test_residual_target(self, rng):
        mu = stick_break(StickBreakingParams.dp(1.0), UniformBase(),
                         StickTruncation.residual(1e-8), rng)
        assert mu.residual < 1e-8
        assert abs(mu.weights.sum() + mu.residual - 1) < 1e-12

    def test_first_stick_mean(self, rng):
        theta, reps = 2.0, 20_000
        # rho_1 is the first stick proportion; a 4-stick truncation suffices
        vals = np.empty(reps)
        params = StickBreakingParams.dp(theta)
        trunc = StickTruncation.fixed(4)
        base = UniformBase()
        for i in range(reps):
            w, _ = _stick_weights_first(params, trunc, rng)
            vals[i] = w
        expect = 1 / (1 + theta)
        se = vals.std(ddof=1) / math.sqrt(reps)
        assert_within_se(vals.mean(), expect, se, label="E[rho_1]")

    def test_pd_preset_telescopes(self, rng):
        mu = stick_break(StickBreakingParams.poisson_dirichlet(0.5, 0.5), UniformBase(),
                         StickTruncation.fixed(2000), rng)
        assert abs(mu.weights.sum() + mu.residual - 1) < 1e-12
        assert mu.residual > 0

    def test_stick_cap_signals_nonsummable(self, rng):
        slow = StickBreakingParams(lambda j: 1.0, lambda j: 2.0 ** np.minimum(j, 50))
        with pytest.raises(StickBudgetError):
            stick_break(slow, UniformBase(), StickTruncation.residual(1e-10, max_sticks=512), rng)

    def test_continuous_atoms_distinct(self, rng):
        mu = stick_break(StickBreakingParams.dp(1.0), UniformBase(),
                         StickTruncation.fixed(50), rng)
        assert len(set(mu.ids.tolist())) == mu.ids.size

    @given(st.sampled_from([0.5, 1.0, 4.0]), st.integers(0, 2**31 - 1))
    @settings(max_examples=30)
    def test_total_mass_invariant(self, theta, seed):
        mu = stick_break(StickBreakingParams.dp(theta), UniformBase(),
                         DEFAULT_TRUNCATION, np.random.default_rng(seed))
        assert abs(mu.weights.sum() + mu.residual - 1) < 1e-12


def _stick_weights_first(params, trunc, rng):
    from fvkit.random_measures import _stick_weights
    w, res = _stick_weights(params, trunc, rng)
    return w[0], res


class TestTruncationAndParams:
    def test_exactly_one_mode(self):
        with pytest.raises(ValueError):
            StickTruncation(k=5, eps=1e-6)
        with pytest.raises(ValueError):
            StickTruncation()

    def test_pd_validation(self):
        with pytest.raises(ValueError):
            StickBreakingParams.poisson_dirichlet(1.0, 1.0)
        with pytest.raises(ValueError):
            StickBreakingParams.poisson_dirichlet(0.5, -0.6)
        with pytest.raises(ValueError):
            StickBreakingParams.dp(0.0)

    def test_pd_degenerates_to_dp_at_sigma_zero(self):
        pd = StickBreakingParams.poisson_dirichlet(0.0, 2.5)
        dp = StickBreakingParams.dp(2.5)
        for j in (1, 2, 7, 40):
            assert pd.alpha(j) == dp.alpha(j) == 1.0
            assert pd.beta(j) == dp.beta(j) == 2.5


class TestSummability:
    def test_dp_constant_terms(self):
        rep = check_summability(StickBreakingParams.dp(1.0), 10_000)
        assert rep.verdict == "divergent"
        assert abs(rep.entries[-1][1] - 10_000 * math.log(2)) < 1e-9

    def test_pd_harmonic_terms(self):
        rep = check_summability(StickBreakingParams.poisson_dirichlet(0.5, 0.0), 10_000)
        assert rep.verdict == "divergent"
        # log(1 + 1/j) telescopes to log(J+1)
        assert abs(rep.entries[-1][1] - math.log(10_001)) < 1e-9

    def test_geometric_ladder_flattens(self):
        rep = check_summability(
            StickBreakingParams(lambda j: 1.0, lambda j: 2.0 ** np.minimum(j, 500)), 1000)
        assert rep.verdict == "convergent"
        tail = [v for _, v in rep.entries[-2:]]
        assert abs(tail[-1] - tail[-2]) < 1e-9

    @pytest.mark.parametrize("J", [1, 5, 10])
    def test_two_rungs_give_no_verdict(self, J):
        assert check_summability(StickBreakingParams.dp(1.0), J).verdict is None

    def test_short_last_rung_still_divergent(self):
        # the last rung 1000..1050 holds 50 terms against 900 in the one before
        assert check_summability(StickBreakingParams.dp(1.0), 1050).verdict == "divergent"

    def test_verify_row_fails_on_summable_dp(self, monkeypatch):
        from fvkit import verify

        def summable(theta):
            return StickBreakingParams(lambda j: 1.0, lambda j: 2.0 ** np.minimum(j, 500))

        monkeypatch.setattr(rm.StickBreakingParams, "dp", staticmethod(summable))
        rows = {r.check: r for r in verify.verify_measures(reps=200, thetas=(1.0,)).rows}
        assert not rows["summability-dp"].passed
        assert rows["summability-dp"].observed == "convergent"
        assert rows["summability-pd"].passed


class TestPosterior:
    def test_empty_conditioning_is_prior(self, rng):
        post = posterior(1.0, UniformBase(), [])
        mu = sample_posterior(post, DEFAULT_TRUNCATION, rng)
        assert abs(mu.weights.sum() + mu.residual - 1) < 1e-12

    def test_posterior_mean_formula(self, rng):
        theta, reps = 1.0, 4000
        base = UniformBase()
        X = [Point(int(i), float(x)) for i, x in zip(*base.sample_batch(rng, 2, 1))]
        A = Interval(0.0, 0.5)
        inside = sum(1 for p in X if 0.0 <= p.x < 0.5)
        post = posterior(theta, base, X)
        vals = np.array([sample_posterior(post, DEFAULT_TRUNCATION, rng).mass(A)
                         for _ in range(reps)])
        expect = (theta * 0.5 + inside) / (theta + len(X))
        assert_within_se(vals.mean(), expect, vals.std(ddof=1) / math.sqrt(reps),
                         label="posterior mean")

    def test_conditioning_atom_weight_floor(self, rng):
        # E[mu({X})] = (theta w_X + 1)/(theta + 1) >= 1/(theta + 1)
        theta, reps = 2.0, 4000
        base = DiscreteBase(weights=(0.3, 0.7))
        post = posterior(theta, base, [0])
        vals = np.array([sample_posterior(post, DEFAULT_TRUNCATION, rng).mass(AtomSet({0}))
                         for _ in range(reps)])
        floor = 1 / (theta + 1)
        se = vals.std(ddof=1) / math.sqrt(reps)
        assert vals.mean() > floor - 4 * se

    def test_atom_weights_merge(self, rng):
        base = DiscreteBase(weights=(1.0,))
        post = posterior(0.5, base, [0, 0, 0])
        mu = sample_posterior(post, DEFAULT_TRUNCATION, rng)
        # everything lands on the single atom id
        assert mu.ids.size == 1
        assert abs(mu.mass(AtomSet({0})) - (1 - mu.residual)) < 1e-12

    def test_points_base_interval_mass(self, rng):
        # positions survive the posterior, so an interval picks out the atoms inside it
        base = DiscreteBase(weights=(0.1, 0.2, 0.3, 0.4), points=(0.05, 0.3, 0.6, 0.9))
        mu = sample_posterior(posterior(0.8, base, [1, 3, 3]), DEFAULT_TRUNCATION, rng)
        inside = mu.mass(Interval(0.25, 0.75))
        assert inside > 0
        assert inside == mu.mass(AtomSet({1, 2}))

    def test_seeded_content_identical(self):
        base = UniformBase()
        post = posterior(1.0, base, [])
        a = sample_posterior(post, DEFAULT_TRUNCATION, np.random.default_rng(31))
        b = sample_posterior(post, DEFAULT_TRUNCATION, np.random.default_rng(31))
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.xs, b.xs)
        assert a.residual == b.residual


class TestSampleFromMeasure:
    def test_single_atom(self, rng):
        mu = DiscreteMeasure("discrete", np.array([4], dtype=np.int64), None,
                             np.array([1.0]), 0.0)
        assert sample_from_measure(mu, 10, rng) == [4] * 10

    def test_k_zero(self, rng):
        mu = stick_break(StickBreakingParams.dp(1.0), UniformBase(), DEFAULT_TRUNCATION, rng)
        assert sample_from_measure(mu, 0, rng) == []

    def test_frequencies_match_weights(self, rng):
        base = DiscreteBase(weights=(0.2, 0.3, 0.5))
        mu = stick_break(StickBreakingParams.dp(2.0), base, DEFAULT_TRUNCATION, rng)
        reps = 1_000_000
        draws = sample_from_measure(mu, reps, rng)
        counts = np.bincount(np.array(draws), minlength=3)
        w = np.zeros(3)
        for i, idx in enumerate(mu.ids):
            w[idx] = mu.weights[i]
        w = w / w.sum()
        for j in range(3):
            se = math.sqrt(w[j] * (1 - w[j]) / reps)
            assert_within_se(counts[j] / reps, w[j], max(se, 1e-9), label=f"atom {j}")

    def test_rejects_fat_residual(self, rng):
        mu = DiscreteMeasure("discrete", np.array([0], dtype=np.int64), None,
                             np.array([0.9]), 0.1)
        with pytest.raises(ValueError):
            sample_from_measure(mu, 1, rng)


class TestMeasureInvariants:
    def test_whole_and_empty(self, rng):
        mu = stick_break(StickBreakingParams.dp(1.0), UniformBase(), DEFAULT_TRUNCATION, rng)
        assert mu.mass(WholeSpace()) == 1.0
        assert mu.mass(EmptySet()) == 0.0

    def test_interval_additivity(self, rng):
        mu = stick_break(StickBreakingParams.dp(1.0), UniformBase(), DEFAULT_TRUNCATION, rng)
        total = mu.mass(Interval(0.0, 0.4)) + mu.mass(Interval(0.4, 1.0))
        assert abs(total - mu.weights.sum()) < 1e-12

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            DiscreteMeasure("discrete", np.array([0], dtype=np.int64), None,
                            np.array([-0.2]), 1.2)

    def test_bad_total_rejected(self):
        with pytest.raises(ValueError):
            DiscreteMeasure("discrete", np.array([0], dtype=np.int64), None,
                            np.array([0.5]), 0.2)


class TestDiscreteBaseSampling:
    BASE = DiscreteBase(weights=(0.1, 0.2, 0.3, 0.4), points=(0.05, 0.3, 0.6, 0.9))
    # drawn with seed 5 when the cumulative weights were rebuilt on every call
    IDS = [3, 3, 2, 1, 0, 2, 2, 0, 0, 3, 3, 1]

    def test_batch_stream_unchanged(self):
        base = DiscreteBase(weights=self.BASE.weights, points=self.BASE.points)
        for _ in range(2):  # the first call fills the cache, the second reads it
            ids, xs = base.sample_batch(np.random.default_rng(5), 12, 1)
            assert ids.tolist() == self.IDS
            assert xs.tolist() == [self.BASE.points[i] for i in self.IDS]

    def test_cumulative_weights_read_only(self):
        with pytest.raises(ValueError):
            self.BASE._cum[0] = 0.0
        assert self.BASE == DiscreteBase(weights=self.BASE.weights, points=self.BASE.points)


class TestMeanIdentity:
    def test_uniform_interval(self):
        r = check_mean_identity(1.0, UniformBase(), Interval(0.0, 0.5), 100_000,
                                DEFAULT_TRUNCATION, np.random.default_rng(7))
        assert r.after_steps == 0 and r.reps == 100_000
        assert r.mean_z < 4

    def test_whole_space_exact(self):
        r = check_mean_identity(1.0, UniformBase(), WholeSpace(), 500,
                                DEFAULT_TRUNCATION, np.random.default_rng(7))
        assert r.mean == r.mean_target == 1.0 and r.mean_z == 0.0

    def test_empty_exact(self):
        r = check_mean_identity(1.0, UniformBase(), EmptySet(), 500,
                                DEFAULT_TRUNCATION, np.random.default_rng(7))
        assert r.mean == r.mean_target == 0.0 and r.mean_z == 0.0

    def test_discrete_base(self):
        base = DiscreteBase(weights=(0.25, 0.75))
        r = check_mean_identity(2.0, base, AtomSet({0}), 60_000,
                                DEFAULT_TRUNCATION, np.random.default_rng(8))
        assert r.mean_target == 0.25
        assert r.mean_z < 4

    @pytest.mark.parametrize("check", [check_mean_identity, check_mixture_identity])
    def test_one_rep_has_no_standard_error(self, check):
        with pytest.raises(ValueError, match="reps must be >= 2"):
            check(1.0, UniformBase(), Interval(0.0, 0.5), 1, DEFAULT_TRUNCATION,
                  np.random.default_rng(7))


class TestMixtureIdentity:
    def test_moments_agree(self):
        mx = check_mixture_identity(1.0, UniformBase(), Interval(0.0, 0.5), 100_000,
                                    DEFAULT_TRUNCATION, np.random.default_rng(8))
        assert mx.mean_diff < 4 * mx.mean_se
        assert mx.second_diff < 4 * mx.second_se

    def test_second_moment_matches_oracle(self):
        reps = 100_000
        mx = check_mixture_identity(1.0, UniformBase(), Interval(0.0, 0.5), reps,
                                    DEFAULT_TRUNCATION, np.random.default_rng(9))
        oracle = stick_moment_oracle(1.0, 0.5)
        closed = 0.5 * (1 + 1.0 * 0.5) / (1 + 1.0)
        assert abs(oracle - closed) < 1e-12
        se = 2 * mx.second_se
        assert abs(mx.second_direct - closed) < 4 * se

    def test_whole_space_degenerate(self):
        mx = check_mixture_identity(1.0, UniformBase(), WholeSpace(), 200,
                                    DEFAULT_TRUNCATION, np.random.default_rng(10))
        assert mx.mean_direct == mx.mean_hier == 1.0
        assert mx.second_diff == 0.0


class TestPriorVariance:
    def test_variance_identity(self):
        reps = 100_000
        for theta in (0.5, 1.0, 4.0):
            rows = _dirichlet_rows(theta, UniformBase(), reps, DEFAULT_TRUNCATION,
                                   np.random.default_rng(11))
            vals = rows.mass(Interval(0.0, 0.5))
            p = 0.5
            target = p * (1 - p) / (1 + theta)
            var = vals.var(ddof=1)
            c = vals - vals.mean()
            se = math.sqrt(max((c**4).mean() - var**2, 0) / reps)
            assert_within_se(var, target, se, label=f"var theta={theta}")
            # the prior check reads the same moments off the same batch
            r = check_mean_identity(theta, UniformBase(), Interval(0.0, 0.5), reps,
                                    DEFAULT_TRUNCATION, np.random.default_rng(11))
            assert (r.var, r.var_se, r.var_target) == (var, se, target)

    def test_oracle_matches_closed_form(self):
        for theta in (0.5, 1.0, 4.0):
            for p in (0.2, 0.5, 0.9):
                second = stick_moment_oracle(theta, p)
                var = second - p * p
                assert abs(var - p * (1 - p) / (1 + theta)) < 1e-12


class TestSerialization:
    def test_round_trip(self, rng):
        mu = stick_break(StickBreakingParams.dp(1.0), UniformBase(), DEFAULT_TRUNCATION, rng)
        d = json.loads(json.dumps(measure_to_json(mu)))
        back = measure_from_json(d)
        assert np.array_equal(back.ids, mu.ids)
        assert np.array_equal(back.weights, mu.weights)
        assert np.array_equal(back.xs, mu.xs)
        assert back.residual == mu.residual

    VALID = {"base_kind": "continuous", "ids": [3, 7], "xs": [0.2, 0.6],
             "weights": [0.25, 0.75], "residual": 0.0}

    def test_valid_document_loads(self):
        mu = measure_from_json(self.VALID)
        assert mu.atoms == [(Point(3, 0.2), 0.25), (Point(7, 0.6), 0.75)]

    @pytest.mark.parametrize("change", [
        {"base_kind": "atomic"},
        {"ids": [[3, 7]], "weights": [[0.25, 0.75]], "xs": [[0.2, 0.6]]},
        {"ids": [3, 7, 9]},
        {"weights": [0.25, 0.7, 0.05]},
        {"xs": [0.2]},
        {"xs": None},
        {"ids": [3, 3]},
        {"ids": [3.0, 7.5]},
        {"ids": ["3", "7"]},
        {"weights": [float("nan"), 0.75]},
        {"weights": [float("inf"), 0.75]},
        {"residual": float("nan")},
        {"residual": -0.5, "weights": [0.75, 0.75]},
        {"residual": 1.5},
    ], ids=["base-kind", "not-1d", "ids-longer", "weights-longer", "xs-shorter",
            "continuous-without-xs", "duplicate-ids", "float-ids", "string-ids",
            "nan-weight", "inf-weight", "nan-residual", "negative-residual",
            "residual-above-one"])
    def test_rejects_bad_document(self, change):
        with pytest.raises(ValueError):
            measure_from_json({**self.VALID, **change})

    def test_loaded_ids_do_not_collide_with_fresh_draws(self, rng):
        from fvkit.markov_processes import MeasureChainConfig, measure_chain_step
        mu = measure_from_json({**self.VALID, "ids": [3, 10**9]})
        nxt = measure_chain_step(mu, MeasureChainConfig(1.0, UniformBase(), 2), rng)
        fresh = nxt.ids[~np.isin(nxt.ids, mu.ids)]
        assert fresh.size and fresh.min() > 10**9

    def test_loading_leaves_later_draws_alone(self):
        def draw():
            return stick_break(StickBreakingParams.dp(1.0), UniformBase(), DEFAULT_TRUNCATION,
                               np.random.default_rng(3))

        before = draw()
        measure_from_json({**self.VALID, "ids": [3, 10**9]})
        assert np.array_equal(draw().ids, before.ids)


def _measure_digest(mu):
    return _digest(mu.ids, mu.xs, mu.weights, np.float64(mu.residual))


class TestStreamPins:
    """Exact digests of seeded draws, recorded before the stick-breaking
    kernels were merged: any change to the consumed random stream, the stick
    recurrence or its floating-point order shows up here.  Fresh ids from a
    continuous base start at 1, or one past the largest conditioning id."""

    BASES = {
        "uniform": UniformBase(),
        "discrete": DiscreteBase(weights=(0.1, 0.2, 0.3, 0.4)),
        "points": DiscreteBase(weights=(0.1, 0.2, 0.3, 0.4), points=(0.05, 0.3, 0.6, 0.9)),
    }
    PARAMS = {"dp": (StickBreakingParams.dp, (20.0,)),
              "pd": (StickBreakingParams.poisson_dirichlet, (0.5, 1.0))}
    # residual(1e-3) takes 192 DP and 896 PD sticks: several blocks each
    TRUNCS = {"fixed": StickTruncation.fixed(300), "residual": StickTruncation.residual(1e-3)}
    STICK_BREAK = {
        ("dp", "fixed", "uniform"): "8adc39e0eef92881",
        ("dp", "fixed", "discrete"): "adca58c88ba2c970",
        ("dp", "fixed", "points"): "4212680d9153e889",
        ("dp", "residual", "uniform"): "3009ae4d7da67362",
        ("dp", "residual", "discrete"): "46c27c549b6fe709",
        ("dp", "residual", "points"): "68076108a08941b2",
        ("pd", "fixed", "uniform"): "fee9890dbbc4bc18",
        ("pd", "fixed", "discrete"): "db12f6536c19a2bb",
        ("pd", "fixed", "points"): "f9cc9c3f6d37c027",
        ("pd", "residual", "uniform"): "ecc956e021b8382b",
        ("pd", "residual", "discrete"): "30fa53c31dd1c2b2",
        ("pd", "residual", "points"): "9198c85d65d2bab5",
    }
    # a discrete base with points draws the discrete case's ids, weights and
    # residual from the same stream, and adds xs = points[ids]
    POSTERIOR = {
        ("uniform", 0): "0d2c43ba1dfa7764",
        ("uniform", 1): "1b5cbc384f02d6b3",
        ("uniform", 5): "560b630f331bc339",
        ("discrete", 0): "8fa3cd830b282428",
        ("discrete", 1): "60969a5ef2d33417",
        ("discrete", 5): "e63dacd132a59a34",
        ("points", 0): "7a89f5fee29dd448",
        ("points", 1): "adf1c78863feda9f",
        ("points", 5): "d1a6183bedf9536a",
    }
    @pytest.mark.parametrize("key", list(STICK_BREAK))
    def test_stick_break(self, key):
        make, args = self.PARAMS[key[0]]
        mu = stick_break(make(*args), self.BASES[key[2]], self.TRUNCS[key[1]],
                         np.random.default_rng(101))
        assert _measure_digest(mu) == self.STICK_BREAK[key]

    def _posterior_draw(self, name, n):
        atoms = ([Point(10**6 + i, 0.1 + 0.15 * i) for i in range(n)] if name == "uniform"
                 else [i % 4 for i in range(n)])
        return sample_posterior(posterior(0.8, self.BASES[name], atoms), DEFAULT_TRUNCATION,
                                np.random.default_rng(202))

    @pytest.mark.parametrize("key", list(POSTERIOR))
    def test_sample_posterior(self, key):
        mu = self._posterior_draw(*key)
        assert _measure_digest(mu) == self.POSTERIOR[key]
        if key[0] == "points":
            plain = self._posterior_draw("discrete", key[1])
            assert np.array_equal(mu.ids, plain.ids) and np.array_equal(mu.weights, plain.weights)
            assert mu.residual == plain.residual
            points = np.asarray(self.BASES["points"].points)
            assert np.array_equal(mu.xs, points[mu.ids])

    # (xs, weights, residual) in position order of the uniform draws with
    # conditioning atoms, recorded when fresh ids still came from a counter
    # shared by the whole process (pinned then as 9dc4a0fc7c7d3a82 and
    # 82e6f13f40aa1f10): the draws have changed only by relabelling
    BY_POSITION = {1: "b7e29d83950b0ee7", 5: "76576ffa60cd83e6"}

    @pytest.mark.parametrize("n", list(BY_POSITION))
    def test_posterior_ids_only_relabelled(self, n):
        mu = self._posterior_draw("uniform", n)
        order = np.argsort(mu.xs, kind="stable")
        assert (_digest(mu.xs[order], mu.weights[order], np.float64(mu.residual))
                == self.BY_POSITION[n])
        assert mu.ids.min() >= 10**6  # fresh ids follow the conditioning ids

    # rows of the prior (n_cond 0) and of the one-atom posterior (n_cond 1)
    DIRICHLET_ROWS = {
        ("uniform", 0): "20a410e3ee3b71ea",
        ("uniform", 1): "557c8f1faeb1c427",
        ("discrete", 0): "708d92b3864cb90e",
        ("discrete", 1): "1d39dbdabae85a41",
        ("points", 0): "e9ee4b2622a11928",
        ("points", 1): "afd62685de19f887",
    }

    def _dirichlet_rows(self, name, n_cond):
        return _dirichlet_rows(1.5, self.BASES[name], 40, DEFAULT_TRUNCATION,
                               np.random.default_rng(303), n_cond)

    @pytest.mark.parametrize("key", list(DIRICHLET_ROWS))
    def test_dirichlet_rows(self, key):
        rows = self._dirichlet_rows(*key)
        assert (rows.residual < DEFAULT_TRUNCATION.eps).all()
        assert _digest(rows.ids, rows.xs, rows.weights, rows.residual) == self.DIRICHLET_ROWS[key]
        if key[0] == "points":
            plain = self._dirichlet_rows("discrete", key[1])
            assert np.array_equal(rows.ids, plain.ids)
            assert np.array_equal(rows.weights, plain.weights)
            assert np.array_equal(rows.xs, np.asarray(self.BASES["points"].points)[rows.ids])

    def test_posterior_rows_hold_their_own_atom(self):
        # row i conditions on atom X_i, id i + 1 at the first position drawn
        # from the seed; every other atom is fresh, with an id past 40
        rows = self._dirichlet_rows("uniform", 1)
        own = np.arange(1, 41)[:, None]
        assert ((rows.ids == own) | (rows.ids > 40)).all()
        held = rows.ids == own
        assert held.any(axis=1).mean() > 0.5
        x = np.random.default_rng(303).random(40)
        assert np.array_equal(rows.xs[held], np.broadcast_to(x[:, None], rows.xs.shape)[held])
