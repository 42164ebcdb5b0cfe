import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_within_se, blockwise_masses, digest as _digest, portable_digest
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
    posterior,
    sample_from_measure,
    sample_posterior,
    stick_break,
    _dirichlet_rows,
)
import fvkit.random_measures as rm
from fvkit.markov_processes import stationary_measure


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

    def test_stick_cap_signals_nonsummable(self, rng, monkeypatch):
        monkeypatch.setattr(rm, "MAX_STICKS", 512)
        slow = StickBreakingParams(lambda j: 1.0, lambda j: 2.0 ** np.minimum(j, 50))
        with pytest.raises(StickBudgetError):
            stick_break(slow, UniformBase(), StickTruncation.residual(1e-10), rng)

    @pytest.mark.parametrize("shape", [math.inf, math.nan])
    def test_non_finite_shape_rejected(self, rng, shape):
        # an infinite beta would break off zero weights and leave residual 1
        params = StickBreakingParams(lambda j: 1.0, lambda j: shape)
        with pytest.raises(ValueError, match="alpha_j and beta_j must be finite"):
            stick_break(params, UniformBase(), StickTruncation.fixed(5), rng)

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


class TestDpSticks:
    """The ragged Dirichlet-process kernel: at total mass b, a row scaled by
    share s takes 1 + Poisson(b ln(s/eps)) sticks from the arrivals of a
    unit-rate Poisson process."""

    def test_count_is_one_plus_poisson(self):
        b, eps, rows = 2.0, 1e-3, 40_000
        _, offsets, _ = rm._dp_sticks(b, np.ones(rows), StickTruncation.residual(eps),
                                      np.random.default_rng(41))
        extra = np.diff(offsets) - 1
        lam = b * math.log(1 / eps)
        top = int(lam + 6 * math.sqrt(lam))
        observed = np.bincount(np.minimum(extra, top), minlength=top + 1)
        pmf = np.array([math.exp(k * math.log(lam) - lam - math.lgamma(k + 1))
                        for k in range(top)])
        expected = rows * np.append(pmf, 1 - pmf.sum())
        from fvkit.stats import chisquare_pvalue
        assert chisquare_pvalue(observed, expected) > 1e-3
        assert_within_se(extra.mean(), lam, math.sqrt(lam / rows), label="mean count - 1")

    def test_rows_take_their_own_counts(self):
        # alternating shares 1 and 1e-4, and 1e-9 below eps: each row's count
        # follows its own rate, 1 + Poisson(0) when the share is below eps
        share = np.tile([1.0, 1e-4, 1e-9], 20_000)
        _, offsets, _ = rm._dp_sticks(2.0, share, DEFAULT_TRUNCATION, np.random.default_rng(42))
        extra = np.diff(offsets) - 1
        for s in (1.0, 1e-4):
            lam = 2.0 * math.log(s / 1e-8)
            sel = extra[share == s]
            assert_within_se(sel.mean(), lam, math.sqrt(lam / sel.size), label=f"share={s}")
        assert (extra[share == 1e-9] == 0).all()

    @pytest.mark.parametrize("theta", [0.5, 4.0, 25.0])
    def test_residual_below_eps_and_weights_telescope(self, theta):
        share = 1 / (1 + np.arange(200) % 7) ** 4
        rho, offsets, residual = rm._dp_sticks(theta, share, DEFAULT_TRUNCATION,
                                               np.random.default_rng(43))
        assert (residual < DEFAULT_TRUNCATION.eps).all() and (residual > 0).all()
        assert (rho > 0).all() and offsets[-1] == rho.size
        gap = np.abs(np.add.reduceat(rho, offsets[:-1]) + residual - share)
        assert gap.max() < 1e-12

    def test_fixed_truncation_gives_k_sticks(self):
        share = np.array([1.0, 0.5, 1e-12])
        residuals = []
        for theta in (0.5, 30.0):
            rho, offsets, residual = rm._dp_sticks(theta, share, StickTruncation.fixed(7),
                                                   np.random.default_rng(44))
            assert offsets.tolist() == [0, 7, 14, 21]
            gap = np.add.reduceat(rho, offsets[:-1]) + residual - share
            assert np.abs(gap).max() < 1e-12
            residuals.append(residual)
        assert (residuals[1] > residuals[0]).all()  # a larger total mass keeps more back

    def test_budget_checked_before_any_draw(self, monkeypatch):
        monkeypatch.setattr(rm, "MAX_STICKS", 1000)
        rng = np.random.default_rng(45)
        state = rng.bit_generator.state
        with pytest.raises(StickBudgetError, match="over the cap of 1000"):
            rm._dp_sticks(1e3, np.array([1.0, 0.5]), StickTruncation.residual(1e-8), rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("theta", [0.5, 4.0])
    def test_mass_law_matches_general_stick_breaking(self, theta):
        # mu(A) of prior rows against one-at-a-time Beta(1, theta) sticks
        from fvkit.stats import ks_2samp_equal
        reps, A, base = 2000, Interval(0.0, 0.5), UniformBase()
        ragged = _dirichlet_rows(theta, base, reps, DEFAULT_TRUNCATION,
                                 np.random.default_rng(46)).mass(A)
        rng = np.random.default_rng(47)
        general = np.array([stick_break(StickBreakingParams.dp(theta), base,
                                        DEFAULT_TRUNCATION, rng).mass(A) for _ in range(reps)])
        assert ks_2samp_equal(ragged, general)[1] > 1e-3

    def test_mass_of_an_empty_row_is_zero(self):
        rows = rm.MeasureRows("discrete", np.array([0, 1, 2]), None, np.array([0.5, 0.5, 1.0]),
                              np.array([0, 2, 2, 3]), np.array([0.0, 1.0, 0.0]))
        assert rows.mass(AtomSet({0, 2})).tolist() == [0.5, 0.0, 1.0]
        assert rows.measure(1).ids.size == 0


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

    @pytest.mark.parametrize("draw", [
        lambda: stick_break(StickBreakingParams.dp(1.0), UniformBase(), DEFAULT_TRUNCATION),
        lambda: sample_posterior(posterior(0.8, DiscreteBase(weights=(0.25, 0.75)), [0]),
                                 DEFAULT_TRUNCATION),
        lambda: stationary_measure(1.0, UniformBase(), DEFAULT_TRUNCATION),
        lambda: check_mean_identity(1.0, UniformBase(), Interval(0.0, 0.5), 10,
                                    DEFAULT_TRUNCATION),
        lambda: check_mixture_identity(1.0, UniformBase(), Interval(0.0, 0.5),
                                       np.array([0.5, 0.4]), DEFAULT_TRUNCATION),
    ], ids=["stick_break", "sample_posterior", "stationary_measure", "check_mean_identity",
            "check_mixture_identity"])
    def test_omitted_rng_is_a_type_error(self, draw):
        # the generator is required, not a None that fails at the first draw
        with pytest.raises(TypeError, match="'rng'"):
            draw()


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

    @pytest.mark.parametrize("atoms", [[5], [-1], [0, 2], [0.0], ["1"]])
    @pytest.mark.parametrize("points", [None, (0.25, 0.75)])
    def test_discrete_atoms_outside_base_rejected(self, atoms, points):
        # a discrete atom is an index into the base: anything else would be
        # drawn as an id the base does not have, or fail at the point lookup
        base = DiscreteBase(weights=(0.3, 0.7), points=points)
        with pytest.raises(ValueError, match=r"not an integer in 0\.\.1"):
            posterior(1.0, base, atoms)

    def test_discrete_numpy_integer_atoms_accepted(self):
        post = posterior(1.0, DiscreteBase(weights=(0.3, 0.7)), np.array([1, 0]))
        assert post.atoms == (1, 0)

    @pytest.mark.parametrize("theta, n", [(0.5, 1), (1.0, 5), (4.0, 5)])
    def test_mass_law_is_exact_beta(self, theta, n):
        # every row conditions on n atoms inside A = [0, 0.2), so mu(A) is
        # Beta(theta p + n, theta (1 - p)) with p = 0.2 (Ferguson 1973);
        # scipy is the oracle
        from scipy import stats
        rows, p, A = 40_000, 0.2, Interval(0.0, 0.2)
        rng = np.random.default_rng(31)
        atoms = rows * n
        xs = p * rng.random(atoms)
        got = rm._posterior_rows(theta, UniformBase(), np.full(rows, n),
                                 np.arange(1, atoms + 1), xs, DEFAULT_TRUNCATION, rng, atoms + 1)
        gap = np.add.reduceat(got.weights, got.offsets[:-1]) + got.residual - 1
        assert np.abs(gap).max() < 1e-12
        assert (got.residual < DEFAULT_TRUNCATION.eps).all()
        law = stats.beta(theta * p + n, theta * (1 - p))
        assert stats.kstest(got.mass(A), law.cdf).pvalue > 1e-3

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

    def test_nan_rejected(self):
        for lo, hi in ((math.nan, 0.5), (0.0, math.nan)):
            with pytest.raises(ValueError, match="NaN"):
                Interval(lo, hi)
        for weights in ((math.nan, 0.5), (0.5, 0.5, math.nan)):
            with pytest.raises(ValueError, match="finite"):
                DiscreteBase(weights=weights)

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

    @pytest.mark.parametrize("A", [AtomSet({0, 2}), AtomSet({-1, 1, 3, 4, 9}), AtomSet(()),
                                   Interval(0.25, 0.75), Interval(0.0, 1.0), Interval(2.0, 3.0),
                                   WholeSpace(), EmptySet()],
                             ids=["atoms", "atoms-out-of-range", "no-atoms", "interval",
                                  "interval-all", "interval-none", "whole", "empty"])
    def test_measure_is_the_row_mass(self, A):
        # the base as one row of its own atoms, ids 0..k-1 and no residual
        k = self.BASE.size
        row = rm.MeasureRows("discrete", np.arange(k), np.array(self.BASE.points),
                             np.array(self.BASE.weights), np.array([0, k]), np.zeros(1))
        assert self.BASE.measure(A) == row.mass(A)[0]

    def test_interval_needs_points(self):
        with pytest.raises(TypeError):
            DiscreteBase(weights=self.BASE.weights).measure(Interval(0.0, 0.5))

    def test_cumulative_weights_read_only(self):
        law = self.BASE.law
        for arr in (law.ids, law.xs, law.weights, law.offsets, law.residual):
            with pytest.raises(ValueError):
                arr[0] = 0
        assert self.BASE == DiscreteBase(weights=self.BASE.weights, points=self.BASE.points)


class TestMeanIdentity:
    def test_uniform_interval(self):
        r = check_mean_identity(1.0, UniformBase(), Interval(0.0, 0.5), 100_000,
                                DEFAULT_TRUNCATION, np.random.default_rng(7))
        assert r.after_steps == 0 and r.reps == 100_000
        assert r.mean.z < 4

    def test_whole_space_exact(self):
        r = check_mean_identity(1.0, UniformBase(), WholeSpace(), 500,
                                DEFAULT_TRUNCATION, np.random.default_rng(7))
        assert r.mean.value == r.mean.target == 1.0 and r.mean.z == 0.0

    def test_empty_exact(self):
        r = check_mean_identity(1.0, UniformBase(), EmptySet(), 500,
                                DEFAULT_TRUNCATION, np.random.default_rng(7))
        assert r.mean.value == r.mean.target == 0.0 and r.mean.z == 0.0

    def test_discrete_base(self):
        base = DiscreteBase(weights=(0.25, 0.75))
        r = check_mean_identity(2.0, base, AtomSet({0}), 60_000,
                                DEFAULT_TRUNCATION, np.random.default_rng(8))
        assert r.mean.target == 0.25
        assert r.mean.z < 4

    # the mixture check takes its direct arm as masses, as many as its reps
    @pytest.mark.parametrize("check, batch", [(check_mean_identity, 1),
                                              (check_mixture_identity, np.array([0.5]))],
                             ids=["check_mean_identity", "check_mixture_identity"])
    def test_one_rep_has_no_standard_error(self, check, batch):
        with pytest.raises(ValueError, match="reps must be >= 2"):
            check(1.0, UniformBase(), Interval(0.0, 0.5), batch, DEFAULT_TRUNCATION,
                  np.random.default_rng(7))

    # at theta = 0 the prior's total mass is 0, which the sticks divide by
    @pytest.mark.parametrize("theta", [0.0, -1.0, math.inf, math.nan])
    @pytest.mark.parametrize("check, batch", [(check_mean_identity, 50),
                                              (check_mixture_identity, np.full(50, 0.5))],
                             ids=["check_mean_identity", "check_mixture_identity"])
    def test_theta_must_be_positive(self, check, batch, theta):
        rng = np.random.default_rng(7)
        state = rng.bit_generator.state
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="theta must be > 0"):
                check(theta, UniformBase(), Interval(0.0, 0.5), batch, DEFAULT_TRUNCATION, rng)
        assert rng.bit_generator.state == state
        assert rng.bit_generator.seed_seq.n_children_spawned == 0

    def test_verify_measures_rejects_theta_zero(self):
        from fvkit import verify
        with pytest.raises(ValueError, match="theta must be > 0"):
            verify.verify_measures(reps=50, thetas=(0.0,))

    def test_memory_does_not_grow_with_reps(self, monkeypatch):
        # the one-atom mixture arm at theta = 4, the largest rows the measures
        # suite draws.  The reps ratio is read on one core, after a warm-up
        # call: on two, the peak depends on whether both blocks in flight peak
        # at once.  The absolute bound is read on two, each block in flight
        # holding its cells
        import tracemalloc
        from fvkit import parallel

        def masses(reps):
            rm._check_masses(4.0, UniformBase(), Interval(0.0, 0.5), reps,
                             DEFAULT_TRUNCATION, np.random.default_rng(7), n_cond=1)

        def peaks():
            out = {}
            for reps in (10_000, 100_000):
                tracemalloc.start()
                try:
                    masses(reps)
                    out[reps] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            return out

        monkeypatch.setattr(parallel, "_usable_cores", lambda: 1)
        masses(10_000)
        one = peaks()
        assert one[100_000] <= 1.5 * one[10_000], one
        monkeypatch.setattr(parallel, "_usable_cores", lambda: 2)
        two = peaks()
        assert max(two.values()) < 12 * 2**20, two


def _mixture(A, reps, seed):
    """The mixture check with its direct arm drawn first from the same stream,
    as verify_measures draws it for the prior moment rows."""
    rng = np.random.default_rng(seed)
    direct = rm._check_masses(1.0, UniformBase(), A, reps, DEFAULT_TRUNCATION, rng)
    return check_mixture_identity(1.0, UniformBase(), A, direct, DEFAULT_TRUNCATION, rng)


class TestMixtureIdentity:
    def test_moments_agree(self):
        mx = _mixture(Interval(0.0, 0.5), 100_000, 8)
        assert mx.first.z < 4 and mx.second.z < 4

    def test_second_moment_matches_oracle(self):
        mx = _mixture(Interval(0.0, 0.5), 100_000, 9)
        oracle = stick_moment_oracle(1.0, 0.5)
        closed = 0.5 * (1 + 1.0 * 0.5) / (1 + 1.0)
        assert abs(oracle - closed) < 1e-12
        se = 2 * mx.second.se
        assert abs(mx.second.target - closed) < 4 * se

    def test_whole_space_degenerate(self):
        mx = _mixture(WholeSpace(), 200, 10)
        assert mx.first.target == mx.first.value == 1.0
        assert mx.second.value == mx.second.target
        assert mx.first.z == mx.second.z == 0.0


class TestPriorVariance:
    def test_variance_identity(self):
        reps = 100_000
        for theta in (0.5, 1.0, 4.0):
            vals = blockwise_masses(theta, UniformBase(), Interval(0.0, 0.5), reps,
                                    DEFAULT_TRUNCATION, np.random.default_rng(11))
            p = 0.5
            target = p * (1 - p) / (1 + theta)
            var = vals.var(ddof=1)
            c = vals - vals.mean()
            se = math.sqrt(max((c**4).mean() - var**2, 0) / reps)
            assert_within_se(var, target, se, label=f"var theta={theta}")
            # the prior check reads the same moments off the same batch
            r = check_mean_identity(theta, UniformBase(), Interval(0.0, 0.5), reps,
                                    DEFAULT_TRUNCATION, np.random.default_rng(11))
            assert (r.var.value, r.var.se, r.var.target) == (var, se, target)

    def test_oracle_matches_closed_form(self):
        for theta in (0.5, 1.0, 4.0):
            for p in (0.2, 0.5, 0.9):
                second = stick_moment_oracle(theta, p)
                var = second - p * p
                assert abs(var - p * (1 - p) / (1 + theta)) < 1e-12


class TestSerialization:
    """The fields of a --dump-final document, built straight into a measure."""

    VALID = {"base_kind": "continuous", "ids": [3, 7], "xs": [0.2, 0.6],
             "weights": [0.25, 0.75], "residual": 0.0}

    @staticmethod
    def measure(base_kind, ids, xs, weights, residual):
        return DiscreteMeasure(base_kind, np.array(ids, dtype=np.int64), np.array(xs, dtype=float),
                               np.array(weights, dtype=float), residual)

    @pytest.mark.parametrize("change", [
        {"weights": [float("nan"), 0.75]},
        {"weights": [float("inf"), 0.75]},
        {"residual": float("nan")},
        {"residual": -0.5, "weights": [0.75, 0.75]},
        {"residual": 1.5},
    ], ids=["nan-weight", "inf-weight", "nan-residual", "negative-residual",
            "residual-above-one"])
    def test_rejects_bad_document(self, change):
        with pytest.raises(ValueError):
            self.measure(**{**self.VALID, **change})

    @pytest.mark.parametrize("change, match", [
        ({"ids": [3, 7, 9]}, "one entry per atom"),
        ({"xs": [0.2, 0.6, 0.9]}, "one entry per atom"),
        ({"weights": [0.25, 0.25, 0.5]}, "one entry per atom"),
        ({"ids": [7, 7]}, "repeat"),
    ], ids=["extra-id", "extra-x", "extra-weight", "repeated-id"])
    def test_rejects_misaligned_atoms(self, change, match):
        # an extra id once built, and its mass(Interval(0, 0.5)) read 0.25,
        # ignoring the id without a position
        with pytest.raises(ValueError, match=match):
            self.measure(**{**self.VALID, **change})

    def test_continuous_measure_needs_positions(self):
        with pytest.raises(ValueError, match="positions"):
            DiscreteMeasure("continuous", np.array([3, 7], dtype=np.int64), None,
                            np.array([0.25, 0.75]), 0.0)

    def test_loaded_ids_do_not_collide_with_fresh_draws(self, rng):
        from fvkit.markov_processes import MeasureChainConfig, measure_chain_step
        mu = self.measure(**{**self.VALID, "ids": [3, 10**9]})
        nxt = measure_chain_step(mu, MeasureChainConfig(1.0, UniformBase(), 2), rng)
        fresh = nxt.ids[~np.isin(nxt.ids, mu.ids)]
        assert fresh.size and fresh.min() > 10**9


def _measure_digest(mu, digest=_digest):
    return digest(mu.ids, mu.xs, mu.weights, np.float64(mu.residual))


class TestStreamPins:
    """Digests of seeded draws: any change to the consumed random stream or
    the stick recurrence shows up here.  STICK_BREAK, the general kernel's,
    is exact and dates from before the stick-breaking kernels were merged,
    so its floating-point order is pinned too.  The Dirichlet-process row
    kernel's pins were recorded with the ragged kernel and the posterior's
    conjugate split, at float32 (see conftest.portable_digest).  Fresh ids from a continuous base start at 1,
    or one past the largest conditioning id."""

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
        ("uniform", 0): "f874082a31ef4837",
        ("uniform", 1): "a1c4e0bcb341411a",
        ("uniform", 5): "318ff2c3854c09a5",
        ("discrete", 0): "05b02ec7ea3ce1cf",
        ("discrete", 1): "9fde02dfe8e13906",
        ("discrete", 5): "1dce5430f64e453f",
        ("points", 0): "65183ab67d924261",
        ("points", 1): "aa0baada1a6ebca2",
        ("points", 5): "90931faf283a3c7a",
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
        assert _measure_digest(mu, portable_digest) == self.POSTERIOR[key]
        if key[0] == "points":
            plain = self._posterior_draw("discrete", key[1])
            assert np.array_equal(mu.ids, plain.ids) and np.array_equal(mu.weights, plain.weights)
            assert mu.residual == plain.residual
            points = np.asarray(self.BASES["points"].points)
            assert np.array_equal(mu.xs, points[mu.ids])

    # (xs, weights, residual) in position order of the uniform draws with
    # conditioning atoms: ids do not enter, so this pin held, as
    # 9dc4a0fc7c7d3a82 and 82e6f13f40aa1f10, while fresh ids moved from a
    # counter shared by the whole process to run-scoped ids, and moved only
    # with the ragged stick kernel and the conjugate split
    BY_POSITION = {1: "2253ed62aa3c98c3", 5: "03e92c3fc31ecfb6"}

    @pytest.mark.parametrize("n", list(BY_POSITION))
    def test_posterior_ids_only_relabelled(self, n):
        mu = self._posterior_draw("uniform", n)
        order = np.argsort(mu.xs, kind="stable")
        assert (portable_digest(mu.xs[order], mu.weights[order], np.float64(mu.residual))
                == self.BY_POSITION[n])
        assert mu.ids.min() >= 10**6  # fresh ids follow the conditioning ids

    # rows of the prior (n_cond 0) and of the one-atom posterior (n_cond 1)
    DIRICHLET_ROWS = {
        ("uniform", 0): "17f9c8af1ac109b1",
        ("uniform", 1): "93a0b0d5ca236376",
        ("discrete", 0): "6dae57d72961d683",
        ("discrete", 1): "1f7070f65215f67e",
        ("points", 0): "76b8466412ca8347",
        ("points", 1): "afa9093dd142c92c",
    }

    def _dirichlet_rows(self, name, n_cond):
        return _dirichlet_rows(1.5, self.BASES[name], 40, DEFAULT_TRUNCATION,
                               np.random.default_rng(303), n_cond)

    @pytest.mark.parametrize("key", list(DIRICHLET_ROWS))
    def test_dirichlet_rows(self, key):
        rows = self._dirichlet_rows(*key)
        assert (rows.residual < DEFAULT_TRUNCATION.eps).all()
        got = portable_digest(rows.ids, rows.xs, rows.weights, rows.offsets, rows.residual)
        assert got == self.DIRICHLET_ROWS[key]
        if key[0] == "points":
            plain = self._dirichlet_rows("discrete", key[1])
            assert np.array_equal(rows.ids, plain.ids)
            assert np.array_equal(rows.weights, plain.weights)
            assert np.array_equal(rows.xs, np.asarray(self.BASES["points"].points)[rows.ids])

    def test_posterior_rows_hold_their_own_atom(self):
        # row i conditions on atom X_i, id i + 1 at the first position drawn
        # from the seed; every other atom is fresh, with an id past 40
        rows = self._dirichlet_rows("uniform", 1)
        counts = np.diff(rows.offsets)
        own = np.repeat(np.arange(1, 41), counts)
        assert ((rows.ids == own) | (rows.ids > 40)).all()
        held = rows.ids == own
        assert (np.add.reduceat(held, rows.offsets[:-1]) > 0).mean() > 0.5
        x = np.random.default_rng(303).random(40)
        assert np.array_equal(rows.xs[held], np.repeat(x, counts)[held])
