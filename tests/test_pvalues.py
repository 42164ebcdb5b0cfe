"""fvkit.stats, the one module that turns a Monte Carlo run into a
verdict: the z-score, the binomial and variance standard errors, the lag
slope, and the two p-values the process harnesses compute themselves (the
exact equal-size two-sample Kolmogorov-Smirnov test and the chi-square
tail).  scipy is the oracle here and is needed by the tests only; the
runtime must not import it."""
import math
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from fvkit import stats as fvstats
from fvkit.stats import chi2_sf, chisquare_pvalue, ks_2samp_equal

SCIPY_EXACT_MAX_N = 10_000  # ks_2samp's method="auto" is exact up to here


def assert_matches_scipy(x, y):
    """Bit-identical (statistic, p-value), except where scipy gives up on
    its own exact sum: at D = 1/n the Horner sum rounds to just above 1,
    scipy switches to the asymptotic tail, and the exact value is 1."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ref = stats.ks_2samp(x, y)
    got = ks_2samp_equal(x, y)
    assert got[0] == float(ref.statistic)
    if any("Exact calculation unsuccessful" in str(w.message) for w in caught):
        assert round(got[0] * len(x)) == 1 and got[1] == 1.0
        assert abs(float(ref.pvalue) - 1.0) < 1e-3
    else:
        assert got == (float(ref.statistic), float(ref.pvalue))


def exact_outside(n, h):
    """P(D_{n,n} >= h/n) as a Fraction: 2 sum_k (-1)^(k+1) C(2n, n-kh) / C(2n, n)."""
    num = sum((-1) ** (k + 1) * math.comb(2 * n, n - k * h) for k in range(1, n // h + 1))
    return Fraction(2 * num, math.comb(2 * n, n))


def gap_samples(n, h):
    """Equal-size samples whose ECDFs differ by exactly h/n at most."""
    x = np.arange(n, dtype=float)
    return x, x + h - 0.5


class TestKsAgainstScipy:
    @given(st.integers(1, 40).flatmap(lambda n: st.tuples(
        st.lists(st.integers(0, 5), min_size=n, max_size=n),
        st.lists(st.integers(0, 5), min_size=n, max_size=n))))
    def test_ties(self, xy):
        assert_matches_scipy(np.array(xy[0], dtype=float), np.array(xy[1], dtype=float))

    @given(st.integers(1, 60).flatmap(lambda n: st.tuples(
        st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=n, max_size=n),
        st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=n, max_size=n))))
    def test_floats(self, xy):
        assert_matches_scipy(np.array(xy[0]), np.array(xy[1]))

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 99, 1000, 9999, SCIPY_EXACT_MAX_N])
    def test_grid(self, n):
        rng = np.random.default_rng(n)
        x = rng.random(n)
        for y in (rng.random(n),                        # same law
                  rng.random(n) + 0.05,                 # shifted
                  rng.integers(0, 3, n).astype(float),  # heavy ties against floats
                  x[::-1].copy(),                       # identical samples, h = 0
                  x + 2.0):                             # fully separated, h = n
            assert_matches_scipy(x, y)
        ties = rng.integers(0, 4, n).astype(float)
        assert_matches_scipy(ties, rng.integers(0, 4, n).astype(float))

    def test_identical_and_separated_values(self):
        x = np.linspace(0.0, 1.0, 7)
        assert ks_2samp_equal(x, x[::-1]) == (0.0, 1.0)
        stat, p = ks_2samp_equal(x, x + 5.0)
        assert stat == 1.0
        assert p == pytest.approx(2 / math.comb(14, 7), rel=1e-14)


class TestKsExact:
    @pytest.mark.parametrize("n", [1, 2, 7, 30])
    def test_every_gap_against_rational_sum(self, n):
        for h in range(1, n + 1):
            _, p = ks_2samp_equal(*gap_samples(n, h))
            assert p == pytest.approx(float(exact_outside(n, h)), rel=1e-13, abs=1e-15)

    @pytest.mark.parametrize("n,h", [(10_001, 166), (10_001, 400), (12_000, 300)])
    def test_beyond_scipy_exact_range(self, n, h):
        stat, p = ks_2samp_equal(*gap_samples(n, h))
        assert stat == h / n
        assert p == pytest.approx(float(exact_outside(n, h)), rel=1e-13)

    @pytest.mark.parametrize("n", [10_001, 15_000, 20_000])
    def test_close_to_scipy_asymptotic_tail(self, n):
        # above 10,000 scipy uses kstwo.sf(D, n/2); its gap to the exact
        # value peaks near 0.398/sqrt(n) (about 4e-3 at n = 10,001)
        rng = np.random.default_rng(n)
        x = rng.random(n)
        for shift in (0.0, 0.01, 0.02, 0.04):
            y = rng.random(n) + shift
            _, p = ks_2samp_equal(x, y)
            assert abs(p - float(stats.ks_2samp(x, y).pvalue)) <= 0.5 / math.sqrt(n)


class TestChisquare:
    def test_against_scipy(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            k = int(rng.integers(2, 12))
            w = rng.dirichlet(np.ones(k))
            total = int(rng.integers(10, 100_000))
            counts = rng.multinomial(total, w)
            ref = float(stats.chisquare(counts, w * total).pvalue)
            assert chisquare_pvalue(counts, w * total) == pytest.approx(ref, rel=1e-12)

    def test_perfect_fit_and_far_tail(self):
        assert chisquare_pvalue([25, 25, 50], [25.0, 25.0, 50.0]) == 1.0
        p = chisquare_pvalue([1000, 0], [500.0, 500.0])
        assert p == pytest.approx(float(stats.chisquare([1000, 0], [500.0, 500.0]).pvalue),
                                  rel=1e-12)
        assert 0 < p < 1e-200

    @pytest.mark.parametrize("df", range(1, 41))
    def test_tail_against_scipy(self, df):
        # the finite sums for odd and even df, from the centre of the law
        # down to p < 1e-100
        stats_seen = np.concatenate([np.linspace(0.0, 4.0 * df + 40.0, 60),
                                     np.geomspace(1e-6, 1300.0, 40)])
        ps = []
        for stat in stats_seen:
            ref = float(stats.chi2.sf(stat, df))
            got = chi2_sf(float(stat), df)
            assert got == pytest.approx(ref, rel=1e-12), stat
            ps.append(got)
        assert chi2_sf(0.0, df) == 1.0
        assert min(ps) < 1e-100

    def test_mismatched_totals_raise(self):
        # totals must agree to sqrt(eps) ~ 1.5e-8 relative, as in scipy
        for off in (1.0, 6e-6):  # 1.7e-2 and 1e-7 relative
            expected = [10.0, 20.0, 30.0 + off]
            with pytest.raises(ValueError):
                chisquare_pvalue([10, 20, 30], expected)
            with pytest.raises(ValueError):
                stats.chisquare([10, 20, 30], expected)
        close = [10.0, 20.0, 30.0 + 6e-9]  # 1e-10 relative
        assert chisquare_pvalue([10, 20, 30], close) == pytest.approx(
            float(stats.chisquare([10, 20, 30], close).pvalue), rel=1e-12)


class TestEstimate:
    def test_var_of_matches_the_moment_check_arithmetic(self):
        # the variance and its fourth-moment standard error, written out
        # as the prior and chain moment checks computed them inline
        vals = np.random.default_rng(3).beta(0.5, 0.5, 1001)
        var = float(vals.var(ddof=1))
        centered = vals - vals.mean()
        m4 = float((centered**4).mean())
        var_se = float(math.sqrt(max(m4 - var**2, 0.0) / vals.size))
        assert fvstats.Estimate.var_of(vals, 0.125) == fvstats.Estimate(var, var_se, 0.125)

    def test_binomial_se_vanishes_at_certain_outcomes(self):
        se = fvstats.binomial_se(np.array([0.0, 1.0, 0.5]), 16)
        assert se.tolist() == [0.0, 0.0, 0.125]
        # so any gap from a certain outcome reads as infinitely many SEs
        z = fvstats.z(np.array([1e-3, -1e-3, 0.0]), se)
        assert z.tolist() == [math.inf, math.inf, 0.0]
        assert fvstats.binomial_se(0.5, 4) == 0.25

    def test_z_without_spread(self):
        assert fvstats.z(0.0, 0.0) == 0.0
        assert fvstats.z(-1e-9, 0.0) == math.inf
        assert fvstats.z(-1.0, 0.5) == 2.0
        assert math.isnan(fvstats.z(math.nan, math.nan))
        z = fvstats.z(np.array([0.0, -1e-9, -1.0, math.nan]), np.array([0.0, 0.0, 0.5, 0.5]))
        assert z[:3].tolist() == [0.0, math.inf, 2.0] and math.isnan(z[3])


class TestLagSlope:
    def test_robust_se_on_a_known_fit(self):
        u = np.array([0.0, 1.0, 2.0, 3.0])
        v = np.array([0.0, 2.0, 2.0, 6.0])
        fit = fvstats.lag_slope(u, v, 2.0)
        # slope 9/5 over Sxx = 5; residuals 0.2, 0.4, -1.4, 0.8, so the
        # scores du*e are -0.3, -0.2, -0.7, 1.2 with squares summing to 2.06
        assert fit.value == pytest.approx(1.8)
        assert fit.se == pytest.approx(math.sqrt(2.06) / 5.0)
        assert fit.target == 2.0

    def test_constant_start_gives_nan(self):
        fit = fvstats.lag_slope(np.ones(5), np.arange(5.0), 1.0)
        assert math.isnan(fit.value) and math.isnan(fit.se) and math.isnan(fit.z)


class TestBadInput:
    def test_ks_empty_or_unequal(self):
        with pytest.raises(ValueError):
            ks_2samp_equal(np.array([]), np.array([]))
        with pytest.raises(ValueError):
            ks_2samp_equal(np.arange(3.0), np.arange(4.0))

    def test_chisquare_empty_or_unequal(self):
        with pytest.raises(ValueError):
            chisquare_pvalue([], [])
        with pytest.raises(ValueError):
            chisquare_pvalue([5, 5], [2.5, 2.5, 5.0])

    def test_fewer_than_two_reps(self):
        with pytest.raises(ValueError, match="reps must be >= 2"):
            fvstats.check_reps(1)
        fvstats.check_reps(2)


# Run one CLI command (none: import only) and print which of the heavy
# third-party modules the process loaded.
FOOTPRINT_CODE = """
import os, sys, fvkit.cli, fvkit.verify
if sys.argv[1:]:
    try:
        fvkit.cli.main(sys.argv[1:] + ["--out", os.devnull], prog_name="fvkit")
    except SystemExit as e:
        if e.code:
            raise
print(",".join(m for m in ("click", "mpmath", "numpy", "scipy") if m in sys.modules))
"""


def test_runtime_does_not_import_scipy():
    """Neither click, scipy nor mpmath is ever imported, and numpy only by the
    commands that compute with it: the exact-rational commands, the death
    pmf series (stdlib decimal) and the closed-form oracle (Python
    integers) load none of them, while the chains and the p-values need
    numpy alone."""
    cases = [
        ([], ""),
        (["verify", "urn", "--m-max", "3"], ""),
        (["pmf", "overlap", "--theta", "7/2", "--m", "4", "--n", "3", "--bruteforce"], ""),
        (["pmf", "death", "--theta", "1", "--t", "1"], ""),
        (["verify", "death"], ""),
        (["simulate", "fv", "--theta", "1", "--t", "0.5", "--steps", "3"], "numpy"),
        (["verify", "processes", "--reps", "100"], "numpy"),
    ]
    for args, loaded in cases:
        out = subprocess.run([sys.executable, "-c", FOOTPRINT_CODE, *args],
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == loaded, (args, out.stdout)
