import decimal
import math
from decimal import Decimal
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from conftest import assert_within_se, digest
from fvkit import death_process as dp
from fvkit import stats
from fvkit.death_process import (
    DeathParams,
    DeathPmf,
    PrecisionConfig,
    PrecisionExhaustedError,
    _death_chain_counts,
    check_chapman_kolmogorov,
    check_nonabsorption_bounds,
    check_single_death_identity,
    check_survival_identity,
    death_pmf,
    mc_death_pmf,
    mc_death_pmf_sensitivity,
    mean_entry_time,
    sample_death_count,
    transition_closed_form,
    transition_given_n,
)
from fvkit.verify import KS_LEVEL

PREC = PrecisionConfig()
TOL10 = 10 * PREC.tail_tol
P1 = DeathParams(1.0)


def inner(s, params=P1, prec=PREC):
    """The inner pmf that the transition functions read at time s."""
    return dp._inner_pmf(s, params, prec)


def rate(n, theta=1.0):
    """Rate of the jump n -> n-1."""
    return 0.5 * n * (n - 1 + theta)


class TestGammaRecurrence:
    @pytest.mark.parametrize("theta", [0, Fraction(1, 10), 1, Fraction(7, 2), 100], ids=str)
    @pytest.mark.parametrize("t", [Fraction(1, 100), Fraction(1, 5), 1, 50], ids=str)
    def test_factors_within_their_bound(self, theta, t):
        # each gamma_m of the recurrence against a 200-digit evaluation of
        # (2m - 1 + theta) exp(-lambda_m t): within 1.2 units of the series
        # precision's last digit, up to the default max_terms
        theta, t = Fraction(theta), Fraction(t)
        gamma = {}
        with dp._series_context(PREC.working_digits):
            unit = Decimal(10) ** (1 - decimal.getcontext().prec) / 2
            dp._gamma_factor(400, theta, t, gamma)
        with decimal.localcontext(decimal.Context(prec=200, Emin=decimal.MIN_EMIN)):
            for m in range(1, 401):
                lam_t = dp._death_rate_fraction(m, theta) * t
                exact = (Decimal((2 * m - 1) * theta.denominator + theta.numerator)
                         / theta.denominator
                         * (Decimal(-lam_t.numerator) / lam_t.denominator).exp())
                assert abs(gamma[m] - exact) <= Decimal("1.2") * unit * exact, m


class TestDeathPmf:
    def test_normalization(self):
        pmf = death_pmf(0.5, P1, PREC)
        assert abs(sum(float(p) for p in pmf.probs) + pmf.residual - 1) < TOL10

    @pytest.mark.parametrize("tol", [1e-20, 1e-30])
    @pytest.mark.parametrize("t", [1, 0.2])
    def test_tight_tail_tol_certifies_the_mass(self, t, tol):
        # the stop test reads 1 - mass in Decimal: through a float it could
        # not see below 1.1e-16, and the pmf stopped 3.6e-17 short of 1
        pmf = death_pmf(t, P1, PrecisionConfig(working_digits=80, tail_tol=tol))
        with decimal.localcontext() as ctx:
            ctx.prec = 100
            assert 1 - sum(pmf.probs) <= Decimal(tol) + sum(map(Decimal, pmf.term_bounds))

    def test_bounds_example(self):
        pmf = death_pmf(1.0, P1, PREC)
        alive = 1 - float(pmf.probs[0])
        assert math.exp(-0.5) < alive < 2 * math.exp(-0.5)

    def test_theta0_zero_state_is_empty(self):
        pmf = death_pmf(1.0, DeathParams(0), PREC)
        assert float(pmf.probs[0]) == 0.0
        assert float(pmf.probs[1]) > 0

    def test_against_monte_carlo(self, rng):
        reps = 200_000
        emp = mc_death_pmf(1.0, P1, n0=400, reps=reps, rng=rng)
        pmf = death_pmf(1.0, P1, PREC)
        d = pmf.probs_float
        k = min(d.size, emp.probs.size)
        se = np.sqrt(d[:k] * (1 - d[:k]) / reps)
        for n in range(k):
            assert_within_se(emp.probs[n], d[n], se[n], label=f"d_{n}(1)")

    def test_theta0_against_monte_carlo(self, rng):
        reps = 150_000
        emp = mc_death_pmf(0.8, DeathParams(0), n0=300, reps=reps, rng=rng)
        assert emp.probs[0] == 0.0
        pmf = death_pmf(0.8, DeathParams(0), PREC)
        d = pmf.probs_float
        k = min(d.size, emp.probs.size)
        se = np.sqrt(d[:k] * (1 - d[:k]) / reps)
        for n in range(1, k):
            assert_within_se(emp.probs[n], d[n], se[n], label=f"theta0 d_{n}")

    def test_monotone_absorption(self):
        vals = [float(death_pmf(t, P1, PREC).probs[0]) for t in (0.3, 0.7, 1.5, 3.0, 8.0)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_large_t_concentrates_at_zero(self, rng):
        emp = mc_death_pmf(50.0, P1, n0=50, reps=20_000, rng=rng)
        assert emp.probs[0] > 0.999

    def test_precision_exhausted_reports_achievable(self):
        with pytest.raises(PrecisionExhaustedError) as exc:
            death_pmf(1e-6, P1, PrecisionConfig(max_terms=40))
        assert exc.value.smallest_achievable > 0

    def test_rows_shape(self):
        pmf = death_pmf(1.0, P1, PREC)
        rows = pmf.rows()
        assert rows[0][0] == 0 and len(rows) == pmf.n_max + 1

    def test_rows_pinned(self):
        # the (n, d_n, term_bound) rows as floats, bit for bit, across the
        # small-t regime where the series cancels hardest and the coalescent
        grid = [np.array(death_pmf(t, DeathParams(theta), PREC).rows())
                for t in (0.05, 0.1, 0.2, 1, 5)
                for theta in (0, 0.5, 1, Fraction(7, 2), 4)]
        assert digest(*grid) == "26bde17070bbef9c"

    @pytest.mark.parametrize("t", [0.02, 0.05])
    @pytest.mark.parametrize("theta", [0.5, 4])
    def test_small_t_within_term_bounds(self, t, theta):
        # every entry agrees with a 120-digit evaluation to within its own
        # certified truncation bound, plus two float conversions
        pmf = death_pmf(t, DeathParams(theta), PREC)
        wide = death_pmf(t, DeathParams(theta), PrecisionConfig(working_digits=120))
        assert pmf.n_max == wide.n_max
        for n, (p, w, b) in enumerate(zip(pmf.probs, wide.probs, pmf.term_bounds)):
            assert abs(float(p) - float(w)) <= b + 4e-16, n


class TestMcSensitivity:
    # digests of the int64 oracle counts from n0 and 2*n0 at seed 20240817,
    # keyed by (theta, t, n0, reps).  The kernel calls no transcendental
    # ufunc, the lumps' shape and scale are Python floats, and its counts
    # are integers, so they need no float32 rounding.
    COUNTS = {
        (1.0, 1.0, 500, 20_000): ("778128960b7414ab", "c2fcb3531e099a8e"),
        (0.0, 0.8, 300, 3_000): ("4d3fa693b16e64ad", "bb72dd4f31928a9c"),
    }

    @pytest.mark.parametrize("key", sorted(COUNTS))
    def test_paired_counts_pinned(self, key):
        theta, t, n0, reps = key
        counts = _death_chain_counts(t, theta, n0, reps, np.random.default_rng(20240817))
        assert tuple(digest(c) for c in counts) == self.COUNTS[key]

    def test_doubling_shift_small(self, rng):
        rep = mc_death_pmf_sensitivity(1.0, P1, n0=300, reps=150_000, rng=rng)
        assert rep.max_shift_in_se < 3.0
        assert rep.doubled.n0 == 600

    def test_rejects_small_n0(self, rng):
        with pytest.raises(ValueError):
            mc_death_pmf(1.0, P1, n0=1, reps=10, rng=rng)

    @pytest.mark.parametrize("reps", [0, -5])
    def test_rejects_reps_below_one(self, rng, reps):
        # no replicates would read as a pass: a NaN or zero shift, z = 0
        for oracle in (mc_death_pmf, mc_death_pmf_sensitivity):
            with pytest.raises(ValueError, match="reps"):
                oracle(1.0, P1, n0=10, reps=reps, rng=rng)


K = dp._MC_TAIL


def _lump_law(rates):
    """The holding time H of these states and its Gamma lump G: mean,
    sigma, third cumulants (H, G), fourth central moment m4 (the larger),
    the bound 2 sigma m4**0.5 on E|H - mu|**3 + E|G - mu|**3 and the larger
    Chernoff tail past 4 mu (for H at s = lambda_min / 2)."""
    inv = [1 / r for r in rates.tolist()]
    # the j-th cumulant of a sum of exponentials is (j - 1)! sum 1/lambda**j
    mu, var, k3, k4 = (math.factorial(j - 1) * math.fsum(x ** j for x in inv)
                       for j in (1, 2, 3, 4))
    shape, scale = mu * mu / var, var / mu
    m4 = 3 * var * var + max(k4, 6 * var * scale ** 2)
    s = float(rates.min()) / 2
    tail = max(math.exp(-shape * (3 - math.log(4))),
               math.exp(-4 * mu * s - math.fsum(math.log1p(-s / r) for r in rates.tolist())))
    return dict(mu=mu, sigma=math.sqrt(var), k3=(k3, 2 * var * scale), m4=m4,
                abs3=2 * math.sqrt(var * m4), tail=tail)


def _derivative_weights(n, order):
    # d^order/ds^order P_{K,n}(s) = sum_m c_m P_{K,m}(s) at theta = 1, by the
    # forward equation P_{K,m}' = lambda_{m+1} P_{K,m+1} - lambda_m P_{K,m}
    c = {n: 1.0}
    for _ in range(order):
        nxt = {}
        for m, v in c.items():
            nxt[m] = nxt.get(m, 0.0) - v * rate(m)
            if m < K:
                nxt[m + 1] = nxt.get(m + 1, 0.0) + v * rate(m + 1)
        c = nxt
    return c


def _lump_error_bounds(n0, entries, t=1.0):
    """The docstring's bound on each of the first entries of the lumped
    oracle's pmf from n0 (500, or its doubled start 1000) at theta = 1:
    per lump swapped, M/6 (E|H - mu|**3 + E|G - mu|**3) plus the Taylor
    remainder's mean beyond 4 mu, plus the other lump's tail beyond its
    4 mu; and the largest M."""
    laws = [_lump_law(dp._hold_rates(1.0, 500, K + 1))]
    if n0 == 1000:
        laws.append(_lump_law(dp._hold_rates(1.0, 1000, 501)))
    s0 = Fraction(t - mean_entry_time(n0, 1.0) - 4 * sum(law["mu"] for law in laws))
    # P(D_s0 >= m | D_0 = K), which bounds P_{K,m}(s) at every s >= s0
    above = np.cumsum([transition_closed_form(K, m, s0, P1) for m in range(K, -1, -1)])[::-1]
    bounds, sup3 = [], 0.0
    for n in range(entries):
        m3 = sum(abs(c) * above[m] for m, c in _derivative_weights(n, 3).items())
        g1, g2 = (sum(map(abs, _derivative_weights(n, j).values())) for j in (1, 2))
        sup3 = max(sup3, m3)
        bounds.append(sum(
            m3 / 6 * law["abs3"]
            + 2 * math.sqrt(law["tail"]) * (2 + g1 * law["sigma"] + g2 * math.sqrt(law["m4"]) / 2)
            + sum(other["tail"] for other in laws if other is not law)
            for law in laws))
    return np.array(bounds), sup3


class TestGammaLump:
    def test_stated_moments(self):
        low = _lump_law(dp._hold_rates(1.0, 500, K + 1))
        high = _lump_law(dp._hold_rates(1.0, 1000, 501))
        assert [f"{x:.4g}" for x in (low["mu"], low["sigma"])] == ["0.02701", "0.002227"]
        assert [f"{x:.3g}" for x in (low["sigma"] ** 3, *low["k3"], high["sigma"] ** 3)] == [
            "1.1e-08", "2.87e-09", "1.82e-09", "8.97e-13"]
        # the oracle's lumps are these laws, the states n0..65 and 2*n0..n0+1
        lumps = dp._oracle_lumps(1.0, 500, 1.0, 1.0)
        for (states, shape, scale), law, size in zip(lumps, (low, high), (500 - K, 500)):
            assert states == size
            assert shape * scale == pytest.approx(law["mu"], rel=1e-15)
            assert shape * scale ** 2 == pytest.approx(law["sigma"] ** 2, rel=1e-15)

    @pytest.mark.parametrize("n0, ratio, sup3", [(500, "0.0014", 70), (1000, "0.0015", 73)])
    def test_stated_bound_below_a_tenth_of_the_se(self, n0, ratio, sup3):
        # the entries the suite reads: the pmf at t = 1, theta = 1 against
        # the oracle's 1e6 replicates
        d = death_pmf(1.0, P1).probs_float
        bounds, m3 = _lump_error_bounds(n0, d.size)
        se = np.sqrt(d * (1 - d) / 1e6)
        assert f"{max(bounds / se):.2g}" == ratio and max(bounds / se) < 0.1
        assert m3 <= sup3
        if n0 == 500:
            assert max(bounds) <= 4.5e-7

    @staticmethod
    def _full_draw_counts(t, theta, n0, reps, rng, block=2000):
        # the paired oracle with every holding time drawn and counted off
        # the full running sum, the doubled start reusing the low states
        rates = dp._hold_rates(theta, n0, 2 if theta == 0 else 1)
        rates_hi = dp._hold_rates(theta, 2 * n0, n0 + 1)
        t_low, t_hi = t - mean_entry_time(n0, theta), t - mean_entry_time(2 * n0, theta)
        counts, counts_hi = np.zeros(n0 + 1, dtype=np.int64), np.zeros(2 * n0 + 1, dtype=np.int64)
        for lo in range(0, reps, block):
            rows = min(block, reps - lo)
            reach = np.cumsum(rng.standard_exponential((rows, rates.size)) / rates, axis=1)
            reach_hi = np.cumsum(rng.standard_exponential((rows, rates_hi.size)) / rates_hi,
                                 axis=1)
            jumps = (reach_hi <= t_hi).sum(axis=1) + (reach + reach_hi[:, -1:] <= t_hi).sum(axis=1)
            counts += np.bincount(n0 - (reach <= t_low).sum(axis=1), minlength=n0 + 1)
            counts_hi += np.bincount(2 * n0 - jumps, minlength=2 * n0 + 1)
        return counts, counts_hi

    @pytest.mark.parametrize("t, theta, n0", [(1.0, 1.0, 500), (0.8, 0.0, 300)])
    def test_lumped_against_full_draw(self, t, theta, n0):
        # two-sample chi-square of each run's counts, lumped oracle against
        # the full draw, on independent seeds at equal reps
        reps = 20_000
        assert dp._oracle_lumps(theta, n0, t, t)[0][0] == n0 - K
        lumped = _death_chain_counts(t, theta, n0, reps, np.random.default_rng(1))
        full = self._full_draw_counts(t, theta, n0, reps, np.random.default_rng(2))
        for a, b in zip(lumped, full, strict=True):
            # sum (a - b)**2 / (a + b) over the cells with a pooled mean of
            # at least 5, and the rest pooled into one: Pearson's statistic
            # of a against that mean m with its deviations scaled by sqrt 2
            m = (a + b) / 2
            keep = m >= 5
            a, m = np.append(a[keep], a[~keep].sum()), np.append(m[keep], m[~keep].sum())
            if m[-1] == 0:
                a, m = a[:-1], m[:-1]
            assert stats.chisquare_pvalue(m + math.sqrt(2) * (a - m), m) > KS_LEVEL


class TestSampleDeathCount:
    def test_frequencies(self, rng):
        pmf = death_pmf(1.0, P1, PREC)
        draws = sample_death_count(pmf, rng, size=200_000)
        freq = np.bincount(draws, minlength=pmf.n_max + 1) / 200_000
        d = pmf.probs_float
        d = d / d.sum()
        se = np.sqrt(d * (1 - d) / 200_000)
        for n in range(d.size):
            assert_within_se(freq[n], d[n], max(se[n], 1e-9), label=f"freq {n}")

    def test_degenerate(self, rng):
        import mpmath
        pmf = DeathPmf(t=99.0, params=P1, probs=(mpmath.mpf(1),), term_bounds=(0.0,),
                       residual=0.0, clamped=(), working_digits=60)
        assert all(sample_death_count(pmf, rng) == 0 for _ in range(50))

    def test_rejects_fat_residual(self, rng):
        import mpmath
        pmf = DeathPmf(t=1.0, params=P1, probs=(mpmath.mpf(0.9),), term_bounds=(0.0,),
                       residual=0.1, clamped=(), working_digits=60)
        with pytest.raises(ValueError):
            sample_death_count(pmf, rng)

    def test_seeded_reproducibility(self):
        pmf = death_pmf(1.0, P1, PREC)
        a = sample_death_count(pmf, np.random.default_rng(5), size=100)
        b = sample_death_count(pmf, np.random.default_rng(5), size=100)
        assert np.array_equal(a, b)

    def test_stream_pinned(self):
        # one uniform per count, searched in the cumulative pmf: any change
        # to the consumed stream or the search moves the digest
        pmf = death_pmf(1.0, DeathParams(1.0))
        rng = np.random.default_rng(13)
        scalar = [sample_death_count(pmf, rng) for _ in range(20)]
        assert all(type(n) is int for n in scalar)
        batch = sample_death_count(pmf, rng, size=1000)
        assert batch.dtype == np.int64
        assert digest(np.array(scalar, dtype=np.int64), batch) == "841bc829aadaade7"


class TestTransition:
    def test_stay_put_entry(self):
        for n in (1, 3, 6):
            vec = transition_given_n(n, inner(0.8))
            assert abs(vec[n] - math.exp(-rate(n) * 0.8)) < TOL10

    def test_single_death_entry(self):
        n, s, theta = 4, 0.6, 1.0
        vec = transition_given_n(n, inner(s))
        lam_n, lam_m = rate(n), rate(n - 1)
        h = 0.5 * (math.exp(-lam_m * s) - math.exp(-lam_n * s)) / (lam_n - lam_m)
        assert abs(vec[n - 1] - n * (n - 1 + theta) * h) < TOL10

    def test_sums_to_one(self):
        for theta in (0.5, 4.0):
            vec = transition_given_n(6, inner(1.0, DeathParams(theta)))
            assert abs(sum(vec) - 1) < TOL10

    def test_matches_closed_form(self):
        for n in (1, 2, 5):
            for s in (0.2, 1.0):
                vec = transition_given_n(n, inner(s))
                for r in range(n + 1):
                    assert abs(vec[r] - transition_closed_form(n, r, s, P1)) < TOL10

    def test_closed_form_simple_cases(self):
        assert abs(transition_closed_form(3, 3, 0.5, P1) - math.exp(-rate(3) * 0.5)) < 1e-15
        for s in (0.3, 2.0):
            assert abs(transition_closed_form(1, 0, s, P1) - (1 - math.exp(-s / 2))) < 1e-15

    def test_closed_form_against_simulation(self, rng):
        # plain chain started exactly at 3: P(state 1 after 0.7); the oracle
        # discounts its clock by the mean entry time, so add that back
        reps = 1_000_000
        emp = mc_death_pmf(0.7 + mean_entry_time(3, 1.0), P1, n0=3, reps=reps, rng=rng)
        p = transition_closed_form(3, 1, 0.7, P1)
        assert_within_se(emp.probs[1], p, math.sqrt(p * (1 - p) / reps), label="3->1")

    def test_rejects_coincident_rates(self):
        with pytest.raises(ValueError):
            transition_closed_form(1, 0, 1.0, DeathParams(0))

    def test_theta0_goes_through_closed_form_only(self):
        with pytest.raises(ValueError):
            transition_given_n(3, inner(1.0, DeathParams(0)))
        # theta=0 with r >= 1 has distinct rates and works
        p = transition_closed_form(3, 1, 1.0, DeathParams(0))
        assert 0 < p < 1



def _fraction_closed_form(n, r, s, theta, digits):
    # the partial-fraction formula multiplied out in Fractions, rates and
    # all, as the closed form was first coded: the reference for the
    # integer kernel of transition_closed_form
    def mpf(x):
        x = Fraction(x)
        return mpmath.mpf(x.numerator) / x.denominator

    rates = [Fraction(k, 2) * (k - 1 + theta) for k in range(r, n + 1)]
    if len(set(rates)) != len(rates):
        raise ValueError("coincident rates")
    sf = Fraction(s)
    with mpmath.workdps(digits):
        if r == n:
            return float(mpmath.exp(-mpf(rates[-1] * sf)))
        prod_rates = Fraction(1)
        for lam in rates[1:]:
            prod_rates *= lam
        total = mpmath.mpf(0)
        for i, lam_k in enumerate(rates):
            denom = Fraction(1)
            for j, lam_j in enumerate(rates):
                if j != i:
                    denom *= lam_j - lam_k
            total += mpmath.exp(-mpf(lam_k * sf)) / mpf(denom)
        return float(mpf(prod_rates) * total)


class TestClosedFormKernel:
    THETAS = (0, 0.1, Fraction(1, 3), 0.5, 1, Fraction(7, 2), 4)
    SVALS = (Fraction(1, 1000), 0.2, 0.7, 1, 5)

    @pytest.mark.parametrize("digits", [60, 90])
    def test_integer_kernel_matches_fraction_formula(self, digits):
        # 1,500 inputs per reference precision, compared float for float
        compared = 0
        for theta in self.THETAS:
            params = DeathParams(theta)
            for s in self.SVALS:
                for n in range(1, 9):
                    for r in range(1 if theta == 0 else 0, n + 1):
                        got = transition_closed_form(n, r, s, params)
                        expected = _fraction_closed_form(n, r, s, Fraction(theta), digits)
                        assert got == expected, (n, r, s, theta)
                        compared += 1
        assert compared == 1500

    def test_grid_pinned(self):
        # every entry of n <= 8 at four thetas and four times, bit for bit
        vals = [transition_closed_form(n, r, s, DeathParams(theta))
                for theta in (0.5, 1, Fraction(7, 2), 4)
                for s in (Fraction(1, 1000), 0.2, 1, 5)
                for n in range(9) for r in range(n + 1)]
        assert digest(np.array(vals)) == "8238d34b5ac7c4c6"

    @staticmethod
    def exact_float(x):
        # an mpf converted exactly, then rounded once: float() on an mpf
        # rounds twice in the subnormal range
        man, exp = x.man_exp
        return float(Fraction(man) * Fraction(2) ** exp)

    def test_correctly_rounded_on_wide_grid(self):
        # every entry against a 400-digit evaluation, rounded once.  At a
        # fixed 60 digits, 17 of these 125 rows were off, some by sign
        # (n=30, r=0, s=1e-3, theta=0.1 read -3.3e-62 for 1.05e-69), and
        # subnormals were rounded twice (n=30, r=17, s=5, theta=1 is
        # 1.70073512539317e-309)
        compared = 0
        for theta in (0, Fraction(1, 10), Fraction(1, 2), 1, 4):
            p, q = Fraction(theta).numerator, Fraction(theta).denominator
            for s in (Fraction(1, 1000), Fraction(1, 100), 0.2, 1, 5):
                sf = Fraction(s)
                for n in (10, 15, 20, 30, 40):
                    rates = [k * ((k - 1) * q + p) for k in range(n + 1)]  # 2q lambda_k
                    with mpmath.workdps(400):
                        decay = [mpmath.exp(-mpmath.mpf(x * sf.numerator) / (2 * q * sf.denominator))
                                 for x in rates]
                        for r in range(1 if theta == 0 else 0, n + 1):
                            total = mpmath.fsum(
                                decay[r + i] / math.prod(b - a for b in rates[r:] if b != a)
                                for i, a in enumerate(rates[r:]))
                            expected = self.exact_float(total * math.prod(rates[r + 1:]))
                            got = transition_closed_form(n, r, s, DeathParams(theta))
                            assert got == expected, (n, r, s, theta)
                            compared += 1
        assert compared == 3000 - 5 * 5

    def test_theta0_to_zero_still_raises(self):
        for n in (1, 4, 8):
            with pytest.raises(ValueError, match="coincident rates"):
                transition_closed_form(n, 0, 0.5, DeathParams(0))
            with pytest.raises(ValueError, match="coincident rates"):
                _fraction_closed_form(n, 0, 0.5, Fraction(0), 60)

class TestSurvivalIdentity:
    def test_n1_example(self):
        res = check_survival_identity(1, inner(1.0))
        assert res < TOL10

    def test_grid_subset(self):
        for theta in (0.5, 4.0):
            for n in (1, 4, 8):
                for s in (0.2, 5.0):
                    assert check_survival_identity(n, inner(s, DeathParams(theta))) < TOL10

    def test_large_s_both_tiny(self):
        params = DeathParams(1.0)
        res = check_survival_identity(2, inner(50.0, params))
        assert res < TOL10
        assert math.exp(-rate(2) * 50.0) < 1e-10


class TestSingleDeathIdentity:
    def test_grid_subset(self):
        for theta in (0.5, 1.0, 4.0):
            for n in (1, 3, 8):
                assert check_single_death_identity(n, inner(1.0, DeathParams(theta))) < TOL10

    def test_n1_ties_to_closed_form_transition(self):
        # P(1 -> 0 in s) = theta * H(s) for n = 1
        s, theta = 0.9, 1.0
        h = 0.5 * (1 - math.exp(-rate(1) * s)) / rate(1)
        assert abs(theta * h - transition_closed_form(1, 0, s, P1)) < 1e-15

    def test_small_s_residual_vanishes(self):
        # smallest s inside the default-precision envelope (cancellation
        # headroom shrinks fast below t ~ 0.05)
        res = check_single_death_identity(2, inner(0.05))
        assert res < TOL10

    def test_small_s_beyond_envelope_fails_loudly(self):
        with pytest.raises(PrecisionExhaustedError):
            check_single_death_identity(2, inner(1e-2))
        wide = PrecisionConfig(working_digits=220)
        res = check_single_death_identity(2, inner(1e-2, P1, wide))
        assert res < TOL10


    def test_closed_form_out_of_range_raises(self, monkeypatch):
        # the H(1e-3) range check raises, so it also holds under python -O
        import fvkit.death_process as dp
        monkeypatch.setattr(dp, "transition_closed_form", lambda n, r, s, params: 1.0)
        with pytest.raises(RuntimeError, match="outside"):
            check_single_death_identity(2, inner(1.0))


class TestTransitionRow:
    @pytest.mark.parametrize("theta", [Fraction(1, 3), Fraction(7, 2)], ids=str)
    @pytest.mark.parametrize("s", [Fraction(1, 2), 3], ids=str)
    def test_row_equals_per_entry_formulas(self, theta, s):
        # the three residuals of one summed row, bit for bit, against each
        # entry summed on its own: the survival entry, the one-death entry
        # over n(n-1+theta) in the series context, and the whole row
        pmf = inner(s, DeathParams(theta))
        for n in range(1, 11):
            closed = [transition_closed_form(n, r, s, pmf.params) for r in range(n + 1)]
            scale = n * (n - 1 + theta)
            with dp._series_context(pmf.working_digits):
                row = [dp._transition_entry(pmf, n, r) for r in range(n + 1)]
                survival = abs(float(dp._transition_entry(pmf, n, n)) - closed[n])
                one_death = abs(float(dp._transition_entry(pmf, n, n - 1) / dp._dec(scale))
                                - closed[n - 1] / scale)
            worst = max(abs(float(a) - b) for a, b in zip(row, closed))
            assert dp.check_transition_row(n, pmf) == (survival, one_death, worst)
            assert check_survival_identity(n, pmf) == survival
            assert check_single_death_identity(n, pmf) == one_death
            assert transition_given_n(n, pmf) == [float(a) for a in row]
            assert max(survival, one_death, worst) < TOL10


class TestMeanEntryTime:
    @staticmethod
    def tail_integral(a, theta):
        # integral from a to infinity of 2 dx / (x (x - 1 + theta))
        if theta == 1:
            return 2 / a
        return 2 * math.log1p((theta - 1) / a) / (theta - 1)

    @pytest.mark.parametrize("theta", [0.5, 1.0, 4.0])
    @pytest.mark.parametrize("n0", [10, 500])
    def test_matches_long_direct_sum(self, n0, theta):
        # 2e6 terms summed directly; the decreasing tail lies between its
        # integrals from M+1 and from M, a bracket about 5e-13 wide
        M = n0 + 2_000_000
        ks = np.arange(n0 + 1, M + 1, dtype=float)
        head = float((2.0 / (ks * (ks - 1 + theta))).sum())
        lo = head + self.tail_integral(M + 1, theta)
        hi = head + self.tail_integral(M, theta)
        assert lo - 1e-16 <= mean_entry_time(n0, theta) <= hi + 1e-16

    @pytest.mark.parametrize("theta", [0, 0.1, 0.5, 0.999, 1, 1.001, 1.5, 2, 3, 4, 7.5, 10, 25])
    def test_pinned_to_digamma_form(self, theta):
        # bit for bit against 2(psi(n0+theta) - psi(n0+1))/(theta-1) at 40
        # digits, and 2 psi'(n0+1) at theta = 1
        for n0 in [*range(2, 60), 100, 250, 500, 1000, 2000, 10**4, 10**6]:
            with mpmath.workdps(40):
                if theta == 1:
                    expected = float(2 * mpmath.psi(1, n0 + 1))
                else:
                    th = mpmath.mpf(theta)
                    expected = float(2 * (mpmath.digamma(n0 + th) - mpmath.digamma(n0 + 1))
                                     / (th - 1))
            assert mean_entry_time(n0, theta) == expected, n0

    def test_large_theta_matches_digamma_form(self):
        # theta = 1e4 sums an 80,000-term head, in 40-digit decimal
        n0, theta = 2, 1e4
        with mpmath.workdps(40):
            a = mpmath.mpf(theta) - 1
            expected = float(2 / a * (mpmath.digamma(n0 + 1 + a) - mpmath.digamma(n0 + 1)))
        assert mean_entry_time(n0, theta) == pytest.approx(expected, rel=1e-15)

    def test_coalescent_telescopes(self):
        # theta = 0: sum_{k>n0} 2/(k(k-1)) = 2/n0
        assert mean_entry_time(40, 0.0) == pytest.approx(2 / 40, rel=1e-15)


class TestChapmanKolmogorov:
    def test_example_grid_point(self):
        pmf_half = inner(0.5)
        res = check_chapman_kolmogorov(1, pmf_half, pmf_half, inner(1.0))
        assert res < 100 * PREC.tail_tol

    def test_rejects_pmfs_that_do_not_compose(self):
        pmf_half, pmf_one = inner(0.5), inner(1.0)
        with pytest.raises(ValueError, match="t \\+ s"):
            check_chapman_kolmogorov(1, pmf_half, pmf_one, pmf_one)
        with pytest.raises(ValueError, match="one theta"):
            check_chapman_kolmogorov(1, pmf_half, pmf_half, inner(1.0, DeathParams(2.0)))
        # the sum runs at the pmfs' digits, so the three must carry the same
        half = death_pmf(0.5, P1, PrecisionConfig(working_digits=60))
        one = death_pmf(1.0, P1, PrecisionConfig(working_digits=70))
        with pytest.raises(ValueError, match="one working_digits"):
            check_chapman_kolmogorov(1, half, half, one)

    def test_symmetry_in_t_s(self):
        pmf_1, pmf_2, pmf_3 = (inner(u) for u in (1.0, 2.0, 3.0))
        a = check_chapman_kolmogorov(2, pmf_1, pmf_2, pmf_3)
        b = check_chapman_kolmogorov(2, pmf_2, pmf_1, pmf_3)
        assert a < 100 * PREC.tail_tol and b < 100 * PREC.tail_tol
        assert abs(a - b) < 100 * PREC.tail_tol

    def test_large_horizon_absorbs(self):
        res = check_chapman_kolmogorov(0, inner(30.0), inner(30.0), inner(60.0))
        assert res < 100 * PREC.tail_tol
        assert float(death_pmf(60.0, P1, PREC).probs[0]) > 1 - 1e-10


class TestNonabsorptionBounds:
    def test_examples(self):
        assert check_nonabsorption_bounds(1.0, P1, PREC)
        assert check_nonabsorption_bounds(3.0, DeathParams(0.5), PREC)

    def test_large_t_ordering_preserved(self):
        params = DeathParams(4.0)
        assert check_nonabsorption_bounds(10.0, params, PREC)
        lam1 = rate(1, 4.0)
        assert (1 + 4.0) * math.exp(-lam1 * 10.0) < 1e-7  # all three quantities tiny

    def test_rejects_theta0(self):
        with pytest.raises(ValueError):
            check_nonabsorption_bounds(1.0, DeathParams(0), PREC)

    def test_unresolved_gap_past_float_digits(self):
        # at t = 500 the gap to the upper bound is about exp(-1000) = 5e-435;
        # the deepening stops at the tolerance floor of the inner digits
        # (the caller's + 32), also where that floor and the series bound
        # are below the smallest float, and reports the bound it reached
        for digits in (60, 200, 400):
            with pytest.raises(PrecisionExhaustedError, match="certifiable resolution at "
                               f"{digits + 32} digits") as exc:
                check_nonabsorption_bounds(500.0, P1, PrecisionConfig(working_digits=digits))
            assert exc.value.smallest_achievable > 0
            assert "tolerance: 0)" not in str(exc.value)
        tol = dp._inner_prec(PrecisionConfig(working_digits=400, tail_tol=1e-300), 30).tail_tol
        assert 0 < tol < math.ulp(0.0)

    def test_gap_past_float_range_resolves(self):
        # the margin is 10 series bounds in Decimal, so enough digits
        # resolve a gap below the float range
        assert check_nonabsorption_bounds(500.0, P1, PrecisionConfig(working_digits=480))


class TestParamsValidation:
    def test_negative_theta(self):
        with pytest.raises(ValueError):
            DeathParams(-0.5)

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_non_finite_theta(self, theta):
        # NaN compares false with everything, and the series cannot take
        # either value as a Fraction
        with pytest.raises(ValueError, match="finite"):
            DeathParams(theta)

    def test_rational_theta_exact(self):
        assert DeathParams(Fraction(1, 3)).theta_fraction == Fraction(1, 3)
        assert DeathParams(0.5).theta_fraction == Fraction(1, 2)

    def test_precision_config_validation(self):
        with pytest.raises(ValueError):
            PrecisionConfig(working_digits=8)
        with pytest.raises(ValueError):
            PrecisionConfig(tail_tol=0)

    @pytest.mark.parametrize("tol", [0.0, -1e-12, 1.0, 2.0, math.inf, math.nan])
    def test_tail_tol_outside_unit_interval_rejected(self, tol):
        # at 1 or more every series stops after its first term, so d_0(1)
        # read 1.0 and d_1(1) 0.0; at inf the non-absorption check looped
        with pytest.raises(ValueError, match="tail_tol must be > 0 and < 1"):
            PrecisionConfig(tail_tol=tol)

    def test_tail_tol_just_inside_unit_interval_accepted(self):
        assert PrecisionConfig(tail_tol=0.5).tail_tol == 0.5

    @pytest.mark.parametrize("tol", [1.1e-6, 1e-3, 0.9])
    def test_verify_death_refuses_loose_tail_tol(self, tol):
        # its residual limits are 10x and 100x tail_tol
        from fvkit.verify import verify_death
        with pytest.raises(ValueError, match="tail_tol <= 1e-06"):
            verify_death(prec=PrecisionConfig(tail_tol=tol))

    @pytest.mark.parametrize("tol", [9.9e-17, 1e-20])
    def test_verify_death_refuses_tight_tail_tol(self, tol):
        # its rows sum floats, which round at 1.1e-16 near 1
        from fvkit.verify import verify_death
        with pytest.raises(ValueError, match="tail_tol >= 1e-16"):
            verify_death(prec=PrecisionConfig(tail_tol=tol))
