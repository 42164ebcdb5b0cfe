"""The integer kernels of the exact layers against plain Fraction
arithmetic, the exhaustive urn oracle against the closed forms, the
death-pmf memo, and the pinned default tables of the exact suites."""
import hashlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fvkit.combinatorics import binomial, falling_factorial, rising_factorial
from fvkit import death_process as dp
from fvkit import polya_urn as urn
from fvkit.death_process import (
    CLOSED_FORM_CACHE_SIZE,
    PMF_CACHE_SIZE,
    DeathParams,
    PrecisionConfig,
    _death_pmf_cached,
    death_pmf,
    transition_given_n,
)
from fvkit.polya_urn import (
    overlap_pmf_bruteforce,
    overlap_pmf_exact,
    overlap_pmf_extended,
    overlap_pmf_theta0,
)
from fvkit.verify import verify_death, verify_urn


def naive_rising(a, m):
    out = Fraction(1)
    for i in range(m):
        out *= Fraction(a) + i
    return out


def naive_falling(a, m):
    out = Fraction(1)
    for i in range(m):
        out *= Fraction(a) - i
    return out


def naive_binomial(m, n):
    if n < 0 or n > m:
        return 0
    out = Fraction(1)
    for i in range(n):
        out = out * (m - i) / (i + 1)
    return out


# negative, non-dyadic and integer-valued Fractions alongside plain ints
rationals = st.fractions(min_value=-40, max_value=40, max_denominator=30)
factor_args = st.one_of(st.integers(-30, 30), rationals)


class TestIntegerKernels:
    @given(factor_args, st.integers(0, 25))
    def test_rising_matches_fraction_loop(self, a, m):
        got = rising_factorial(a, m)
        assert got == naive_rising(a, m)
        assert type(got) is (Fraction if isinstance(a, Fraction) and m else int)

    @given(factor_args, st.integers(0, 25))
    def test_falling_matches_fraction_loop(self, a, m):
        got = falling_factorial(a, m)
        assert got == naive_falling(a, m)
        assert type(got) is (Fraction if isinstance(a, Fraction) and m else int)

    @given(st.integers(-5, 80), st.integers(-5, 80))
    def test_binomial_matches_fraction_loop(self, m, n):
        got = binomial(m, n)
        assert type(got) is int
        assert got == naive_binomial(m, n)

    def test_examples(self):
        assert rising_factorial(Fraction(-7, 3), 4) == Fraction(-7 * -4 * -1 * 2, 3**4)
        assert falling_factorial(Fraction(1, 7), 3) == Fraction(1 * -6 * -13, 7**3)
        assert rising_factorial(Fraction(-2), 3) == 0
        assert rising_factorial(Fraction(5, 6), 0) == 1
        assert falling_factorial(-3, 0) == 1
        assert binomial(0, 0) == 1
        assert binomial(-1, 0) == 0

    def test_rejects_negative_length(self):
        with pytest.raises(ValueError):
            rising_factorial(Fraction(1, 3), -1)
        with pytest.raises(ValueError):
            falling_factorial(2, -1)

    def test_rejects_float_factors(self):
        # the kernels multiply integers only, so a nonempty product refuses
        # a float a; the empty product is 1 for any a
        for kernel in (rising_factorial, falling_factorial):
            with pytest.raises(TypeError):
                kernel(2.5, 3)
            with pytest.raises(TypeError):
                kernel(2.0, 1)
            assert kernel(2.5, 0) == 1


class TestUrnOracle:
    @pytest.mark.parametrize("theta", [Fraction(7, 3), Fraction(1, 3)])
    def test_bruteforce_equals_exact(self, theta):
        for m in range(5):
            for n in range(5):
                exact = overlap_pmf_exact(m, n, theta).probs
                assert overlap_pmf_bruteforce(m, n, theta).probs == exact
                assert overlap_pmf_extended(m, n, theta).probs == exact

    def test_bruteforce_equals_theta0(self):
        for m in range(1, 5):
            for n in range(1, 5):
                assert overlap_pmf_bruteforce(m, n, 0).probs == overlap_pmf_theta0(m, n).probs

    def test_probs_float_read_only(self):
        pmf = overlap_pmf_exact(3, 2, Fraction(7, 3))
        arr = pmf.probs_float
        assert arr is pmf.probs_float
        assert np.array_equal(arr, [float(p) for p in pmf.probs])
        with pytest.raises(ValueError):
            arr[0] = 0.0


class TestDeathPmfMemo:
    # keys unique to this class, so no other test has filled them
    PARAMS = DeathParams(2.25)

    def test_repeat_call_returns_identical_entries(self):
        a = death_pmf(0.7, self.PARAMS)
        b = death_pmf(0.7, self.PARAMS)
        assert b is a
        assert b.probs == a.probs and b.term_bounds == a.term_bounds

    def test_equal_keys_share_one_entry(self):
        before = _death_pmf_cached.cache_info()
        a = death_pmf(0.5, self.PARAMS)
        b = death_pmf(Fraction(1, 2), DeathParams(Fraction(9, 4)))
        after = _death_pmf_cached.cache_info()
        assert b is a
        assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)

    def test_precision_gets_its_own_entry(self):
        before = _death_pmf_cached.cache_info()
        a = death_pmf(0.625, self.PARAMS, PrecisionConfig(working_digits=60))
        b = death_pmf(0.625, self.PARAMS, PrecisionConfig(working_digits=70))
        after = _death_pmf_cached.cache_info()
        assert after.misses - before.misses == 2
        assert (a.working_digits, b.working_digits) == (60, 70)
        assert max(abs(float(x - y)) for x, y in zip(a.probs, b.probs)) < 1e-11

    def test_transitions_share_one_inner_pmf(self):
        # every transition weight is an urn probability, so no n needs a
        # tighter pmf than the others
        _death_pmf_cached.cache_clear()
        for n in range(1, 9):
            transition_given_n(n, 1.0, DeathParams(1.0))
        assert _death_pmf_cached.cache_info().currsize == 1

    def test_cache_is_bounded(self):
        assert _death_pmf_cached.cache_info().maxsize == PMF_CACHE_SIZE

    def test_invalid_time_is_rejected_before_lookup(self):
        before = _death_pmf_cached.cache_info()
        with pytest.raises(ValueError):
            death_pmf(0, self.PARAMS)
        assert _death_pmf_cached.cache_info() == before

    def test_probs_float_read_only(self):
        pmf = death_pmf(0.7, self.PARAMS)
        arr = pmf.probs_float
        assert arr is pmf.probs_float
        with pytest.raises(ValueError):
            arr[0] = 0.0


class TestSharedExactQuantities:
    GRID = dict(thetas=(Fraction(5, 4),), svals=(0.5, 1.0), n_max=3, r_max=1,
                ck_pairs=((0.5, 0.5),), ineq_ts=())

    def test_urn_weights_computed_once_per_call(self, monkeypatch):
        # the weights depend on theta but not on the time, so the second
        # time point and the identity rows read the first one's weights;
        # the table does not outlive the call
        calls = []
        entry = urn.overlap_entry

        def counted(*args):
            calls.append(args)
            return entry(*args)

        monkeypatch.setattr(urn, "overlap_entry", counted)
        assert verify_death(**self.GRID).ok
        assert calls and len(calls) == len(set(calls))
        assert dp._URN_WEIGHTS.get() is None

    def test_closed_form_one_row_per_time(self):
        dp._closed_form_row.cache_clear()
        assert verify_death(**self.GRID).ok
        # (n, s) for n = 1..3 at both times, and H(1e-3) once per n
        assert dp._closed_form_row.cache_info().currsize == 3 * 2 + 3
        assert dp._closed_form_row.cache_info().maxsize == CLOSED_FORM_CACHE_SIZE


class TestPinnedTables:
    # sha256 of the default urn and death tables, every row's text as
    # rendered; the death rows carry repr(float) residuals, so this pins
    # the series, the urn weights and the closed form bit for bit
    @pytest.mark.parametrize("suite, expected", [
        (verify_urn, "fa58c56d28317e1538d4c05ba7df45be3ef02608290834956d4fcad8a572888e"),
        (lambda: verify_death(mc_reps=0),
         "f8864b6bff7a3104eb6877141453aadf6db50735f624c6e9254644fd1e800d78"),
    ], ids=["urn", "death"])
    def test_table_rows_pinned(self, suite, expected):
        rows = suite().table_rows()
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == expected
