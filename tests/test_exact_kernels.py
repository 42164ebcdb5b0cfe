"""The integer kernels of the exact layers against plain Fraction
arithmetic, the exhaustive urn oracle against the closed forms, death pmfs
held by their callers, and the pinned default tables of the exact suites."""
import gc
import hashlib
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fvkit.combinatorics import binomial, falling_factorial, rising_factorial
from fvkit import death_process as dp
from fvkit import markov_processes as mk
from fvkit.death_process import (
    DeathParams,
    PrecisionConfig,
    death_pmf,
    transition_given_n,
)
from fvkit.polya_urn import (
    _extended_row,
    overlap_pmf_bruteforce,
    overlap_pmf_exact,
    overlap_pmf_theta0,
)
from fvkit.random_measures import Interval, UniformBase
from fvkit.verify import verify_combinatorics, verify_death, verify_urn


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
                nums, den = _extended_row(m, n, theta)
                assert tuple(Fraction(a, den) for a in nums) == exact

    def test_bruteforce_equals_theta0(self):
        for m in range(1, 5):
            for n in range(1, 5):
                assert overlap_pmf_bruteforce(m, n, 0).probs == overlap_pmf_theta0(m, n).probs


class TestDeathPmfMemo:
    # death_pmf computes afresh on every call; its callers hold the pmfs
    PARAMS = DeathParams(2.25)

    def test_repeat_call_returns_identical_entries(self):
        a = death_pmf(0.7, self.PARAMS)
        b = death_pmf(0.7, self.PARAMS)
        assert b.probs == a.probs and b.term_bounds == a.term_bounds

    def test_equal_keys_share_one_entry(self):
        a = death_pmf(0.5, self.PARAMS)
        b = death_pmf(Fraction(1, 2), DeathParams(Fraction(9, 4)))
        assert b.probs == a.probs and b.term_bounds == a.term_bounds
        # the time is kept as given, so a Fraction stays exact
        assert type(b.t) is Fraction and b.t == a.t

    def test_precision_gets_its_own_entry(self):
        a = death_pmf(0.625, self.PARAMS, PrecisionConfig(working_digits=60))
        b = death_pmf(0.625, self.PARAMS, PrecisionConfig(working_digits=70))
        assert (a.working_digits, b.working_digits) == (60, 70)
        assert max(abs(float(x - y)) for x, y in zip(a.probs, b.probs)) < 1e-11

    def test_transitions_share_one_inner_pmf(self, monkeypatch):
        # every transition weight is an urn probability, so no n needs a
        # tighter pmf than the others: one inner pmf serves them all, and
        # the transitions compute none of their own
        pmf = dp._inner_pmf(1.0, DeathParams(1.0), PrecisionConfig())
        calls = []
        exact = dp.death_pmf
        monkeypatch.setattr(dp, "death_pmf", lambda *args: calls.append(args) or exact(*args))
        for n in range(1, 9):
            transition_given_n(n, pmf)
        assert calls == []

    def test_no_pmf_outlives_its_caller(self, monkeypatch):
        # a verify call and an FV chain each hold their pmfs; once their
        # results are dropped, no module keeps one alive
        built = []
        exact = dp.death_pmf

        def tracked(*args):
            pmf = exact(*args)
            built.append(weakref.ref(pmf))
            return pmf

        monkeypatch.setattr(dp, "death_pmf", tracked)
        monkeypatch.setattr(mk, "death_pmf", tracked)
        verify_death(thetas=(self.PARAMS.theta,), svals=(0.5,), n_max=2, r_max=1,
                     ck_pairs=((0.25, 0.25),), ineq_ts=())
        mk.run_chain("fv", mk.FvConfig(2.25, UniformBase(), 0.5), 3, [Interval(0.0, 0.5)],
                     np.random.default_rng(1))
        gc.collect()
        # outer and inner at 0.5, inner at 0.25 (t and s), and the chain's
        assert len(built) == 4
        assert [ref() for ref in built] == [None] * 4

    def test_invalid_time_is_rejected_before_lookup(self):
        for t in (0, -1.0):
            with pytest.raises(ValueError):
                death_pmf(t, self.PARAMS)

    def test_probs_float_read_only(self):
        pmf = death_pmf(0.7, self.PARAMS)
        arr = pmf.probs_float
        assert arr is pmf.probs_float
        with pytest.raises(ValueError):
            arr[0] = 0.0


class TestClosedFormEntries:
    GRID = dict(thetas=(Fraction(5, 4),), svals=(0.5, 1.0), n_max=3, r_max=1,
                ck_pairs=((0.5, 0.5),), ineq_ts=())

    @staticmethod
    def count_calls(monkeypatch, name, **grid):
        calls = []
        exact = getattr(dp, name)
        monkeypatch.setattr(dp, name, lambda *args: calls.append(args) or exact(*args))
        assert verify_death(**grid).ok
        return len(calls)

    def test_closed_form_one_value_per_entry(self, monkeypatch):
        # the 9 entries (n, r) of n = 1..3 at both times, each computed once
        # for the survival, one-death and whole-row checks, and H(1e-3) once
        # per n and time
        assert self.count_calls(monkeypatch, "_closed_form_entry", **self.GRID) == 2 * 9 + 2 * 3

    def test_verify_death_sums_each_row_once(self, monkeypatch):
        # the 396 entries of the 72 rows (theta, s, n), each summed once,
        # and 322 in the Chapman-Kolmogorov sums
        assert self.count_calls(monkeypatch, "_transition_entry") == 718

    def test_death_table_independent_of_cache_state(self):
        # a cold cache, a warm cache, and after a call at other digits: the
        # decay memo outlives a call, and it holds values of its integer
        # arguments alone
        dp._exp_fixed.cache_clear()
        cold = verify_death().table_rows()
        assert verify_death().table_rows() == cold
        verify_death(prec=PrecisionConfig(working_digits=70))
        assert verify_death().table_rows() == cold


class TestPinnedTables:
    # sha256 of the default combinatorics, urn and death tables, every
    # row's text as rendered; the death rows carry repr(float) residuals, so
    # this pins the series, the urn weights and the closed form bit for bit
    @pytest.mark.parametrize("suite, expected", [
        (verify_combinatorics,
         "3d3e1d8785d4c55a1ffe6c12f1870dc1fbf6fd9dea4d5454cdbcff135f34aa8d"),
        (verify_urn, "fa58c56d28317e1538d4c05ba7df45be3ef02608290834956d4fcad8a572888e"),
        (lambda: verify_death(mc_reps=0),
         "f8864b6bff7a3104eb6877141453aadf6db50735f624c6e9254644fd1e800d78"),
    ], ids=["combinatorics", "urn", "death"])
    def test_table_rows_pinned(self, suite, expected):
        rows = suite().table_rows()
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == expected
