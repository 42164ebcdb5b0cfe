from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_within_se
from fvkit.polya_urn import (
    _entry_row,
    _extended_row,
    _factorial_row,
    bruteforce_path_count,
    overlap_pmf_bruteforce,
    overlap_pmf_exact,
    overlap_pmf_montecarlo,
    overlap_pmf_theta0,
)

def as_probs(row):
    """The rationals of a (numerators, den) row."""
    nums, den = row
    return tuple(Fraction(a, den) for a in nums)


small_theta = st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(3), Fraction(7, 2)])


class TestExactPmf:
    def test_single_draw(self):
        for theta in (Fraction(1, 2), Fraction(1), Fraction(3)):
            pmf = overlap_pmf_exact(1, 1, theta)
            assert pmf.probs == (theta / (theta + 1), Fraction(1, theta + 1))

    def test_two_by_two(self):
        assert overlap_pmf_exact(2, 2, 1).probs == (
            Fraction(1, 6), Fraction(2, 3), Fraction(1, 6))

    def test_degenerate_margins(self):
        assert overlap_pmf_exact(0, 7, Fraction(5, 2)).probs == (Fraction(1),)
        assert overlap_pmf_exact(7, 0, Fraction(5, 2)).probs == (Fraction(1),)

    def test_both_forms_agree_wide(self):
        for theta in (Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(3), Fraction(7, 2)):
            for m in range(0, 21, 4):
                for n in range(0, 21, 4):
                    assert overlap_pmf_exact(m, n, theta).probs == \
                        as_probs(_extended_row(m, n, theta))

    def test_expected_overlap_single_draw(self):
        # one draw hits some atom with probability n/(theta+n)
        for n in range(0, 8):
            for theta in (Fraction(1, 2), Fraction(2)):
                pmf = overlap_pmf_exact(1, n, theta)
                mean = sum(r * p for r, p in enumerate(pmf.probs))
                assert mean == Fraction(n, theta + n)

    def test_expansion_route_identical(self):
        for m in range(6):
            for n in range(6):
                a = as_probs(_entry_row(m, n, Fraction(7, 2), via_expansion=True))
                b = as_probs(_entry_row(m, n, Fraction(7, 2)))
                assert a == b

    @given(st.integers(0, 8), st.integers(0, 8), small_theta)
    def test_simplex_and_support(self, m, n, theta):
        pmf = overlap_pmf_exact(m, n, theta)
        assert sum(pmf.probs) == 1
        assert len(pmf.probs) == min(m, n) + 1
        assert all(p >= 0 for p in pmf.probs)

    def test_rejects_theta0(self):
        with pytest.raises(ValueError):
            overlap_pmf_exact(2, 2, 0)


class TestTheta0:
    def test_no_mass_at_zero(self):
        for m in range(1, 16):
            for n in range(1, 16):
                pmf = overlap_pmf_theta0(m, n)
                assert pmf.probs == as_probs(_factorial_row(m, n))
                assert pmf.probs[0] == 0
                assert sum(pmf.probs) == 1

    def test_single_draw_hits(self):
        assert overlap_pmf_theta0(1, 1).probs == (Fraction(0), Fraction(1))

    def test_matches_theta_limit(self):
        tiny = Fraction(1, 10**8)
        for (m, n) in ((3, 4), (5, 2), (6, 6)):
            lim = overlap_pmf_exact(m, n, tiny)
            z = overlap_pmf_theta0(m, n)
            assert max(abs(float(a) - float(b)) for a, b in zip(lim.probs, z.probs)) < 1e-6

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            overlap_pmf_theta0(0, 3)
        with pytest.raises(ValueError):
            overlap_pmf_theta0(3, 0)


class TestBruteforce:
    def test_matches_exact_small_grid(self):
        for theta in (Fraction(1, 2), Fraction(1), Fraction(3)):
            for m in range(5):
                for n in range(5):
                    assert overlap_pmf_bruteforce(m, n, theta).probs == \
                        overlap_pmf_exact(m, n, theta).probs

    def test_theta0_enumeration(self):
        for m in range(1, 5):
            for n in range(1, 5):
                assert overlap_pmf_bruteforce(m, n, 0).probs == overlap_pmf_theta0(m, n).probs

    def test_two_by_two_paths(self):
        assert bruteforce_path_count(2, 2) == 12
        assert overlap_pmf_bruteforce(2, 2, 1).probs == (
            Fraction(1, 6), Fraction(2, 3), Fraction(1, 6))

    def test_budget_rejection(self):
        with pytest.raises(ValueError):
            overlap_pmf_bruteforce(8, 8, 1)

    def test_negative_theta_rejected(self):
        # theta + n > 0 alone let theta = -1/2 through, with probabilities -1/3 and 4/3
        with pytest.raises(ValueError, match="theta must be >= 0"):
            overlap_pmf_bruteforce(2, 1, Fraction(-1, 2))

    def test_params_validation(self):
        with pytest.raises(ValueError, match="theta \\+ n must be > 0"):
            overlap_pmf_bruteforce(2, 0, 0)
        with pytest.raises(ValueError, match="theta must be >= 0"):
            overlap_pmf_bruteforce(2, 5, -1)

    @given(st.integers(0, 4), st.integers(0, 4), small_theta)
    @settings(max_examples=25)
    def test_matches_exact_random(self, m, n, theta):
        assert overlap_pmf_bruteforce(m, n, theta).probs == \
            overlap_pmf_exact(m, n, theta).probs


class TestMonteCarlo:
    def test_matches_exact_beyond_budget(self, rng):
        exact = np.array([float(p) for p in overlap_pmf_exact(10, 10, 1).probs])
        mc = overlap_pmf_montecarlo(10, 10, 1.0, 1_000_000, rng)
        se = np.sqrt(exact * (1 - exact) / mc.reps)
        for r in range(exact.size):
            assert_within_se(mc.probs[r], exact[r], max(se[r], 1e-9), label=f"r={r}")

    def test_single_draw_case(self, rng):
        theta = 3.0
        mc = overlap_pmf_montecarlo(1, 1, theta, 200_000, rng)
        p = 1 / (theta + 1)
        assert_within_se(mc.probs[1], p, np.sqrt(p * (1 - p) / mc.reps), label="hit")

    def test_negative_theta_rejected(self, rng):
        with pytest.raises(ValueError, match="theta must be >= 0"):
            overlap_pmf_montecarlo(2, 1, Fraction(-1, 2), 1000, rng)

    def test_params_validation(self, rng):
        with pytest.raises(ValueError, match="theta \\+ n must be > 0"):
            overlap_pmf_montecarlo(2, 0, 0, 10, rng)
        with pytest.raises(ValueError, match="theta must be >= 0"):
            overlap_pmf_montecarlo(2, 5, -1, 10, rng)

    @pytest.mark.parametrize("m, n", [(-1, 2), (2, -1)])
    def test_negative_sizes_rejected(self, rng, m, n):
        # as the exact and brute-force forms do, rather than an empty pmf
        with pytest.raises(ValueError, match="m and n must be >= 0"):
            overlap_pmf_montecarlo(m, n, 1.0, 10, rng)

    def test_theta0_allowed(self, rng):
        # no fresh draws: every draw roots at one of the n atoms
        mc = overlap_pmf_montecarlo(2, 1, 0, 1000, rng)
        assert mc.probs.tolist() == [0.0, 1.0]

    def test_deterministic(self):
        a = overlap_pmf_montecarlo(6, 4, 2.0, 50_000, np.random.default_rng(9))
        b = overlap_pmf_montecarlo(6, 4, 2.0, 50_000, np.random.default_rng(9))
        assert np.array_equal(a.probs, b.probs)
