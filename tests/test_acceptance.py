"""Acceptance battery: one test per criterion, each printing a PASS/FAIL
line (run with -s to see the lines live).  Grids, tolerances, and replicate
counts are pinned here; the underlying checks live in fvkit.verify.
"""
import subprocess
import sys
import time

import pytest

from fvkit import verify as V

MC_SEED = 20240817
STAT_SEED = 11


@pytest.fixture(scope="module")
def comb_report():
    return V.verify_combinatorics(m_max=15, k_max=12, conv_max=12)


@pytest.fixture(scope="module")
def urn_report():
    return V.verify_urn(form_max=20, bruteforce_max=5, theta0_max=15)


@pytest.fixture(scope="module")
def death_report():
    return V.verify_death(mc_reps=1_000_000, mc_n0=500, mc_seed=MC_SEED)


@pytest.fixture(scope="module")
def measures_report():
    return V.verify_measures(reps=10_000, seed=7)


@pytest.fixture(scope="module")
def processes_report():
    return V.verify_processes(reps=10_000, seed=STAT_SEED)


def _assert_criterion(num, label, report, checks):
    rows = [r for r in report.rows if r.check in checks]
    assert rows, f"criterion {num}: no matching checks {checks}"
    bad = [r for r in rows if not r.passed]
    print(f"criterion {num:02d} ({label}): {'FAIL' if bad else 'PASS'} "
          f"({len(rows)} checks)")
    assert not bad, f"criterion {num} failed: " + "; ".join(
        f"{r.check} {r.instance}: {r.observed} vs {r.tolerance}" for r in bad[:5])


def test_criterion_01_shifted_rising_expansion_exact(comb_report):
    rows = [r for r in comb_report.rows if r.check == "shifted-rising-expansion"]
    assert len(rows) == 120  # all 1 <= r <= m <= 15
    _assert_criterion(1, "rising-factorial expansion identity, exact, m<=15",
                      comb_report, {"shifted-rising-expansion"})


def test_criterion_02_vanishing_alternating_sum_exact(comb_report):
    rows = [r for r in comb_report.rows if r.check == "vanishing-alternating-sum"]
    assert len(rows) == 78 * 4  # k <= 12, 1 <= r <= k, four phi values
    _assert_criterion(2, "alternating binomial sum vanishes, exact, k<=12",
                      comb_report, {"vanishing-alternating-sum"})


def test_criterion_03_stirling_convolution_exact(comb_report):
    _assert_criterion(3, "Stirling convolution identity, exact, a<=b<=c<=12",
                      comb_report, {"stirling-convolution"})


def test_criterion_04_overlap_forms_and_bruteforce(urn_report):
    _assert_criterion(4, "overlap pmf: both forms m,n<=20 + enumeration m,n<=5, exact",
                      urn_report,
                      {"overlap-forms-agree", "exact-vs-bruteforce",
                       "expansion-route-identical"})


def test_criterion_05_theta0_forms(urn_report):
    _assert_criterion(5, "theta=0 overlap forms m,n<=15 and P(r=0)=0, exact",
                      urn_report, {"theta0-forms-agree", "theta0-no-overlap-mass"})


def test_criterion_06_survival_identity(death_report):
    rows = [r for r in death_report.rows if r.check == "survival-identity"]
    assert len(rows) == 8 * 3 * 3
    _assert_criterion(6, "survival identity residual < 1e-11 on the grid",
                      death_report, {"survival-identity"})


def test_criterion_07_single_death_identity(death_report):
    _assert_criterion(7, "single-death identity residual < 1e-11 on the grid",
                      death_report, {"single-death-identity"})


def test_criterion_08_chapman_kolmogorov(death_report):
    rows = [r for r in death_report.rows if r.check == "chapman-kolmogorov"]
    assert len(rows) == 4 * 3 * 3  # r <= 3, three (t,s) pairs, three thetas
    _assert_criterion(8, "composition identity residual < 1e-10 on the grid",
                      death_report, {"chapman-kolmogorov"})


def test_criterion_09_transition_inversion_vs_closed_form(death_report):
    rows = [r for r in death_report.rows if r.check == "transition-vs-closed-form"]
    assert len(rows) == 8 * 3 * 3
    _assert_criterion(9, "series transition == closed form < 1e-11, n<=8",
                      death_report, {"transition-vs-closed-form"})


def test_criterion_10_nonabsorption_bounds(death_report):
    rows = [r for r in death_report.rows if r.check == "nonabsorption-bounds"]
    assert len(rows) == 3 * 5
    _assert_criterion(10, "strict survival-probability bounds on the grid",
                      death_report, {"nonabsorption-bounds"})


def test_criterion_11_pmf_vs_monte_carlo(death_report):
    _assert_criterion(11, "pmf vs 1e6-replicate oracle (4 SE) + n0 doubling (3 SE)",
                      death_report, {"pmf-vs-monte-carlo", "mc-start-sensitivity"})


def test_criterion_12_stationarity(measures_report, processes_report):
    stat_checks = {"prior-mean-identity", "mixture-first-moment", "mixture-second-moment",
                   "prior-variance", "measure-chain-mean", "measure-chain-variance",
                   "fv-mean", "fv-variance", "measure-chain-lag-slope", "fv-lag-slope",
                   "measure-chain-eigen2-slope", "fv-eigen2-slope", "dar1-detailed-balance"}
    rows = [r for r in measures_report.rows + processes_report.rows
            if r.check in stat_checks]
    bad = [r for r in rows if not r.passed]
    print(f"criterion 12 (stationarity of moments, lag and eigenfunction slopes + "
          f"detailed balance): {'FAIL' if bad else 'PASS'} ({len(rows)} checks)")
    assert not bad, "; ".join(f"{r.check} {r.instance}: {r.observed}" for r in bad[:5])


def test_criterion_13_process_level_composition(processes_report):
    _assert_criterion(13, "process-level composition KS not rejected at 1e-3",
                      processes_report, {"fv-composition-ks"})


def test_criterion_14_cli_determinism(tmp_path):
    t0 = time.time()
    cases = [
        ["verify", "urn", "--m-max", "3"],
        ["verify", "measures", "--reps", "1500", "--theta", "1", "--seed", "5"],
        ["pmf", "death", "--theta", "1", "--t", "1"],
        ["pmf", "overlap", "--theta", "7/2", "--m", "4", "--n", "3", "--bruteforce"],
        ["simulate", "dar1", "--theta", "1", "--steps", "40", "--seed", "9"],
        ["simulate", "measure-chain", "--theta", "1", "--n", "3", "--steps", "10", "--seed", "9"],
        ["simulate", "fv", "--theta", "1", "--t", "0.5", "--steps", "10", "--seed", "9"],
    ]
    for i, args in enumerate(cases):
        outs = []
        for run in (0, 1):
            path = tmp_path / f"case{i}_{run}.csv"
            r = subprocess.run([sys.executable, "-m", "fvkit.cli", *args, "--out", str(path)],
                               capture_output=True, text=True)
            assert r.returncode == 0, f"{args}: {r.stderr}"
            outs.append(path.read_bytes())
        assert outs[0] == outs[1], f"nondeterministic output for {args}"
    print(f"criterion 14 (CLI byte-identical reruns): PASS "
          f"({len(cases)} commands [{time.time()-t0:.1f}s])")
