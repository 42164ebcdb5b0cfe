import csv
import io
import json
import math
import re
import subprocess
import sys
from fractions import Fraction

import pytest

CLI = [sys.executable, "-m", "fvkit.cli"]


def run_cli(*args, env_extra=None, **kw):
    import os
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(CLI + list(args), capture_output=True, text=True, env=env, **kw)


def parse_csv(text):
    rows = [r for r in csv.reader(io.StringIO(text)) if r and not r[0].startswith("#")]
    return rows[0], rows[1:]


class TestPmfCommands:
    def test_overlap_two_by_two(self):
        r = run_cli("pmf", "overlap", "--theta", "1", "--m", "2", "--n", "2")
        assert r.returncode == 0
        header, rows = parse_csv(r.stdout)
        assert header[:2] == ["r", "p_exact"]
        assert [(row[0], row[1]) for row in rows] == [("0", "1/6"), ("1", "2/3"), ("2", "1/6")]

    def test_overlap_single_draw(self):
        r = run_cli("pmf", "overlap", "--theta", "1", "--m", "1", "--n", "1")
        _, rows = parse_csv(r.stdout)
        assert [(row[0], row[1]) for row in rows] == [("0", "1/2"), ("1", "1/2")]

    def test_overlap_rational_theta_and_bruteforce(self):
        r = run_cli("pmf", "overlap", "--theta", "7/2", "--m", "3", "--n", "2", "--bruteforce")
        assert r.returncode == 0
        header, rows = parse_csv(r.stdout)
        assert "p_bruteforce" in header
        i_exact, i_bf = header.index("p_exact"), header.index("p_bruteforce")
        for row in rows:
            assert row[i_exact] == row[i_bf]

    def test_overlap_monte_carlo_cells_are_plain_floats(self):
        args = ("pmf", "overlap", "--theta", "7/2", "--m", "4", "--n", "3", "--reps", "2000")
        header, rows = parse_csv(run_cli(*args).stdout)
        doc = json.loads(run_cli(*args, "--format", "json").stdout)
        assert doc["columns"] == header == ["r", "p_exact", "p_float", "p_mc", "stderr"]
        assert doc["rows"] == rows
        for row in rows:
            p, se = float(row[3]), float(row[4])
            assert row[3:] == [repr(p), repr(se)]  # no np.float64(...) wrapper
            assert (p * 2000).is_integer()
            assert se == pytest.approx((p * (1 - p) / 2000) ** 0.5, rel=1e-12)

    def test_no_bruteforce_is_the_default(self):
        args = ("pmf", "overlap", "--theta", "7/2", "--m", "3", "--n", "2")
        r = run_cli(*args, "--no-bruteforce")
        assert r.returncode == 0
        assert r.stdout == run_cli(*args).stdout

    def test_overlap_theta0(self):
        r = run_cli("pmf", "overlap", "--theta", "0", "--m", "2", "--n", "2")
        _, rows = parse_csv(r.stdout)
        assert rows[0][1] == "0"

    def test_death_pmf_footer_normalizes(self):
        r = run_cli("pmf", "death", "--theta", "1", "--t", "1")
        assert r.returncode == 0
        sums = [l for l in r.stdout.splitlines() if l.startswith("# sum_d_n:")]
        assert len(sums) == 1
        assert abs(float(sums[0].split(":")[1]) - 1) < 1e-10

    def test_death_pmf_json(self):
        r = run_cli("pmf", "death", "--theta", "1", "--t", "1", "--format", "json")
        doc = json.loads(r.stdout)
        assert doc["columns"] == ["n", "d_n", "term_bound"]
        assert "config_sha256" in doc

    def test_precision_exhausted_exit_code(self):
        r = run_cli("pmf", "death", "--theta", "1", "--t", "1e-7", "--max-terms", "30")
        assert r.returncode == 3
        assert "precision exhausted" in r.stderr

    def test_precision_exhausted_past_float_digits(self):
        # above 325 digits a float cancellation guard underflowed to 0 and a
        # float peak could overflow, so the error bound read nan
        r = run_cli("pmf", "death", "--theta", "1", "--t", "0.001", "--digits", "400",
                    "--max-terms", "2000")
        assert r.returncode == 3
        assert "precision exhausted" in r.stderr and "nan" not in r.stderr.lower()

    def test_invalid_args_exit_code(self):
        r = run_cli("pmf", "overlap", "--theta", "1", "--m", "-3", "--n", "2")
        assert r.returncode == 2
        r = run_cli("pmf", "death", "--theta", "1")  # missing --t
        assert r.returncode == 2
        r = run_cli("verify", "bogus")
        assert r.returncode == 2
        r = run_cli("simulate", "dar1", "--theta", "1", "--see", "3")  # no prefix matching
        assert r.returncode == 2 and r.stdout == ""
        r = run_cli("simulate", "dar1", "--theta", "1", env_extra={"FVKIT_SEED": "abc"})
        assert r.returncode == 2 and r.stdout == ""

    @pytest.mark.parametrize("args", [
        ("simulate", "fv", "--theta", "1", "--t", "1e400"),
        ("pmf", "death", "--theta", "1", "--t", "1e400"),
        ("verify", "death", "--s", "1e400"),
        ("simulate", "dar1", "--theta", "1e400"),
        ("simulate", "measure-chain", "--theta", "1e400", "--n", "2"),
        ("simulate", "fv", "--theta", "1e400", "--t", "1")],
        ids=["fv-t", "death-t", "verify-s", "dar1-theta", "chain-theta", "fv-theta"])
    def test_overflowing_value_exit_code(self, args):
        # a value past the float range is a bad argument, not a traceback
        r = run_cli(*args)
        assert r.returncode == 2
        assert r.stderr.startswith("invalid arguments: ") and r.stderr.count("\n") == 1
        assert r.stdout == ""

    def test_overlap_takes_theta_past_float_range(self):
        # the exact table needs no float of theta
        r = run_cli("pmf", "overlap", "--theta", "1e400", "--m", "2", "--n", "2")
        assert r.returncode == 0
        assert r.stdout.rstrip().endswith("# sum: 1.0")


class TestSimulateCommands:
    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["simulate", "dar1", "--theta", "1", "--steps", "50", "--seed", "7"]
        run_cli(*args, "--out", str(a))
        run_cli(*args, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_fv_row_count(self):
        r = run_cli("simulate", "fv", "--theta", "1", "--t", "1", "--steps", "12", "--seed", "1")
        _, rows = parse_csv(r.stdout)
        assert len(rows) == 12

    def test_measure_chain_dispatch(self):
        r = run_cli("simulate", "measure-chain", "--theta", "1", "--n", "5",
                    "--steps", "5", "--seed", "2")
        assert r.returncode == 0
        _, rows = parse_csv(r.stdout)
        assert len(rows) == 5

    def test_env_seed_fallback(self):
        r1 = run_cli("simulate", "dar1", "--theta", "1", "--steps", "5",
                     env_extra={"FVKIT_SEED": "123"})
        r2 = run_cli("simulate", "dar1", "--theta", "1", "--steps", "5", "--seed", "123")
        assert r1.stdout == r2.stdout

    def test_dump_final_round_trips(self, tmp_path):
        path = tmp_path / "final.json"
        r = run_cli("simulate", "fv", "--theta", "1", "--t", "1", "--steps", "3",
                    "--seed", "4", "--dump-final", str(path))
        assert r.returncode == 0
        doc = json.loads(path.read_text())
        assert doc["seed"] == 4
        assert "config" in doc
        mu = doc["measure"]
        ids, xs, weights = mu["ids"], mu["xs"], mu["weights"]
        assert all(type(i) is int for i in ids) and len(set(ids)) == len(ids)
        assert len(ids) == len(xs) == len(weights)
        assert abs(math.fsum(weights) + mu["residual"] - 1) < 1e-12
        # the dumped measure is the one the last row observed on A = [0, 0.5)
        _, rows = parse_csv(r.stdout)
        in_a = math.fsum(w for x, w in zip(xs, weights) if 0 <= x < 0.5)
        assert abs(in_a - float(rows[-1][1])) < 1e-12

    def test_dump_final_rejected_for_dar1(self, tmp_path):
        path = tmp_path / "final.json"
        r = run_cli("simulate", "dar1", "--theta", "1", "--steps", "3",
                    "--dump-final", str(path))
        assert r.returncode == 2
        assert "--dump-final" in r.stderr
        assert not path.exists()

    @pytest.mark.parametrize("kind, extra, observable", [
        ("dar1", (), "2"), ("measure-chain", ("--n", "2"), "-1,7")])
    def test_observable_outside_support_rejected(self, kind, extra, observable):
        r = run_cli("simulate", kind, "--theta", "1", "--base", "0.3,0.7", *extra,
                    "--observable", observable, "--steps", "5")
        assert r.returncode == 2
        assert f"observable {observable!r} names an atom outside 0..1" in r.stderr
        assert r.stdout == ""

    def test_observable_value_starting_with_minus(self):
        # a value that starts with '-' but is not a plain number is still
        # the option's value, not an unknown flag
        args = ("simulate", "dar1", "--theta", "1", "--steps", "5")
        r = run_cli(*args, "--observable", "-0.5:0.5")
        assert r.returncode == 0
        assert '"observables":["-0.5:0.5"]' in r.stdout
        assert r.stdout == run_cli(*args, "--observable=-0.5:0.5").stdout

    @pytest.mark.parametrize("args, message", [
        (("--base", "nan,0.5"), "weights must be finite, nonnegative and sum to 1"),
        (("--observable", "nan:0.5"), "interval endpoints must not be NaN"),
        (("--observable", "0.5:0.2"), "interval needs lo <= hi")],
        ids=["base", "observable", "reversed-observable"])
    def test_nan_rejected(self, args, message):
        r = run_cli("simulate", "dar1", "--theta", "1", *args, "--steps", "5")
        assert r.returncode == 2
        assert r.stderr == f"invalid arguments: {message}\n"
        assert r.stdout == ""

    def test_discrete_base_simulation(self):
        r = run_cli("simulate", "dar1", "--theta", "2", "--base", "0.3,0.7",
                    "--observable", "0", "--steps", "8", "--seed", "5")
        assert r.returncode == 0
        _, rows = parse_csv(r.stdout)
        assert {row[1] for row in rows} <= {"0.0", "1.0"}


class TestVerifyCommand:
    def test_urn_suite_passes(self):
        r = run_cli("verify", "urn", "--m-max", "4")
        assert r.returncode == 0
        m = re.search(r"urn: (\d+)/(\d+) checks passed", r.stderr)
        assert m and m.group(1) == m.group(2)

    def test_combinatorics_custom_grid(self):
        r = run_cli("verify", "combinatorics", "--m-max", "6")
        assert r.returncode == 0

    def test_death_suite_small_grid(self):
        r = run_cli("verify", "death", "--theta", "1", "--s", "1", "--n-max", "3")
        assert r.returncode == 0
        header, rows = parse_csv(r.stdout)
        assert header == ["suite", "check", "instance", "observed", "tolerance", "pass"]
        assert all(row[-1] == "true" for row in rows)

    def test_death_rational_theta_flag(self):
        r = run_cli("verify", "death", "--theta", "1/2", "--s", "1", "--n-max", "2")
        assert r.returncode == 0

    def test_measures_suite_quick(self):
        r = run_cli("verify", "measures", "--reps", "4000", "--theta", "1")
        assert r.returncode == 0

    def test_processes_suite_quick(self):
        r = run_cli("verify", "processes", "--reps", "500", "--theta", "1")
        assert r.returncode == 0

    def test_verify_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["verify", "measures", "--reps", "2000", "--theta", "1", "--seed", "9"]
        run_cli(*args, "--out", str(a))
        run_cli(*args, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_json_report(self):
        r = run_cli("verify", "urn", "--m-max", "3", "--format", "json")
        doc = json.loads(r.stdout)
        assert doc["footer"]["failed"] == "0"

    def test_failed_check_exits_one(self, monkeypatch, tmp_path):
        from fvkit import cli as cli_mod
        from fvkit import verify as verify_mod
        from fvkit.verify import VerifyReport, VerifyRow

        def broken(**kw):
            return VerifyReport("urn", (VerifyRow("x", "y", "exact", False, None),))

        monkeypatch.setattr(verify_mod, "verify_urn", broken)
        out = tmp_path / "r.csv"
        with pytest.raises(SystemExit) as exc:
            cli_mod.main(["verify", "urn", "--out", str(out)])
        assert exc.value.code == 1
        assert "failed: 1" in out.read_text()

    def test_invalid_digits_exit_code(self):
        r = run_cli("verify", "urn", "--m-max", "1", "--digits", "10")
        assert r.returncode == 2
        assert r.stderr == "invalid arguments: working_digits must be >= 16\n"

    # at 1 or more every series stops at once; at inf the non-absorption
    # check never returned
    @pytest.mark.parametrize("args", [
        ["verify", "death"],
        ["pmf", "death", "--theta", "1", "--t", "1"],
        ["simulate", "fv", "--theta", "1", "--t", "0.5", "--steps", "2"],
    ], ids=["verify-death", "pmf-death", "simulate-fv"])
    @pytest.mark.parametrize("tol", ["inf", "1"])
    def test_tail_tol_out_of_range_exit_code(self, args, tol):
        r = run_cli(*args, "--tail-tol", tol, timeout=60)
        assert r.returncode == 2
        assert r.stderr == "invalid arguments: tail_tol must be > 0 and < 1\n"

    def test_loose_tail_tol_refused_by_verify_death_only(self):
        # the death rows' limits scale with tail_tol, so verify death takes
        # none above 1e-6; the pmf itself still accepts anything in (0, 1)
        r = run_cli("verify", "death", "--tail-tol", "0.9", timeout=60)
        assert r.returncode == 2
        assert r.stderr == ("invalid arguments: verify death needs tail_tol <= 1e-06: "
                            "its residual limits scale with it\n")
        r = run_cli("pmf", "death", "--theta", "1", "--t", "1", "--tail-tol", "0.9")
        assert r.returncode == 0

    @pytest.mark.parametrize("reps, suite", [("0", "measures"), ("0", "processes"),
                                             ("1", "measures"), ("1", "processes"),
                                             ("1", "death")])  # death's 0 skips the oracle
    def test_too_few_reps_exit_code(self, suite, reps):
        # a Monte Carlo standard error needs two replicates
        r = run_cli("verify", suite, "--reps", reps)
        assert r.returncode == 2
        assert r.stderr == ("invalid arguments: reps must be >= 2 for a Monte Carlo "
                            f"standard error, got {reps}\n")

    # -1/2 is read as the value of --theta, not as an unknown flag
    @pytest.mark.parametrize("args, theta", [
        (["verify", "measures", "--reps", "50"], "0"),
        (["verify", "processes", "--reps", "50"], "0"),
        (["simulate", "measure-chain", "--n", "2", "--steps", "2"], "0"),
        (["verify", "measures", "--reps", "50"], "-1/2"),
        (["simulate", "measure-chain", "--n", "2", "--steps", "2"], "-1/2"),
    ], ids=["verify-measures", "verify-processes", "simulate-measure-chain",
            "verify-measures-negative", "simulate-measure-chain-negative"])
    def test_theta_zero_exit_code(self, args, theta):
        r = run_cli(*args, "--theta", theta)
        assert r.returncode == 2
        assert r.stderr == "invalid arguments: theta must be > 0\n"

    # a row at theta = 1e6 expects 1 + 1e6 ln(1e8) sticks, over the cap
    @pytest.mark.parametrize("args", [
        ["simulate", "fv", "--t", "0.1", "--steps", "2"],
        ["verify", "measures", "--reps", "50"],
    ], ids=["simulate-fv", "verify-measures"])
    def test_stick_budget_exit_code(self, args):
        r = run_cli(*args, "--theta", "1e6")
        assert r.returncode == 2
        assert r.stderr == ("invalid arguments: a residual below 1e-08 needs 18420682 sticks "
                            "on average, over the cap of 1000000\n")

    @pytest.mark.parametrize("args, expected", [
        ([], {"combinatorics": {}, "death": {}, "urn": {}, "measures": {}, "processes": {}}),
        (["--m-max", "7", "--n-max", "2", "--theta", "1/2", "--theta", "2", "--s", "1",
          "--reps", "50", "--sigma", "0"],
         {"combinatorics": {"m_max": 7},
          "death": {"thetas": [Fraction(1, 2), 2.0], "svals": [1.0], "n_max": 2,
                    "mc_reps": 50},
          "urn": {"form_max": 7, "bruteforce_max": 5},
          "measures": {"reps": 50, "thetas": [0.5, 2.0], "sigma": 0.0},
          "processes": {"reps": 50, "thetas": [0.5, 2.0]}}),
        (["--m-max", "3", "--reps", "0", "--seed", "4"],
         {"combinatorics": {"m_max": 3}, "death": {"mc_reps": 0, "mc_seed": 4},
          "urn": {"form_max": 3, "bruteforce_max": 3},
          "measures": {"seed": 4, "reps": 0}, "processes": {"seed": 4, "reps": 0}}),
    ])
    def test_flags_reach_each_suite(self, monkeypatch, args, expected):
        import inspect

        from fvkit import cli as cli_mod
        from fvkit import verify as verify_mod
        from fvkit.verify import VerifyReport

        # an unset --seed passes no seed, so these signature defaults apply
        for suite, key, seed in (("measures", "seed", 7), ("processes", "seed", 11),
                                 ("death", "mc_seed", 20240817)):
            params = inspect.signature(getattr(verify_mod, f"verify_{suite}")).parameters
            assert params[key].default == seed
        calls = {}
        for name in expected:
            def record(_name=name, **kw):
                calls[_name] = kw
                return VerifyReport(_name, ())
            monkeypatch.setattr(verify_mod, f"verify_{name}", record)
        with pytest.raises(SystemExit) as exc:
            cli_mod.main(["verify", "all", *args])
        assert exc.value.code == 0
        prec = calls["death"].pop("prec")
        assert (prec.working_digits, prec.tail_tol, prec.max_terms) == (60, 1e-12, 400)
        assert calls == expected
        assert list(calls) == ["combinatorics", "death", "urn", "measures", "processes"]
        for suite in ("measures", "processes"):
            assert all(type(th) is float for th in calls[suite].get("thetas", []))
        assert type(calls["measures"].get("sigma", 0.0)) is float
