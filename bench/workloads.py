"""The three benchmark workloads: their inputs, warm-up and checked batch.

A workload's set-up, ``SETUPS[name](seed, seed_set, workdir, launch)``,
imports what the batch needs, builds its inputs and warms up on inputs the
batch does not use.  It returns the batch: a list of ``(label, call)`` whose
calls take a ``Checks`` and check every output they make.  ``launch`` starts
one CLI command and is used by cli-cold only.

The seed fixes the order of the calls.  The Monte Carlo seeds come from
the seed set, whose every statistical gate passes at the sizes used here.
"""
from __future__ import annotations

import functools
import hashlib
import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent


@functools.cache
def reference() -> dict:
    """Outputs recorded by ``record_reference.py`` at the commit named in
    ``reference.json``."""
    return json.loads((HERE / "reference.json").read_text())


# Monte Carlo seeds: verify_measures, verify_processes, the death oracle.
# "acceptance" is the acceptance battery's; "confirm" is held back for
# confirming a claim on seeds not used while writing the change.
SEED_SETS = {
    "acceptance": {"measures": 7, "processes": 11, "mc": 20240817},
    "confirm": {"measures": 8, "processes": 12, "mc": 20240818},
}

# monte-carlo sizes: the per-replicate harnesses and the two numpy kernels
# each take at least a fifth of the batch.
MEASURES_REPS = 10_000
PROCESSES_REPS = 100
ORACLE_REPS = 100_000
ORACLE_N0 = 500

SMALL_T = (0.05, 0.1)
SMALL_T_THETAS = (0.5, 1.0, 4.0)

CLI_COMMANDS = (
    ("verify", "urn", "--m-max", "3"),
    ("verify", "measures", "--reps", "1500", "--theta", "1", "--seed", "5"),
    ("pmf", "death", "--theta", "1", "--t", "1"),
    ("pmf", "overlap", "--theta", "7/2", "--m", "4", "--n", "3", "--bruteforce"),
    ("simulate", "dar1", "--theta", "1", "--steps", "40", "--seed", "9"),
    ("simulate", "measure-chain", "--theta", "1", "--n", "3", "--steps", "10", "--seed", "9"),
    ("simulate", "fv", "--theta", "1", "--t", "0.5", "--steps", "10", "--seed", "9"),
)


class Checks:
    """Operations attempted and failed in one batch, with the first few
    failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)

    def report(self, rep) -> None:
        for row in rep.rows:
            self.record(row.passed, f"{rep.suite} {row.check} {row.instance}: "
                                    f"{row.observed} vs {row.tolerance}")

    def guarded(self, label: str, fn):
        """Run fn; an exception counts as one failed operation."""
        try:
            return fn()
        except Exception as exc:  # a failing call is a measured outcome
            self.record(False, f"{label}: {type(exc).__name__}: {exc}")
            return None


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _ordered(seed: int, calls: list) -> list:
    calls = list(calls)
    random.Random(seed).shuffle(calls)
    return calls


# ---------------------------------------------------------------------------
# exact-series

def _check_table(checks: Checks, label: str, rep) -> None:
    checks.report(rep)
    checks.record(digest(rep.table_rows()) == reference()["tables"][label],
                  f"{label} table digest differs from the recorded one")


def _check_small_t_pmf(checks: Checks, key: str, pmf) -> None:
    """Entries must agree with the recorded ones within the sum of both
    certified truncation bounds; an entry only one side has must fit inside
    the other side's unassigned mass."""
    ref = reference()["small_t_pmf"][key]
    slack = 4e-16  # two float conversions of values <= 1
    ok = True
    new_vals = [float(p) for p in pmf.probs]
    new_bounds = list(pmf.term_bounds)
    ref_vals = [float(v) for v in ref["probs"]]
    ref_bounds = ref["term_bounds"]
    new_tail = pmf.residual + sum(new_bounds)
    ref_tail = ref["residual"] + sum(ref_bounds)
    for n in range(max(len(new_vals), len(ref_vals))):
        if n < len(new_vals) and n < len(ref_vals):
            ok &= abs(new_vals[n] - ref_vals[n]) <= new_bounds[n] + ref_bounds[n] + slack
        elif n < len(new_vals):
            ok &= new_vals[n] <= ref_tail + new_bounds[n] + slack
        else:
            ok &= ref_vals[n] <= new_tail + ref_bounds[n] + slack
    checks.record(ok, f"death_pmf {key} differs from the recorded values beyond their bounds")


def setup_exact_series(seed, seed_set, workdir, launch):
    from fvkit import death_process as dp
    from fvkit import verify as V

    # warm-up on inputs disjoint from the batch's
    V.verify_combinatorics(m_max=2, k_max=2, conv_max=2)
    V.verify_urn(form_max=1, bruteforce_max=1, theta0_max=1)
    dp.death_pmf(0.75, dp.DeathParams(2.0))

    def small_t(checks, t, theta):
        pmf = dp.death_pmf(t, dp.DeathParams(theta))
        _check_small_t_pmf(checks, f"t={t},theta={theta}", pmf)

    calls = [
        ("verify_combinatorics",
         lambda c: _check_table(c, "verify_combinatorics", V.verify_combinatorics())),
        ("verify_urn", lambda c: _check_table(c, "verify_urn", V.verify_urn())),
        ("verify_death", lambda c: c.report(V.verify_death(mc_reps=0))),
    ] + [(f"death_pmf t={t} theta={th}", lambda c, t=t, th=th: small_t(c, t, th))
         for t in SMALL_T for th in SMALL_T_THETAS]
    return _ordered(seed, calls)


# ---------------------------------------------------------------------------
# monte-carlo

def setup_monte_carlo(seed, seed_set, workdir, launch):
    import numpy as np

    from fvkit import death_process as dp
    from fvkit import markov_processes as mk
    from fvkit import random_measures as rm
    from fvkit import verify as V

    seeds = SEED_SETS[seed_set]
    # warm-up on parameters the batch does not use, so no cache entry of
    # the batch is filled here
    rng = np.random.default_rng(1)
    base = rm.UniformBase()
    rm.check_mean_identity(2.0, base, rm.Interval(0.0, 0.5), 64, rm.DEFAULT_TRUNCATION, rng)
    mk.run_chain("fv", mk.FvConfig(2.0, base, 0.3), 2, [rm.Interval(0.0, 0.5)], rng)
    dp.mc_death_pmf(0.3, dp.DeathParams(2.0), 10, 100, rng)

    calls = [
        ("verify_measures",
         lambda c: c.report(V.verify_measures(reps=MEASURES_REPS, seed=seeds["measures"]))),
        ("verify_processes",
         lambda c: c.report(V.verify_processes(reps=PROCESSES_REPS, seed=seeds["processes"]))),
        ("verify_death oracle",
         lambda c: c.report(V.verify_death(
             thetas=(1.0,), svals=(1.0,), n_max=1, r_max=0, ck_pairs=((0.5, 0.5),),
             ineq_ts=(1.0,), mc_reps=ORACLE_REPS, mc_n0=ORACLE_N0, mc_seed=seeds["mc"]))),
    ]
    return _ordered(seed, calls)


# ---------------------------------------------------------------------------
# cli-cold

def setup_cli_cold(seed, seed_set, workdir, launch):
    workdir.mkdir(parents=True, exist_ok=True)

    def command(i, args):
        def run(c):
            outs = []
            for rerun in (0, 1):
                path = workdir / f"cmd{i}_{rerun}.out"
                path.unlink(missing_ok=True)
                code = launch([*args, "--out", str(path)])
                c.record(code == 0, f"{' '.join(args)}: exit code {code}")
                outs.append(path.read_bytes() if path.exists() else None)
            c.record(outs[0] is not None and outs[0] == outs[1],
                     f"{' '.join(args)}: rerun bytes differ")
            recorded = reference()["cli"].get(" ".join(args[:2]))
            if recorded is not None:
                ok = outs[0] is not None and hashlib.sha256(outs[0]).hexdigest() == recorded
                c.record(ok, f"{' '.join(args)}: output digest differs from the recorded one")
        return run

    calls = [(" ".join(args), command(i, args)) for i, args in enumerate(CLI_COMMANDS)]
    return _ordered(seed, calls)


SETUPS = {
    "exact-series": setup_exact_series,
    "monte-carlo": setup_monte_carlo,
    "cli-cold": setup_cli_cold,
}
