"""Batch command-line front end: verification suites, pmf tables, and chain
simulation, all emitting reproducible CSV/JSON with embedded config.

Exit codes: 0 success, 1 verification failure, 2 invalid arguments,
3 precision exhausted.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from . import verify as verify_mod
from ._lazy import np
from .death_process import DeathParams, PrecisionConfig, PrecisionExhaustedError, death_pmf
from .markov_processes import Dar1Config, FvConfig, MeasureChainConfig, run_chain
from .polya_urn import overlap_pmf_bruteforce, overlap_pmf_exact, overlap_pmf_montecarlo, overlap_pmf_theta0
from .random_measures import (DEFAULT_TRUNCATION, AtomSet, DiscreteBase, Interval, StickBudgetError,
                              StickTruncation, UniformBase, measure_to_json)
from .reporting import emit, render_table

EXIT_VERIFY_FAILED = 1
EXIT_BAD_ARGS = 2
EXIT_PRECISION = 3


def rational(value: str) -> Fraction:
    """Numeric flag accepting exact rational syntax p/q as well as decimals."""
    try:
        return Fraction(value)
    except ZeroDivisionError:  # argparse reports a ValueError as an invalid value
        raise ValueError(value) from None


def _parse_base(spec: str, fail):
    if spec == "uniform":
        return UniformBase()
    try:
        weights = tuple(float(w) for w in spec.split(","))
    except ValueError:
        fail(f"--base must be 'uniform' or comma-separated weights, got {spec!r}")
    return DiscreteBase(weights=weights)  # a bad weight is a ValueError, exit 2


def _parse_observable(spec: str, base, fail):
    if ":" in spec:
        lo, hi = spec.split(":", 1)
        return Interval(float(lo), float(hi))
    if not isinstance(base, DiscreteBase):
        fail(f"observable {spec!r} needs lo:hi form for a continuous base")
    A = AtomSet(int(i) for i in spec.split(","))
    if not A.indices <= set(range(base.size)):
        fail(f"observable {spec!r} names an atom outside 0..{base.size - 1}")
    return A


def _add_common_options(p: argparse.ArgumentParser) -> None:
    """The precision, output and seed options every command takes."""
    p.add_argument("--digits", type=int, default=PrecisionConfig.working_digits,
                   help="working decimal digits for series evaluation")
    p.add_argument("--tail-tol", type=float, default=PrecisionConfig.tail_tol,
                   help="absolute series truncation target, > 0 and < 1")
    p.add_argument("--max-terms", type=int, default=PrecisionConfig.max_terms,
                   help="series term and pmf entry budget before failing")
    p.add_argument("--format", dest="fmt", choices=["csv", "json"], default="csv",
                   help="table format")
    p.add_argument("--out", default="-", help="output path, - for stdout")
    # an unset or empty FVKIT_SEED leaves 0; a bad one is a usage error
    p.add_argument("--seed", type=int, default=os.environ.get("FVKIT_SEED") or 0,
                   help="master seed (env FVKIT_SEED)")
    p.add_argument("--help", action="help", help="show this message and exit")


def _attach_negative_values(argv: list) -> list:
    # argparse reads a value such as -1,7, -0.5:0.5 or -1/2 as an unknown
    # flag; no fvkit option is spelled like a number, so join it to the
    # option before it as --option=value
    out = []
    for token in argv:
        if out and re.fullmatch(r"--\w[-\w]*", out[-1]) and re.match(r"-[\d.]", token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(args=None, prog_name=None):
    """Computation and verification toolkit for Dirichlet-process chains,
    urn overlap distributions, and the measure-valued transition built
    from them."""
    # always ends in SystemExit with the exit code, 0 included
    kw = dict(add_help=False, allow_abbrev=False,
              formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    parser = argparse.ArgumentParser(prog=prog_name, description=main.__doc__, **kw)
    parser.add_argument("--help", action="help", help="show this message and exit")
    commands = parser.add_subparsers(dest="command", required=True)

    def command(func):
        p = commands.add_parser(func.__name__, help=func.__doc__, description=func.__doc__, **kw)
        p.set_defaults(run=func)
        return p

    p = command(verify)
    p.add_argument("suite", choices=["combinatorics", "death", "urn", "measures", "processes", "all"])
    p.add_argument("--m-max", type=int, help="identity / pmf grid bound")
    p.add_argument("--n-max", type=int, help="transition grid bound")
    p.add_argument("--theta", dest="thetas", metavar="THETA", type=rational, action="append",
                   default=[], help="theta grid override (repeatable)")
    p.add_argument("--sigma", type=rational, help="stick-breaking discount for the measures suite")
    p.add_argument("--s", dest="svals", metavar="S", type=rational, action="append", default=[],
                   help="time grid override (repeatable)")
    p.add_argument("--reps", type=int, help="Monte Carlo replicates")
    _add_common_options(p)

    p = command(pmf)
    p.set_defaults(fail=p.error)
    p.add_argument("which", choices=["death", "overlap"])
    p.add_argument("--theta", type=rational, required=True)
    p.add_argument("--t", dest="tval", metavar="T", type=rational, help="elapsed time (death pmf)")
    p.add_argument("--m", type=int, help="number of draws (overlap pmf)")
    p.add_argument("--n", type=int, help="number of conditioning atoms (overlap pmf)")
    p.add_argument("--bruteforce", action=argparse.BooleanOptionalAction, default=False,
                   help="add the enumeration-oracle column (overlap pmf)")
    p.add_argument("--reps", type=int, default=0, help="add a Monte Carlo column with this many reps")
    _add_common_options(p)

    p = command(simulate)
    p.set_defaults(fail=p.error)
    p.add_argument("kind", choices=["dar1", "measure-chain", "fv"])
    p.add_argument("--theta", type=rational, required=True)
    p.add_argument("--t", dest="tval", metavar="T", type=rational, help="transition duration (fv)")
    p.add_argument("--n", type=int, help="draws per step (measure-chain)")
    p.add_argument("--steps", type=int, default=100, help="chain steps")
    p.add_argument("--base", dest="base_spec", metavar="BASE", default="uniform",
                   help="'uniform' or comma-separated discrete weights")
    p.add_argument("--observable", dest="observables", metavar="OBSERVABLE", action="append",
                   default=[], help="lo:hi interval or comma-separated atom indices; repeatable")
    p.add_argument("--trunc-eps", type=float, default=DEFAULT_TRUNCATION.eps,
                   help="stick-breaking residual target")
    p.add_argument("--dump-final", help="write the final measure as JSON here (measure-chain, fv)")
    _add_common_options(p)

    opts = vars(parser.parse_args(_attach_negative_values(sys.argv[1:] if args is None else args)))
    opts.pop("command")
    run = opts.pop("run")
    # a bad value raises one of these (StickBudgetError: a theta past the stick cap)
    try:
        run(**opts)
    except PrecisionExhaustedError as e:
        print(f"precision exhausted: {e}", file=sys.stderr)
        sys.exit(EXIT_PRECISION)
    except (ValueError, TypeError, OverflowError, StickBudgetError) as e:
        print(f"invalid arguments: {e}", file=sys.stderr)
        sys.exit(EXIT_BAD_ARGS)
    sys.exit(0)


def verify(suite, m_max, n_max, thetas, sigma, svals, reps, digits, tail_tol, max_terms,
           fmt, out, seed):
    """Run a verification suite; nonzero exit on any failed check."""
    floats = [float(th) for th in thetas] or None
    kwargs = {  # per suite; a None value (flag unset) keeps the suite's default
        "combinatorics": {"m_max": m_max},
        "death": {"prec": PrecisionConfig(digits, tail_tol, max_terms),
                  "thetas": [th if th.denominator > 1 else float(th) for th in thetas] or None,
                  "svals": [float(s) for s in svals] or None, "n_max": n_max,
                  "mc_reps": reps, "mc_seed": seed or None},
        "urn": {"form_max": m_max, "bruteforce_max": None if m_max is None else min(m_max, 5)},
        "measures": {"seed": seed or None, "reps": reps, "thetas": floats,
                     "sigma": None if sigma is None else float(sigma)},
        "processes": {"seed": seed or None, "reps": reps, "thetas": floats},
    }
    names = list(kwargs) if suite == "all" else [suite]
    reports = [getattr(verify_mod, f"verify_{name}")(
        **{k: v for k, v in kwargs[name].items() if v is not None}) for name in names]
    rows = []
    for rep in reports:
        rows.extend((rep.suite,) + row for row in rep.table_rows())
    config = {
        "cmd": "verify", "suite": suite, "seed": seed, "digits": digits,
        "tail_tol": tail_tol, "max_terms": max_terms,
        "theta": [str(t) for t in thetas], "s": [str(s) for s in svals],
        "sigma": None if sigma is None else str(sigma),
        "m_max": m_max, "n_max": n_max, "reps": reps,
    }
    failed = sum(rep.n_failed for rep in reports)
    total = sum(len(rep.rows) for rep in reports)
    text = render_table(config, ["suite", "check", "instance", "observed", "tolerance", "pass"],
                        rows, footer={"checks": total, "failed": failed}, fmt=fmt)
    emit(text, out)
    for rep in reports:
        print(f"{rep.suite}: {len(rep.rows) - rep.n_failed}/{len(rep.rows)} checks passed",
              file=sys.stderr)
    if failed:
        sys.exit(EXIT_VERIFY_FAILED)


def pmf(which, theta, tval, m, n, bruteforce, reps, digits, tail_tol, max_terms, fmt, out, seed,
        fail):
    """Write a pmf table: the death-count pmf at time t, or the urn overlap
    pmf for m draws against n atoms."""
    if which == "death":
        if tval is None:
            fail("pmf death needs --t")
        prec = PrecisionConfig(digits, tail_tol, max_terms)
        params = DeathParams(theta if theta.denominator > 1 else float(theta))
        table = death_pmf(tval, params, prec)
        rows = table.rows()
        config = {"cmd": "pmf-death", "theta": str(theta), "t": str(tval),
                  "digits": digits, "tail_tol": tail_tol, "max_terms": max_terms}
        footer = {
            "sum_d_n": sum(r[1] for r in rows),
            "residual": table.residual,
            "n_max": table.n_max,
        }
        emit(render_table(config, ["n", "d_n", "term_bound"], rows, footer, fmt), out)
        return
    if m is None or n is None:
        fail("pmf overlap needs --m and --n")
    exact = overlap_pmf_theta0(m, n) if theta == 0 else overlap_pmf_exact(m, n, theta)
    columns = ["r", "p_exact", "p_float"]
    cols = [list(range(len(exact.probs))), list(exact.probs),
            [float(p) for p in exact.probs]]
    if bruteforce:
        bf = overlap_pmf_bruteforce(m, n, theta)
        columns.append("p_bruteforce")
        cols.append(list(bf.probs))
    if reps:
        mc = overlap_pmf_montecarlo(m, n, theta, reps, np.random.default_rng(seed))
        columns += ["p_mc", "stderr"]
        cols += [list(mc.probs), list(mc.stderr)]
    rows = list(zip(*cols))
    config = {"cmd": "pmf-overlap", "theta": str(theta), "m": m, "n": n,
              "bruteforce": bruteforce, "reps": reps, "seed": seed}
    emit(render_table(config, columns, rows, {"sum": float(sum(exact.probs))}, fmt), out)


def simulate(kind, theta, tval, n, steps, base_spec, observables, trunc_eps, dump_final,
             digits, tail_tol, max_terms, fmt, out, seed, fail):
    """Run a chain for a number of steps, recording observables per step."""
    base = _parse_base(base_spec, fail)
    if not observables:
        observables = ("0:0.5",) if isinstance(base, UniformBase) else ("0",)
    obs = [_parse_observable(o, base, fail) for o in observables]
    th = float(theta)
    trunc = StickTruncation.residual(trunc_eps)
    if kind == "dar1":
        if dump_final is not None:
            fail("--dump-final needs a measure-valued chain, not dar1")
        cfg = Dar1Config(theta=th, base=base)
    elif kind == "measure-chain":
        if n is None:
            fail("measure-chain needs --n")
        cfg = MeasureChainConfig(theta=th, base=base, n=n, trunc=trunc)
    else:
        if tval is None:
            fail("fv needs --t")
        cfg = FvConfig(theta=th, base=base, t=float(tval),
                       prec=PrecisionConfig(digits, tail_tol, max_terms), trunc=trunc)
    rng = np.random.default_rng(seed)
    traj, final = run_chain(kind, cfg, steps, obs, rng)
    rows = [(i + 1, *row) for i, row in enumerate(traj.tolist())]
    config = {
        "cmd": f"simulate-{kind}", "theta": str(theta), "t": str(tval), "n": n,
        "steps": steps, "base": base_spec, "observables": list(observables),
        "trunc_eps": trunc_eps, "seed": seed, "digits": digits,
        "tail_tol": tail_tol, "max_terms": max_terms,
    }
    columns = ["step"] + [f"obs_{i}" for i in range(len(obs))]
    emit(render_table(config, columns, rows, {"steps": steps}, fmt), out)
    if dump_final is not None:
        doc = {"seed": seed, "config": {k: str(v) for k, v in config.items()},
               "measure": measure_to_json(final)}
        with open(dump_final, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)


if __name__ == "__main__":
    main(prog_name="python -m fvkit.cli")
