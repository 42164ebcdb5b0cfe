"""Batch command-line front end: verification suites, pmf tables, and chain
simulation, all emitting reproducible CSV/JSON with embedded config.

Exit codes: 0 success, 1 verification failure, 2 invalid arguments,
3 precision exhausted.
"""
from __future__ import annotations

import functools
import json
import sys
from fractions import Fraction

import click
import numpy as np

from . import verify as verify_mod
from .death_process import DeathParams, PrecisionConfig, PrecisionExhaustedError, death_pmf
from .markov_processes import Dar1Config, FvConfig, MeasureChainConfig, run_chain
from .polya_urn import overlap_pmf_bruteforce, overlap_pmf_exact, overlap_pmf_montecarlo, overlap_pmf_theta0
from .random_measures import (DEFAULT_TRUNCATION, AtomSet, DiscreteBase, Interval, StickTruncation,
                              UniformBase, measure_to_json)
from .reporting import emit, render_table

EXIT_VERIFY_FAILED = 1
EXIT_BAD_ARGS = 2
EXIT_PRECISION = 3


class RationalParam(click.ParamType):
    """Numeric flag accepting exact rational syntax p/q as well as decimals."""

    name = "rational"

    def convert(self, value, param, ctx):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            self.fail(f"{value!r} is not a number or p/q rational", param, ctx)


RATIONAL = RationalParam()


def _parse_base(spec: str):
    if spec == "uniform":
        return UniformBase()
    try:
        weights = tuple(float(w) for w in spec.split(","))
        return DiscreteBase(weights=weights)
    except ValueError:
        raise click.UsageError(f"--base must be 'uniform' or comma-separated weights, got {spec!r}")


def _parse_observable(spec: str, base):
    if ":" in spec:
        lo, hi = spec.split(":", 1)
        return Interval(float(lo), float(hi))
    if not isinstance(base, DiscreteBase):
        raise click.UsageError(f"observable {spec!r} needs lo:hi form for a continuous base")
    A = AtomSet(int(i) for i in spec.split(","))
    if not A.indices <= set(range(base.size)):
        raise click.UsageError(f"observable {spec!r} names an atom outside 0..{base.size - 1}")
    return A


precision_options = [
    click.option("--digits", type=int, default=PrecisionConfig.working_digits, show_default=True,
                 help="working decimal digits for series evaluation"),
    click.option("--tail-tol", type=float, default=PrecisionConfig.tail_tol, show_default=True,
                 help="absolute series truncation target"),
    click.option("--max-terms", type=int, default=PrecisionConfig.max_terms, show_default=True,
                 help="series term and pmf entry budget before failing"),
]

output_options = [
    click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
                 show_default=True),
    click.option("--out", default="-", show_default=True, help="output path, - for stdout"),
]

seed_option = click.option("--seed", type=int, default=0, show_default=True,
                           envvar="FVKIT_SEED", help="master seed (env FVKIT_SEED)")


def _exit_codes(command):
    """Report PrecisionExhaustedError as exit 3 and a ValueError or
    TypeError (a bad argument value) as exit 2, each with one stderr line."""
    @functools.wraps(command)
    def run(*args, **kwargs):
        try:
            return command(*args, **kwargs)
        except PrecisionExhaustedError as e:
            click.echo(f"precision exhausted: {e}", err=True)
            sys.exit(EXIT_PRECISION)
        except (ValueError, TypeError) as e:
            click.echo(f"invalid arguments: {e}", err=True)
            sys.exit(EXIT_BAD_ARGS)
    return run


def _apply(opts):
    def deco(f):
        for opt in reversed(opts):
            f = opt(f)
        return f
    return deco


@click.group()
def main():
    """Computation and verification toolkit for Dirichlet-process chains,
    urn overlap distributions, and the measure-valued transition built
    from them."""


@main.command()
@click.argument("suite", type=click.Choice(["combinatorics", "death", "urn", "measures",
                                            "processes", "all"]))
@click.option("--m-max", type=int, default=None, help="identity / pmf grid bound")
@click.option("--n-max", type=int, default=None, help="transition grid bound")
@click.option("--theta", "thetas", type=RATIONAL, multiple=True,
              help="theta grid override (repeatable)")
@click.option("--sigma", type=RATIONAL, default=None,
              help="stick-breaking discount for the measures suite")
@click.option("--s", "svals", type=RATIONAL, multiple=True, help="time grid override")
@click.option("--reps", type=int, default=None, help="Monte Carlo replicates")
@_apply(precision_options)
@_apply(output_options)
@seed_option
@_exit_codes
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
        click.echo(f"{rep.suite}: {len(rep.rows) - rep.n_failed}/{len(rep.rows)} checks passed",
                   err=True)
    if failed:
        sys.exit(EXIT_VERIFY_FAILED)


@main.command()
@click.argument("which", type=click.Choice(["death", "overlap"]))
@click.option("--theta", type=RATIONAL, required=True)
@click.option("--t", "tval", type=RATIONAL, default=None, help="elapsed time (death pmf)")
@click.option("--m", type=int, default=None, help="number of draws (overlap pmf)")
@click.option("--n", type=int, default=None, help="number of conditioning atoms (overlap pmf)")
@click.option("--bruteforce/--no-bruteforce", default=False,
              help="add the enumeration-oracle column (overlap pmf)")
@click.option("--reps", type=int, default=0, help="add a Monte Carlo column with this many reps")
@_apply(precision_options)
@_apply(output_options)
@seed_option
@_exit_codes
def pmf(which, theta, tval, m, n, bruteforce, reps, digits, tail_tol, max_terms, fmt, out, seed):
    """Write a pmf table: the death-count pmf at time t, or the urn overlap
    pmf for m draws against n atoms."""
    if which == "death":
        if tval is None:
            raise click.UsageError("pmf death needs --t")
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
        raise click.UsageError("pmf overlap needs --m and --n")
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


@main.command()
@click.argument("kind", type=click.Choice(["dar1", "measure-chain", "fv"]))
@click.option("--theta", type=RATIONAL, required=True)
@click.option("--t", "tval", type=RATIONAL, default=None, help="transition duration (fv)")
@click.option("--n", type=int, default=None, help="draws per step (measure-chain)")
@click.option("--steps", type=int, default=100, show_default=True)
@click.option("--base", "base_spec", default="uniform", show_default=True,
              help="'uniform' or comma-separated discrete weights")
@click.option("--observable", "observables", multiple=True,
              help="lo:hi interval or comma-separated atom indices; repeatable")
@click.option("--trunc-eps", type=float, default=DEFAULT_TRUNCATION.eps, show_default=True,
              help="stick-breaking residual target")
@click.option("--dump-final", default=None,
              help="write the final measure as JSON here (measure-chain, fv)")
@_apply(precision_options)
@_apply(output_options)
@seed_option
@_exit_codes
def simulate(kind, theta, tval, n, steps, base_spec, observables, trunc_eps, dump_final,
             digits, tail_tol, max_terms, fmt, out, seed):
    """Run a chain for a number of steps, recording observables per step."""
    base = _parse_base(base_spec)
    if not observables:
        observables = ("0:0.5",) if isinstance(base, UniformBase) else ("0",)
    obs = [_parse_observable(o, base) for o in observables]
    th = float(theta)
    trunc = StickTruncation.residual(trunc_eps)
    if kind == "dar1":
        if dump_final is not None:
            raise click.UsageError("--dump-final needs a measure-valued chain, not dar1")
        cfg = Dar1Config(theta=th, base=base)
    elif kind == "measure-chain":
        if n is None:
            raise click.UsageError("measure-chain needs --n")
        cfg = MeasureChainConfig(theta=th, base=base, n=n, trunc=trunc)
    else:
        if tval is None:
            raise click.UsageError("fv needs --t")
        cfg = FvConfig(theta=th, base=base, t=float(tval),
                       prec=PrecisionConfig(digits, tail_tol, max_terms), trunc=trunc)
    rng = np.random.default_rng(seed)
    traj, final = run_chain(kind, cfg, steps, obs, rng, return_state=True)
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
    main()
