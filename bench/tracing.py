"""Span tracing from outside the package.

The tracer wraps fvkit's public functions where their callers look them up:
a module attribute such as ``polya_urn.rising_factorial`` (the name
``polya_urn`` imports from ``combinatorics``) is rebound to a wrapper that
records one span per call.  Each span holds a name, a start, an end and the
index of the enclosing span.  Spans stay in memory until ``dump`` writes them
out; ``aggregate`` turns them into the per-layer metrics.

Only the standard library is imported at module level, so the CLI launcher
can load this file before it times ``import fvkit.cli``.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
from array import array
from time import perf_counter

# (module, attribute, span name).  The module is the caller whose name is
# rebound; the span name is the callee.  A callee reached through several
# callers gets one wrapper per caller, all sharing the span name.
_COMB = ("rising_factorial", "falling_factorial", "binomial")
WRAP_POINTS = (
    [(m, f, f"combinatorics.{f}") for m in ("fvkit.polya_urn", "fvkit.death_process")
     for f in _COMB]
    + [("fvkit.combinatorics", f, f"combinatorics.{f}")
       for f in ("check_vanishing_alternating_sum",
                 "check_shifted_rising_factorial_expansion",
                 "check_stirling_convolution")]
    + [(m, f, f"polya_urn.{f}") for m in ("fvkit.polya_urn", "fvkit.cli")
       for f in ("overlap_pmf_exact", "overlap_pmf_theta0", "overlap_pmf_bruteforce")]
    + [(m, "death_pmf", "death_process.death_pmf")
       for m in ("fvkit.death_process", "fvkit.markov_processes", "fvkit.cli")]
    + [("fvkit.death_process", f, f"death_process.{f}")
       for f in ("check_survival_identity", "check_single_death_identity",
                 "check_chapman_kolmogorov", "check_nonabsorption_bounds",
                 "transition_given_n", "transition_closed_form",
                 "mc_death_pmf_sensitivity", "_death_chain_counts")]
    + [("fvkit.markov_processes", "sample_death_count", "death_process.sample_death_count")]
    + [("fvkit.markov_processes", f, f"random_measures.{f}")
       for f in ("sample_posterior", "sample_from_measure")]
    + [("fvkit.random_measures", f, f"random_measures.{f}")
       for f in ("_measure_mass_rows", "check_mean_identity", "check_mixture_identity",
                 "check_summability", "stick_break")]
    + [("fvkit.random_measures", "DiscreteMeasure.mass", "random_measures.DiscreteMeasure.mass")]
    + [("fvkit.markov_processes", f, f"markov_processes.{f}")
       for f in ("measure_chain_step", "fv_step", "stationarity_checks",
                 "fv_chapman_kolmogorov_process_test", "measure_chain_reversibility_test",
                 "dar1_retention_frequency", "dar1_marginal_chisquare",
                 "dar1_detailed_balance")]
    + [("fvkit.cli", "run_chain", "markov_processes.run_chain")]
    + [("fvkit.verify", f"verify_{s}", f"verify.verify_{s}")
       for s in ("combinatorics", "urn", "death", "measures", "processes")]
    + [("fvkit.cli", "render_table", "reporting.render_table")]
)

# Span names grouped into the layers whose self time is reported.
LAYERS = {
    "combinatorics": [f"combinatorics.{f}" for f in _COMB] + [
        "combinatorics.check_vanishing_alternating_sum",
        "combinatorics.check_shifted_rising_factorial_expansion",
        "combinatorics.check_stirling_convolution"],
    "polya_urn.exact": ["polya_urn.overlap_pmf_exact", "polya_urn.overlap_pmf_theta0"],
    "polya_urn.bruteforce": ["polya_urn.overlap_pmf_bruteforce"],
    "death_process.pmf": ["death_process.death_pmf"],
    "death_process.identity": [
        "death_process.check_survival_identity", "death_process.check_single_death_identity",
        "death_process.check_chapman_kolmogorov", "death_process.check_nonabsorption_bounds",
        "death_process.transition_given_n", "death_process.transition_closed_form"],
    "death_process.oracle": ["death_process.mc_death_pmf_sensitivity",
                             "death_process._death_chain_counts"],
    "death_process.sample": ["death_process.sample_death_count"],
    "random_measures.posterior": ["random_measures.sample_posterior"],
    "random_measures.draw_atoms": ["random_measures.sample_from_measure"],
    "random_measures.mass": ["random_measures.DiscreteMeasure.mass"],
    "random_measures.rows": ["random_measures._measure_mass_rows"],
    "random_measures.checks": ["random_measures.check_mean_identity",
                               "random_measures.check_mixture_identity",
                               "random_measures.check_summability",
                               "random_measures.stick_break"],
    "markov_processes.step": ["markov_processes.measure_chain_step", "markov_processes.fv_step"],
    "markov_processes.harness": [
        "markov_processes.stationarity_checks",
        "markov_processes.fv_chapman_kolmogorov_process_test",
        "markov_processes.measure_chain_reversibility_test",
        "markov_processes.dar1_retention_frequency", "markov_processes.dar1_marginal_chisquare",
        "markov_processes.dar1_detailed_balance"],
    "markov_processes.trajectory": ["markov_processes.run_chain"],
    "verify": [f"verify.verify_{s}" for s in
               ("combinatorics", "urn", "death", "measures", "processes")],
    "reporting.render": ["reporting.render_table"],
}
MODULES = {
    "polya_urn": ["polya_urn.exact", "polya_urn.bruteforce"],
    "death_process": ["death_process.pmf", "death_process.identity", "death_process.oracle",
                      "death_process.sample"],
    "random_measures": ["random_measures.posterior", "random_measures.draw_atoms",
                        "random_measures.mass", "random_measures.rows",
                        "random_measures.checks"],
    "markov_processes": ["markov_processes.step", "markov_processes.harness",
                         "markov_processes.trajectory"],
}

_MC_CHUNK_TARGET = 5_000_000  # floats per oracle chunk, as in death_process


def oracle_kernel_counts(t, theta, n0, reps, rng=None, paired_double=False,
                         entry_compensation=True):
    """Work of one ``_death_chain_counts`` call, computed from its array sizes.

    Per element of a (chunk x states) block the kernel draws an exponential,
    divides it by the rate, takes a running sum, compares it with t and sums
    the comparison: 5 operations, counting the draw, and 50 bytes moved
    (write, then read, of the draw, the scaled time and the running sum; one
    byte each way for the comparison).  The paired start at 2*n0 adds the same over its extra
    states and, per low state, an offset add, a compare and a sum (3
    operations, 26 bytes).  The working set is the largest set of chunk
    arrays alive at once.
    """
    del t, rng, entry_compensation
    lowest = 2 if float(theta) == 0 else 1
    low = n0 - lowest + 1
    high = n0 if paired_double else 0
    start_hi = 2 * n0 if paired_double else n0
    chunk = max(1, _MC_CHUNK_TARGET // start_hi)
    rows = min(chunk, reps)
    ops = reps * (5 * low + (5 * high + 3 * low if paired_double else 0))
    moved = reps * (50 * low + (50 * high + 26 * low if paired_double else 0))
    if paired_double:
        # h_low, reach, h_high, reach_hi and the shifted copy of reach
        live = rows * (8 * (3 * low + 2 * high) + low + high)
    else:
        live = rows * (8 * 2 * low + low)
    return {"draws": reps * (low + high), "ops": ops, "bytes": moved, "working_set": live}


def mass_rows_kernel_counts(theta, base, A, reps, trunc, rng=None, cond_in_A=None,
                            n_cond=0):
    """Work of one ``_measure_mass_rows`` call, computed from its array sizes.

    ``cells`` is reps x K, K the batch stick count.  Per cell, counting a
    random draw as one operation: the Beta draw, 1 - w, the running product,
    the stick-mass product, the pick draw and its scaling, the fresh test,
    the membership draw, its tests (two compares and an and for an interval
    on a continuous base, else one compare), the masked product and the row
    sum.  Conditioning adds the pick index, its cast, clip, gather and
    select.  Bytes count each float64 or int64 read and write as 8 and each
    boolean as 1.
    """
    import fvkit.random_measures as rm

    if isinstance(A, (rm.WholeSpace, rm.EmptySet)):
        return {"cells": 0, "ops": 0, "bytes": 0, "working_set": 0}
    K = rm._batch_stick_count(theta + n_cond, trunc)
    cells = reps * K
    interval_pos = isinstance(A, rm.Interval) and base.kind == "continuous"
    ops = 10 + (3 if interval_pos else 1) + (5 if n_cond else 0)
    # beta 8; 1-w 16; cumprod 16; copy 16; in-place product 24; u draw 8 and
    # scale 16; fresh 9; membership draw 8 and tests 21 or 9; product 17;
    # row sum 8; conditioning: subtract 16, cast 16, clip 16, gather 10,
    # select 4
    moved = 155 + (12 if interval_pos else 0) + (62 if n_cond else 0)
    # w, keep, rho, u and the membership draw, plus two masks
    live = cells * (5 * 8 + 2)
    return {"cells": cells, "ops": cells * ops, "bytes": cells * moved, "working_set": live}


class Tracer:
    """In-memory span recorder plus the counters kept at the same wrappers."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: dict[str, float] = {}
        self.pmf_keys: set = set()
        self.kernel_peak: dict[str, int] = {}
        self._undo: list = []
        self.extra: dict = {}

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, key: str, amount=1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name: str, fn, hook=None):
        nid = self._name_id(name)
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    # -- instrumentation -----------------------------------------------------

    def _hooks(self):
        import fvkit.death_process as dp
        import fvkit.polya_urn as pu
        import fvkit.random_measures as rm

        pmf_sig = inspect.signature(dp.death_pmf)
        oracle_sig = inspect.signature(dp._death_chain_counts)
        rows_sig = inspect.signature(rm._measure_mass_rows)

        def bruteforce(args, kwargs, result):
            self.count("polya_urn.bruteforce.paths", pu.bruteforce_path_count(result.m, result.n))

        def pmf(args, kwargs, result):
            b = _bind(pmf_sig, args, kwargs)
            self.pmf_keys.add((b["t"], b["params"], b["prec"]))
            self.count("death_process.pmf.entries", len(result.probs))

        def oracle(args, kwargs, result):
            self._kernel("death_process.oracle",
                         oracle_kernel_counts(**_bind(oracle_sig, args, kwargs)), "draws")

        def rows(args, kwargs, result):
            self._kernel("random_measures.rows",
                         mass_rows_kernel_counts(**_bind(rows_sig, args, kwargs)), "cells")

        def posterior(args, kwargs, result):
            self.count("random_measures.posterior.atoms", int(result.ids.size))

        def checks(args, kwargs, result):
            self.count("verify.checks", len(result.rows))

        def render(args, kwargs, result):
            self.count("reporting.bytes", len(result.encode()))

        hooks = {
            "polya_urn.overlap_pmf_bruteforce": bruteforce,
            "death_process.death_pmf": pmf,
            "death_process._death_chain_counts": oracle,
            "random_measures._measure_mass_rows": rows,
            "random_measures.sample_posterior": posterior,
            "reporting.render_table": render,
        }
        hooks.update({n: checks for n in LAYERS["verify"]})
        return hooks

    def _kernel(self, layer: str, c: dict, unit: str) -> None:
        self.count(f"{layer}.{unit}", c[unit])
        self.count(f"{layer}.ops", c["ops"])
        self.count(f"{layer}.bytes_computed", c["bytes"])
        self.kernel_peak[layer] = max(self.kernel_peak.get(layer, 0), c["working_set"])

    def install(self) -> None:
        """Rebind every wrap point whose module is loaded."""
        hooks = self._hooks()
        for mod_name, attr, name in WRAP_POINTS:
            if mod_name not in sys.modules:
                continue
            *path, leaf = attr.split(".")
            owner = functools.reduce(getattr, path, sys.modules[mod_name])
            original = getattr(owner, leaf)
            setattr(owner, leaf, self.wrap(name, original, hooks.get(name)))
            self._undo.append((owner, leaf, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- output --------------------------------------------------------------

    def arrays(self) -> dict:
        return {"names": list(self.names), "name": self.name.tolist(),
                "parent": self.parent.tolist(), "start": self.start.tolist(),
                "end": self.end.tolist(), "counts": dict(self.counts),
                "pmf_keys": sorted(repr(k) for k in self.pmf_keys),
                "kernel_peak": dict(self.kernel_peak), "extra": dict(self.extra)}

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.arrays(), fh)


def _bind(sig, args, kwargs) -> dict:
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return dict(bound.arguments)


def merge(traces: list) -> dict:
    """Concatenate span dumps (one per process) into one set of arrays."""
    names: list[str] = []
    ids: dict[str, int] = {}
    out = {"name": [], "parent": [], "start": [], "end": [], "counts": {},
           "pmf_keys": [], "kernel_peak": {}, "extra": []}
    for tr in traces:
        remap = []
        for n in tr["names"]:
            if n not in ids:
                ids[n] = len(names)
                names.append(n)
            remap.append(ids[n])
        offset = len(out["name"])
        out["name"] += [remap[i] for i in tr["name"]]
        out["parent"] += [p + offset if p >= 0 else -1 for p in tr["parent"]]
        out["start"] += tr["start"]
        out["end"] += tr["end"]
        for k, v in tr["counts"].items():
            out["counts"][k] = out["counts"].get(k, 0) + v
        out["pmf_keys"] += tr["pmf_keys"]
        for k, v in tr["kernel_peak"].items():
            out["kernel_peak"][k] = max(out["kernel_peak"].get(k, 0), v)
        out["extra"].append(tr["extra"])
    out["names"] = names
    return out


def aggregate(tr: dict) -> dict:
    """Per-layer metrics from merged span arrays: call counts, self time
    (duration minus the time covered by child spans), and the counters."""
    import numpy as np

    names = tr["names"]
    name = np.asarray(tr["name"], dtype=np.int64)
    parent = np.asarray(tr["parent"], dtype=np.int64)
    dur = np.asarray(tr["end"], dtype=float) - np.asarray(tr["start"], dtype=float)
    n = dur.size
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    own = dur - child
    k = len(names)
    calls = np.bincount(name, minlength=k) if n else np.zeros(k, dtype=np.int64)
    self_by = np.bincount(name, weights=own, minlength=k) if n else np.zeros(k)
    dur_by = np.bincount(name, weights=dur, minlength=k) if n else np.zeros(k)
    idx = {nm: i for i, nm in enumerate(names)}

    def total(arr, span_names):
        return float(sum(arr[idx[s]] for s in span_names if s in idx))

    def ncalls(span_names):
        return int(sum(calls[idx[s]] for s in span_names if s in idx))

    layer_self = {layer: total(self_by, spans) for layer, spans in LAYERS.items()}
    counts = tr["counts"]
    m = {}
    m["combinatorics.calls"] = ncalls(LAYERS["combinatorics"])
    m["combinatorics.self_s"] = layer_self["combinatorics"]
    m["polya_urn.exact.calls"] = ncalls(LAYERS["polya_urn.exact"])
    m["polya_urn.exact.self_s"] = layer_self["polya_urn.exact"]
    m["polya_urn.bruteforce.paths"] = int(counts.get("polya_urn.bruteforce.paths", 0))
    m["polya_urn.bruteforce.self_s"] = layer_self["polya_urn.bruteforce"]
    pmf_calls = ncalls(LAYERS["death_process.pmf"])
    m["death_process.pmf.calls"] = pmf_calls
    m["death_process.pmf.distinct_ratio"] = (len(set(tr["pmf_keys"])) / pmf_calls
                                             if pmf_calls else 0.0)
    m["death_process.pmf.entries"] = int(counts.get("death_process.pmf.entries", 0))
    m["death_process.pmf.self_s"] = layer_self["death_process.pmf"]
    m["death_process.identity.self_s"] = layer_self["death_process.identity"]
    m["death_process.oracle.self_s"] = layer_self["death_process.oracle"]
    for key in ("draws", "ops", "bytes_computed"):
        m[f"death_process.oracle.{key}"] = int(counts.get(f"death_process.oracle.{key}", 0))
    m["death_process.oracle.working_set_mb"] = (
        tr["kernel_peak"].get("death_process.oracle", 0) / 2**20)
    m["death_process.sample.calls"] = ncalls(LAYERS["death_process.sample"])
    m["death_process.sample.self_s"] = layer_self["death_process.sample"]
    post_calls = ncalls(LAYERS["random_measures.posterior"])
    m["random_measures.posterior.calls"] = post_calls
    m["random_measures.posterior.self_s"] = layer_self["random_measures.posterior"]
    m["random_measures.atoms_per_draw"] = (
        counts.get("random_measures.posterior.atoms", 0) / post_calls if post_calls else 0.0)
    m["random_measures.draw_atoms.self_s"] = layer_self["random_measures.draw_atoms"]
    m["random_measures.mass.self_s"] = layer_self["random_measures.mass"]
    m["random_measures.rows.cells"] = int(counts.get("random_measures.rows.cells", 0))
    m["random_measures.rows.self_s"] = layer_self["random_measures.rows"]
    for key in ("ops", "bytes_computed"):
        m[f"random_measures.rows.{key}"] = int(counts.get(f"random_measures.rows.{key}", 0))
    m["random_measures.rows.working_set_mb"] = (
        tr["kernel_peak"].get("random_measures.rows", 0) / 2**20)
    m["markov_processes.step.calls"] = ncalls(LAYERS["markov_processes.step"])
    m["markov_processes.step.self_s"] = layer_self["markov_processes.step"]
    step_ids = [idx[s] for s in LAYERS["markov_processes.step"] if s in idx]
    step_durs = dur[np.isin(name, step_ids)] if step_ids else dur[:0]
    m["markov_processes.step_us"] = float(np.median(step_durs)) * 1e6 if step_durs.size else 0.0
    m["markov_processes.harness.self_s"] = layer_self["markov_processes.harness"]
    for module, layers in MODULES.items():
        m[f"{module}.self_s"] = sum(layer_self[layer] for layer in layers)
    for suite in ("combinatorics", "urn", "death", "measures", "processes"):
        m[f"verify.{suite}.wall_s"] = total(dur_by, [f"verify.verify_{suite}"])
    m["verify.checks"] = int(counts.get("verify.checks", 0))
    m["verify.self_s"] = layer_self["verify"]
    m["cli.self_s"] = total(self_by, ["cli.main"])
    m["reporting.render.self_s"] = layer_self["reporting.render"]
    m["reporting.bytes"] = int(counts.get("reporting.bytes", 0))
    m["trace.spans"] = int(n)
    return m


def is_timing(metric: str) -> bool:
    """Times vary run to run; every other per-layer metric must repeat exactly."""
    return metric.endswith(("_s", "_us")) or metric == "trace.overhead_ratio"
