"""fvkit benchmark: one workload, measured end to end or traced by layer.

    python3 bench/run.py --workload {exact-series,monte-carlo,cli-cold}
        --seed N --seconds S --trace {0,1} [--seed-set {acceptance,confirm}]

Run from the repository root.  The load is closed-loop from this one
process: it starts one worker process at a time (``worker.py``), each of
which sets up, runs one batch of the workload and checks every output.
Batches repeat until ``--seconds`` have passed; times are medians over
batches.  Set-up is also measured by set-up-only workers until there are
at least ``MIN_SETUPS`` samples.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` adds two traced batches and reports the per-layer metrics;
their counts must repeat exactly, and ``trace.overhead_ratio`` compares
their wall time with the untraced batches'.

The last line of stdout is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it list the metrics and the
environment.  A full record of the run, with every batch, goes to
``bench/out/runs/``.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from envinfo import environment, thread_caps
from workloads import SEED_SETS, SETUPS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MIN_SETUPS = 5
TRACED_BATCHES = 2
RUN_LIMIT_S = 170.0  # every worker is stopped by then


class WorkerError(RuntimeError):
    pass


def _worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(thread_caps())
    return env


def _spawn(args, env, deadline: float) -> dict:
    """Run one worker to completion and return its JSON line.  The worker
    runs in its own session so that, on timeout, it and every command it
    started are stopped together."""
    spawned_at = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--spawned-at", repr(spawned_at)]
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise WorkerError("worker exceeded the run's time limit")
    if proc.returncode != 0:
        raise WorkerError(f"worker exited {proc.returncode}: {stderr.strip()[-2000:]}")
    return json.loads(stdout.strip().splitlines()[-1])


def _metric_specs() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def run(workload: str, seed: int, seconds: int, trace: bool, seed_set: str) -> dict:
    env = _worker_env()
    t0 = time.monotonic()
    deadline = t0 + RUN_LIMIT_S
    base = ["--workload", workload, "--seed", str(seed), "--seed-set", seed_set]
    record = {"batches": [], "setup_probes": [], "traced": [], "errors": []}
    try:
        while True:
            record["batches"].append(_spawn(base, env, deadline))
            if time.monotonic() - t0 >= seconds:
                break
        if trace:
            OUT.mkdir(parents=True, exist_ok=True)
            for k in range(TRACED_BATCHES):
                spans = OUT / f"spans-{workload}-{k}.json"
                record["traced"].append(_spawn([*base, "--trace-to", str(spans)], env, deadline))
        else:
            while len(record["batches"]) + len(record["setup_probes"]) < MIN_SETUPS:
                record["setup_probes"].append(_spawn([*base, "--setup-only"], env, deadline))
    except (WorkerError, ValueError) as exc:  # ValueError: unparsable worker output
        record["errors"].append(str(exc))
    record["elapsed_s"] = time.monotonic() - t0
    return record


def summarize(record: dict, trace: bool, specs: dict) -> dict:
    batches = record["batches"]
    done = batches + record["traced"]
    attempted = sum(b["attempted"] for b in done) + len(record["errors"])
    failed = sum(b["failed"] for b in done) + len(record["errors"])
    messages = [m for b in done for m in b["messages"]] + record["errors"]
    result = {"correct": False, "attempted": attempted, "failed": failed, "metrics": {},
              "messages": messages}
    if record["errors"]:
        return result
    untraced_wall = statistics.median(b["wall_s"] for b in batches)
    if trace:
        import tracing

        first, second = (t["layers"] for t in record["traced"])
        exact = [k for k in first if not tracing.is_timing(k)]
        differ = [k for k in exact if first[k] != second[k]]
        result["attempted"] += 1
        if differ:
            result["failed"] += 1
            messages.append("traced counts differ between two runs: " + ", ".join(differ))
        values = {k: first[k] if k in exact else (first[k] + second[k]) / 2 for k in first}
        traced_wall = statistics.mean(t["wall_s"] for t in record["traced"])
        values["trace.overhead_ratio"] = (traced_wall - untraced_wall) / untraced_wall
    else:
        values = {"wall_s": untraced_wall,
                  "setup_s": statistics.median(b["setup_s"]
                                               for b in batches + record["setup_probes"]),
                  "peak_rss_mb": statistics.median(b["peak_rss_mb"] for b in batches)}
    wanted = specs["per_layer" if trace else "end_to_end"]
    missing = [name for name in wanted if name not in values]
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    result["metrics"] = {name: {"value": values[name], "unit": unit}
                         for name, unit in wanted.items()}
    result["correct"] = result["failed"] == 0
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(SETUPS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--seed-set", choices=sorted(SEED_SETS), default="acceptance")
    a = ap.parse_args(argv)
    if not (ROOT / "src" / "fvkit" / "__init__.py").is_file():
        print(f"no fvkit source under {ROOT / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    if a.seconds < 1:
        ap.error("--seconds must be >= 1")

    specs = _metric_specs()
    env_record = environment(ROOT)
    env_record["threads"] = thread_caps()
    record = run(a.workload, a.seed, a.seconds, bool(a.trace), a.seed_set)
    result = summarize(record, bool(a.trace), specs)
    messages = result.pop("messages")

    runs = OUT / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    name = f"{a.workload}-seed{a.seed}-{a.seed_set}-trace{a.trace}-{stamp}.json"
    (runs / name).write_text(json.dumps(
        {"args": vars(a), "environment": env_record, "result": result,
         "messages": messages, **record}, indent=1) + "\n")

    print(f"workload {a.workload}  seed {a.seed}  seed set {a.seed_set}  "
          f"batches {len(record['batches'])}  traced {len(record['traced'])}")
    print("environment " + json.dumps(env_record, sort_keys=True))
    fail_ratio = result["failed"] / result["attempted"]
    print(f"  {'fail_ratio':<40} {fail_ratio:.6g} ({result['failed']}/{result['attempted']})")
    for metric, v in result["metrics"].items():
        print(f"  {metric:<40} {v['value']:.6g} {v['unit']}")
    if a.trace and result["metrics"]:
        caches = env_record["cache_bytes"]
        for kernel in ("death_process.oracle", "random_measures.rows"):
            ws = result["metrics"][f"{kernel}.working_set_mb"]["value"]
            print(f"  {kernel} working set {ws:.1f} MB against "
                  + ", ".join(f"{lvl} {size / 2**20:g} MB" for lvl, size in caches.items()))
    for msg in messages[:20]:
        print(f"  FAILED: {msg}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
