"""One batch of one workload, in a fresh process.

    python3 bench/worker.py --workload NAME --seed N --seed-set SET
        --spawned-at T [--setup-only] [--trace-to PATH]

Set-up time runs from ``--spawned-at`` (the parent's monotonic clock just
before it started this process) to the first timed call.  The batch is then
run once and every output checked.  One JSON line on stdout reports the
times, the peak resident memory, the checked operations and, when traced,
the per-layer metrics; the spans go to ``--trace-to``.
"""
from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

from workloads import SETUPS, Checks, reference

HERE = Path(__file__).resolve().parent
WORKDIR = HERE / "out" / "work"


def _plain_launch(args) -> int:
    return subprocess.run([sys.executable, "-m", "fvkit.cli", *args],
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


class TracedLauncher:
    """Launches each CLI command through the benchmark's own launcher, and
    times a bare interpreter start beside it."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.dumps: list[Path] = []
        self.interp: list[float] = []

    def __call__(self, args) -> int:
        t0 = time.monotonic()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        self.interp.append(time.monotonic() - t0)
        path = self.workdir / f"spans{len(self.dumps)}.json"
        path.unlink(missing_ok=True)
        self.dumps.append(path)
        return subprocess.run([sys.executable, str(HERE / "cli_launcher.py"), str(path), *args],
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def main(argv=None) -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(SETUPS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seed-set", required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-to", default=None)
    a = ap.parse_args(argv)

    in_process = a.workload != "cli-cold"
    import_s = 0.0
    if in_process:
        t0 = time.perf_counter()
        import fvkit.verify  # noqa: F401  (every module the in-process batches call)
        import_s = time.perf_counter() - t0
    workdir = WORKDIR / a.workload
    reference()
    traced = a.trace_to is not None
    launch = TracedLauncher(workdir) if traced else _plain_launch
    calls = SETUPS[a.workload](a.seed, a.seed_set, workdir, launch)
    tracer = None
    if traced and in_process:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()

    start = time.monotonic()
    out = {"setup_s": start - a.spawned_at, "import_s": import_s}
    if not a.setup_only:
        checks = Checks()
        for label, call in calls:
            checks.guarded(label, lambda: call(checks))
        out["wall_s"] = time.monotonic() - start
        who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
        out["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
        out.update(attempted=checks.attempted, failed=checks.failed, messages=checks.messages)
        if traced:
            out["layers"] = _trace_metrics(tracer, launch, a.trace_to)
            out["layers"]["setup.import_s"] = import_s
    print(json.dumps(out))


def _trace_metrics(tracer, launch, trace_to) -> dict:
    import tracing

    if tracer is not None:
        tracer.uninstall()
        dumps = [tracer.arrays()]
    else:
        dumps = [json.loads(p.read_text()) for p in launch.dumps if p.exists()]
    merged = tracing.merge(dumps)
    Path(trace_to).write_text(json.dumps(merged))
    m = tracing.aggregate(merged)
    extras = merged["extra"]
    m["cli.interp_s"] = sum(launch.interp) if tracer is None else 0.0
    m["cli.import_s"] = sum(e.get("import_s", 0.0) for e in extras)
    m["cli.work_s"] = sum(e.get("work_s", 0.0) for e in extras)
    m["cli.commands"] = sum(1 for e in extras if "work_s" in e)
    return m


if __name__ == "__main__":
    main()
