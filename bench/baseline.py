"""Summarize benchmark run records: medians and quartiles per metric.

    python3 bench/baseline.py [RECORD.json ...]

With no arguments it reads every record under ``bench/out/runs/``.  Runs
are grouped by workload, seed set and trace mode.  For each group it
prints, as JSON: the number of runs, their seeds, whether every run was
correct, the attempted and failed totals, and for each metric the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread
``(q3 - q1) / median``.  ``baseline.json`` was made this way at the seed
commit.
"""
from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

RUNS = Path(__file__).resolve().parent / "out" / "runs"


def summarize(paths) -> dict:
    groups: dict = {}
    for path in sorted(paths):
        rec = json.loads(Path(path).read_text())
        args, result = rec["args"], rec["result"]
        key = f"{args['workload']}/{args['seed_set']}/trace{args['trace']}"
        g = groups.setdefault(key, {"runs": 0, "seeds": [], "correct": True, "attempted": 0,
                                    "failed": 0, "values": {}})
        g["runs"] += 1
        g["seeds"].append(args["seed"])
        g["correct"] &= result["correct"]
        g["attempted"] += result["attempted"]
        g["failed"] += result["failed"]
        g["environment"] = rec["environment"]
        for name, m in result["metrics"].items():
            g["values"].setdefault(name, {"unit": m["unit"], "values": []})["values"].append(
                m["value"])
    for g in groups.values():
        for m in g["values"].values():
            vals = m["values"]
            m["median"] = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                m.update(q1=q1, q3=q3, spread=(q3 - q1) / m["median"] if m["median"] else 0.0)
        g["metrics"] = g.pop("values")
    return groups


if __name__ == "__main__":
    paths = sys.argv[1:] or list(RUNS.glob("*.json"))
    json.dump(summarize(paths), sys.stdout, indent=1, sort_keys=True)
    print()
