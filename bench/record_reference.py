"""Record the reference outputs that the benchmark's checks compare with.

    PYTHONPATH=src python3 bench/record_reference.py

Writes ``bench/reference.json``: digests of the exact combinatorics and urn
verification tables, the small-t death pmfs with their certified bounds, and
digests of the ``verify urn`` and ``pmf overlap`` CLI outputs.  The file in
the repository was recorded at the commit named in its ``recorded_at``; run
this again only when a change is meant to alter those outputs.
"""
import hashlib
import json
import subprocess
import sys

import mpmath

from envinfo import source_identity
from workloads import CLI_COMMANDS, HERE, SMALL_T, SMALL_T_THETAS, digest


def main() -> None:
    from fvkit import death_process as dp
    from fvkit import verify as V

    ref = {"recorded_at": source_identity(HERE.parent)}
    ref["tables"] = {
        "verify_combinatorics": digest(V.verify_combinatorics().table_rows()),
        "verify_urn": digest(V.verify_urn().table_rows()),
    }
    ref["small_t_pmf"] = {}
    for t in SMALL_T:
        for theta in SMALL_T_THETAS:
            pmf = dp.death_pmf(t, dp.DeathParams(theta))
            ref["small_t_pmf"][f"t={t},theta={theta}"] = {
                "probs": [mpmath.nstr(p, 30) for p in pmf.probs],
                "term_bounds": list(pmf.term_bounds),
                "residual": pmf.residual,
            }
    ref["cli"] = {}
    out = HERE / "out" / "reference.out"
    out.parent.mkdir(parents=True, exist_ok=True)
    for args in CLI_COMMANDS:
        label = " ".join(args[:2])
        if label in ("verify urn", "pmf overlap"):
            subprocess.run([sys.executable, "-m", "fvkit.cli", *args, "--out", str(out)],
                           check=True, capture_output=True)
            ref["cli"][label] = hashlib.sha256(out.read_bytes()).hexdigest()
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
