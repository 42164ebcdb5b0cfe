"""Deterministic CSV/JSON table emission: identical config in, identical
bytes out.  CSV carries '#'-prefixed metadata lines; JSON mirrors the same
content for programmatic use."""
from __future__ import annotations

import csv
import hashlib
import io
import json
import sys
from fractions import Fraction

from . import __version__


def canonical_config(cfg: dict) -> str:
    return json.dumps(cfg, sort_keys=True, separators=(",", ":"), default=str)


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(canonical_config(cfg).encode()).hexdigest()


def _cell(v) -> str:
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, float):  # float() drops numpy's np.float64(...) repr
        return repr(float(v))
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def render_table(config: dict, columns, rows, footer: dict = None, fmt: str = "csv") -> str:
    """Render one table with embedded config metadata and content hash."""
    if fmt == "json":
        doc = {
            "version": __version__,
            "config": {k: str(v) if isinstance(v, Fraction) else v for k, v in config.items()},
            "config_sha256": config_hash(config),
            "columns": list(columns),
            "rows": [[_cell(v) for v in row] for row in rows],
            "footer": {k: _cell(v) for k, v in (footer or {}).items()},
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if fmt != "csv":
        raise ValueError(f"unknown format {fmt!r}")
    buf = io.StringIO()
    buf.write(f"# fvkit {__version__}\n")
    buf.write(f"# config: {canonical_config(config)}\n")
    buf.write(f"# config_sha256: {config_hash(config)}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_cell(v) for v in row])
    for k, v in (footer or {}).items():
        buf.write(f"# {k}: {_cell(v)}\n")
    return buf.getvalue()


def emit(text: str, out: str) -> None:
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)
