"""The benchmark tracer rebinds fvkit names by plain getattr, so removing or
renaming one of them breaks ``bench/run.py --trace 1``.  Every wrap point
must resolve once the CLI and the verify suites are imported."""
import functools
import importlib.util
import sys
from pathlib import Path

import fvkit.cli  # noqa: F401  (loads every module the wrap points name)
import fvkit.verify  # noqa: F401

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("fvkit_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrap_point_resolves():
    missing = []
    for mod_name, attr, _ in _load_tracing().WRAP_POINTS:
        try:
            target = functools.reduce(getattr, attr.split("."), sys.modules[mod_name])
        except (KeyError, AttributeError):
            missing.append(f"{mod_name}.{attr}")
            continue
        if not callable(target):
            missing.append(f"{mod_name}.{attr}")
    assert not missing, f"tracer wrap points that do not resolve: {missing}"
