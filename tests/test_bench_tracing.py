"""The benchmark tracer rebinds fvkit names by plain getattr, so removing or
renaming one of them breaks ``bench/run.py --trace 1``.  Every wrap point
must resolve once the CLI and the verify suites are imported, and the hooks
that bind a wrapped call's arguments must still bind them."""
import functools
import importlib.util
import inspect
import sys
from pathlib import Path

import fvkit.cli  # noqa: F401  (loads every module the wrap points name)
import fvkit.verify  # noqa: F401
from fvkit import death_process as dp

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


def test_hooks_bind_their_signatures():
    # the oracle hook passes every argument of _death_chain_counts on to
    # oracle_kernel_counts, and the pmf hook reads t, params and prec
    kernel = inspect.signature(_load_tracing().oracle_kernel_counts).parameters
    oracle = inspect.signature(dp._death_chain_counts).parameters
    assert set(oracle) <= set(kernel), set(oracle) - set(kernel)
    assert list(inspect.signature(dp.death_pmf).parameters) == ["t", "params", "prec"]
