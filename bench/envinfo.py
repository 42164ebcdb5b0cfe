"""The environment a run measured: code under test, interpreter, libraries
and machine."""
from __future__ import annotations

import hashlib
import os
import platform
from importlib import metadata
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def _git_commit(root: Path):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None  # not a git checkout: the source digest identifies the code
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_identity(root: Path) -> dict:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "fvkit").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return {"commit": _git_commit(root), "src_sha256": h.hexdigest()}


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _caches() -> dict:
    """Data and unified cache sizes of CPU 0, in bytes, by level."""
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            kind = (index / "type").read_text().strip()
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind == "Instruction":
            continue
        scale = {"K": 2**10, "M": 2**20, "G": 2**30}.get(size[-1:], 1)
        out[f"L{level}"] = int(size.rstrip("KMG")) * scale
    return out


def thread_caps() -> dict:
    """Environment that caps BLAS and OpenMP pools at the core count."""
    n = str(os.cpu_count() or 1)
    return {var: n for var in THREAD_VARS}


def environment(root: Path) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    import mpmath.libmp

    return {
        **source_identity(root),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "mpmath": version("mpmath"),
        "click": version("click"),
        "mpmath_backend": mpmath.libmp.BACKEND,
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cache_bytes": _caches(),
    }
