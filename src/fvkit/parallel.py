"""Independent jobs on the cores this process may run on.

The Monte Carlo death oracle splits its work into chunks, and the moment
checks of random_measures their rows into blocks, each owning a random
stream, so a job's result does not depend on which thread runs it or when.
numpy releases the GIL in its random fills and array loops, so plain threads
spread such jobs over the cores.
"""
from __future__ import annotations

import os


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def map_jobs(fn, jobs) -> list:
    """[fn(job) for job in jobs], run on up to one thread per usable core.

    Results come back in job order.  With one job, or one usable core, every
    job runs inline in the calling thread and no pool is started."""
    jobs = list(jobs)
    workers = min(len(jobs), _usable_cores())
    if workers <= 1:
        return [fn(job) for job in jobs]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(fn, jobs))
