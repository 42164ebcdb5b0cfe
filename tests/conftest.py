import hashlib
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "deterministic",
    deadline=None,
    max_examples=60,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("deterministic")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def assert_within_se(observed, expected, se, k=4.0, label=""):
    __tracebackhide__ = True
    gap = abs(observed - expected)
    assert gap <= k * se, f"{label}: |{observed} - {expected}| = {gap} > {k} * {se}"


def digest(*arrays):
    """Short sha256 of the arrays' bytes (None hashes as a marker)."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(b"none" if a is None else np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def portable_digest(*arrays):
    """digest with float arrays rounded to float32 first.  numpy's exp and
    expm1 differ in the last bit between CPUs with and without AVX-512, and
    the Dirichlet-process stick kernel calls both; a last-bit change flips a
    float32 rounding about once in 2**29 values, while any change to the
    random stream or the stick law still changes the digest."""
    return digest(*(np.asarray(a, dtype=np.float32)
                    if a is not None and np.asarray(a).dtype.kind == "f" else a
                    for a in arrays))


def blockwise_masses(theta, base, A, reps, trunc, rng, n_cond=0):
    """mu(A) per row as the moment checks draw it, spelled out: rows in
    blocks of max(1, _MASS_BLOCK_CELLS // expected cells per row), block i
    a _dirichlet_rows batch on the i-th child spawned from rng, in order."""
    from fvkit import random_measures as rm
    per_row = n_cond + (trunc.k if trunc.k is not None else 1 + theta * -math.log(trunc.eps))
    block = max(1, int(rm._MASS_BLOCK_CELLS // per_row))
    children = rng.spawn(-(-reps // block))
    return np.concatenate([
        rm._dirichlet_rows(theta, base, min(block, reps - i * block), trunc, child, n_cond).mass(A)
        for i, child in enumerate(children)])
