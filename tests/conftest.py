import hashlib

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
