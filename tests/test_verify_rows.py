"""The verification row renderer, pinned by literals: one row per kind with
known values, and its text columns, verdict and headroom."""
import math

import numpy as np
import pytest

from fvkit.verify import KS_LEVEL, SE_BUDGET, VerifyReport, VerifyRow


@pytest.mark.parametrize("kind, value, limit, observed, tolerance, passed, headroom", [
    ("exact", True, None, "equal", "exact", True, None),
    ("exact", False, None, "UNEQUAL", "exact", False, None),
    ("bounds", True, None, "inside", "strict", True, None),
    ("bounds", False, None, "OUTSIDE", "strict", False, None),
    ("verdict", "divergent", "divergent", "divergent", "divergent", True, None),
    ("verdict", "convergent", "divergent", "convergent", "divergent", False, None),
    ("verdict", None, "divergent", "None", "divergent", False, None),
    ("residual", 2.5e-13, 1e-11, "2.5e-13", "1e-11", True, 0.025),
    ("residual", 0.0, 1e-12, "0.0", "1e-12", True, 0.0),
    ("residual", 3e-11, 1e-11, "3e-11", "1e-11", False, 3.0),
    ("z", 1.55, SE_BUDGET, "z=1.550", "4 SE", True, 0.3875),
    ("z", 4.0, SE_BUDGET, "z=4.000", "4 SE", False, 1.0),
    ("z", math.inf, SE_BUDGET, "z=inf", "4 SE", False, math.inf),
    ("z", 3.3, 3.0, "z=3.300", "3 SE", False, 1.1),
    ("z", 2.7, 3.0, "z=2.700", "3 SE", True, 0.9),
    ("p", 0.68, KS_LEVEL, "p=0.68000", "level 0.001", True, 0.001 / 0.68),
    ("p", 0.001, KS_LEVEL, "p=0.00100", "level 0.001", False, 1.0),
    ("p", 0.0, KS_LEVEL, "p=0.00000", "level 0.001", False, math.inf),
])
def test_row_renders_from_kind_value_and_limit(kind, value, limit, observed, tolerance,
                                               passed, headroom):
    row = VerifyRow("check", "instance", kind, value, limit)
    assert (row.observed, row.tolerance, row.passed) == (observed, tolerance, passed)
    if headroom is None:
        assert row.headroom is None
    else:
        assert row.headroom == pytest.approx(headroom, rel=1e-15)
        assert row.passed == (row.headroom < 1)


@pytest.mark.parametrize("kind", ["residual", "z", "p"])
def test_nan_value_fails_with_nan_headroom(kind):
    row = VerifyRow("check", "instance", kind, math.nan, 1e-3)
    assert not row.passed
    assert math.isnan(row.headroom)
    assert row.observed == {"residual": "nan", "z": "z=nan", "p": "p=nan"}[kind]


def test_numpy_scalars_render_as_floats():
    for kind, value in (("z", 1.55), ("p", 0.68)):
        limit = SE_BUDGET if kind == "z" else KS_LEVEL
        plain = VerifyRow("check", "instance", kind, value, limit)
        wrapped = VerifyRow("check", "instance", kind, np.float64(value), limit)
        assert (wrapped.observed, wrapped.tolerance) == (plain.observed, plain.tolerance)
    assert VerifyRow("c", "i", "p", np.float64(0.0), KS_LEVEL).headroom == math.inf


def test_report_reads_the_derived_verdicts():
    rows = (VerifyRow("a", "x", "z", 1.0, SE_BUDGET), VerifyRow("b", "y", "exact", False, None))
    report = VerifyReport("suite", rows)
    assert (report.ok, report.n_failed) == (False, 1)
    assert report.table_rows() == [("a", "x", "z=1.000", "4 SE", True),
                                   ("b", "y", "UNEQUAL", "exact", False)]
