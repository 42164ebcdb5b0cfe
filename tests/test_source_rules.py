"""Rules the library's source keeps, read off its text and syntax trees."""
import ast
import re
from pathlib import Path

import fvkit


def test_library_has_no_assert_statements():
    # library invariants raise exceptions: an assert vanishes under python -O
    sources = sorted(Path(fvkit.__file__).parent.glob("*.py"))
    assert "death_process.py" in {p.name for p in sources}
    found = [f"{p.name}:{node.lineno}" for p in sources
             for node in ast.walk(ast.parse(p.read_text(), str(p)))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in src/fvkit: {found}"



def test_library_never_names_a_test_oracle():
    # mpmath and scipy are the tests' oracles and dev dependencies only, so
    # no import, lazy or not, may name them
    found = [p.name for p in sorted(Path(fvkit.__file__).parent.glob("*.py"))
             if re.search(r"\b(mpmath|scipy)\b", p.read_text())]
    assert not found, f"test oracles named in src/fvkit: {found}"
