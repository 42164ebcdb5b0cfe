"""Rules the library's source keeps, read off its syntax trees."""
import ast
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
