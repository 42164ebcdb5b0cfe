"""Rules the library's source keeps, read off its text and syntax trees."""
import ast
import re
import subprocess
import sys
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


def test_stats_stands_alone():
    # the verdict rules sit below every other module: stats imports no fvkit
    # module but the lazy numpy proxy, and importing it loads no numpy
    path = Path(fvkit.__file__).parent / "stats.py"
    tree = ast.parse(path.read_text(), str(path))
    modules = [(node.level, node.module) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)]
    modules += [(0, alias.name) for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    assert [m for level, m in modules if level or m.startswith("fvkit")] == ["_lazy"]
    code = "import sys, fvkit.stats; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_no_rng_defaults_to_none():
    # a None generator fails only at its first draw, far from the call that
    # omitted it: every rng is required
    found = []
    for p in sorted(Path(fvkit.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(p.read_text(), str(p))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            a = node.args
            positional = a.posonlyargs + a.args
            pairs = list(zip(positional[len(positional) - len(a.defaults):], a.defaults))
            pairs += [(arg, d) for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            found += [f"{p.name}:{node.lineno}" for arg, d in pairs
                      if arg.arg == "rng" and isinstance(d, ast.Constant) and d.value is None]
    assert not found, f"rng defaults to None in src/fvkit: {found}"


def test_memos_that_outlive_a_call_are_declared():
    # a decorated or module-level memo keeps its values across calls, so a
    # result could depend on what ran before it: each one is named here, and
    # a new one has to be added on purpose (a memo built inside a call, like
    # verify_death's pmfs, is dropped with it)
    def is_memo(node):
        while isinstance(node, ast.Call):  # lru_cache(maxsize=k)(f) too
            node = node.func
        return getattr(node, "attr", getattr(node, "id", None)) in ("cache", "lru_cache")

    found = []
    for p in sorted(Path(fvkit.__file__).parent.glob("*.py")):
        tree = ast.parse(p.read_text(), str(p))
        found += [f"{p.stem}.{node.name}" for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                  and any(map(is_memo, node.decorator_list))]
        found += [f"{p.stem}:{node.lineno}" for node in tree.body
                  if isinstance(node, (ast.Assign, ast.AnnAssign))
                  and isinstance(node.value, ast.Call) and is_memo(node.value)]
    assert sorted(found) == ["combinatorics._stirling_row", "death_process._exp_fixed"]
