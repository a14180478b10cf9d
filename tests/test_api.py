import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import subrec

ROOT = Path(__file__).resolve().parents[1]


def _quick_start():
    """The first python block under "## Quick start" in the README."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Quick start\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_public_names_resolve_once_and_star_import_binds_exactly_them():
    names = subrec.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(subrec, name) is not None
    namespace = {}
    exec("from subrec import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(names)


def test_readme_quick_start_runs_and_imports_exactly_the_public_names():
    code = _quick_start()
    (imported,) = [
        [alias.name for alias in node.names]
        for node in ast.walk(ast.parse(code))
        if isinstance(node, ast.ImportFrom) and node.module == "subrec"
    ]
    assert subrec.__all__ == imported
    exec(compile(code, "README.md quick start", "exec"), {})


def test_import_leaves_the_bench_harness_unloaded():
    probe = "import subrec, sys; print(sorted(m for m in sys.modules if m.startswith('subrec')))"
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    ).stdout
    assert "subrec.bench" not in out and "subrec.weighting" in out
