"""The test extra of pyproject.toml installs everything the tests import."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # standard library from 3.11

ROOT = Path(__file__).resolve().parent.parent


def _top_level_imports(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_test_extra_covers_every_import():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    extra = {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_")
             for req in project["optional-dependencies"]["test"]}
    files = sorted((ROOT / "tests").rglob("*.py")) + sorted(
        (ROOT / "bench").rglob("*.py"))
    local = {p.stem for p in files}
    missing = {}
    for path in files:
        for name in _top_level_imports(path):
            if not (name in sys.stdlib_module_names or name == "uebkit"
                    or name in local or name in extra):
                missing.setdefault(name, []).append(path.name)
    assert not missing, f"imported but not in the test extra: {missing}"
