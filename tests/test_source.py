"""Static checks over the source of src/uebkit, read with ast."""

import ast
import re
from pathlib import Path

import pytest

import uebkit

SRC = Path(__file__).resolve().parent.parent / "src" / "uebkit"


def _unused_imports(path: Path, exported=()) -> list[str]:
    """The names path's imports bind that nothing in it reads, apart from
    those in exported; __future__ imports bind no name."""
    tree = ast.parse(path.read_text(), str(path))
    bound = [a.asname or a.name.split(".")[0] for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__"
             for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read | set(exported)]


def test_no_module_imports_a_name_it_never_uses():
    # refactors leave imports behind; the package's __all__ counts as use
    found = {p.name: _unused_imports(p, uebkit.__all__ if p.stem == "__init__"
                                     else ())
             for p in sorted(SRC.glob("*.py"))}
    assert "__init__.py" in found and "counterexample165.py" in found
    assert {k: v for k, v in found.items() if v} == {}


def test_unused_imports_are_found(tmp_path):
    f = tmp_path / "m.py"
    f.write_text("from __future__ import annotations\n"
                 "import os.path\n"
                 "import json as j\n"
                 "from fractions import Fraction\n"
                 "from math import gcd, lcm as l\n"
                 "x = os.sep, l(2, 3)\n")
    assert _unused_imports(f) == ["j", "Fraction", "gcd"]
    assert _unused_imports(f, exported=["gcd"]) == ["j", "Fraction"]


_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _unused_definitions(defining, using) -> list[str]:
    """"file:line name" for each function or class, at any depth, that a
    file in defining defines and no file in using names, dunders apart:
    Python calls those by protocol.  A name counts as used where it is read
    or bound as a name, read as an attribute, imported, or appears as an
    identifier inside a string, as a tracer names methods "module.Class.m"."""
    used, defined = set(), []
    for path in using:
        for n in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(n, ast.Name):
                used.add(n.id)
            elif isinstance(n, ast.Attribute):
                used.add(n.attr)
            elif isinstance(n, ast.alias):
                used.update(n.name.split("."), [n.asname])
            elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                used.update(_IDENTIFIER.findall(n.value))
    for path in defining:
        nodes = [n for n in ast.walk(ast.parse(path.read_text(), str(path)))
                 if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef))]
        defined += [f"{path.name}:{n.lineno} {n.name}"
                    for n in sorted(nodes, key=lambda n: n.lineno)
                    if not (n.name.startswith("__") and n.name.endswith("__"))
                    and n.name not in used]
    return defined


def test_every_definition_is_used():
    # refactors leave helpers behind that nothing reaches; a use in the
    # tests or the benchmark counts, as they reach the package from outside
    root = SRC.parent.parent
    using = [p for d in ("src", "tests", "bench")
             for p in sorted((root / d).rglob("*.py"))]
    assert SRC / "cli.py" in using and root / "bench" / "tracer.py" in using
    assert _unused_definitions(sorted(SRC.glob("*.py")), using) == []


def test_unused_definitions_are_found(tmp_path):
    f = tmp_path / "m.py"
    f.write_text("import os.path as p\n"
                 "class Used:\n"
                 "    def __init__(self): pass\n"
                 "    def read(self): pass\n"
                 "    def unread(self): pass\n"
                 "    def traced(self): pass\n"
                 "def outer():\n"
                 "    def inner(): pass\n"
                 "    def nested_unused(): pass\n"
                 "    return inner()\n"
                 "def unused(): pass\n"
                 "def sep(): pass\n"
                 "async def coroutine(): pass\n"
                 "SPANS = {'m.Used.traced'}\n"
                 "x = Used().read, outer, p.sep\n")
    assert _unused_definitions([f], [f]) == [
        "m.py:5 unread", "m.py:9 nested_unused", "m.py:11 unused",
        "m.py:13 coroutine"]
    g = tmp_path / "user.py"
    g.write_text("from m import unused as u, coroutine\nu(); m.Used.unread\n")
    assert _unused_definitions([f], [f, g]) == ["m.py:9 nested_unused"]


def _imported_modules(path: Path) -> set[str]:
    """The dotted names of the uebkit modules path imports, relative
    imports resolved against the package."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            out.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = f"uebkit.{base}".rstrip(".")
            out.add(base)
            # from . import m and from uebkit import m name modules too
            out.update(f"{base}.{a.name}" for a in node.names)
    return out


def test_no_program_module_imports_fastcyc():
    # fastcyc, the packed numpy route, is a reference for the tests alone:
    # the program runs on the standard library, so moving fastcyc out of
    # the package changes no program module
    found = {p.name: _imported_modules(p) for p in sorted(SRC.glob("*.py"))
             if p.stem != "fastcyc"}
    assert "cli.py" in found and "counterexample165.py" in found
    assert [name for name, mods in found.items()
            if "uebkit.fastcyc" in mods] == []


@pytest.mark.parametrize("line", ["from .fastcyc import CycMatrix",
                                  "from . import cyclo, fastcyc",
                                  "import uebkit.fastcyc as fc",
                                  "from uebkit.fastcyc import from_exact",
                                  "from uebkit import fastcyc"])
def test_fastcyc_imports_are_found(tmp_path, line):
    f = tmp_path / "m.py"
    f.write_text(f"{line}\n")
    assert "uebkit.fastcyc" in _imported_modules(f)
