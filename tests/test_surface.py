"""Every public module-level name in ``src/nilcoh`` has a caller in the program.

The program is the package itself, the demos and the benchmark scripts;
the tests are not. A public function or class must be re-exported by
``nilcoh.__all__`` or be referenced outside its own definition: read as a
name or an attribute, imported, or named by a string (as the benchmark's
tracer names the functions it wraps).
"""

import ast
from collections import defaultdict
from pathlib import Path

import pytest

import nilcoh

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "nilcoh").glob("*.py"))
PROGRAM = PACKAGE + sorted((ROOT / "demos").glob("*.py")) + sorted(
    (ROOT / "perfbench").glob("*.py"))


def _defined_name(stmt):
    """The name a top-level function or class statement defines, else None."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return stmt.name
    return None


def _references():
    """name -> the (file, top-level definition or None) places that reference it."""
    refs = defaultdict(set)
    for path in PROGRAM:
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = (path, _defined_name(stmt))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    refs[node.id].add(owner)
                elif isinstance(node, ast.Attribute):
                    refs[node.attr].add(owner)
                elif isinstance(node, ast.alias):
                    refs[node.name].add(owner)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    refs[node.value].add(owner)
    return refs


REFS = _references()
PUBLIC = [(path, name) for path in PACKAGE
          for stmt in ast.parse(path.read_text(encoding="utf-8")).body
          for name in [_defined_name(stmt)] if name and not name.startswith("_")]


def test_the_walk_finds_the_package():
    names = {name for _, name in PUBLIC}
    assert {"h2", "IntMatrix", "validate", "render"} <= names


@pytest.mark.parametrize("path, name", PUBLIC,
                         ids=["%s.%s" % (p.stem, n) for p, n in PUBLIC])
def test_public_name_has_a_caller(path, name):
    if name in nilcoh.__all__:
        return
    callers = REFS.get(name, set()) - {(path, name)}
    assert callers, "%s.%s has no reference outside its own definition" % (
        path.stem, name)
