"""The package is pure Python with no runtime dependencies: every module in
src/spinbits imports only the standard library and spinbits itself, as
pyproject.toml's ``dependencies = []`` promises.  And every name a module
imports is read there: no import is left behind by a deletion."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "spinbits"
MODULES = sorted(PACKAGE.glob("*.py"))


def imported_modules(path):
    """(line, top-level module name) of every absolute import in the file;
    a relative import (``from .x import y``) stays inside the package."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, a.name.split(".")[0]) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.lineno, node.module.split(".")[0]


def unread_imports(path):
    """(line, name) of every name the file imports and never reads.  A name read
    only inside a string, a string annotation say, is unread; ``from
    __future__`` imports switch on features and bind nothing to read."""
    tree = ast.parse(path.read_text(), str(path))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [
        (node.lineno, name)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for name in (a.asname or a.name.split(".")[0] for a in node.names)
        if name not in read
    ]


def test_the_package_has_modules():
    assert PACKAGE / "__init__.py" in MODULES and len(MODULES) > 5


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_stdlib_or_spinbits(path):
    outside = [(line, name) for line, name in imported_modules(path)
               if name != "spinbits" and name not in sys.stdlib_module_names]
    assert outside == []


def test_the_check_sees_a_third_party_import(tmp_path):
    f = tmp_path / "m.py"
    f.write_text("import os\nfrom . import x\ndef g():\n    import numpy.linalg\nfrom hypothesis import given\n")
    assert sorted(imported_modules(f)) == [(1, "os"), (4, "numpy"), (5, "hypothesis")]


# __init__.py imports to re-export: its names are read by the package's users
@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name)
def test_every_imported_name_is_read(path):
    assert unread_imports(path) == []


def test_the_check_sees_an_unread_import(tmp_path):
    f = tmp_path / "m.py"
    f.write_text(
        "from __future__ import annotations\nimport os.path\nimport re as regex\n"
        "from .x import A, B as C, D\nfrom . import y\n"
        "def g(v: 'D') -> A:\n    return os.sep, y.z\n"
    )
    assert sorted(unread_imports(f)) == [(3, "regex"), (4, "C"), (4, "D")]
