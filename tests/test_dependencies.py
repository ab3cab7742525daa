"""The package is pure Python with no runtime dependencies: every module in
src/spinbits imports only the standard library and spinbits itself, as
pyproject.toml's ``dependencies = []`` promises."""

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
