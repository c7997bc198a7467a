"""Checks on the package source itself."""

import ast
from pathlib import Path

import pytest

import ccakit

MODULES = sorted(
    p for p in Path(ccakit.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def _unused_imports(tree: ast.Module) -> list[str]:
    """The names a module-level import binds and the module never names."""
    bound: list[str] = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
    named = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # A quoted annotation names what it quotes.
    for n in ast.walk(tree):
        if isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier():
            named.add(n.value)
    return [name for name in bound if name not in named]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_module_level_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert _unused_imports(tree) == []


def test_unused_import_check_flags_an_unused_name():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\nfrom typing import Iterable, Sequence\n"
        "x: 'Sequence'\n"
    )
    assert _unused_imports(tree) == ["os", "Iterable"]


def _avoidable_function_imports(tree: ast.Module) -> list[str]:
    """Relative imports inside a function body from a module that the
    module already imports at module level, where no import cycle can
    need them."""
    at_top = {
        (n.level, n.module) for n in tree.body if isinstance(n, ast.ImportFrom) and n.level
    }
    found = {
        (n.lineno, f"line {n.lineno}: from {'.' * n.level}{n.module or ''}")
        for f in ast.walk(tree)
        if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
        for n in ast.walk(f)
        if isinstance(n, ast.ImportFrom) and (n.level, n.module) in at_top
    }
    return [text for _, text in sorted(found)]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_function_imports_a_module_the_module_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert _avoidable_function_imports(tree) == []


def test_function_import_check_flags_an_avoidable_import():
    tree = ast.parse(
        "from .groups import make_q8\nfrom . import cli\n"
        "def f():\n    from .groups import make_f21\n    from .perms import fixer\n"
        "    def g():\n        from . import cli\n"
        "class C:\n    def h(self):\n        from ..groups import quotient\n"
    )
    assert _avoidable_function_imports(tree) == ["line 4: from .groups", "line 7: from ."]
