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


def _unreached_definitions(trees: dict[str, ast.Module]) -> list[str]:
    """The top-level functions and classes, as module.name, and the methods
    and properties of top-level classes, as module.Class.name, that no other
    statement of the modules names by an ast.Name or an ast.Attribute.  A
    member is matched by attribute name alone, whatever object the attribute
    is read from; dunder members, which Python itself calls, are left out."""
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    defs: list[tuple[str, str, ast.AST]] = []  # (reported as, name, own node)
    named_in: dict[str, list[set[int]]] = {}  # name -> the definitions around each naming
    for module, tree in trees.items():
        for top in tree.body:
            members = top.body if isinstance(top, ast.ClassDef) else []
            if isinstance(top, (*funcs, ast.ClassDef)):
                defs.append((f"{module}.{top.name}", top.name, top))
            defs += [
                (f"{module}.{top.name}.{m.name}", m.name, m)
                for m in members
                if isinstance(m, funcs) and not m.name.startswith("__")
            ]
            member_of = {id(n): id(m) for m in members for n in ast.walk(m)}
            for n in ast.walk(top):
                if isinstance(n, (ast.Name, ast.Attribute)):
                    named_in.setdefault(getattr(n, "id", None) or n.attr, []).append(
                        {id(top), member_of.get(id(n))}
                    )
    return sorted(
        label
        for label, name, node in defs
        if all(id(node) in around for around in named_in.get(name, []))
    )


# Public definitions that nothing in the package calls, kept on purpose.
KEPT_UNREACHED = [
    # The one call that states the product theorem; the benchmark's
    # per-layer keys name it.
    "cartesian.product_structure_verdict",
    # Atkinson's blocks from one seed pair: the tests' independent check of
    # primitivity and of the atoms all_block_systems reads off the chain.
    "perms.minimal_block_system",
    # The full isomorphism search from no fixed root: the oracle that the
    # single-root are_isomorphic is checked against.
    "search.matrix_isomorphism",
]


def test_every_definition_is_reached_from_another():
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in MODULES}
    assert _unreached_definitions(trees) == KEPT_UNREACHED


def test_unreached_definition_check_flags_a_lone_definition():
    trees = {
        "a": ast.parse(
            "def used():\n    pass\ndef lone():\n    return lone\n"
            "class Kept:\n    def m(self):\n        return Kept\n"
        ),
        "b": ast.parse("import a\nX = a.used\ndef f():\n    return Kept().m()\n"),
    }
    assert _unreached_definitions(trees) == ["a.lone", "b.f"]


def test_unreached_definition_check_flags_a_lone_member():
    # A member named only by itself is flagged; one named by a sibling
    # member, or by an attribute of its name on any object, is reached.
    trees = {
        "a": ast.parse(
            "class A:\n    size = 1\n"
            "    def __len__(self):\n        return 0\n"
            "    def lone(self):\n        return self.lone()\n"
            "    @property\n    def shared(self):\n        return self.helper()\n"
            "    def helper(self):\n        pass\n"
            "class B:\n    def shared(self):\n        pass\n"
        ),
        "b": ast.parse("import a\ndef f(x):\n    return x.shared, a.A, a.B\nX = f\n"),
    }
    assert _unreached_definitions(trees) == ["a.A.lone"]


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
