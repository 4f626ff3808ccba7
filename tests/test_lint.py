"""Lint steps on the standard library alone.  No module-level import in the
package may go unused, and no private module-level helper may go unread:
deleting code tends to orphan both, and this catches them without a
third-party linter.  No series product may be cut after it is built:
`FracSeries.mul` takes the box and forms only the pairs inside it."""

from __future__ import annotations

import ast
from collections import defaultdict
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "permtwist"


def _annotation_names(node: ast.AST) -> set[str]:
    """Names read by the strings of an annotation, each parsed as an expression."""
    return {
        name.id
        for sub in ast.walk(node) if isinstance(sub, ast.Constant) and isinstance(sub.value, str)
        for name in ast.walk(ast.parse(sub.value, mode="eval")) if isinstance(name, ast.Name)
    }


def unused_imports(source: str) -> list[str]:
    """The names bound by module-level imports of source that nothing reads.
    A name read in code, in a string annotation or listed in __all__ is used;
    `from __future__` imports bind nothing."""
    tree = ast.parse(source)
    bound = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                bound[alias.asname or alias.name.split(".")[0]] = stmt.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            used |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}
    return sorted((name for name in bound if name not in used), key=bound.get)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text()) == []


def test_the_lint_sees_what_it_should():
    src = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from math import comb, lcm\n"
        "from fractions import Fraction as Fr\n"
        "from .kernel import Series, Scalar\n"
        "__all__ = ['sys']\n"
        "def f(x: 'Series') -> 'Scalar | None':\n"
        "    return comb(x, 2)\n"
    )
    # os, lcm and Fr are read nowhere; sys is exported, the rest are read
    assert unused_imports(src) == ["os", "lcm", "Fr"]


def orphaned_helpers(sources: dict[str, str]) -> list[str]:
    """The private ("_"-prefixed, not dunder) module-level functions and
    classes of sources (module name -> source) that nothing reads, as
    "module.name".  A read is a name, an attribute or an imported name
    anywhere in the sources outside the helper's own definition."""
    defined, readers = [], defaultdict(set)
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            owner = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owner = (module, stmt.name)
                if stmt.name.startswith("_") and not stmt.name.startswith("__"):
                    defined.append(owner)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    readers[node.id].add(owner)
                elif isinstance(node, ast.Attribute):
                    readers[node.attr].add(owner)
                elif isinstance(node, ast.alias):
                    readers[node.name].add(owner)
    return [f"{module}.{name}" for module, name in defined if not readers[name] - {(module, name)}]


def test_no_private_helper_is_orphaned():
    assert orphaned_helpers({p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}) == []


def test_the_helper_lint_sees_what_it_should():
    sources = {
        "a": (
            "def _used(): return 1\n"
            "def _recursive(n): return _recursive(n - 1) if n else 0\n"
            "class _Orphan: pass\n"
            "def _imported(): pass\n"
            "def _by_attribute(): pass\n"
            "def __dunder__(): pass\n"
            "def public(): return _used()\n"
        ),
        "b": (
            "from .a import _imported\n"
            "from . import a\n"
            "f = a._by_attribute\n"
        ),
    }
    # _recursive reads only itself and _Orphan is read nowhere; dunders and
    # public names are not private helpers
    assert orphaned_helpers(sources) == ["a._recursive", "a._Orphan"]


CUTS = ("truncate", "truncate_window")


def cuts_of_products(source: str) -> list[int]:
    """The lines of source that call `.truncate(...)` or
    `.truncate_window(...)` directly on a `*` product."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in CUTS
        and isinstance(node.func.value, ast.BinOp) and isinstance(node.func.value.op, ast.Mult)
    )


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_product_is_cut_after_it_is_built(path):
    assert cuts_of_products(path.read_text()) == []


def test_the_product_lint_sees_what_it_should():
    src = (
        "a = (b * c).truncate('x', 3)\n"
        "d = f((b * c).truncate_window(w))\n"
        "e = b.mul(c, w)\n"
        "g = (b + c).truncate('x', 3)\n"
        "h = b * c.truncate('x', 3)\n"
        "p = (b * c).truncated('x', 3)\n"
        "q = (b * c)\n"
        "r = q.truncate('x', 3)\n"
    )
    # only the first two cut a product where it is built
    assert cuts_of_products(src) == [1, 2]
