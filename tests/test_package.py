"""Rules that hold across every module of the package."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import vertexmagic

SOURCES = sorted(Path(vertexmagic.__file__).parent.glob("*.py"))
MODULES = [f"vertexmagic.{m.name}" for m in pkgutil.iter_modules(vertexmagic.__path__)]


def test_every_error_is_a_refusal_or_a_bug():
    """`cli.main` and `workbench.recheck_record` read a ValueError as a
    refusal of an input or a bound and let a RuntimeError, a bug, escape;
    so every exception class the package defines is exactly one of them."""
    classes = [
        cls for name in MODULES
        for _, cls in inspect.getmembers(importlib.import_module(name), inspect.isclass)
        if cls.__module__ == name and issubclass(cls, BaseException)
    ]
    assert classes
    for cls in classes:
        assert issubclass(cls, ValueError) != issubclass(cls, RuntimeError), cls


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names a module imports and never reads."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_no_unused_imports(path):
    """No module but the package's `__init__`, which re-exports, imports a
    name it never uses."""
    assert _unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []
