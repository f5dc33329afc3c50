"""Rules that hold across every module of the package."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import vertexmagic

SOURCES = sorted(Path(vertexmagic.__file__).parent.glob("*.py"))
BENCHMARK = sorted((Path(__file__).parents[1] / "perfbench").glob("*.py"))
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


# public names no package entry point reaches, each kept for its reason
KEPT = {
    "naive_exists": "the reference oracle the search is checked against",
    "lattice_facts": "the presolve's unit facts, the view refutations build on",
    "torsion_facts": "the presolve's torsion facts, the view refutations build on",
    "atlas_markdown": "the generator of docs/atlas.md",
    "canonical_instance": "the expected recognition of every atlas template",
    "base_graph": "the expected two-core of every atlas template",
    "corollary_refuters": "the refuting groups the paper's corollaries name",
}


def _reads(node: ast.AST) -> set[str]:
    """Identifiers node reads: names, attributes, and identifier strings,
    which is how `perfbench/tracing.py` names the functions it wraps."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            out.add(n.value)
    return {name for name in out if name.isidentifier()}


def test_every_public_name_is_reached():
    """Every public top-level function and class of the package is reached
    from an entry point: the package's `__init__` exports, the module-level
    code (`vmagic` runs `cli.main`), a `perfbench` file, or `KEPT`.  A name
    is reached when a reached definition reads it; names are matched
    without their module, so a shared name can only hide a dead one."""
    defined: dict[str, list[ast.AST]] = {}
    public = []
    reached = set(KEPT)
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, []).append(node)
                if path.name != "__init__.py" and not node.name.startswith("_"):
                    public.append(f"{path.stem}.{node.name}")
            elif isinstance(node, ast.ImportFrom) and path.name == "__init__.py":
                reached |= {a.name for a in node.names}
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                reached |= _reads(node)
    for path in BENCHMARK:
        reached |= _reads(ast.parse(path.read_text(encoding="utf-8")))
    todo = list(reached)
    while todo:
        for node in defined.pop(todo.pop(), []):
            new = _reads(node) - reached
            reached |= new
            todo += new
    assert set(KEPT) <= {q.split(".")[1] for q in public}
    unreached = [q for q in public if q.split(".")[1] not in reached]
    assert not unreached, f"no entry point reaches {unreached}"
