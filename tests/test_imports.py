"""Every name a ``mubsic`` module imports is used in that module.

``__init__.py`` re-exports its imports and is skipped.  An import whose
line carries ``# noqa: F401`` is kept on purpose (a seam for code outside
the package) and is allowed.  Every private module-level name (one
leading underscore, not a dunder) is referenced somewhere in the package
outside its own definition.  Every name ``mubsic`` exports is referenced
in the package outside its own definition, or named in the benchmark, CI
or README, unless :data:`UNUSED_EXPORTS` keeps it for a planned use.
``import mubsic`` loads no ``numpy.random``: it is imported on the first
draw.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mubsic"
ROOT = PACKAGE.parent.parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TREES = {p.name: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
# exported names that only tests call yet, each kept for a planned use (CHANGES.md)
UNUSED_EXPORTS = {"simple_bounds", "maximally_entangled", "from_bloch"}


def _unused_imports(path):
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}  # bound name -> line number
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_package_has_modules():
    assert len(MODULES) >= 8


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert _unused_imports(path) == []


def _defined(statement):
    """The names a module-level statement defines."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {statement.name}
    targets = statement.targets if isinstance(statement, ast.Assign) else []
    if isinstance(statement, ast.AnnAssign):
        targets = [statement.target]
    return {node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name)}


def _referenced(statement):
    """The names a statement reads: bare names, attributes and imported names."""
    names = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def test_every_private_name_is_referenced():
    references = [(s, _referenced(s)) for tree in TREES.values() for s in tree.body]
    private = [
        (module, statement, name)
        for module, tree in TREES.items()
        for statement in tree.body
        for name in filter(_private, _defined(statement))
    ]
    unreferenced = [
        f"{module}: {name}"
        for module, statement, name in private
        if not any(name in names for s, names in references if s is not statement)
    ]
    assert private
    assert unreferenced == []


def test_every_exported_name_has_a_use():
    exported = {
        alias.asname or alias.name
        for node in TREES["__init__.py"].body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    references = [
        (statement, _referenced(statement))
        for module, tree in TREES.items()
        if module != "__init__.py"
        for statement in tree.body
    ]
    texts = [path.read_text() for path in sorted((ROOT / "bench").glob("*.py"))]
    texts += [(ROOT / ".github/workflows/tier1.yml").read_text(), (ROOT / "README.md").read_text()]

    def used(name):
        if any(name in names and name not in _defined(s) for s, names in references):
            return True
        return any(re.search(rf"\b{name}\b", text) for text in texts)

    assert exported > UNUSED_EXPORTS
    assert sorted(name for name in exported - UNUSED_EXPORTS if not used(name)) == []
    assert sorted(name for name in UNUSED_EXPORTS if used(name)) == []


def test_import_leaves_numpy_random_unloaded():
    # a fresh interpreter, so no other test has drawn; the first draw loads it
    probe = (
        "import sys, mubsic; before = 'numpy.random' in sys.modules; mubsic.stream(1); "
        "print(before, 'numpy.random' in sys.modules)"
    )
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
    )
    assert out.stdout.split() == ["False", "True"], out.stderr
