"""Source hygiene: no module imports a name it never uses, and no private
helper in `src/` is left without a caller.

No lint tool is part of the test dependencies, so these AST scans are what
keep orphaned imports out of `src/`, `tests/` and `scripts/`, and orphaned
module-level `_name` definitions out of `src/schubert/`.  Package
`__init__.py` files re-export names and `from __future__` imports are
directives, so both are exempt from the import scan.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _imported_names(tree):
    """(line, bound name) for every import outside `from __future__`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield node.lineno, alias.asname or alias.name


def unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in _imported_names(tree) if name not in used]


def _private_definitions(tree):
    """Module-level functions, classes and assignments named `_x` (not dunder)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [(node.name, node)]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            found = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [(t.id, None) for t in found if isinstance(t, ast.Name)]
        else:
            continue
        for name, body in targets:
            if name.startswith("_") and not name.startswith("__"):
                yield name, body


def _references(tree):
    """Every name read, attribute taken or name imported in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name


def orphaned_private_helpers(paths):
    """(path, name) of each private definition that nothing else references.

    A function's or class's references to itself, inside its own body,
    do not count.
    """
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in paths}
    counts = {}
    for tree in trees.values():
        for name in _references(tree):
            counts[name] = counts.get(name, 0) + 1
    found = []
    for path, tree in trees.items():
        for name, body in _private_definitions(tree):
            own = sum(1 for ref in _references(body) if ref == name) if body else 0
            if counts.get(name, 0) <= own:
                found.append((path, name))
    return found


def test_no_orphaned_private_helpers():
    paths = sorted((ROOT / "src" / "schubert").glob("*.py"))
    found = [
        f"{path.relative_to(ROOT)}: {name}" for path, name in orphaned_private_helpers(paths)
    ]
    assert not found, "private helpers nothing in src/ uses:\n" + "\n".join(found)


def test_scan_finds_orphaned_helpers(tmp_path):
    a = tmp_path / "a.py"
    b = tmp_path / "b.py"
    a.write_text(
        "_LIMIT = 3\n"
        "def _used(x):\n"
        "    return x\n"
        "def _recursive(x):\n"
        "    return _recursive(x - 1) if x else 0\n"
        "def _orphan():\n"
        "    pass\n"
        "class _Helper:\n"
        "    pass\n"
        "def public():\n"
        "    return _used(_LIMIT)\n"
    )
    b.write_text("from a import _Helper\n")
    found = orphaned_private_helpers([a, b])
    assert [name for _, name in found] == ["_recursive", "_orphan"]


def test_no_unused_imports():
    found = []
    for top in ("src", "tests", "scripts"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            for line, name in unused_imports(path):
                found.append(f"{path.relative_to(ROOT)}:{line}: {name}")
    assert not found, "unused imports:\n" + "\n".join(found)


def test_scan_finds_unused_names(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from json import dumps, loads as load\n"
        "from fractions import Fraction\n"
        "def f(x: Fraction) -> str:\n"
        "    return os.path.sep\n"
    )
    assert unused_imports(path) == [(3, "dumps"), (3, "load")]
