"""Source hygiene: no module imports a name it never uses.

No lint tool is part of the test dependencies, so this AST scan is what
keeps orphaned imports out of `src/`, `tests/` and `scripts/`.  Package
`__init__.py` files re-export names and `from __future__` imports are
directives, so both are exempt.
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
