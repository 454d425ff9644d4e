"""Source hygiene: no module imports a name it never uses, no private
helper in `src/` is left without a caller, and no exported name or public
method of an exported class is used only by tests.

No lint tool is part of the test dependencies, so these AST scans are what
keep orphaned imports out of `src/`, `tests/` and `scripts/`, orphaned
module-level `_name` definitions out of `src/schubert/`, and test-only
code out of `schubert.__all__` and its classes.  Package `__init__.py`
files re-export names and `from __future__` imports are directives, so
both are exempt from the import scan.  A last scan keeps `assert`
statements out of `src/`: ``python -O`` strips them, and every check of
the package must hold under it.
"""

import ast
from pathlib import Path

import schubert

ROOT = Path(__file__).resolve().parents[1]

# Exported names that nothing outside the tests uses, kept on purpose:
# `characteristic` is README's library example, `parse_polynomial` reads
# back the polynomial text format of README, and `kernel_basis` is the
# documented left kernel, which `gysin_analysis` reads off the Hermite form
# it already has and the benchmark's tracer wraps by name.  Any other name
# that only tests use lives in `tests/`, as acceptance data or an oracle.
EXPORTED_FOR_TESTS = {"characteristic", "kernel_basis", "parse_polynomial"}

# Public methods of exported classes that nothing outside the tests calls.
METHODS_FOR_TESTS = set()


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


def _definitions(tree):
    """(name, body) of module-level functions, classes and assignments.

    The body is None for an assignment.
    """
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [(node.name, node)]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            found = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [(t.id, None) for t in found if isinstance(t, ast.Name)]
        else:
            continue
        yield from targets


def _attribute_references(tree):
    """Every attribute taken (`x.name`) or name imported in the tree.

    A method is reached only through an attribute, or imported by name, so
    a bare name such as a local variable is not a use of it.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name


def _references(tree):
    """Every name read, attribute taken or name imported in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
    yield from _attribute_references(tree)


def _parse(paths):
    return {path: ast.parse(path.read_text(), filename=str(path)) for path in paths}


def _reference_counts(trees, references=_references):
    counts = {}
    for tree in trees:
        for name in references(tree):
            counts[name] = counts.get(name, 0) + 1
    return counts


def _own_references(name, body, references=_references):
    """References a function or class makes to itself, inside its own body."""
    return sum(1 for ref in references(body) if ref == name) if body else 0


def orphaned_private_helpers(paths):
    """(path, name) of each private definition that nothing else references.

    A function's or class's references to itself, inside its own body,
    do not count.
    """
    trees = _parse(paths)
    counts = _reference_counts(trees.values())
    found = []
    for path, tree in trees.items():
        for name, body in _definitions(tree):
            private = name.startswith("_") and not name.startswith("__")
            if private and counts.get(name, 0) <= _own_references(name, body):
                found.append((path, name))
    return found


def exported_without_use(exported, modules, others):
    """Names in `exported` that no module and no other file references.

    `modules` are the package's files that define the names (without its
    `__init__.py`), `others` the files that may use them.  A definition's
    references to itself, inside its own body, do not count, and neither
    does a mention in a string such as a doctest.
    """
    trees = _parse(modules)
    counts = _reference_counts([*trees.values(), *_parse(others).values()])
    own = {
        name: _own_references(name, body)
        for tree in trees.values()
        for name, body in _definitions(tree)
    }
    return [name for name in exported if counts.get(name, 0) <= own.get(name, 0)]


def _public_methods(tree, classes):
    """(Class.method, method, body) of the public methods of the named classes."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name in classes:
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item.name, item


def methods_without_use(classes, modules, others):
    """Public methods of `classes` that no module and no other file references.

    `modules` are the package's files, `others` the files that may use
    them.  Only attribute references and imported names count, so a local
    variable that shares a method's name is not a use, and neither is a
    method's reference to its own name inside its own body.
    """
    trees = _parse(modules)
    counts = _reference_counts(
        [*trees.values(), *_parse(others).values()], _attribute_references
    )
    return [
        qualname
        for tree in trees.values()
        for qualname, name, body in _public_methods(tree, classes)
        if counts.get(name, 0) <= _own_references(name, body, _attribute_references)
    ]


def _outside_package():
    return sorted((ROOT / "scripts").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))


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


def test_exported_names_have_a_use_outside_tests():
    package = ROOT / "src" / "schubert"
    modules = [p for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    found = exported_without_use(schubert.__all__, modules, _outside_package())
    assert sorted(found) == sorted(EXPORTED_FOR_TESTS), (
        "exported names only tests use (move them to tests/ or onto the "
        f"allow-list): {sorted(set(found) - EXPORTED_FOR_TESTS)}; allow-listed "
        f"names now in use: {sorted(EXPORTED_FOR_TESTS - set(found))}"
    )


def test_scan_finds_exported_names_without_use(tmp_path):
    lib = tmp_path / "lib.py"
    app = tmp_path / "app.py"
    lib.write_text(
        "def used(x):\n"
        "    return x\n"
        "def recursive(x):\n"
        "    return recursive(x - 1) if x else 0\n"
        "def documented():\n"
        "    \"\"\">>> documented()\"\"\"\n"
        "class Helper:\n"
        "    def copy(self):\n"
        "        return Helper()\n"
        "def via_attribute():\n"
        "    pass\n"
    )
    app.write_text("import lib\nfrom lib import used\nlib.via_attribute()\n")
    exported = ["used", "recursive", "documented", "Helper", "via_attribute"]
    assert exported_without_use(exported, [lib], [app]) == [
        "recursive", "documented", "Helper",
    ]


def test_exported_classes_have_no_test_only_methods():
    classes = {name for name in schubert.__all__ if isinstance(getattr(schubert, name), type)}
    modules = sorted((ROOT / "src" / "schubert").glob("*.py"))
    found = methods_without_use(classes, modules, _outside_package())
    assert sorted(found) == sorted(METHODS_FOR_TESTS), (
        "public methods only tests use (move them to tests/ or onto the "
        f"allow-list): {sorted(set(found) - METHODS_FOR_TESTS)}; allow-listed "
        f"methods now in use: {sorted(METHODS_FOR_TESTS - set(found))}"
    )


def test_scan_finds_methods_without_use(tmp_path):
    lib = tmp_path / "lib.py"
    app = tmp_path / "app.py"
    lib.write_text(
        "class Shape:\n"
        "    def area(self):\n"
        "        return 1\n"
        "    def grow(self, n):\n"
        "        return self.grow(n - 1) if n else self\n"
        "    def _helper(self):\n"
        "        pass\n"
        "    def __len__(self):\n"
        "        return 0\n"
        "    @classmethod\n"
        "    def unit(cls):\n"
        "        return cls()\n"
        "    def drawn(self):\n"
        "        return self.area()\n"
        "    def size(self):\n"
        "        size = 2\n"
        "        return size\n"
        "class Hidden:\n"
        "    def unused(self):\n"
        "        pass\n"
    )
    # a local variable named like a method is not a use of it
    app.write_text("from lib import Shape\nShape.unit().drawn()\ngrow = 3\nprint(grow)\n")
    assert methods_without_use({"Shape"}, [lib], [app]) == ["Shape.grow", "Shape.size"]


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


def assert_statements(path):
    """Line numbers of the `assert` statements in a file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def test_no_assert_statements_in_src():
    found = [
        f"{path.relative_to(ROOT)}:{line}"
        for path in sorted((ROOT / "src").rglob("*.py"))
        for line in assert_statements(path)
    ]
    assert not found, "assert statements, which python -O strips:\n" + "\n".join(found)


def test_scan_finds_assert_statements(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "def f(x):\n"
        "    assert x > 0, 'positive'\n"
        "    if x:\n"
        "        assert (x, 1)\n"
        "    return 'assert x'  # assert in a string or comment is no statement\n"
        "class C:\n"
        "    def g(self):\n"
        "        assert self\n"
    )
    assert assert_statements(path) == [2, 4, 8]
