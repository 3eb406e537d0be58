"""The package's export list and imports.

Every exported name resolves, once, in sorted order; the package root exports
everything it imports, and every other module uses everything it imports.
"""

from __future__ import annotations

import ast
from pathlib import Path

import sandpiles

PACKAGE_DIR = Path(sandpiles.__file__).parent


def test_all_names_resolve_once_and_sorted():
    names = sandpiles.__all__
    assert [n for n in names if not hasattr(sandpiles, n)] == []
    assert len(set(names)) == len(names)
    assert names == sorted(names)
    namespace: dict = {}
    exec("from sandpiles import *", namespace)
    assert set(names) <= set(namespace)


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Name each import binds in the module, with its line (``__future__`` aside)."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
    return names


def test_package_root_exports_every_name_it_imports():
    tree = ast.parse((PACKAGE_DIR / "__init__.py").read_text())
    assert sorted(set(_imported_names(tree)) - set(sandpiles.__all__)) == []


def test_every_module_uses_every_name_it_imports():
    unused = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [
            f"{path.name}:{line}: {name}"
            for name, line in _imported_names(tree).items()
            if name not in used
        ]
    assert unused == []


def test_no_module_imports_scipy_stats():
    # scipy.stats takes most of a second to import; nothing in the package
    # needs it, and the tests that do import it themselves.
    hits = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                modules = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            hits += [
                f"{path.name}:{node.lineno}: {module}"
                for module in modules
                if f"{module}.".startswith("scipy.stats.")
            ]
    assert hits == []
