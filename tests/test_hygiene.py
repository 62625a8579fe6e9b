"""Source hygiene: every imported name is used by the module that imports it.

No linter ships with the project, so this stands in for the unused-import
check: a name bound by an import in `src/meirl/*.py` or `scripts/*.py` must be
read somewhere in that module (code or annotations) or be listed in its
`__all__`.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "meirl").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))


def imported_names(tree: ast.Module) -> dict:
    """Bound name -> line of the import that binds it (`__future__` aside)."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def exported_names(tree: ast.Module) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def read_names(tree: ast.Module) -> set:
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    used = read_names(tree) | exported_names(tree)
    return sorted((line, name) for name, line in imported_names(tree).items()
                  if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_used(path):
    unused = unused_imports(path.read_text())
    assert not unused, f"{path.name}: unused imports " + ", ".join(
        f"{name} (line {line})" for line, name in unused)


def test_checker_flags_an_unused_import():
    source = "import math\nfrom typing import Optional, List\n\nx: List[int] = []\n"
    assert unused_imports(source) == [(1, "math"), (2, "Optional")]
    assert unused_imports("from .errors import ConfigError\n__all__ = ['ConfigError']\n") == []
