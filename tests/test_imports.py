"""Every module-level import in the package binds a name its module uses,
and no import anywhere in it names scipy, a test-only dependency."""

import ast
from pathlib import Path

import pytest

import seqmix

PACKAGE = Path(seqmix.__file__).resolve().parent
# __init__ imports names to re-export them
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names bound by the module-level imports of `source` that no
    expression in it reads, each with the line of its import."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


def test_finds_an_unused_import():
    source = "import os\nimport sys\nfrom typing import Optional\n\nprint(sys.argv)\n"
    assert unused_imports(source) == ["os (line 1)", "Optional (line 3)"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_module_level_import(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def imported_packages(source: str) -> set[str]:
    """The top-level packages that any import in `source` names, imports
    inside functions included."""
    tops = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            tops.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            tops.add(node.module.split(".")[0])
    return tops


def test_no_module_imports_scipy():
    assert "scipy" in imported_packages("def f():\n    from scipy.linalg import solve\n")
    importers = [p.name for p in sorted(PACKAGE.glob("*.py"))
                 if "scipy" in imported_packages(p.read_text())]
    assert importers == []
