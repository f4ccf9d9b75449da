"""Every name a module imports is used in that module, and every top-level
function and class is used by the package or by a script."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "roybounds"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")

# public names that nothing in src/ or scripts/ calls, kept on purpose
UNREFERENCED = {
    "generalized_inverse": "scalar reference for the vectorized fiber inversion",
    "cost_from_utilities": "scalar reference for the closed-form costs",
    "check_smiv": "dispatcher that acceptance criterion 3 calls",
    "resimulate_sample": "resampling check of acceptance criterion 3",
    "utility_pair": "the paper's utility representation of a DGP",
    "read_long_csv": "the public reader of the long-format artifacts",
}


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(module):
    assert unused_imports(module.read_text()) == []


def referenced_names(source: str) -> set:
    """Names a module reads, as a name, an attribute or an import."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_definition_has_a_caller():
    # __init__.py re-exports names without using them, so it does not count
    used = set()
    for path in [*MODULES, *sorted((ROOT / "scripts").glob("*.py"))]:
        used |= referenced_names(path.read_text())
    defined = {node.name for path in MODULES
               for node in ast.parse(path.read_text()).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert sorted(defined - used - set(UNREFERENCED)) == []
    assert sorted(set(UNREFERENCED) - defined) == []
