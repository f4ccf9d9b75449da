"""Every name a module imports is used in that module, every top-level
function and class and every method of such a class is used by the package
or by a script, no module imports a sibling inside a function, the export
list matches the package imports, and the CLI runs its commands without
importing scipy."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import roybounds

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "roybounds"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


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


def defined_names(source: str) -> list:
    """(name, qualified name) of the top-level functions and classes and of
    the methods, static methods and properties of those classes; the dunder
    methods Python calls itself are left out."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((node.name, node.name))
        if isinstance(node, ast.ClassDef):
            out += [(m.name, f"{node.name}.{m.name}") for m in node.body
                    if isinstance(m, ast.FunctionDef) and not m.name.startswith("__")]
    return out


def test_every_definition_has_a_caller():
    # __init__.py re-exports names without using them, so it does not count
    used = set()
    for path in [*MODULES, *sorted((ROOT / "scripts").glob("*.py"))]:
        used |= referenced_names(path.read_text())
    uncalled = [qual for path in MODULES
                for name, qual in defined_names(path.read_text())
                if name not in used]
    assert sorted(uncalled) == []


def test_no_sibling_import_inside_a_function():
    # an indented import of a sibling module hides a dependency cycle
    lazy = [f"{p.name}:{n.lineno}" for p in MODULES for n in ast.walk(ast.parse(p.read_text()))
            if isinstance(n, ast.ImportFrom) and n.level > 0 and n.col_offset > 0]
    assert lazy == []


def test_export_list_matches_imports():
    init = ast.parse((SRC / "__init__.py").read_text())
    imported = {alias.asname or alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    names = roybounds.__all__
    assert len(names) == len(set(names))
    assert all(hasattr(roybounds, name) for name in names)
    assert set(names) == imported | {"__version__"}


# simulate (both designs), estimate, bounds --mode all and infer at toy sizes;
# prints the scipy modules the interpreter has loaded
_CLI_RUNS = """
import json, sys
import roybounds
import roybounds.cli as cli
from roybounds.model import DgpSpec
shape = dict(mu0=(0.0, 0.3), mu1=(0.2, 0.5), sigma0=0.6, sigma1=0.7)
designs = {"quasi": DgpSpec.quasi_linear(g0=(1.5, -0.8), g1=(0.3, 0.0), **shape),
           "mult": DgpSpec.multiplicative(g0=(1.0, 0.0), g1=(0.6, 0.2), **shape)}
for name, dgp in designs.items():
    with open(name + ".json", "w") as handle:
        json.dump({"dgp": dgp.to_json()}, handle)
    sample = ["--input", name + ".csv"]
    for args in (["simulate", "--config", name + ".json", "--n", "400",
                  "--output", name + ".csv"],
                 ["estimate", *sample, "--output", name + ".tables.csv"],
                 ["bounds", "--mode", "all", *sample, "--output", name + ".bounds.csv"],
                 ["infer", "--bootstrap", "50", *sample, "--output", name + ".band.csv"]):
        assert cli.main(args + ["--grid-y", "10", "--grid-z", "3"]) == 0, args
print(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))
"""


def test_cli_commands_import_no_scipy(tmp_path):
    # only coverage and the population tables need scipy
    path = [str(SRC.parent), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run([sys.executable, "-c", _CLI_RUNS],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
