"""The package's surface: it runs on numpy alone, and a run reaches every export."""

import ast
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

COLD_RUN = """
import sys
import tempfile

import ddcontrol
from ddcontrol.harness import (ExperimentConfig, cli_main, run_experiment,
                               shipped_config_path)

config_path = str(shipped_config_path())
assert cli_main(["validate", "--config", config_path]) == 0
with tempfile.TemporaryDirectory() as tmp:
    assert cli_main(["demo-siso", "--out", tmp]) == 0
config = ExperimentConfig.from_json(config_path)
config.horizon = 50
run_experiment(config)
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_cli_paths_do_not_load_scipy():
    # a fresh interpreter, so modules that other tests loaded do not count
    out = subprocess.run([sys.executable, "-c", COLD_RUN],
                         env=dict(os.environ, PYTHONPATH=str(SRC)),
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "[]"


def test_package_never_imports_scipy():
    statement = re.compile(r"^\s*(?:import|from)\s+scipy\b", re.MULTILINE)
    for path in sorted((SRC / "ddcontrol").rglob("*.py")):
        assert not statement.search(path.read_text()), path.name


def _read_outside_tests():
    """``(names, attributes)`` read under src/, demos/ or perfbench/.

    Outside __init__.py, and outside the definition of the name itself.
    """
    names, attributes = set(), set()

    def visit(node, defining):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defining = defining | {node.name}
        if isinstance(node, ast.Name) and node.id not in defining:
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in defining:
            attributes.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, defining)

    paths = [path for folder in (SRC / "ddcontrol", ROOT / "demos", ROOT / "perfbench")
             for path in folder.rglob("*.py") if path != SRC / "ddcontrol" / "__init__.py"]
    for path in paths:
        visit(ast.parse(path.read_text()), frozenset())
    return names, attributes


def test_every_export_has_a_caller_outside_tests():
    # the package exports what a run, a demo or the benchmark uses, not
    # helpers for its tests: each exported name is read somewhere under
    # src/, demos/ or perfbench/ (a call, an instance, a subclass, an
    # annotation or an attribute), outside __init__.py and its own definition
    init = ast.parse((SRC / "ddcontrol" / "__init__.py").read_text())
    exported = {alias.asname or alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    names, attributes = _read_outside_tests()
    assert len(exported) > 50
    assert exported <= names | attributes, sorted(exported - names - attributes)


def test_every_offline_field_has_a_reader_outside_tests():
    # the offline factors hold what a run reads: each field of Precomputed
    # and SteadyStateProjector is read as an attribute under src/, demos/ or
    # perfbench/, so a matrix kept only for tests fails here. Short names
    # (n, m, p, S, P) are read off other objects too, so this is a floor
    from ddcontrol.controller import Precomputed
    from ddcontrol.steady_state import SteadyStateProjector

    _, attributes = _read_outside_tests()
    for cls in (Precomputed, SteadyStateProjector):
        unread = {f.name for f in fields(cls)} - attributes
        assert not unread, f"{cls.__name__}: {sorted(unread)}"


def test_no_class_defines_the_scalar_oracle_forms():
    # the oracle reads run_starts and stacked_quadratic_terms only, so a
    # cost written to the scalar params_key and quadratic_terms of old
    # would silently be solved once per time by the iterative oracle
    old = {"params_key", "quadratic_terms"}
    for folder in (SRC, ROOT / "demos", ROOT / "tests"):
        for path in sorted(folder.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ClassDef):
                    names = {item.name for item in node.body
                             if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))}
                    assert not names & old, f"{path.name}: {node.name}"
