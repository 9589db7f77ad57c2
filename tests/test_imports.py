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


def test_every_offline_field_has_a_reader_outside_tests(monkeypatch, tmp_path,
                                                        factor_cache):
    # the offline factors hold what a run reads: while a shipped day, a
    # regularized start, demo-siso and demos 01-03 run, each field of
    # Precomputed and SteadyStateProjector is read off an instance of that
    # class by code under src/ or demos/, so a matrix kept only for tests
    # fails here. The probe sits on each class, so a short name (n, m, p,
    # S, P) read off another object does not count, and nor do the reads of
    # the cache's freeze, which walks every field
    import runpy

    from ddcontrol.controller import Precomputed, _freeze
    from ddcontrol.harness import (ExperimentConfig, demo_siso_config, run_experiment,
                                   shipped_config_path)
    from ddcontrol.steady_state import SteadyStateProjector

    reads = {Precomputed: set(), SteadyStateProjector: set()}
    for cls, seen in reads.items():
        def probe(self, name, _seen=seen, _real=cls.__getattribute__):
            caller = sys._getframe(1).f_code
            if caller is not _freeze.__code__:
                _seen.add((name, caller.co_filename))
            return _real(self, name)
        monkeypatch.setattr(cls, "__getattribute__", probe)

    day = ExperimentConfig.from_json(shipped_config_path())
    day.horizon = 20
    run_experiment(day, out_dir=tmp_path / "day")
    regularized = demo_siso_config()
    regularized.controller.init_mode, regularized.horizon = "regularized", 20
    run_experiment(regularized, out_dir=tmp_path / "regularized")
    run_experiment(demo_siso_config(), out_dir=tmp_path / "siso")
    monkeypatch.chdir(tmp_path)
    for demo in sorted((ROOT / "demos").glob("0[1-3]_*.py")):
        runpy.run_path(str(demo), run_name="__main__")

    readers = (SRC, ROOT / "demos")
    for cls, seen in reads.items():
        read = {name for name, path in seen
                if any(Path(path).resolve().is_relative_to(r) for r in readers)}
        unread = {f.name for f in fields(cls)} - read
        assert not unread, f"{cls.__name__}: {sorted(unread)}"


def test_no_class_defines_the_scalar_oracle_forms():
    # the oracle reads stacked_terms only, so a cost written to an old form
    # (the scalar terms, the runs of equal parameters, or the two stacked
    # forms that stacked_terms merged) would be ignored or refused at run
    # time instead of solved
    old = {"params_key", "quadratic_terms", "run_starts", "stacked_quadratic_terms",
           "stacked_softplus_terms"}
    for folder in (SRC, ROOT / "demos", ROOT / "tests"):
        for path in sorted(folder.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ClassDef):
                    names = {item.name for item in node.body
                             if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))}
                    # an alias of another class's method defines one too
                    names |= {target.id for item in node.body if isinstance(item, ast.Assign)
                              for target in item.targets if isinstance(target, ast.Name)}
                    assert not names & old, f"{path.name}: {node.name}"
