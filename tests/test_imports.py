"""The package runs on numpy alone: scipy is a test dependency only."""

import os
import re
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

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
