"""Write golden.json: unit 0 of every workload under the golden seed.

Run from the root of a checkout, at the commit whose outputs later
commits must reproduce:

    python3 perfbench/make_golden.py
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

from ddcontrol import harness  # noqa: E402

import workloads  # noqa: E402
from run import WORKLOADS  # noqa: E402

golden = {}
for name in WORKLOADS:
    golden[name] = []
    for run in workloads.unit(name, workloads.GOLDEN_SEED, 0):
        _, summary = harness.run_experiment(run.config, seed=run.seed, mu=run.mu)
        golden[name].append(workloads.golden_values(summary))
workloads.GOLDEN_PATH.write_text(json.dumps(golden, indent=2) + "\n")
print(json.dumps(golden, indent=2))
