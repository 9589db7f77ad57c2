"""Smoke test of the benchmark itself.

Run from the root of a checkout (takes about a minute):

    python3 perfbench/selftest.py

For one short run of each workload in each mode it checks that the run
exits with 0, reports correct outputs, and reports exactly the metrics
that BENCHMARK.json names for the mode, each matching [A-Za-z0-9_.-]+,
with its unit and a finite value. Every traced run checks its own spans
(no negative self time, stage spans plus the step's self time equal to
the step span, top-level spans covering the run to within the tracing
overhead) and reports itself incorrect when one fails. Last, it checks
that a directory holding only the benchmark makes it fail without a
result.
"""

import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run(command: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def check_result(spec: dict, workload: str, trace: int, root: Path) -> list[str]:
    group = spec["per_layer" if trace else "end_to_end"]
    out = run(spec["command"] + ["--workload", workload, "--seed", "0",
                                 "--seconds", "1", "--trace", str(trace)], root)
    where = f"{workload} --trace {trace}"
    if out.returncode != 0:
        return [f"{where}: exit {out.returncode}: {out.stderr.strip()[-500:]}"]
    result = json.loads(out.stdout.splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: not correct:\n{out.stdout}")
    want = {m["name"]: m["unit"] for m in group}
    got = result["metrics"]
    if set(got) != set(want):
        problems.append(f"{where}: missing {sorted(set(want) - set(got))}, "
                        f"extra {sorted(set(got) - set(want))}")
    for name, metric in got.items():
        if not NAME.fullmatch(name):
            problems.append(f"{where}: bad metric name {name!r}")
        if name in want and metric["unit"] != want[name]:
            problems.append(f"{where}: {name} unit {metric['unit']!r}, not {want[name]!r}")
        if not math.isfinite(metric["value"]):
            problems.append(f"{where}: {name} = {metric['value']}")
    return problems


def check_bare_directory(spec: dict, root: Path) -> list[str]:
    with tempfile.TemporaryDirectory(prefix=".perfbench-selftest-", dir=root) as tmp:
        bare = Path(tmp)
        shutil.copy(root / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(root / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        out = run(spec["command"] + ["--workload", spec["workloads"][0]["name"],
                                     "--seed", "0", "--seconds", "1", "--trace", "0"],
                  bare)
    if out.returncode == 0 or '"correct"' in out.stdout:
        return ["benchmark ran without the package"]
    return []


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found = check_result(spec, workload, trace, root)
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAILED'}",
                  flush=True)
            problems += found
    problems += check_bare_directory(spec, root)
    for problem in problems:
        print(problem)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
