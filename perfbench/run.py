"""Benchmark of ddcontrol: closed-loop runs timed end to end and per layer.

Run from the root of a checkout; the package is imported from its
``src`` directory:

    python3 perfbench/run.py --workload thermal_day --seed 0 --seconds 20 --trace 0

Workloads are ``thermal_day``, ``scalar_long`` and ``thermal_sweep`` (see
workloads.py and README.md). ``--trace 0`` reports the end-to-end metrics
from runs in which only ``Controller.step`` is wrapped; ``--trace 1``
reports the per-layer metrics from runs with every layer wrapped.

Prints one line per metric (name, value, unit, sample count), the failure
rate, the environment, any problems found, and as the last line one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. Exits with 2, printing no result, when the checkout holds no
``src/ddcontrol``.
"""

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("thermal_day", "scalar_long", "thermal_sweep")
#: one BLAS thread: faster and steadier than two on this problem size
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, required=True, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def git_commit(root: Path) -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent)))
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(root: Path) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "commit": git_commit(root),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "ddcontrol" / "__init__.py").is_file():
        print(f"error: {src / 'ddcontrol'} not found; run from the root of a "
              "ddcontrol checkout", file=sys.stderr)
        return 2
    # BLAS reads its thread count when numpy loads, so pin it before the
    # first import of numpy, here and in the import probes.
    os.environ.update({var: "1" for var in BLAS_THREAD_VARS})
    sys.path.insert(0, str(src))
    import ddcontrol
    if Path(ddcontrol.__file__).resolve().parent != (src / "ddcontrol").resolve():
        print(f"error: imported ddcontrol from {ddcontrol.__file__}, not {src}",
              file=sys.stderr)
        return 2
    from measure import UNGATED, Measurement

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as tmp:
        bench = Measurement(args.workload, args.seed, src, Path(tmp))
        bench.run(args.seconds, bool(args.trace))
        if args.trace:
            metrics = bench.per_layer()
        else:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = bench.end_to_end(peak_rss_mb)

    results = bench.results()
    failed = sum(1 for r in results if r.problems)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    for name, (value, unit, samples) in metrics.items():
        print(f"{name:<42} {value:>14.6g} {unit:<6} n={samples}")
    print(f"{'fail_rate':<42} {failed / len(results):>14.6g} {'ratio':<6} "
          f"n={len(results)} runs")
    print("env " + json.dumps(environment(root), sort_keys=True))
    problems = sorted({p for r in results for p in r.problems})
    for problem in problems:
        print(f"problem: {problem}")
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()
                    if name not in UNGATED},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
