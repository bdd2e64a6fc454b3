"""geork benchmark: one workload, one run, one JSON result line.

  python3 bench/run.py --workload drift --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Workloads: drift, convergence,
quartic-adaptive (see README.md in this directory).  With --trace 0 the run
measures the end-to-end metrics with tracing off; with --trace 1 it alternates
untraced and traced passes and reports the per-layer metrics.  The last line
of standard output is {"correct", "attempted", "failed", "metrics"}; the lines
before it print every metric with its unit, the medians and sample counts,
the fitted slopes and the other quantities behind the output checks.

The workload runs in a child process (worker.py) with geork's source tree on
PYTHONPATH, GEORK_THREADS unset and every BLAS/OpenMP pool at one thread.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
WORKER = Path(__file__).resolve().with_name("worker.py")
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
WORKER_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env() -> dict[str, str]:
    """Environment of every process the benchmark starts.

    GEORK_THREADS stays unset so the cells run sequentially: with
    GEORK_THREADS=2 on two cores the full convergence campaign took 27-28 s
    against 19-21 s sequential, from contention on the interpreter lock.  The
    stage matrices are at most 12 x 12, so BLAS threads only add start-up
    cost and noise.
    """
    env = {k: v for k, v in os.environ.items() if k != "GEORK_THREADS"}
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT, env=child_env(),
                          stdout=subprocess.PIPE, text=True, timeout=timeout, check=True)


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Wall time of fresh processes that import geork and build everything."""
    times = []
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        _worker(["--workload", workload, "--seed", str(seed), "--setup-only"], PROBE_TIMEOUT_S)
        times.append(perf_counter() - start)
    return times


def describe(values: list[float], unit: str) -> str:
    """Median plus the highest percentile that has ten samples beyond it."""
    n = len(values)
    text = f"median {statistics.median(values):.6g} {unit}"
    ranked = sorted(values)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10:
            return f"{text}, p{p:g} {ranked[math.ceil(p / 100.0 * n) - 1]:.6g} {unit} (n={n})"
    return f"{text} (n={n}; no percentile has ten samples beyond it)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "geork" / "__init__.py").is_file():
        print(f"bench: no geork source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2

    run_args = ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        setup = [] if args.trace else setup_seconds(args.workload, args.seed)
        raw = json.loads(_worker(run_args, WORKER_TIMEOUT_S).stdout.strip().splitlines()[-1])
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, IndexError,
            ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    print(f"bench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    metrics: dict[str, tuple[float, str]] = {}
    if args.trace:
        metrics = {name: tuple(value_unit) for name, value_unit in raw["layers"].items()}
        print(f"  untraced pass: {describe(raw['wall_s'], 's')}")
        print(f"  traced pass: {describe(raw['traced_wall_s'], 's')}")
        for name, (value, unit) in metrics.items():
            print(f"  {name}: {value:.6g} {unit}")
        for family, layer in sorted(raw["by_family"].items()):
            print(f"  [{family}] " + ", ".join(f"{k}={v:.6g}" for k, v in layer.items() if v))
    else:
        metrics["wall_s"] = (statistics.median(raw["wall_s"]), "s")
        print(f"  wall_s: {describe(raw['wall_s'], 's')}")
        for family, seconds in raw["family_s"].items():
            metrics[f"{family}_s"] = (statistics.median(seconds), "s")
            print(f"  {family}_s: {describe(seconds, 's')}")
        metrics["setup_s"] = (statistics.median(setup), "s")
        print(f"  setup_s: {describe(setup, 's')}")
        metrics["peak_rss_mb"] = (raw["peak_rss_mb"], "MB")
        print(f"  peak_rss_mb: {raw['peak_rss_mb']:.6g} MB")
    attempted, failed = raw["attempted"], raw["failed"]
    print(f"  failed_share: {failed / attempted:.6g} ratio ({failed} of {attempted} operations)")
    for name, value in raw["notes"].items():
        print(f"  note {name}: {value}")
    for problem in raw["problems"]:
        print(f"  FAILED {problem}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
