"""Child process of the benchmark: runs one workload and prints raw results.

run.py starts it with the thread environment pinned and geork's source tree
on PYTHONPATH; it prints one JSON line and exits.

  python3 bench/worker.py --workload drift --seed 1 --seconds 20 --trace 0
  python3 bench/worker.py --workload drift --seed 1 --setup-only
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import shutil
import statistics
from pathlib import Path
from time import perf_counter

import geork

import workloads

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = Path(__file__).resolve().with_name("_out")
MIN_PASSES = 3
MAX_PROBLEMS = 20


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import, build the problem and tableaus, then exit")
    return parser.parse_args(argv)


def _tally(passes, problems):
    attempted = failed = 0
    for i, p in enumerate(passes):
        for cell in p.cells:
            attempted += 1
            if cell.problems:
                failed += 1
                problems.extend(f"pass {i} {cell.label}: {msg}" for msg in cell.problems)
    return attempted, failed


def _untraced(workload, rng, seconds):
    passes = []
    deadline = perf_counter() + seconds
    while len(passes) < MIN_PASSES or perf_counter() < deadline:
        passes.append(workload.run_pass(rng))
    problems: list[str] = []
    attempted, failed = _tally(passes, problems)
    return {
        "wall_s": [p.wall for p in passes],
        "family_s": {f: [p.family_seconds(f) for p in passes] for f in workloads.FAMILIES},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:MAX_PROBLEMS],
        "notes": passes[-1].notes,
    }


def _traced(workload, rng, seconds):
    """Alternate untraced and traced passes; compare their outputs exactly."""
    from tracer import UNITS, Tracer

    tracer = Tracer()
    plain, traced, layers = [], [], []
    deadline = perf_counter() + seconds
    while not traced or perf_counter() < deadline:
        plain.append(workload.run_pass(rng))
        mark = tracer.mark()
        with tracer.installed():
            traced.append(workload.run_pass(rng, tracer))
        layers.append(tracer.layer_metrics(mark))
        expected = {c.label: c.fingerprint for c in plain[-1].cells}
        for cell in traced[-1].cells:
            if cell.fingerprint and expected.get(cell.label) not in ("", cell.fingerprint):
                cell.problems.append("traced output differs from the untraced output")
    problems: list[str] = []
    attempted, failed = _tally(plain + traced, problems)
    # counts from the first traced pass, which always follows exactly one
    # untraced pass, so they repeat between runs; times are medians
    totals = dict(layers[0][0])
    for name in totals:
        if name.endswith(".self_s"):
            totals[name] = statistics.median(t[name] for t, _ in layers)
    totals["trace.overhead"] = (statistics.median(p.wall for p in traced)
                                / statistics.median(p.wall for p in plain))
    return {
        "layers": {name: [totals[name], unit] for name, unit in UNITS.items()},
        "by_family": layers[0][1],
        "wall_s": [p.wall for p in plain],
        "traced_wall_s": [p.wall for p in traced],
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:MAX_PROBLEMS],
        "notes": traced[-1].notes,
    }


def main(argv=None) -> int:
    args = _parse(argv)
    src = (ROOT / "src").resolve()
    if src not in Path(geork.__file__).resolve().parents:
        raise SystemExit(f"geork was imported from {geork.__file__}, not from {src}")
    rng = random.Random(args.seed)
    workload = workloads.WORKLOADS[args.workload](rng, str(OUT_DIR))
    workload.setup()
    if args.setup_only:
        return 0
    OUT_DIR.mkdir(exist_ok=True)
    try:
        workload.warm_up()
        run = _traced if args.trace else _untraced
        result = run(workload, rng, args.seconds)
    finally:
        shutil.rmtree(OUT_DIR, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
