"""Tests of the benchmark itself, on shortened workloads.

  PYTHONPATH=src python3 -m pytest -q bench

The per-layer counts must repeat exactly (between runs and for any
GEORK_THREADS), and tracing must not change a single output bit.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from geork import experiments
from geork.integrator import SolverConfig

import tracer
import workloads
from tracer import Tracer

BENCH = Path(__file__).resolve().parent

SHORT = {
    "drift": lambda rng, out: workloads.Drift(rng, out, periods=3, tol=1e-5, e=0.9),
    "convergence": lambda rng, out: workloads.Convergence(
        rng, out, periods=1, divisors=(50, 70, 100)),
    "quartic-adaptive": lambda rng, out: workloads.QuarticAdaptive(
        rng, out, periods=3, tol=1e-8),
}


def _counts(totals: dict) -> dict:
    return {k: v for k, v in totals.items() if tracer.UNITS[k] != "s"}


def _traced_pass(name, seed, out_dir):
    rng = random.Random(seed)
    workload = SHORT[name](rng, str(out_dir))
    workload.setup()
    trace = Tracer()
    with trace.installed():
        result = workload.run_pass(rng, trace)
    totals, _ = trace.layer_metrics()
    return result, totals


@pytest.mark.parametrize("name", sorted(SHORT))
def test_counts_repeat_between_runs_and_thread_settings(name, tmp_path, monkeypatch):
    monkeypatch.delenv("GEORK_THREADS", raising=False)
    _, first = _traced_pass(name, 3, tmp_path)
    _, again = _traced_pass(name, 3, tmp_path)
    monkeypatch.setenv("GEORK_THREADS", "2")
    _, threaded = _traced_pass(name, 3, tmp_path)
    assert first["integrator.stage.iters"] > 0
    assert first["dynamics.field.calls"] > 0
    assert first["integrator.alpha.evals"] > 0
    assert _counts(again) == _counts(first)
    assert _counts(threaded) == _counts(first)


@pytest.mark.parametrize("name", sorted(SHORT))
def test_traced_pass_matches_untraced(name, tmp_path):
    traced, _ = _traced_pass(name, 5, tmp_path)
    rng = random.Random(5)
    workload = SHORT[name](rng, str(tmp_path))
    workload.setup()
    plain = workload.run_pass(rng)
    assert [c.problems for c in plain.cells] == [c.problems for c in traced.cells]
    assert all(c.fingerprint for c in plain.cells)
    assert ({c.label: c.fingerprint for c in traced.cells}
            == {c.label: c.fingerprint for c in plain.cells})


def test_campaign_counts_repeat_with_a_thread_pool(monkeypatch):
    """Whole campaigns through the program's own thread pool give the same counts."""
    methods = list(workloads.Drift.methods)

    def traced_counts():
        trace = Tracer()
        h_grid = [experiments.PERIOD / d for d in (50, 70, 100)]
        with trace.installed():
            experiments.drift_study(methods, 0.9, 3, 1e-5, SolverConfig())
            experiments.convergence_study(methods, 0.6, 1, h_grid, SolverConfig())
        return _counts(trace.layer_metrics()[0])

    monkeypatch.delenv("GEORK_THREADS", raising=False)
    sequential = traced_counts()
    monkeypatch.setenv("GEORK_THREADS", "2")
    assert traced_counts() == sequential
    assert sequential["integrator.controller.accepted"] > 0


def test_tracer_restores_every_wrapped_name():
    sites = [(module, attr) for module, attr, _ in tracer._SITES]
    before = [getattr(module, attr) for module, attr in sites]
    with Tracer().installed():
        assert all(getattr(m, a) is not f for (m, a), f in zip(sites, before))
    assert all(getattr(m, a) is f for (m, a), f in zip(sites, before))


def test_runner_fails_without_the_program(tmp_path):
    """Given only BENCHMARK.json and the benchmark, the runner exits non-zero silently."""
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("_out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    command = json.loads((tmp_path / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [sys.executable, *command[1:], "--workload", "drift", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
