"""The benchmark's workloads: inputs from a seed, one timed pass, output checks.

Every workload runs through geork's public API, sequentially, and looks each
function up on its module at call time (``experiments.run_adaptive_periods``
rather than a name bound at import), so a traced pass sees the same calls.
A pass runs every cell of the workload once, in an order drawn from the run's
random generator; a cell is one operation: one (method, h) pair of the
convergence grid, or one method's adaptive run.  It fails when it raises or
when one of its output checks fails.

The passes are the default CLI campaigns with fewer periods, so that a run of
the benchmark measures several passes.  Each period costs the same as in the
full campaign; README.md gives the scale and the full-campaign figures.
"""

from __future__ import annotations

import hashlib
import math
import os
import traceback
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from geork import dynamics, experiments, integrator, tableau
from geork.cli import parse_method_list

CFG = integrator.SolverConfig()
FAMILIES = tableau.KINDS

# period of q'' = -q^3 at unit amplitude: 4 K(1/sqrt(2)) = Gamma(1/4)^2 / sqrt(pi),
# about 7.416; it scales as 1 / amplitude
_QUARTIC_PERIOD_UNIT = math.gamma(0.25) ** 2 / math.sqrt(math.pi)

# per-step |H(y_n+1) - H(y_n)| allowed on unflagged EQUIP steps; the secant
# stops at alpha_tol * (1 + |H|) per half step, so a step stays far below it
EQUIP_STEP_RESIDUAL = 1e-12
EQUIP_FLAGGED_SHARE = 0.01
MOMENTUM_DEVIATION = 1e-11
HBVM_QUARTIC_ENERGY = 1e-12

# the paper's drift verdicts at e = 0.99: Gauss conserves only the quadratic
# invariant L, HBVM(12,3) only the energy, EQUIP both
DRIFT_VERDICTS = {
    "gauss": {"H": "drifting", "L": "conserved"},
    "hbvm": {"H": "conserved", "L": "drifting"},
    "equip": {"H": "conserved", "L": "conserved"},
}


@dataclass
class Cell:
    """Outcome of one operation in one pass."""

    label: str
    family: str
    seconds: float
    problems: list[str] = field(default_factory=list)
    fingerprint: str = ""


@dataclass
class Pass:
    """One pass of a workload: its wall time, cells and printed quantities."""

    wall: float
    cells: list[Cell]
    notes: dict[str, float | str] = field(default_factory=dict)

    def family_seconds(self, family: str) -> float:
        return sum(c.seconds for c in self.cells if c.family == family)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def _run_cell(label, family, tracer, fn):
    """Time fn(); a raise is recorded as the cell's problem, not propagated."""
    if tracer is not None:
        previous, tracer.family = tracer.family, family
    start = perf_counter()
    try:
        out = fn()
    except Exception as exc:  # a failed operation is counted, the run goes on
        seconds = perf_counter() - start
        detail = traceback.format_exception_only(type(exc), exc)[-1].strip()
        return Cell(label, family, seconds, [f"raised {detail}"]), None
    finally:
        if tracer is not None:
            tracer.family = previous
    return Cell(label, family, perf_counter() - start), out


def _equip_step_problems(energy, y0, records) -> list[str]:
    """EQUIP checks: each unflagged step conserves H to EQUIP_STEP_RESIDUAL."""
    ys = np.vstack([y0] + [r.state.y for r in records])
    residual = np.abs(np.diff(energy(ys)))
    flagged = np.array([r.flagged for r in records])
    problems = []
    if flagged.mean() >= EQUIP_FLAGGED_SHARE:
        problems.append(f"flagged share {flagged.mean():.3g} >= {EQUIP_FLAGGED_SHARE}")
    worst = float(np.max(residual[~flagged], initial=0.0))
    if worst > EQUIP_STEP_RESIDUAL:
        problems.append(f"per-step energy residual {worst:.3g} > {EQUIP_STEP_RESIDUAL}")
    return problems


class Workload:
    """Common set-up: the problem and every tableau the workload uses.

    A workload draws its inputs from ``rng`` when it is made, and the cell
    order of each pass when the pass runs; its outputs go to ``out_dir``.
    """

    name = ""
    methods: tuple[tableau.MethodSpec, ...] = ()

    def __init__(self, rng, out_dir):
        self.out_dir = out_dir

    def problem(self):
        raise NotImplementedError

    def setup(self) -> None:
        """Build the problem and every tableau, as a user does before the first step."""
        self.check_sys, self.state0 = self.problem()
        for method in self.methods:
            tableau.build_tableau(method)

    def warm_up(self) -> None:
        """A few steps of every method, so lazy imports finish before timing."""
        for method in self.methods:
            integrator.integrate_fixed(method, self.check_sys, self.state0.y, 1e-3, 2, CFG)

    def run_pass(self, rng, tracer=None) -> Pass:
        raise NotImplementedError


class Drift(Workload):
    """Default ``geork drift`` campaign: Kepler e = 0.99, tol 1e-8, split by period."""

    name = "drift"
    methods = tuple(parse_method_list("gauss:s=3,hbvm:k=12,s=3,equip:s=3"))

    def __init__(self, rng, out_dir, periods=4, tol=1e-8, e=0.99):
        self.periods, self.tol, self.e = periods, tol, e
        super().__init__(rng, out_dir)

    def problem(self):
        return dynamics.kepler_system(self.e)

    def run_pass(self, rng, tracer=None) -> Pass:
        order = rng.sample(self.methods, len(self.methods))
        runs = {}
        start = perf_counter()
        cells = []
        for method in order:
            def run(method=method):
                sys_, state0 = dynamics.kepler_system(self.e)
                per_period = experiments.run_adaptive_periods(
                    method, sys_, state0.y, self.periods, self.tol, CFG)
                return per_period, experiments.drift_reports(
                    method, per_period, sys_, state0.y, self.tol)
            cell, runs[method] = _run_cell(str(method), method.kind, tracer, run)
            cells.append(cell)
        reports = [rep for m in self.methods if runs[m] for rep in runs[m][1]]
        experiments.write_drift_csv(reports, os.path.join(self.out_dir, "drift.csv"))
        wall = perf_counter() - start

        notes = {}
        for cell, method in zip(cells, order):
            if runs[method] is None:
                continue
            per_period, reports = runs[method]
            records = [r for recs in per_period for r in recs]
            cell.fingerprint = _digest([r.state.y for r in records],
                                       [d for rep in reports for d in rep.deviations])
            for rep in reports:
                want = DRIFT_VERDICTS[method.kind][rep.invariant]
                if rep.verdict != want:
                    cell.problems.append(f"{rep.invariant} {rep.verdict}, expected {want}")
                notes[f"{method} {rep.invariant} drift_slope"] = rep.drift_slope
            notes[f"{method} max_h"] = max(r.h for r in records)
            if method.kind == "equip":
                cell.problems += _equip_step_problems(
                    self.check_sys.energy, self.state0.y, records)
        return Pass(wall, cells, notes)


class Convergence(Workload):
    """Default ``geork convergence`` campaign: Kepler e = 0.6, fixed h = 2 pi / d."""

    name = "convergence"
    methods = tuple(parse_method_list(
        "gauss:s=3,hbvm:k=4,s=3,hbvm:k=6,s=3,hbvm:k=9,s=3,hbvm:k=12,s=3,equip:s=3"))

    def __init__(self, rng, out_dir, periods=2, divisors=(50, 70, 100, 140, 200), e=0.6):
        self.periods, self.e = periods, e
        self.h_grid = [experiments.PERIOD / d for d in divisors]
        super().__init__(rng, out_dir)

    def problem(self):
        return dynamics.kepler_system(self.e)

    def run_pass(self, rng, tracer=None) -> Pass:
        jobs = [(m, h) for m in self.methods for h in self.h_grid]
        order = rng.sample(jobs, len(jobs))
        errors = {}
        start = perf_counter()
        cells = []
        for method, h in order:
            def run(method=method, h=h):
                results = experiments.convergence_study(
                    [method], self.e, self.periods, [h], CFG)
                return {res.observable: res.samples[0][1] for res in results}
            cell, errors[(method, h)] = _run_cell(
                f"{method} h={h:.6g}", method.kind, tracer, run)
            cells.append(cell)
        results = self._reduce(errors)
        experiments.write_convergence_csv(
            results, os.path.join(self.out_dir, "convergence.csv"))
        wall = perf_counter() - start

        for cell, (method, h) in zip(cells, order):
            errs = errors[(method, h)]
            if errs is None:
                continue
            cell.fingerprint = _digest([errs[o] for o in experiments.OBSERVABLES])
            if not all(math.isfinite(v) for v in errs.values()):
                cell.problems.append(f"non-finite errors {errs}")
            if method.kind in ("gauss", "equip") and errs["momentum_error"] > MOMENTUM_DEVIATION:
                cell.problems.append(
                    f"momentum deviation {errs['momentum_error']:.3g} > {MOMENTUM_DEVIATION}")
        notes = {f"{res.method} {res.observable} slope": res.slope for res in results}
        return Pass(wall, cells, notes)

    def _reduce(self, errors):
        """Fit each (method, observable) series as convergence_study does."""
        H0 = float(self.check_sys.energy(self.state0.y))
        results = []
        for method in self.methods:
            grid = [h for h in sorted(self.h_grid, reverse=True)
                    if errors[(method, h)] is not None]
            for obs in experiments.OBSERVABLES:
                samples = tuple((h, errors[(method, h)][obs]) for h in grid)
                flags = tuple(experiments.floor_flags([e for _, e in samples], obs, H0))
                kept = [pt for pt, fl in zip(samples, flags) if not fl]
                slope, constant = (experiments.fit_order(kept) if len(kept) >= 3
                                   else (math.nan, math.nan))
                results.append(experiments.ConvergenceResult(
                    method=method, observable=obs, samples=samples,
                    floored=flags, slope=slope, constant=constant))
        return results


class QuarticAdaptive(Workload):
    """Adaptive quartic oscillator at tol 1e-10 from a seed-drawn amplitude q0.

    The run spans a whole number of the oscillator's own periods, so the work
    barely depends on q0; each method writes its step CSV.
    """

    name = "quartic-adaptive"
    methods = tuple(parse_method_list("gauss:s=3,hbvm:k=6,s=3,equip:s=3"))

    def __init__(self, rng, out_dir, periods=10, tol=1e-10):
        self.periods, self.tol = periods, tol
        self.q0 = 0.9 + 0.2 * rng.random()
        self.period = _QUARTIC_PERIOD_UNIT / self.q0
        super().__init__(rng, out_dir)

    def problem(self):
        sys_, _ = dynamics.quartic_oscillator()
        return sys_, dynamics.State(t=0.0, y=np.array([self.q0, 0.0]))

    def run_pass(self, rng, tracer=None) -> Pass:
        order = rng.sample(self.methods, len(self.methods))
        y0 = np.array([self.q0, 0.0])
        runs = {}
        start = perf_counter()
        cells = []
        for method in order:
            path = os.path.join(self.out_dir, f"quartic-{method.kind}.csv")

            def run(method=method, path=path):
                sys_, _ = dynamics.quartic_oscillator()
                per_period = experiments.run_adaptive_periods(
                    method, sys_, y0, self.periods, self.tol, CFG, period=self.period)
                reports = experiments.drift_reports(method, per_period, sys_, y0, self.tol)
                records = [r for recs in per_period for r in recs]
                experiments.write_step_csv(records, path, sys_, y0)
                return records, reports, path
            cell, runs[method] = _run_cell(str(method), method.kind, tracer, run)
            cells.append(cell)
        wall = perf_counter() - start

        notes = {"q0": self.q0}
        energy = self.check_sys.energy
        for cell, method in zip(cells, order):
            if runs[method] is None:
                continue
            records, reports, path = runs[method]
            with open(path, "rb") as fh:
                csv_bytes = fh.read()
            cell.fingerprint = _digest([r.state.y for r in records]) + hashlib.sha256(
                csv_bytes).hexdigest()
            rows = csv_bytes.count(b"\n")
            if rows != len(records) + 1:
                cell.problems.append(f"step CSV has {rows} lines for {len(records)} steps")
            for rep in reports:
                notes[f"{method} {rep.invariant} verdict"] = rep.verdict
            deviation = float(np.max(np.abs(
                energy(np.stack([r.state.y for r in records])) - energy(y0))))
            notes[f"{method} max_energy_deviation"] = deviation
            if method.kind == "hbvm" and deviation > HBVM_QUARTIC_ENERGY:
                cell.problems.append(
                    f"energy deviation {deviation:.3g} > {HBVM_QUARTIC_ENERGY}")
            if method.kind == "equip":
                cell.problems += _equip_step_problems(energy, y0, records)
        return Pass(wall, cells, notes)


WORKLOADS = {w.name: w for w in (Drift, Convergence, QuarticAdaptive)}
