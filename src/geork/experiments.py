"""Benchmark campaigns: fixed-step convergence and adaptive-step drift.

Raw trajectories are reduced to fitted convergence orders, error constants
and per-invariant drift verdicts, and persisted as CSV (plus optional gnuplot
scripts).  Campaigns run their cells one after another, method by method.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from .dynamics import HamiltonianSystem, kepler_reference, kepler_system
from .integrator import SolverConfig, integrate_adaptive, integrate_fixed
from .tableau import MethodSpec

__all__ = [
    "OBSERVABLES",
    "PERIOD",
    "ConvergenceResult",
    "DriftReport",
    "convergence_study",
    "drift_study",
    "run_adaptive_periods",
    "drift_reports",
    "fit_order",
    "pinned_constant",
    "floor_flags",
    "write_step_csv",
    "write_convergence_csv",
    "write_drift_csv",
    "write_convergence_plot",
    "write_drift_plot",
]

OBSERVABLES = ("solution_error", "energy_error", "momentum_error")
PERIOD = 2.0 * math.pi

_SOLUTION_FLOOR = 1e-12
_INVARIANT_FLOOR_ULPS = 50

# a series counts as drifting only when its fitted net growth over the run
# exceeds this fraction of the controller tolerance (solver-noise creep in a
# conserved invariant is statistically significant but orders below this)
_DRIFT_GROWTH_FRACTION = 0.01


def _fmt(x) -> str:
    return format(float(x), ".17g")


@dataclass(frozen=True, eq=False)
class ConvergenceResult:
    """(h, error) series for one method and observable with a fitted power law.

    Samples are sorted by decreasing h; floored samples are excluded from the
    fit and slope/constant are NaN when fewer than 3 samples survive.
    """

    method: MethodSpec
    observable: str
    samples: tuple[tuple[float, float], ...]
    floored: tuple[bool, ...]
    slope: float
    constant: float

    @property
    def fine_slope(self) -> float:
        """Order fitted over the three smallest-h non-floored samples, else NaN.

        ``slope`` is the chord over the whole grid and can take in
        pre-asymptotic terms at large h; this is the h -> 0 rate.
        """
        return _fit_or_nan(_kept(self.samples, self.floored)[-3:])[0]


@dataclass(frozen=True, eq=False)
class DriftReport:
    """Invariant deviations sampled at period boundaries for one adaptive run."""

    method: MethodSpec
    invariant: str
    deviations: tuple[float, ...]
    drift_slope: float
    verdict: str


def fit_order(samples) -> tuple[float, float]:
    """Least-squares power-law fit; returns (slope, exp(intercept))."""
    if len(samples) < 3:
        raise ValueError(f"need at least 3 samples to fit an order, got {len(samples)}")
    if not all(0.0 < x < math.inf for sample in samples for x in sample):  # NaN fails too
        raise ValueError("all stepsizes and errors must be positive and finite for a log-log fit")
    if len({h for h, _ in samples}) < 2:
        raise ValueError("need at least 2 distinct stepsizes to fit an order")
    log_h = np.log([h for h, _ in samples])
    log_e = np.log([err for _, err in samples])
    slope, intercept = np.polyfit(log_h, log_e, 1)
    return float(slope), float(np.exp(intercept))


def pinned_constant(result: ConvergenceResult, slope: float = 6.0) -> float:
    """Error constant refit with the slope pinned (over non-floored samples)."""
    pts = _kept(result.samples, result.floored)
    if not pts:
        return math.nan
    logs = [math.log(err) - slope * math.log(h) for h, err in pts]
    return math.exp(sum(logs) / len(logs))


def floor_flags(errors, observable: str, ref_energy: float) -> list[bool]:
    """Round-off floor rule: flagged samples never enter slope fits."""
    if observable == "solution_error":
        floor = _SOLUTION_FLOOR
    else:
        floor = _INVARIANT_FLOOR_ULPS * np.finfo(float).eps * abs(ref_energy)
    return [err < floor for err in errors]


def _kept(samples, floored) -> list:
    """The samples whose floor flag is clear, in their original order."""
    return [pt for pt, fl in zip(samples, floored) if not fl]


def _fit_or_nan(samples) -> tuple[float, float]:
    return fit_order(samples) if len(samples) >= 3 else (math.nan, math.nan)


def convergence_study(methods, e: float, periods: int, h_grid, cfg: SolverConfig):
    """Fixed-step Kepler campaign; three ConvergenceResult per method.

    For each (method, h) cell: solution error is the Euclidean norm of the
    final-state deviation from the analytic orbit, energy and momentum errors
    are the max deviation over the whole run.  The stepsizes in h_grid must
    be positive, distinct and each divide the time span.
    """
    if not 1 <= periods < np.inf:  # NaN fails every comparison
        raise ValueError(f"convergence needs finite periods >= 1, got periods={periods}")
    sys, state0 = kepler_system(e)
    y0 = state0.y
    total = periods * PERIOD
    H0 = float(sys.energy(y0))
    L0 = float(sys.invariants["L"](y0))

    steps = {}  # step count -> h, by decreasing h
    for h in sorted(h_grid, reverse=True):
        if not 0.0 < h < np.inf:  # NaN fails every comparison
            raise ValueError(f"stepsizes must be positive and finite, got h={h}")
        n = round(total / h)
        if n < 1 or abs(n * h - total) > 1e-9 * total:
            raise ValueError(f"h={h} does not divide the time span {total}")
        if n in steps:
            raise ValueError(f"h={h} appears more than once in the stepsize grid")
        steps[n] = h

    results = []
    for method in methods:
        errs = {obs: [] for obs in OBSERVABLES}
        for n, h in steps.items():
            recs = integrate_fixed(method, sys, y0, h, n, cfg)
            ys = np.stack([r.state.y for r in recs])
            y_ref = kepler_reference(e, recs[-1].state.t)
            errs["solution_error"].append(float(np.linalg.norm(recs[-1].state.y - y_ref)))
            errs["energy_error"].append(float(np.max(np.abs(sys.energy(ys) - H0))))
            errs["momentum_error"].append(float(np.max(np.abs(sys.invariants["L"](ys) - L0))))
        for obs in OBSERVABLES:
            samples = tuple(zip(steps.values(), errs[obs]))
            flags = tuple(floor_flags(errs[obs], obs, H0))
            slope, constant = _fit_or_nan(_kept(samples, flags))
            results.append(ConvergenceResult(
                method=method, observable=obs, samples=samples,
                floored=flags, slope=slope, constant=constant,
            ))
    return results


def run_adaptive_periods(method: MethodSpec, sys: HamiltonianSystem, y0,
                         periods: int, tol: float, cfg: SolverConfig,
                         period: float = PERIOD):
    """One adaptive run that lands on t = n * period exactly; records per period.

    The split is not observational: each landing step is shortened and the
    next period restarts from the last unshortened h, so the run takes more
    steps than an unsplit one and ends elsewhere (Kepler e = 0.6, tol 1e-8,
    4 periods: Gauss(3) 96 steps against 95, EQUIP(3) 108 against 106, final
    states 9.6e-7 and 8.4e-8 apart in the max norm).
    """
    if not isinstance(periods, (int, np.integer)):
        raise ValueError(f"periods must be an integer, got periods={periods!r}")
    if periods < 1 or not 0.0 < period < np.inf:  # NaN fails every comparison
        raise ValueError("periods must be >= 1 and period positive and finite, "
                         f"got periods={periods}, period={period}")
    return integrate_adaptive(method, sys, y0, [n * period for n in range(1, periods + 1)],
                              tol, cfg)


def _drift_verdict(deviations, tol, ref_value) -> tuple[float, str]:
    n = len(deviations)  # drift_reports guarantees n >= 3
    # numpy scales the covariance by the residual variance over n - 2 degrees of freedom
    (slope, _), cov = np.polyfit(np.arange(1.0, n + 1.0), deviations, 1, cov=True)
    growth_floor = _DRIFT_GROWTH_FRACTION * tol * (1.0 + abs(ref_value))
    drifting = slope > 3.0 * math.sqrt(cov[0, 0]) and slope * n > growth_floor
    return float(slope), "drifting" if drifting else "conserved"


def drift_reports(method: MethodSpec, per_period, sys: HamiltonianSystem, y0,
                  tol: float):
    """Reduce per-period records to one DriftReport per invariant.

    Deviations are sampled at the period boundaries the controller lands on
    exactly, so no interpolation enters the drift regression.
    """
    if len(per_period) < 3:
        raise ValueError("drift verdicts need at least 3 periods")
    y0 = np.asarray(y0, dtype=float)
    reports = []
    for name, fn in sys.invariants.items():
        ref = float(fn(y0))
        series = [abs(float(fn(recs[-1].state.y)) - ref) for recs in per_period]
        slope, verdict = _drift_verdict(series, tol, ref)
        reports.append(DriftReport(
            method=method, invariant=name, deviations=tuple(series),
            drift_slope=slope, verdict=verdict,
        ))
    return reports


def drift_study(methods, e: float, periods: int, tol: float, cfg: SolverConfig):
    """Adaptive Kepler campaign; one DriftReport per (method, invariant)."""
    if periods < 3:
        raise ValueError(f"drift verdicts need periods >= 3, got periods={periods}")
    sys, state0 = kepler_system(e)
    reports = []
    for method in methods:
        per_period = run_adaptive_periods(method, sys, state0.y, periods, tol, cfg)
        reports.extend(drift_reports(method, per_period, sys, state0.y, tol))
    return reports


# ---------------------------------------------------------------------------
# persistence


def _write_lines(path, lines) -> None:
    """The one writer of output files: lines to path, each ended by LF.

    A failed open leaves path untouched; a later failure removes the file.
    """
    fh = open(path, "w", newline="\n")
    try:
        with fh:
            fh.writelines(line + "\n" for line in lines)
    except BaseException:
        os.unlink(path)
        raise


def _write_rows(path, header, rows, comments=()) -> None:
    """CSV: the header, one line per row, then "# " comment lines."""
    _write_lines(path, itertools.chain([",".join(header)], map(",".join, rows),
                                       (f"# {line}" for line in comments)))


def write_step_csv(records, path, sys: HamiltonianSystem, y0) -> None:
    """One row per accepted step; invariant errors are relative to the run start."""
    y0 = np.asarray(y0, dtype=float)
    m = sys.half_dim
    cols = (["t"] + [f"q{i+1}" for i in range(m)] + [f"p{i+1}" for i in range(m)]
            + ["h", "alpha", "stage_iters"] + [f"err_{name}" for name in sys.invariants])
    refs = [(fn, float(fn(y0))) for fn in sys.invariants.values()]
    _write_rows(path, cols, (
        [_fmt(rec.state.t), *map(_fmt, rec.state.y), _fmt(rec.h), _fmt(rec.alpha),
         str(rec.stage_iters), *(_fmt(abs(float(fn(rec.state.y)) - ref)) for fn, ref in refs)]
        for rec in records))


def _method_cols(method: MethodSpec) -> list[str]:
    return [method.kind, str(method.s), str(method.k) if method.k is not None else ""]


def write_convergence_csv(results, path) -> None:
    _write_rows(path, ["method", "s", "k", "observable", "h", "error", "floored"], (
        _method_cols(res.method) + [res.observable, _fmt(h), _fmt(err), "1" if fl else "0"]
        for res in results for (h, err), fl in zip(res.samples, res.floored)))


def write_drift_csv(reports, path) -> None:
    _write_rows(path, ["method", "s", "k", "invariant", "period", "max_deviation"], (
        _method_cols(rep.method) + [rep.invariant, str(n), _fmt(dev)]
        for rep in reports for n, dev in enumerate(rep.deviations, start=1)),
        [f"verdict: {rep.method}/{rep.invariant}={rep.verdict} slope={_fmt(rep.drift_slope)}"
         for rep in reports])


def _write_plot(csv_path, gp_path, settings, series) -> None:
    """gnuplot script drawing column 6 against column 5 of csv_path.

    One curve per (method, column-4 value, title) in series; settings are
    the axis lines.
    """
    csv_name = os.path.basename(csv_path)
    clauses = []
    for method, name, title in series:
        kind, s, k = _method_cols(method)
        cond = (f'strcol(1) eq "{kind}" && strcol(2) eq "{s}" '
                f'&& strcol(3) eq "{k}" && strcol(4) eq "{name}"')
        clauses.append(f"  '{csv_name}' every ::1 using (({cond}) ? $5 : 1/0):6 "
                       f"with linespoints title \"{title}\"")
    _write_lines(gp_path, [f"# gnuplot script for {csv_name}", "set datafile separator comma",
                           *settings, "set key outside", "plot \\\n" + ", \\\n".join(clauses)])


def write_convergence_plot(csv_path, gp_path, results) -> None:
    """Log-log gnuplot script drawing one curve per (method, observable)."""
    _write_plot(csv_path, gp_path,
                ["set logscale xy", 'set xlabel "stepsize h"', 'set ylabel "error"'],
                [(r.method, r.observable, f"{r.method} {r.observable}") for r in results])


def write_drift_plot(csv_path, gp_path, reports) -> None:
    """Linear-axes gnuplot script: per-period deviation per (method, invariant)."""
    _write_plot(csv_path, gp_path,
                ['set xlabel "period"', 'set ylabel "max invariant deviation"'],
                [(r.method, r.invariant, f"{r.method} {r.invariant} ({r.verdict})")
                 for r in reports])
