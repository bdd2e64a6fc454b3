"""Benchmark campaigns: fixed-step convergence and adaptive-step drift.

Raw trajectories are reduced to fitted convergence orders, error constants
and per-invariant drift verdicts, and persisted as CSV (plus optional gnuplot
scripts).  Grid cells are independent; set GEORK_THREADS > 0 to run them in a
thread pool (results are reduced in deterministic order either way).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dynamics import HamiltonianSystem, kepler_reference, kepler_system
from .integrator import (
    IntegrationError,
    SolverConfig,
    integrate_adaptive,
    integrate_fixed,
)
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


@dataclass(frozen=True, eq=False)
class DriftReport:
    """Invariant deviations sampled at period boundaries for one adaptive run."""

    method: MethodSpec
    invariant: str
    deviations: tuple[float, ...]
    drift_slope: float
    slope_stderr: float
    verdict: str


def _map_jobs(fn, jobs):
    raw = os.environ.get("GEORK_THREADS", "0") or "0"
    try:
        workers = int(raw)
    except ValueError:
        raise ValueError(f"GEORK_THREADS must be an integer, got {raw!r}") from None
    if workers > 0:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, jobs))
    return [fn(job) for job in jobs]


def fit_order(samples) -> tuple[float, float]:
    """Least-squares power-law fit; returns (slope, exp(intercept))."""
    if len(samples) < 3:
        raise ValueError(f"need at least 3 samples to fit an order, got {len(samples)}")
    if any(err <= 0 for _, err in samples):
        raise ValueError("all errors must be positive for a log-log fit")
    log_h = np.log([h for h, _ in samples])
    log_e = np.log([err for _, err in samples])
    slope, intercept = np.polyfit(log_h, log_e, 1)
    return float(slope), float(np.exp(intercept))


def pinned_constant(result: ConvergenceResult, slope: float = 6.0) -> float:
    """Error constant refit with the slope pinned (over non-floored samples)."""
    pts = [(h, err) for (h, err), fl in zip(result.samples, result.floored) if not fl]
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


def _fit_or_nan(samples, floored):
    kept = [pt for pt, fl in zip(samples, floored) if not fl]
    if len(kept) < 3:
        return math.nan, math.nan
    return fit_order(kept)


def convergence_study(methods, e: float, periods: int, h_grid, cfg: SolverConfig):
    """Fixed-step Kepler campaign; three ConvergenceResult per method.

    For each (method, h) cell: solution error is the Euclidean norm of the
    final-state deviation from the analytic orbit, energy and momentum errors
    are the max deviation over the whole run.
    """
    sys, state0 = kepler_system(e)
    y0 = state0.y
    total = periods * PERIOD
    H0 = float(sys.energy(y0))
    inv0 = {name: float(fn(y0)) for name, fn in sys.invariants.items()}

    h_grid = sorted(h_grid, reverse=True)
    for h in h_grid:
        n = round(total / h)
        if n < 1 or abs(n * h - total) > 1e-9 * total:
            raise ValueError(f"h={h} does not divide the time span {total}")

    def run_cell(job):
        method, h = job
        n = round(total / h)
        try:
            recs = integrate_fixed(method, sys, y0, h, n, cfg)
        except IntegrationError as exc:
            raise type(exc)(f"convergence cell ({method}, h={h:.6g}): {exc}") from exc
        ys = np.stack([r.state.y for r in recs])
        t_final = recs[-1].state.t
        sol = float(np.linalg.norm(recs[-1].state.y - kepler_reference(e, t_final)))
        errs = {"solution_error": sol}
        errs["energy_error"] = float(np.max(np.abs(sys.energy(ys) - inv0["H"])))
        errs["momentum_error"] = float(np.max(np.abs(sys.invariants["L"](ys) - inv0["L"])))
        return errs

    jobs = [(m, h) for m in methods for h in h_grid]
    cells = dict(zip(jobs, _map_jobs(run_cell, jobs)))

    results = []
    for method in methods:
        for obs in OBSERVABLES:
            samples = tuple((h, cells[(method, h)][obs]) for h in h_grid)
            flags = tuple(floor_flags([err for _, err in samples], obs, H0))
            slope, constant = _fit_or_nan(samples, flags)
            results.append(ConvergenceResult(
                method=method, observable=obs, samples=samples,
                floored=flags, slope=slope, constant=constant,
            ))
    return results


def run_adaptive_periods(method: MethodSpec, sys: HamiltonianSystem, y0,
                         periods: int, tol: float, cfg: SolverConfig,
                         period: float = PERIOD):
    """Adaptive integration split at period boundaries; records per period.

    Stepsize and EQUIP alpha are threaded across the boundary so the split is
    purely observational: the controller lands on t = n * period exactly.
    """
    y = np.asarray(y0, dtype=float)
    h_carry = None
    alpha_carry = 0.0
    per_period = []
    for n in range(1, periods + 1):
        try:
            recs = integrate_adaptive(
                method, sys, y, t_end=n * period, tol=tol, cfg=cfg,
                t0=(n - 1) * period, h0=h_carry, alpha0=alpha_carry,
            )
        except IntegrationError as exc:
            raise type(exc)(f"drift run ({method}, period {n}): {exc}") from exc
        per_period.append(recs)
        y = recs[-1].state.y
        # the last record is the shortened landing step; seed the next period
        # with the preceding controller-selected size instead
        h_carry = recs[-2].h if len(recs) > 1 else recs[-1].h
        alpha_carry = recs[-1].alpha
    return per_period


def _drift_verdict(deviations, tol, ref_value) -> tuple[float, float, str]:
    n = len(deviations)
    x = np.arange(1.0, n + 1.0)
    dev = np.asarray(deviations)
    slope, intercept = np.polyfit(x, dev, 1)
    resid = dev - (slope * x + intercept)
    sxx = float(np.sum((x - x.mean()) ** 2))
    stderr = math.sqrt(float(np.sum(resid**2)) / (n - 2) / sxx) if n > 2 else math.inf
    growth_floor = _DRIFT_GROWTH_FRACTION * tol * (1.0 + abs(ref_value))
    drifting = slope > 3.0 * stderr and slope * n > growth_floor
    return float(slope), stderr, "drifting" if drifting else "conserved"


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
        slope, stderr, verdict = _drift_verdict(series, tol, ref)
        reports.append(DriftReport(
            method=method, invariant=name, deviations=tuple(series),
            drift_slope=slope, slope_stderr=stderr, verdict=verdict,
        ))
    return reports


def drift_study(methods, e: float, periods: int, tol: float, cfg: SolverConfig):
    """Adaptive Kepler campaign; one DriftReport per (method, invariant)."""
    sys, state0 = kepler_system(e)

    def run_method(method):
        per_period = run_adaptive_periods(method, sys, state0.y, periods, tol, cfg)
        return drift_reports(method, per_period, sys, state0.y, tol)

    reports = []
    for chunk in _map_jobs(run_method, list(methods)):
        reports.extend(chunk)
    return reports


# ---------------------------------------------------------------------------
# persistence


def write_step_csv(records, path, sys: HamiltonianSystem, y0) -> None:
    """One row per accepted step; invariant errors are relative to the run start."""
    y0 = np.asarray(y0, dtype=float)
    m = sys.half_dim
    planar = m == 2
    cols = (["t"] + [f"q{i+1}" for i in range(m)] + [f"p{i+1}" for i in range(m)]
            + ["h", "alpha", "stage_iters", "err_H"] + (["err_L"] if planar else []))
    H0 = float(sys.energy(y0))
    L0 = float(sys.invariants["L"](y0)) if planar and "L" in sys.invariants else None
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(cols) + "\n")
        for rec in records:
            y = rec.state.y
            row = [_fmt(rec.state.t)] + [_fmt(v) for v in y]
            row += [_fmt(rec.h), _fmt(rec.alpha), str(rec.stage_iters)]
            row.append(_fmt(abs(float(sys.energy(y)) - H0)))
            if planar:
                row.append(_fmt(abs(float(sys.invariants["L"](y)) - L0)))
            fh.write(",".join(row) + "\n")


def _method_cols(method: MethodSpec) -> list[str]:
    return [method.kind, str(method.s), str(method.k) if method.k is not None else ""]


def write_convergence_csv(results, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("method,s,k,observable,h,error,floored\n")
        for res in results:
            for (h, err), fl in zip(res.samples, res.floored):
                row = _method_cols(res.method) + [res.observable, _fmt(h), _fmt(err),
                                                  "1" if fl else "0"]
                fh.write(",".join(row) + "\n")


def write_drift_csv(reports, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("method,s,k,invariant,period,max_deviation\n")
        for rep in reports:
            for n, dev in enumerate(rep.deviations, start=1):
                row = _method_cols(rep.method) + [rep.invariant, str(n), _fmt(dev)]
                fh.write(",".join(row) + "\n")
        for rep in reports:
            fh.write(f"# verdict: {rep.method}/{rep.invariant}={rep.verdict} "
                     f"slope={_fmt(rep.drift_slope)}\n")


def _series_condition(method: MethodSpec, extra: str) -> str:
    cond = (f'strcol(1) eq "{method.kind}" && strcol(2) eq "{method.s}" '
            f'&& strcol(3) eq "{method.k if method.k is not None else ""}"')
    return f"({cond} && {extra})"


def write_convergence_plot(csv_path, gp_path, results) -> None:
    """Log-log gnuplot script drawing one curve per (method, observable)."""
    csv_name = os.path.basename(csv_path)
    lines = [
        f"# gnuplot script for {csv_name}",
        "set datafile separator comma",
        "set logscale xy",
        'set xlabel "stepsize h"',
        'set ylabel "error"',
        "set key outside",
    ]
    clauses = []
    for res in results:
        cond = _series_condition(res.method, f'strcol(4) eq "{res.observable}"')
        title = f"{res.method} {res.observable}"
        clauses.append(f"  '{csv_name}' every ::1 using ({cond} ? $5 : 1/0):6 "
                       f"with linespoints title \"{title}\"")
    lines.append("plot \\\n" + ", \\\n".join(clauses))
    with open(gp_path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_drift_plot(csv_path, gp_path, reports) -> None:
    """Linear-axes gnuplot script: per-period deviation per (method, invariant)."""
    csv_name = os.path.basename(csv_path)
    lines = [
        f"# gnuplot script for {csv_name}",
        "set datafile separator comma",
        'set xlabel "period"',
        'set ylabel "max invariant deviation"',
        "set key outside",
    ]
    clauses = []
    for rep in reports:
        cond = _series_condition(rep.method, f'strcol(4) eq "{rep.invariant}"')
        title = f"{rep.method} {rep.invariant} ({rep.verdict})"
        clauses.append(f"  '{csv_name}' every ::1 using ({cond} ? $5 : 1/0):6 "
                       f"with linespoints title \"{title}\"")
    lines.append("plot \\\n" + ", \\\n".join(clauses))
    with open(gp_path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
