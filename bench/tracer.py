"""Span tracer that wraps geork's layer functions from outside the program.

Each wrapped function records one span (name, start, end, parent) per call.
Functions are wrapped at the place the caller looks them up, because
``from ... import`` binds a second name in the calling module: for example
``rk_step`` and the EQUIP secant solve call ``geork.integrator.solve_stages``,
and the tableau builders call ``geork.tableau.gauss_rule``.  Spans stay in memory until the run ends; per-layer self time is a
span's duration minus the durations of its child spans.

Counts are taken at the same boundaries (stage iterations from the solver's
return value, stage rows from the argument shape, accepted and rejected
controller attempts from the arguments of ``propose_factor``), so they are the
program's own work and repeat exactly between runs.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import os
import threading
from array import array
from collections import Counter
from time import perf_counter

import geork.dynamics
import geork.experiments
import geork.integrator
import geork.tableau

STAGE = "integrator.stage"
ALPHA = "integrator.alpha"
FIXED = "integrator.loop.fixed"
ADAPTIVE = "integrator.loop.adaptive"
BUILD = "tableau.build"
FIELD = "dynamics.field"
ENERGY = "dynamics.energy"
GAUSS_RULE = "quadrature.gauss_rule"
CSV = "experiments.csv"
REDUCE = "experiments.reduce"
# family label of work outside any method's cell (the campaign CSV), and the
# key that sums all families
CAMPAIGN = "campaign"
_ALL = "*"

# (module, attribute, span name): every place a layer function is looked up
# by a caller in another layer, or by the benchmark itself
_SITES = (
    (geork.tableau, "gauss_rule", GAUSS_RULE),
    (geork.integrator, "build_tableau", BUILD),
    (geork.integrator, "build_equip_tableau", BUILD),
    (geork.integrator, "canonical_field", FIELD),
    (geork.integrator, "solve_stages", STAGE),
    (geork.integrator, "equip_step", ALPHA),
    (geork.experiments, "integrate_fixed", FIXED),
    (geork.experiments, "integrate_adaptive", ADAPTIVE),
    (geork.experiments, "write_step_csv", CSV),
    (geork.experiments, "write_drift_csv", CSV),
    (geork.experiments, "write_convergence_csv", CSV),
    (geork.experiments, "fit_order", REDUCE),
    (geork.experiments, "drift_reports", REDUCE),
    (geork.experiments, "kepler_reference", REDUCE),
)

# problem constructors whose systems get a traced energy (the energy is a
# field of HamiltonianSystem, so it is wrapped on the system they return)
_SYSTEM_SITES = (
    (geork.dynamics, "kepler_system"),
    (geork.dynamics, "quartic_oscillator"),
    (geork.experiments, "kepler_system"),
)

# exceptions after which the adaptive controller halves h and retries; a
# DomainError from the field reaches it as Divergence
_RETRIED = (geork.integrator.NonConvergence, geork.integrator.Divergence,
            geork.dynamics.DomainError)

# every per-layer metric the traced run reports, with its unit
UNITS = {
    "quadrature.gauss_rule.calls": "count",
    "quadrature.gauss_rule.self_s": "s",
    "tableau.build.calls": "count",
    "tableau.build.self_s": "s",
    "dynamics.field.calls": "count",
    "dynamics.field.rows": "count",
    "dynamics.field.self_s": "s",
    "dynamics.energy.calls": "count",
    "dynamics.energy.self_s": "s",
    "integrator.stage.solves": "count",
    "integrator.stage.iters": "count",
    "integrator.stage.iters_per_solve": "ratio",
    "integrator.stage.failures": "count",
    "integrator.stage.self_s": "s",
    "integrator.alpha.steps": "count",
    "integrator.alpha.evals": "count",
    "integrator.alpha.evals_per_step": "ratio",
    "integrator.alpha.halvings": "count",
    "integrator.alpha.flagged": "count",
    "integrator.alpha.self_s": "s",
    "integrator.controller.attempts": "count",
    "integrator.controller.accepted": "count",
    "integrator.controller.rejected": "count",
    "integrator.controller.solver_retries": "count",
    "integrator.controller.accept_ratio": "ratio",
    "integrator.loop.self_s": "s",
    "experiments.csv.bytes": "B",
    "experiments.csv.self_s": "s",
    "experiments.reduce.self_s": "s",
    "trace.overhead": "ratio",
}

SELF_TIMES = {
    "quadrature.gauss_rule.self_s": (GAUSS_RULE,),
    "tableau.build.self_s": (BUILD,),
    "dynamics.field.self_s": (FIELD,),
    "dynamics.energy.self_s": (ENERGY,),
    "integrator.stage.self_s": (STAGE,),
    "integrator.alpha.self_s": (ALPHA,),
    "integrator.loop.self_s": (FIXED, ADAPTIVE),
    "experiments.csv.self_s": (CSV,),
    "experiments.reduce.self_s": (REDUCE,),
}


class Tracer:
    """Spans and counters of one traced run.

    ``family`` labels the spans and counts that follow with the method family
    of the cell being run; the workloads set it before each cell.
    """

    def __init__(self):
        self.family = CAMPAIGN
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        self._families: list[str] = []
        self._family_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_family = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: Counter = Counter()
        self._halved: set[int] = set()
        self._lock = threading.Lock()
        self._local = threading.local()

    def _code(self, table, ids, key):
        code = ids.get(key)
        if code is None:
            code = ids[key] = len(table)
            table.append(key)
        return code

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counts[(self.family, key)] += n

    def wrap(self, fn, name: str):
        """Return fn recording a span per call, with the layer's counts."""
        name_id = self._code(self._names, self._ids, name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else -1
            with self._lock:
                idx = len(self.span_name)
                self.span_name.append(name_id)
                self.span_family.append(self._code(self._families, self._family_ids, self.family))
                self.span_parent.append(parent)
                self.span_start.append(0.0)
                self.span_end.append(0.0)
            parent_name = self._names[self.span_name[parent]] if parent >= 0 else None
            self._on_start(name, parent, parent_name, args)
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = perf_counter()
                self._on_error(name, parent_name, exc)
                raise
            else:
                end = perf_counter()
                self._on_return(name, parent_name, args, result)
                return result
            finally:
                stack.pop()
                self.span_start[idx] = start
                self.span_end[idx] = end

        return traced

    def _on_start(self, name, parent, parent_name, args):
        if name == FIELD:
            y = args[1]
            self.count("dynamics.field.rows", y.shape[0] if y.ndim == 2 else 1)
        elif name == BUILD and parent_name == ALPHA:
            self.count("integrator.alpha.evals")
        elif name == ALPHA:
            if parent_name == ALPHA:
                # a halved EQUIP step calls equip_step again for each half
                with self._lock:
                    first_half = parent not in self._halved
                    self._halved.add(parent)
                if first_half:
                    self.count("integrator.alpha.halvings")
            else:
                self.count("integrator.alpha.steps")

    def _on_error(self, name, parent_name, exc):
        if name == STAGE:
            self.count("integrator.stage.failures")
        if parent_name == ADAPTIVE and isinstance(exc, _RETRIED):
            self.count("integrator.controller.solver_retries")

    def _on_return(self, name, parent_name, args, result):
        if name == STAGE:
            self.count("integrator.stage.iters", result[1])
        elif name == ALPHA and parent_name != ALPHA and result.flagged:
            self.count("integrator.alpha.flagged")
        elif name == CSV:
            self.count("experiments.csv.bytes", os.path.getsize(args[1]))

    def traced_system(self, sys_):
        """The same problem with its energy (and invariant "H") traced."""
        energy = self.wrap(sys_.energy, ENERGY)
        invariants = {k: energy if k == "H" else v for k, v in sys_.invariants.items()}
        return dataclasses.replace(sys_, energy=energy, invariants=invariants)

    def _propose_factor(self, fn):
        @functools.wraps(fn)
        def counted(err_est, tol, p):
            # integrate_adaptive accepts exactly when err_est <= tol and calls
            # propose_factor once per attempt that produced an estimate
            self.count("integrator.controller.accepted" if err_est <= tol
                       else "integrator.controller.rejected")
            return fn(err_est, tol, p)
        return counted

    @contextlib.contextmanager
    def installed(self):
        """Patch every lookup site for the duration of the block."""
        saved = []
        try:
            for module, attr, name in _SITES:
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self.wrap(getattr(module, attr), name))
            for module, attr in _SYSTEM_SITES:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._system_factory(original))
            saved.append((geork.integrator, "propose_factor",
                          geork.integrator.propose_factor))
            geork.integrator.propose_factor = self._propose_factor(
                geork.integrator.propose_factor)
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def _system_factory(self, make):
        @functools.wraps(make)
        def traced_make(*args, **kwargs):
            sys_, state0 = make(*args, **kwargs)
            return self.traced_system(sys_), state0
        return traced_make

    def mark(self) -> tuple[int, Counter]:
        """Position to aggregate from: (span index, counts so far)."""
        with self._lock:
            return len(self.span_name), Counter(self.counts)

    def layer_metrics(self, since=None) -> tuple[dict, dict]:
        """Per-layer counts and self times of the spans recorded after ``since``.

        ``since`` is a ``mark()``; None means the whole run.  Returns
        (totals, by_family): metric name -> value, and family -> metric
        name -> value for the summary.
        """
        first, counts0 = since or (0, Counter())
        with self._lock:
            last = len(self.span_name)
            counts = self.counts - counts0
        n = last - first
        dur = [self.span_end[first + i] - self.span_start[first + i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            parent = self.span_parent[first + i] - first
            if parent >= 0:
                child[parent] += dur[i]
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for i in range(n):
            family = self._families[self.span_family[first + i]]
            name = self._names[self.span_name[first + i]]
            for key in ((family, name), (_ALL, name)):
                calls[key] += 1
                self_s[key] += dur[i] - child[i]
        for (family, name), value in list(counts.items()):
            counts[(_ALL, name)] += value
        families = sorted(({fam for fam, _ in calls} | {fam for fam, _ in counts}) - {_ALL})
        by_family = {fam: _metrics(fam, calls, self_s, counts) for fam in families}
        return _metrics(_ALL, calls, self_s, counts), by_family


def _ratio(num, den):
    return num / den if den else 0.0


def _metrics(family, calls, self_s, counts) -> dict:
    """Per-layer metric names -> values for one family (or _ALL)."""
    def count(key):
        return counts[(family, key)]

    solves = calls[(family, STAGE)]
    iters = count("integrator.stage.iters")
    steps = count("integrator.alpha.steps")
    evals = count("integrator.alpha.evals")
    accepted = count("integrator.controller.accepted")
    rejected = count("integrator.controller.rejected")
    retries = count("integrator.controller.solver_retries")
    attempts = accepted + rejected + retries
    out = {
        "quadrature.gauss_rule.calls": calls[(family, GAUSS_RULE)],
        "tableau.build.calls": calls[(family, BUILD)],
        "dynamics.field.calls": calls[(family, FIELD)],
        "dynamics.field.rows": count("dynamics.field.rows"),
        "dynamics.energy.calls": calls[(family, ENERGY)],
        "integrator.stage.solves": solves,
        "integrator.stage.iters": iters,
        "integrator.stage.iters_per_solve": _ratio(iters, solves),
        "integrator.stage.failures": count("integrator.stage.failures"),
        "integrator.alpha.steps": steps,
        "integrator.alpha.evals": evals,
        "integrator.alpha.evals_per_step": _ratio(evals, steps),
        "integrator.alpha.halvings": count("integrator.alpha.halvings"),
        "integrator.alpha.flagged": count("integrator.alpha.flagged"),
        "integrator.controller.attempts": attempts,
        "integrator.controller.accepted": accepted,
        "integrator.controller.rejected": rejected,
        "integrator.controller.solver_retries": retries,
        "integrator.controller.accept_ratio": _ratio(accepted, attempts),
        "experiments.csv.bytes": count("experiments.csv.bytes"),
    }
    for metric, names in SELF_TIMES.items():
        out[metric] = sum(self_s[(family, name)] for name in names)
    return out
