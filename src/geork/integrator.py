"""Implicit Runge-Kutta engine: stage solves, EQUIP alpha tuning, drivers.

The stage systems Y_i = y + h sum_j a_ij f(Y_j) are solved by fixed-point
iteration, which preserves the tableau exactly and is contractive at the
benchmark stepsizes.  As H = |p|^2/2 + V(q), f(Q, P) = (P, F(Q)), and each
sweep is partitioned: P = p + hA F(Q) from the old positions, then
Q = q + hA P from the new momenta, with one field call; on a linear problem
that squares the plain sweep's contraction factor.  EQUIP steps wrap the
stage solve in a scalar secant iteration that tunes the tableau parameter
alpha until the step conserves the energy; each evaluation after a step's
first starts from the previous one's stages, O(delta alpha) away.  When the
secant stalls (zero or non-finite denominator, non-finite alpha) or spends
its budget, the step takes the evaluated alpha of least energy change,
flagged.  A Gauss or HBVM step-doubling attempt solves the full step and the
two half-steps as one stacked stage system, the halves as their composed
2n-stage tableau; EQUIP's three steps tune different alphas, so they stay
sequential.  A failed stage solve or a non-finite result raises out of any
step; only the drivers change h, with context.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from numbers import Integral

import numpy as np

from .dynamics import DomainError, HamiltonianSystem, State
from .tableau import ButcherTableau, MethodSpec, build_equip_tableau, build_tableau

__all__ = [
    "IntegrationError",
    "NonConvergence",
    "Divergence",
    "MinStepReached",
    "SolverConfig",
    "StepRecord",
    "canonical_field",
    "solve_stages",
    "rk_step",
    "equip_step",
    "integrate_fixed",
    "integrate_adaptive",
    "propose_factor",
    "initial_stepsize",
]

H_MIN = 1e-8
_DIVERGENCE_LIMIT = 1e8
_SECANT_PROBE = 1e-4


class IntegrationError(RuntimeError):
    """Base class for runtime solver failures."""


class NonConvergence(IntegrationError):
    """Stage iteration exhausted its budget; the caller should reduce h."""


class Divergence(IntegrationError):
    """Stage iterates blew up or left the vector field's domain."""


class MinStepReached(IntegrationError):
    """The adaptive controller was pinned at the minimum stepsize."""


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances and budgets for the nonlinear solves."""

    stage_tol: float = 1e-13
    max_stage_iters: int = 100
    alpha_tol: float = 1e-13
    max_alpha_iters: int = 25

    def __post_init__(self):
        for name in ("stage_tol", "alpha_tol"):
            value = getattr(self, name)
            if not 0.0 < value < np.inf:  # NaN fails every comparison
                raise ValueError(f"{name} must be positive and finite, got {value}")
        for name in ("max_stage_iters", "max_alpha_iters"):
            value = getattr(self, name)
            if not isinstance(value, Integral) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


@dataclass(frozen=True, eq=False)
class StepRecord:
    """One accepted step; alpha is 0 for non-EQUIP methods.

    ``flagged`` marks EQUIP steps whose secant stopped short of energy
    conservation; ``err_est`` is set in adaptive mode only.
    """

    state: State
    h: float
    alpha: float
    stage_iters: int
    alpha_iters: int
    err_est: float | None = None
    flagged: bool = False


def canonical_field(sys: HamiltonianSystem, y: np.ndarray) -> np.ndarray:
    """sys.field(y), the integrator's one field call; a DomainError is a Divergence."""
    try:
        return sys.field(y)
    except DomainError as exc:
        raise Divergence(f"vector field domain error: {exc}") from exc


def solve_stages(A: np.ndarray, sys: HamiltonianSystem, y: np.ndarray,
                 h: float, cfg: SolverConfig, Y0: np.ndarray | None = None):
    """Solve the stage system Y = y + hA f(Y) by partitioned fixed-point iteration.

    Returns (stages, iterations).  Stages come back as an (n_stages, dim)
    array (Q, P) with Q = q + hA P to round-off; the last sweep changed no
    entry of either block by more than stage_tol * (1 + |y|_inf), which
    bounds the P block's stage residual by about as much.  The iteration
    starts from Y0, an (n_stages, dim) guess such as the stages of a nearby
    tableau, or from y in every row when Y0 is None; the start changes only
    the iteration count, not the tolerance the result meets.  Negative h is
    legal (it runs the method backwards, used by the reversibility checks).
    """
    if not np.isfinite(h):
        raise ValueError("stepsize must be finite")
    tol = cfg.stage_tol * (1.0 + abs(y).max())
    hA = h * A
    n, m = len(A), sys.half_dim
    # Q = q + hA P = q + hA p + (hA)^2 F(Q): base holds the force-free terms and
    # rows 2i, 2i + 1 of M stage i's Q and P force terms, so one product gives both
    M = np.concatenate([hA @ hA, hA], axis=1).reshape(2 * n, n)
    rows = np.repeat(y[None], n, axis=0)
    base = np.concatenate([rows[:, :m] + hA @ rows[:, m:], rows[:, m:]], axis=1)
    Y = rows if Y0 is None else Y0
    for it in range(1, cfg.max_stage_iters + 1):
        Z = base + (M @ canonical_field(sys, Y)[:, m:]).reshape(n, 2 * m)
        res = abs(Y - Z).max()
        Y = Z
        if res <= tol:
            return Y, it
        # NaN fails the comparison, so a NaN or inf iterate is a blow-up too
        if not (res <= _DIVERGENCE_LIMIT):
            raise Divergence(f"stage iterates diverged at h={h}")
    raise NonConvergence(
        f"stage residual {res:.3e} > {tol:.3e} after {cfg.max_stage_iters} iterations (h={h})"
    )


def _increment(b: np.ndarray, sys: HamiltonianSystem, h: float, Y: np.ndarray) -> np.ndarray:
    """h sum_i b_i f(Y_i), or k of them for a (k, 1, n) b; non-finite is a Divergence."""
    dy = h * (b @ canonical_field(sys, Y).reshape(*b.shape[:-2], b.shape[-1], -1))
    if not np.isfinite(dy).all():
        raise Divergence(f"non-finite step result at h={h}")
    return dy


def rk_step(tab: ButcherTableau, sys: HamiltonianSystem, y: np.ndarray,
            h: float, cfg: SolverConfig, t: float = 0.0) -> StepRecord:
    """One step of the tableau's method from (t, y) to (t + h, y_next)."""
    Y, iters = solve_stages(tab.A, sys, y, h, cfg)
    y_next = y + _increment(tab.b, sys, h, Y)
    return StepRecord(state=State(t=t + h, y=y_next), h=h, alpha=tab.alpha,
                      stage_iters=iters, alpha_iters=0)


def equip_step(s: int, sys: HamiltonianSystem, y: np.ndarray, h: float,
               cfg: SolverConfig, alpha_prev: float = 0.0, t: float = 0.0) -> StepRecord:
    """EQUIP step: tune alpha so the step conserves H, then advance h.

    The secant on g(alpha) = H(y_next(alpha)) - H(y) starts from alpha_prev.
    If it stalls or spends its budget, the step at the evaluated alpha of
    least |g| is returned, flagged, and still counts all the work spent.
    H(y) is taken after the first stage solve succeeds, which has evaluated
    the field at y, so a y outside the field's domain fails as a Divergence
    before any energy evaluation.
    """
    alpha, stage_iters, Y = alpha_prev, 0, None
    for evals in range(1, cfg.max_alpha_iters + 1):
        tab = build_equip_tableau(s, alpha)
        Y, iters = solve_stages(tab.A, sys, y, h, cfg, Y)
        stage_iters += iters
        if evals == 1:
            H0 = float(sys.energy(y))
            gtol = cfg.alpha_tol * (1.0 + abs(H0))
        y_next = y + _increment(tab.b, sys, h, Y)
        g = float(sys.energy(y_next)) - H0
        if evals == 1 or abs(g) < best_g:
            best_g, best_alpha, best_y = abs(g), alpha, y_next
        if abs(g) <= gtol:
            break
        if evals == 1:
            alpha_next = alpha + _SECANT_PROBE
        else:
            denom = g - g_old
            if denom == 0.0 or not np.isfinite(denom):
                break
            alpha_next = alpha - g * (alpha - alpha_old) / denom
            if not np.isfinite(alpha_next):
                break
        alpha_old, g_old, alpha = alpha, g, alpha_next
    # NaN fails the comparison, so a NaN energy change is flagged too
    return StepRecord(state=State(t=t + h, y=best_y), h=h, alpha=best_alpha,
                      stage_iters=stage_iters, alpha_iters=evals, flagged=not best_g <= gtol)


def _stepper(method: MethodSpec, sys: HamiltonianSystem, cfg: SolverConfig):
    """step and attempt(y, h, t, alpha_prev) -> StepRecord; the one place method.kind is read.

    An attempt is one step-doubling attempt, with err_est.  Gauss and HBVM
    build their tableau once here; EQUIP builds one per alpha.
    """
    if method.kind == "equip":
        step = lambda y, h, t, alpha_prev: equip_step(method.s, sys, y, h, cfg, alpha_prev, t)
        return step, lambda *args: _attempt_step(step, method.order, *args)
    tab = build_tableau(method)
    return (lambda y, h, t, alpha_prev: rk_step(tab, sys, y, h, cfg, t),
            _stacked_attempt(tab, sys, cfg))


def _start_state(sys: HamiltonianSystem, y0) -> np.ndarray:
    """y0 as floats; a ValueError unless it is finite with shape (2 * half_dim,)."""
    y = np.asarray(y0, dtype=float)
    if y.shape != (2 * sys.half_dim,) or not np.isfinite(y).all():
        raise ValueError(f"y0 must be finite with shape ({2 * sys.half_dim},), got {y0!r}")
    return y


def integrate_fixed(method: MethodSpec, sys: HamiltonianSystem, y0: np.ndarray,
                    h: float, n_steps: int, cfg: SolverConfig) -> list[StepRecord]:
    """Apply n_steps constant-h steps from t = 0; returns one record per step."""
    if n_steps < 1 or not 0.0 < h < np.inf:  # NaN fails every comparison
        raise ValueError("n_steps must be >= 1 and h positive and finite, "
                         f"got n_steps={n_steps}, h={h}")
    step, _ = _stepper(method, sys, cfg)
    y = _start_state(sys, y0)
    alpha_prev = 0.0
    records = []
    try:
        for k in range(n_steps):
            rec = step(y, h, k * h, alpha_prev)
            records.append(rec)
            y, alpha_prev = rec.state.y, rec.alpha
    except IntegrationError as exc:
        raise type(exc)(f"{method} failed at step {k} (t={k * h:.6g}, h={h:.6g}): {exc}") from exc
    return records


def _attempt_step(step, p: int, y: np.ndarray, h: float, t: float,
                  alpha_prev: float) -> StepRecord:
    """One step-doubling attempt of an order-p step: the two-half-step record with err_est.

    Local extrapolation is deliberately not applied: the raw two-half-step
    value preserves the method's conservation character.
    """
    full = step(y, h, t, alpha_prev)
    half = step(y, 0.5 * h, t, alpha_prev)
    last = step(half.state.y, 0.5 * h, t + 0.5 * h, half.alpha)
    return StepRecord(
        state=State(t=t + h, y=last.state.y), h=h, alpha=last.alpha,
        stage_iters=full.stage_iters + half.stage_iters + last.stage_iters,
        alpha_iters=full.alpha_iters + half.alpha_iters + last.alpha_iters,
        err_est=float(abs(full.state.y - last.state.y).max()) / (2.0 ** p - 1.0),
        flagged=full.flagged or half.flagged or last.flagged)


def _stacked_attempt(tab: ButcherTableau, sys: HamiltonianSystem, cfg: SolverConfig):
    """_attempt_step's attempt(y, h, t, alpha_prev) for a fixed tableau, in one stage solve.

    Two half-steps are one step of the composed 2n-stage tableau
    [[A/2, 0], [1 b^T/2, A/2]] with weights (b/2, b/2), so the full step and
    both halves solve diag(A, A/2, A/2) plus that coupling block, from y, with
    one field call on 3n rows per sweep and one for the three updates.
    """
    A, b, n, p = tab.A, tab.b, tab.n_stages, tab.order
    A3 = np.kron(np.diag([1.0, 0.5, 0.5]), A)
    A3[2 * n:, n:2 * n] = 0.5 * b
    b3 = np.stack([b, 0.5 * b, 0.5 * b])[:, None]

    def attempt(y, h, t, alpha_prev):
        Y, iters = solve_stages(A3, sys, y, h, cfg)
        dy = _increment(b3, sys, h, Y)[:, 0]
        full, half = y + dy[0], y + dy[1]
        last = half + dy[2]
        return StepRecord(state=State(t=t + h, y=last), h=h, alpha=0.0, stage_iters=iters,
                          alpha_iters=0, err_est=float(abs(full - last).max()) / (2.0 ** p - 1.0))
    return attempt


def propose_factor(err_est: float, tol: float, p: int) -> float:
    """Classical controller factor: safety 0.9, clamped to [0.2, 5]."""
    if err_est == 0.0:
        return 5.0
    return min(5.0, max(0.2, 0.9 * (tol / err_est) ** (1.0 / (p + 1))))


def initial_stepsize(sys: HamiltonianSystem, y0: np.ndarray) -> float:
    """Cheap first guess h ~ 0.1 |y| / |f(y)|, at least H_MIN, also for a NaN field.

    Deliberately generous: an overestimate costs a few rejected steps, while
    an underestimate pollutes the accepted-step statistics with warm-up dust.
    """
    f0 = canonical_field(sys, y0)
    return float(np.fmax(0.1 * (1.0 + abs(y0).max()) / (1.0 + abs(f0).max()), H_MIN))


def integrate_adaptive(method: MethodSpec, sys: HamiltonianSystem, y0: np.ndarray,
                       t_stops, tol: float, cfg: SolverConfig) -> list[list[StepRecord]]:
    """Step-doubling adaptive driver from t = 0; one list of accepted records per stop.

    A step is accepted when err_est <= tol; the next stepsize multiplies by
    the clamped controller factor, or halves after a solver failure.  h is
    confined to [1e-8, stop - t] (MinStepReached when an attempt fails there)
    and the step that reaches a stop is shortened to land on it exactly.  The
    run after a stop restarts from the last unshortened step's h.
    """
    if not 0.0 < tol < np.inf:  # NaN fails every comparison
        raise ValueError(f"tol must be positive and finite, got {tol}")
    stops = [float(stop) for stop in t_stops]
    # NaN fails every comparison, and a finite last stop bounds the others
    if not (stops and all(a < b for a, b in zip([0.0, *stops], stops)) and stops[-1] < np.inf):
        raise ValueError(f"t_stops must be finite and increase from above 0, got {t_stops}")
    _, attempt = _stepper(method, sys, cfg)
    y = _start_state(sys, y0)
    t, alpha_prev, stop = 0.0, 0.0, stops[0]
    runs: list[list[StepRecord]] = []
    try:
        h = initial_stepsize(sys, y)
        for stop in stops:
            records: list[StepRecord] = []
            while t < stop:
                lands_on_stop = h >= stop - t
                if lands_on_stop:
                    h = stop - t
                try:
                    info = attempt(y, h, t, alpha_prev)
                except (NonConvergence, Divergence):
                    info = None
                if info is not None and info.err_est <= tol:
                    y, alpha_prev = info.state.y, info.alpha
                    t = stop if lands_on_stop else t + h
                    records.append(replace(info, state=State(t=t, y=y)))
                elif h <= H_MIN * (1.0 + 1e-9):
                    why = "solver failure persists" if info is None else "step rejected"
                    raise MinStepReached(f"{why} at h={h:.3e}")
                factor = 0.5 if info is None else propose_factor(info.err_est, tol, method.order)
                h = max(h * factor, H_MIN)
            runs.append(records)
            # the landing step was shortened; go on from the step before it
            h = max(records[-2].h if len(records) > 1 else records[-1].h, H_MIN)
    except IntegrationError as exc:
        raise type(exc)(f"{method} failed at t={t:.6g}, t_end={stop:.6g}: {exc}") from exc
    return runs
