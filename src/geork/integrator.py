"""Implicit Runge-Kutta engine: stage solves, EQUIP alpha tuning, drivers.

The stage systems Y_i = y + h sum_j a_ij f(Y_j) are solved by fixed-point
iteration, which preserves the tableau exactly and is contractive at the
benchmark stepsizes.  EQUIP steps wrap the stage solve in a scalar secant
iteration that tunes the tableau parameter alpha until the step conserves the
energy.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dynamics import DomainError, HamiltonianSystem, State, canonical_field
from .tableau import ButcherTableau, MethodSpec, build_equip_tableau, build_tableau

__all__ = [
    "IntegrationError",
    "NonConvergence",
    "Divergence",
    "AlphaNotFound",
    "MinStepReached",
    "SolverConfig",
    "StepRecord",
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
_MAX_HALVINGS = 5
_SECANT_PROBE = 1e-4


class IntegrationError(RuntimeError):
    """Base class for runtime solver failures."""


class NonConvergence(IntegrationError):
    """Stage iteration exhausted its budget; the caller should reduce h."""


class Divergence(IntegrationError):
    """Stage iterates blew up or left the vector field's domain."""


class AlphaNotFound(IntegrationError):
    """The EQUIP energy-residual root solve failed within its budget."""


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
        if self.stage_tol <= 0 or self.alpha_tol <= 0:
            raise ValueError("tolerances must be strictly positive")
        if self.max_stage_iters < 1 or self.max_alpha_iters < 1:
            raise ValueError("iteration budgets must be >= 1")


@dataclass(frozen=True, eq=False)
class StepRecord:
    """One accepted step; alpha is 0 for non-EQUIP methods.

    ``flagged`` marks EQUIP steps that fell back to alpha = 0 without
    achieving energy conservation; ``err_est`` is set in adaptive mode only.
    """

    state: State
    h: float
    alpha: float
    stage_iters: int
    alpha_iters: int
    accepted: bool
    err_est: float | None = None
    flagged: bool = False


def _stage_field(sys: HamiltonianSystem, Y: np.ndarray) -> np.ndarray:
    try:
        return canonical_field(sys, Y)
    except DomainError as exc:
        raise Divergence(f"vector field domain error: {exc}") from exc


def solve_stages(tab: ButcherTableau, sys: HamiltonianSystem, y: np.ndarray,
                 h: float, cfg: SolverConfig):
    """Solve the implicit stage system by fixed-point iteration.

    Returns (stages, iterations).  Stages come back as an (n_stages, dim)
    array whose rows satisfy the stage equations to within
    stage_tol * (1 + |y|_inf).  Negative h is legal (it runs the method
    backwards, used by the reversibility checks).
    """
    if not np.isfinite(h):
        raise ValueError("stepsize must be finite")
    tol = cfg.stage_tol * (1.0 + np.max(np.abs(y)))
    hA = h * tab.A
    Y = np.tile(y, (tab.n_stages, 1))
    F = _stage_field(sys, Y)
    for it in range(1, cfg.max_stage_iters + 1):
        Z = y[None, :] + hA @ F
        res = np.max(np.abs(Y - Z))
        Y = Z
        if res <= tol:
            return Y, it
        if not np.all(np.isfinite(Y)) or np.max(np.abs(Y)) > _DIVERGENCE_LIMIT:
            raise Divergence(f"stage iterates diverged at h={h}")
        F = _stage_field(sys, Y)
    raise NonConvergence(
        f"stage residual {res:.3e} > {tol:.3e} after {cfg.max_stage_iters} iterations (h={h})"
    )


def rk_step(tab: ButcherTableau, sys: HamiltonianSystem, y: np.ndarray,
            h: float, cfg: SolverConfig, t: float = 0.0) -> StepRecord:
    """One step of the tableau's method from (t, y) to (t + h, y_next)."""
    Y, iters = solve_stages(tab, sys, y, h, cfg)
    F = _stage_field(sys, Y)
    y_next = y + h * (tab.b @ F)
    return StepRecord(
        state=State(t=t + h, y=y_next), h=h, alpha=tab.alpha,
        stage_iters=iters, alpha_iters=0, accepted=True,
    )


def _equip_root_solve(s, sys, y, h, cfg, alpha_prev):
    """Secant iteration on g(alpha) = H(y_next(alpha)) - H(y)."""
    H0 = float(sys.energy(y))
    gtol = cfg.alpha_tol * (1.0 + abs(H0))
    evals = 0
    stage_iters = 0

    def g(alpha):
        nonlocal evals, stage_iters
        if evals >= cfg.max_alpha_iters:
            raise AlphaNotFound(
                f"no conserving alpha within {cfg.max_alpha_iters} evaluations (h={h})"
            )
        tab = build_equip_tableau(s, alpha)
        try:
            Y, iters = solve_stages(tab, sys, y, h, cfg)
        except (NonConvergence, Divergence) as exc:
            raise AlphaNotFound(f"stage solve failed at alpha={alpha}: {exc}") from exc
        evals += 1
        stage_iters += iters
        y_next = y + h * (tab.b @ _stage_field(sys, Y))
        return float(sys.energy(y_next)) - H0, y_next

    a0 = alpha_prev
    g0, yn = g(a0)
    if abs(g0) <= gtol:
        return a0, yn, evals, stage_iters
    a1 = a0 + _SECANT_PROBE
    g1, yn = g(a1)
    while abs(g1) > gtol:
        denom = g1 - g0
        if denom == 0.0 or not np.isfinite(denom):
            raise AlphaNotFound(f"secant stalled at alpha={a1}, g={g1:.3e} (h={h})")
        a2 = a1 - g1 * (a1 - a0) / denom
        if not np.isfinite(a2):
            raise AlphaNotFound(f"secant produced non-finite alpha (h={h})")
        a0, g0 = a1, g1
        a1 = a2
        g1, yn = g(a1)
    return a1, yn, evals, stage_iters


def equip_step(s: int, sys: HamiltonianSystem, y: np.ndarray, h: float,
               cfg: SolverConfig, alpha_prev: float = 0.0, t: float = 0.0,
               _depth: int = 0) -> StepRecord:
    """EQUIP step: tune alpha so the step conserves H, then advance h.

    If the root solve fails the step is retried as two half-steps (up to
    5 nested halvings); as a last resort the plain Gauss step (alpha = 0) is
    taken and the record flagged, so missing conservation is always reported.
    """
    try:
        alpha, y_next, a_iters, s_iters = _equip_root_solve(s, sys, y, h, cfg, alpha_prev)
        return StepRecord(
            state=State(t=t + h, y=y_next), h=h, alpha=alpha,
            stage_iters=s_iters, alpha_iters=a_iters, accepted=True,
        )
    except AlphaNotFound:
        pass
    if _depth < _MAX_HALVINGS:
        r1 = equip_step(s, sys, y, 0.5 * h, cfg, alpha_prev, t, _depth + 1)
        r2 = equip_step(s, sys, r1.state.y, 0.5 * h, cfg, r1.alpha, t + 0.5 * h, _depth + 1)
        return StepRecord(
            state=State(t=t + h, y=r2.state.y), h=h, alpha=r2.alpha,
            stage_iters=r1.stage_iters + r2.stage_iters,
            alpha_iters=r1.alpha_iters + r2.alpha_iters,
            accepted=True, flagged=r1.flagged or r2.flagged,
        )
    rec = rk_step(build_equip_tableau(s, 0.0), sys, y, h, cfg, t=t)
    return replace(rec, flagged=True)


def _single_step(method: MethodSpec, tab, sys, y, h, cfg, t, alpha_prev) -> StepRecord:
    if method.kind == "equip":
        return equip_step(method.s, sys, y, h, cfg, alpha_prev, t)
    return rk_step(tab, sys, y, h, cfg, t)


def integrate_fixed(method: MethodSpec, sys: HamiltonianSystem, y0: np.ndarray,
                    h: float, n_steps: int, cfg: SolverConfig,
                    t0: float = 0.0) -> list[StepRecord]:
    """Apply n_steps constant-h steps; returns one record per step."""
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    tab = None if method.kind == "equip" else build_tableau(method)
    y = np.asarray(y0, dtype=float)
    alpha_prev = 0.0
    records = []
    for k in range(n_steps):
        t = t0 + k * h
        try:
            rec = _single_step(method, tab, sys, y, h, cfg, t, alpha_prev)
        except IntegrationError as exc:
            raise type(exc)(f"{method} failed at step {k} (t={t:.6g}): {exc}") from exc
        records.append(rec)
        y = rec.state.y
        alpha_prev = rec.alpha
    return records


def _attempt_step(method, tab, sys, y, h, cfg, t, alpha_prev):
    """Step-doubling error estimate; keeps the two-half-step state.

    Local extrapolation is deliberately not applied: the raw two-half-step
    value preserves the method's conservation character.
    """
    full = _single_step(method, tab, sys, y, h, cfg, t, alpha_prev)
    half1 = _single_step(method, tab, sys, y, 0.5 * h, cfg, t, alpha_prev)
    half2 = _single_step(method, tab, sys, half1.state.y, 0.5 * h, cfg,
                         t + 0.5 * h, half1.alpha)
    p = method.order
    err = float(np.max(np.abs(full.state.y - half2.state.y))) / (2.0 ** p - 1.0)
    info = StepRecord(
        state=half2.state, h=h, alpha=half2.alpha,
        stage_iters=full.stage_iters + half1.stage_iters + half2.stage_iters,
        alpha_iters=full.alpha_iters + half1.alpha_iters + half2.alpha_iters,
        accepted=True, err_est=err,
        flagged=full.flagged or half1.flagged or half2.flagged,
    )
    return half2.state.y, err, info


def propose_factor(err_est: float, tol: float, p: int) -> float:
    """Classical controller factor: safety 0.9, clamped to [0.2, 5]."""
    if err_est == 0.0:
        return 5.0
    return min(5.0, max(0.2, 0.9 * (tol / err_est) ** (1.0 / (p + 1))))


def initial_stepsize(sys: HamiltonianSystem, y0: np.ndarray, t_span: float) -> float:
    """Cheap first guess h ~ 0.1 |y| / |f(y)|.

    Deliberately generous: an overestimate costs a few rejected steps, while
    an underestimate pollutes the accepted-step statistics with warm-up dust.
    """
    f0 = canonical_field(sys, y0)
    h = 0.1 * (1.0 + np.max(np.abs(y0))) / (1.0 + np.max(np.abs(f0)))
    return float(min(max(h, H_MIN), t_span))


def integrate_adaptive(method: MethodSpec, sys: HamiltonianSystem, y0: np.ndarray,
                       t_end: float, tol: float, cfg: SolverConfig,
                       t0: float = 0.0, h0: float | None = None,
                       alpha0: float = 0.0) -> list[StepRecord]:
    """Step-doubling adaptive driver; records accepted steps only.

    A step is accepted when err_est <= tol; the next stepsize multiplies by
    the clamped controller factor.  h is confined to [1e-8, t_end - t] and the
    final step is shortened to land exactly on t_end.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if t_end <= t0:
        raise ValueError("t_end must exceed t0")
    tab = None if method.kind == "equip" else build_tableau(method)
    p = method.order
    y = np.asarray(y0, dtype=float)
    t = t0
    alpha_prev = alpha0
    h = h0 if h0 is not None else initial_stepsize(sys, y, t_end - t0)
    h = min(max(h, H_MIN), t_end - t0)
    records: list[StepRecord] = []
    while t < t_end:
        lands_on_end = h >= t_end - t
        if lands_on_end:
            h = t_end - t
        try:
            y_new, err, info = _attempt_step(method, tab, sys, y, h, cfg, t, alpha_prev)
        except (NonConvergence, Divergence):
            if h <= H_MIN * (1.0 + 1e-9):
                raise MinStepReached(
                    f"{method}: solver failure persists at h={h:.3e}, t={t:.6g}"
                ) from None
            h = max(0.5 * h, H_MIN)
            continue
        if err <= tol:
            t = t_end if lands_on_end else t + h
            records.append(replace(info, state=State(t=t, y=y_new)))
            y = y_new
            alpha_prev = info.alpha
            h = max(h * propose_factor(err, tol, p), H_MIN)
        else:
            if h <= H_MIN * (1.0 + 1e-9):
                raise MinStepReached(
                    f"{method}: step rejected at the minimum stepsize (t={t:.6g})"
                )
            h = max(h * propose_factor(err, tol, p), H_MIN)
    return records
