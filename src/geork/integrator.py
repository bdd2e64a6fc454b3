"""Implicit Runge-Kutta engine: stage solves, EQUIP alpha tuning, drivers.

Every step and step-doubling attempt, of every method, is one solve of a
stacked stage system Y_i = y + h sum_j a_ij f(Y_j) and one field call for
its updates.  Consecutive steps are one step of their composed tableau, so
a step is the 1-block case, a fixed run solves _WINDOW steps at a time, and
an attempt is the 3-block case of the full step and the two half-steps,
with err_est = |full - last|_inf / (2^p - 1).  The solve is a
fixed-point iteration, which preserves the tableau exactly and is
contractive at the benchmark stepsizes.  As H = |p|^2/2 + V(q),
f(Q, P) = (P, F(Q)), and each sweep is partitioned: P = p + hA F(Q) from the
old positions, then Q = q + hA P from the new momenta, with one force call;
on a linear problem that squares the plain sweep's contraction factor.
EQUIP wraps the solve in a secant iteration per block that tunes alpha until
each step conserves the energy, the secants of a window or an attempt in
lockstep; each evaluation after the first starts from the previous one's
stages.  On a stall, a spent budget or, in a step or window, a failed
evaluation after the first, the steps take the evaluated alphas of least
energy change, flagged; a flagged window's steps are solved again one at a
time.  A failed first evaluation, any failed evaluation of an attempt, and
any failed stage solve or non-finite result of Gauss or HBVM raise out of
the step, window or attempt.  After a failed window the run goes on step by
step; only the adaptive driver changes h, with context.
"""

from __future__ import annotations

import math
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
_WINDOW = 8  # fixed steps per stacked solve


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
    conservation; ``err_est`` is set in adaptive mode only.  An EQUIP
    attempt's alpha is its last half-step's, and alpha_iters counts its
    stacked evaluations.  A step solved in a window of fixed steps has the
    window's sweep count as its stage_iters, and for EQUIP the window's
    evaluations as its alpha_iters.
    """

    state: State
    h: float
    alpha: float
    stage_iters: int
    alpha_iters: int
    err_est: float | None = None
    flagged: bool = False


def canonical_field(sys: HamiltonianSystem, y: np.ndarray) -> np.ndarray:
    """force(q) of a (..., 2m) state stack, the one problem call; DomainError is Divergence."""
    try:
        return sys.force(y[..., :sys.half_dim])
    except DomainError as exc:
        raise Divergence(f"vector field domain error: {exc}") from exc


def _sweep_matrices(A: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """(hA, M) of a sweep; rows 2i, 2i + 1 of M are stage i's Q and P force terms."""
    if not np.isfinite(h):
        raise ValueError("stepsize must be finite")
    hA = h * A
    # Q = q + hA P = q + hA p + (hA)^2 F(Q), so one product gives both
    return hA, np.concatenate([hA @ hA, hA], axis=1).reshape(2 * len(A), len(A))


def solve_stages(A: np.ndarray, sys: HamiltonianSystem, y: np.ndarray,
                 h: float, cfg: SolverConfig, Y0: np.ndarray | None = None,
                 matrices: tuple[np.ndarray, np.ndarray] | None = None):
    """Solve the stage system Y = y + hA f(Y) by partitioned fixed-point iteration.

    Returns (stages, iterations).  Stages come back as an (n_stages, dim)
    array (Q, P) with Q = q + hA P to round-off; the last sweep changed no
    entry of either block by more than stage_tol * (1 + |y|_inf), which
    bounds the P block's stage residual by about as much.  The iteration
    starts from Y0, an (n_stages, dim) guess such as the stages of a nearby
    tableau, or from y in every row when Y0 is None; the start changes only
    the iteration count, not the tolerance the result meets.  matrices is
    _sweep_matrices(A, h), for a caller that solves one system many times.
    Negative h is legal (it runs the method backwards, used by the
    reversibility checks).
    """
    tol = cfg.stage_tol * (1.0 + abs(y).max())
    hA, M = matrices or _sweep_matrices(A, h)
    n, m = len(A), sys.half_dim
    # base holds the force-free terms of Q and P
    rows = np.repeat(y[None], n, axis=0)
    base = np.concatenate([rows[:, :m] + hA @ rows[:, m:], rows[:, m:]], axis=1)
    Y = rows if Y0 is None else Y0
    try:
        for it in range(1, cfg.max_stage_iters + 1):
            Z = base + (M @ canonical_field(sys, Y)).reshape(n, 2 * m)
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
    except IntegrationError as exc:
        exc.sweeps = it  # for a caller that goes on and counts its work
        raise


def _stack(chains) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """(A, b, links) of chains of consecutive steps as one stacked system.

    chains holds (tableaus, c) pairs, a step of c h per tableau.  Step i of a
    chain starts from the chain's start plus the increments of the steps
    before it, so its block row is c [1 b^T, ..., 1 b^T, A_i, 0, ...] and its
    weights are c b; b comes back as the (steps, 1, n) block weights, and
    links lists the steps that go on from the step before.  A step is
    [([tab], 1)], a window of W fixed steps [([tab] * W, 1)], and an attempt
    the full step and the two half-steps, [([tab], 1), ([tab, tab], 1/2)].
    """
    steps = [tab for tabs, _ in chains for tab in tabs]
    b, k, n = steps[0].b, len(steps), len(steps[0].b)
    # A[i, :, j] is block (i, j)
    A, scale, links, first = np.zeros((k, n, k, n)), [], [], 0
    for tabs, c in chains:
        for i, tab in enumerate(tabs, first):
            if i > first:  # an empty assignment is still a NumPy call
                A[i, :, first:i] = b
            A[i, :, i] = tab.A
        if c != 1.0:
            A[first:first + len(tabs)] *= c
        scale += [c] * len(tabs)
        links += range(first + 1, first + len(tabs))
        first += len(tabs)
    return A.reshape(k * n, k * n), np.multiply.outer(scale, b)[:, None], links


def _evaluate(A: np.ndarray, b: np.ndarray, links, sys: HamiltonianSystem, y: np.ndarray,
              h: float, cfg: SolverConfig, Y0: np.ndarray | None = None, matrices=None):
    """(states, stages, iterations) of _stack's (A, b, links) from y, one state per step.

    Block i's increment is h b_i^T (P, force(Q)), and a non-finite one is a
    Divergence.  A failure carries the stage sweeps it spent as its ``sweeps``.
    """
    Y, iters = solve_stages(A, sys, y, h, cfg, Y0, matrices)
    try:
        F = np.concatenate([Y[:, sys.half_dim:], canonical_field(sys, Y)], axis=1)
        dy = h * (b @ F.reshape(len(b), b.shape[-1], -1))[:, 0]
        if not np.isfinite(dy).all():
            raise Divergence(f"non-finite step result at h={h}")
    except Divergence as exc:
        exc.sweeps = iters
        raise
    states = y + dy
    for i in links:  # as rk_step adds them, a step goes on from the state before
        states[i] = states[i - 1] + dy[i]
    return states, Y, iters


def _chains(tabs, doubling: bool):
    """_stack's chains: a window of len(tabs) steps, or an attempt's full step and its halves."""
    return [(tabs[:1], 1.0), (tabs[1:], 0.5)] if doubling else [(tabs, 1.0)]


class _Records(tuple):
    """The records of a window of fixed steps, of any method; flagged when any of them is."""

    @property
    def flagged(self) -> bool:
        return any(rec.flagged for rec in self)


def _records(states, t, h: float, order: int, alphas, stage_iters: int, alpha_iters: int = 0,
             flags=None, doubling: bool = False):
    """The _Records of a window's steps from the times t, or an attempt's record from t.

    alphas and flags (None for none) are per block.  An attempt has the last block's state and
    alpha, is flagged when any block is, and has err_est = |full - last|_inf / (2^p - 1).
    """
    flags = flags or [False] * len(states)
    if doubling:
        # without local extrapolation: the raw two-half-step value keeps the conservation character
        err_est = float(abs(states[0] - states[-1]).max()) / (2.0 ** order - 1.0)
        return StepRecord(State(t=t + h, y=states[-1]), h, alphas[-1], stage_iters, alpha_iters,
                          err_est, any(flags))
    return _Records(StepRecord(State(t=t_i + h, y=states[i]), h, alphas[i], stage_iters,
                               alpha_iters, flagged=flags[i]) for i, t_i in enumerate(t))


def _fixed(tab: ButcherTableau, sys: HamiltonianSystem, cfg: SolverConfig, doubling: bool = False):
    """run(y, h, t, alpha_prev=0.0): a fixed tableau's window or attempt from t, as one solve.

    A window's t holds its start times, and it returns _Records that carry the solve's sweep
    count; with doubling t is one time, and run returns the attempt's StepRecord.  A shape's
    stacked system is kept from its first use, and its sweep matrices while h stays the same.
    """
    systems, matrices = {}, {}  # per number of blocks; matrices holds (h, matrices at h)

    def run(y, h, t, alpha_prev=0.0):
        k = 3 if doubling else len(t)
        if k not in systems:
            systems[k] = _stack(_chains([tab] * k, doubling))
        A, b, links = systems[k]
        if matrices.get(k, (None,))[0] != h:
            matrices[k] = h, _sweep_matrices(A, h)
        states, _, iters = _evaluate(A, b, links, sys, y, h, cfg, None, matrices[k][1])
        return _records(states, t, h, tab.order, [tab.alpha] * k, iters, doubling=doubling)
    return run


def rk_step(tab: ButcherTableau, sys: HamiltonianSystem, y: np.ndarray,
            h: float, cfg: SolverConfig, t: float = 0.0) -> StepRecord:
    """One step of the tableau's method from (t, y) to (t + h, y_next)."""
    return _fixed(tab, sys, cfg)(_start_state(sys, y), h, [t])[0]


def _secant(alpha: float, g: float, alpha_old: float | None, g_old: float) -> float:
    """The secant's next alpha: alpha + _SECANT_PROBE without a previous point, NaN on a stall."""
    if alpha_old is None:
        return alpha + _SECANT_PROBE
    denom = g - g_old
    stalled = denom == 0.0 or not math.isfinite(denom)
    return math.nan if stalled else alpha - g * (alpha - alpha_old) / denom


def equip_step(s: int, sys: HamiltonianSystem, y: np.ndarray, h: float, cfg: SolverConfig,
               alpha_prev: float = 0.0, t=0.0, *, doubling: bool = False) -> StepRecord | _Records:
    """EQUIP step, window or step-doubling attempt: tune alpha so H is kept.

    The secant on g(alpha) = H(y_next(alpha)) - H(y) starts from alpha_prev.
    One start time t is a step, with doubling a step-doubling attempt; a
    sequence of start times is a window of len(t) fixed steps, whose records
    come back as a tuple whose ``flagged`` is true when any record is.  Each
    block of the stacked system has its own alpha and secant, all in
    lockstep, on the energy change from the state the block starts from:
    H(y_i) - H(y_i-1) for a window's steps, and H(full) - H(y), H(half) - H(y)
    and H(last) - H(half) for an attempt.  A block whose |g| meets the
    tolerance keeps its alpha while it does, and the solve ends when all meet
    it at once.  On a stall, a spent budget or, in a step or window, an
    evaluation after the first that fails its stage solve or update, the
    evaluation of least largest |g| is returned, its blocks outside the
    tolerance flagged, counting all the work spent, failed sweeps included.
    H(y) is taken after the first stage solve succeeds, which has evaluated
    the field at y, so a y outside the field's domain fails as a Divergence
    before any energy evaluation.  A failed first evaluation raises, as does
    any failed evaluation of an attempt, whose driver can reduce h.
    """
    ts = t if np.ndim(t) else [t]
    if np.ndim(t) > (0 if doubling else 1) or not len(ts):
        raise ValueError("t must be one start time, or a window of at least one start time; "
                         f"got t={t!r}")
    k = 3 if doubling else len(ts)
    tabs = [build_equip_tableau(s, alpha_prev)] * k
    alpha, alpha_old, g_old = [tabs[0].alpha] * k, [None] * k, [0.0] * k
    stage_iters, Y = 0, None
    for evals in range(1, cfg.max_alpha_iters + 1):
        for i, a in enumerate(alpha):  # a block's tableau is rebuilt only when its alpha moved
            if tabs[i].alpha != a:
                tabs[i] = build_equip_tableau(s, a)
        A, b, links = _stack(_chains(tabs, doubling))
        try:
            states, Y, iters = _evaluate(A, b, links, sys, y, h, cfg, Y)
        except (NonConvergence, Divergence) as exc:
            if evals == 1 or doubling:
                raise
            stage_iters += exc.sweeps
            break
        stage_iters += iters
        if evals == 1:
            H0 = float(sys.energy(y))
            gtol = cfg.alpha_tol * (1.0 + abs(H0))
        # H of (y, *states); a linked block starts from the state before it, others from y
        H = [H0, *sys.energy(states).tolist()]
        g = [H[i + 1] - H[i if i in links else 0] for i in range(k)]
        # a NaN energy change counts as infinite: it meets no tolerance and is flagged
        worst = math.inf if math.isnan(sum(g)) else max(map(abs, g))
        if evals == 1 or worst < best_worst:
            best_worst, best_g, best_alpha, best = worst, g, alpha[:], states
        if worst <= gtol:
            break
        # the blocks not within gtol move; a stall in any ends the secants
        moved = {i: _secant(alpha[i], g[i], alpha_old[i], g_old[i])
                 for i in range(k) if not abs(g[i]) <= gtol}
        if not all(map(math.isfinite, moved.values())):
            break
        for i, a in moved.items():
            alpha_old[i], g_old[i], alpha[i] = alpha[i], g[i], a
    records = _records(best, t if doubling else ts, h, tabs[0].order, best_alpha, stage_iters,
                       evals, [not abs(g_i) <= gtol for g_i in best_g], doubling)
    return records if doubling or np.ndim(t) else records[0]


def _stepper(method: MethodSpec, sys: HamiltonianSystem, cfg: SolverConfig,
             doubling: bool = False):
    """The one solve a driver calls, and the one place method.kind is read.

    window(y, h, ts, alpha_prev) gives the _Records of len(ts) fixed steps as
    one stacked solve, every EQUIP secant starting from alpha_prev; with
    doubling it is attempt(y, h, t, alpha_prev), one step-doubling attempt's
    StepRecord.  Gauss and HBVM build their tableau once here.
    """
    if method.kind == "equip":
        def solve(y, h, t, alpha_prev):
            # integrator.equip_step is looked up at each call, where the benchmark wraps it
            return equip_step(method.s, sys, y, h, cfg, alpha_prev, t, doubling=doubling)
        return solve
    return _fixed(build_tableau(method), sys, cfg, doubling)


def _start_state(sys: HamiltonianSystem, y0) -> np.ndarray:
    """y0 as floats; a ValueError unless it is finite with shape (2 * half_dim,)."""
    y = np.asarray(y0, dtype=float)
    if y.shape != (2 * sys.half_dim,) or not np.isfinite(y).all():
        raise ValueError(f"y0 must be finite with shape ({2 * sys.half_dim},), got {y0!r}")
    return y


def integrate_fixed(method: MethodSpec, sys: HamiltonianSystem, y0: np.ndarray,
                    h: float, n_steps: int, cfg: SolverConfig) -> list[StepRecord]:
    """Apply n_steps constant-h steps from t = 0; returns one record per step.

    Steps run _WINDOW at a time as one stacked solve, and the last window
    holds the steps left over; an EQUIP window's steps start their secants
    from the last alpha of the window before, and a window with a flagged
    step is solved again one step at a time.  When a window fails, its steps
    and the rest of the run go one step at a time, so a failure names the
    step that fails alone and a run pays for at most one failed window.
    """
    if not isinstance(n_steps, Integral) or n_steps < 1 or not 0.0 < h < np.inf:  # a NaN h fails
        raise ValueError("n_steps must be an integer >= 1 and h positive and finite, "
                         f"got n_steps={n_steps}, h={h}")
    window = _stepper(method, sys, cfg)
    y = _start_state(sys, y0)
    alpha_prev, records, batch, windowed = 0.0, [], None, True
    try:
        for k in range(n_steps):
            if windowed and k % _WINDOW == 0:
                try:
                    batch = window(y, h, [j * h for j in range(k, min(k + _WINDOW, n_steps))],
                                   alpha_prev)
                except (NonConvergence, Divergence):
                    batch, windowed = None, False  # one step at a time from here on
                if batch and batch.flagged:
                    batch = None  # a flagged window's steps go one at a time
            rec = batch[k % _WINDOW] if batch else window(y, h, [k * h], alpha_prev)[0]
            records.append(rec)
            y, alpha_prev = rec.state.y, rec.alpha
    except IntegrationError as exc:
        raise type(exc)(f"{method} failed at step {k} (t={k * h:.6g}, h={h:.6g}): {exc}") from exc
    return records


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
    f0 = np.concatenate([y0[sys.half_dim:], canonical_field(sys, y0)])  # (p, force(q))
    return float(np.fmax(0.1 * (1.0 + abs(y0).max()) / (1.0 + abs(f0).max()), H_MIN))


def integrate_adaptive(method: MethodSpec, sys: HamiltonianSystem, y0: np.ndarray,
                       t_stops, tol: float, cfg: SolverConfig) -> list[list[StepRecord]]:
    """Step-doubling adaptive driver from t = 0; one list of accepted records per stop.

    A step is accepted when err_est <= tol; the next stepsize multiplies by
    the clamped controller factor, or halves after a solver failure, which
    includes a failed evaluation anywhere in an EQUIP attempt's secant.  h is
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
    attempt = _stepper(method, sys, cfg, doubling=True)
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
