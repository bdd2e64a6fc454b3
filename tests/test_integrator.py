import contextlib
import dataclasses
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from geork import integrator
from geork.cli import CONVERGENCE_CONFIG, _build_parser, parse_method_list
from geork.dynamics import (
    DomainError, HamiltonianSystem, angular_momentum, kepler_reference, kepler_system,
    quartic_oscillator,
)
from geork.experiments import convergence_study, run_adaptive_periods
from geork.integrator import (
    H_MIN,
    Divergence,
    IntegrationError,
    MinStepReached,
    NonConvergence,
    SolverConfig,
    _stepper,
    equip_step,
    initial_stepsize,
    integrate_adaptive,
    integrate_fixed,
    propose_factor,
    rk_step,
    solve_stages,
)
from geork.tableau import MethodSpec, build_equip_tableau, build_gauss, build_hbvm, build_tableau
from test_dynamics import full_field

T = 2 * np.pi

GAUSS3 = MethodSpec("gauss", 3)
HBVM63 = MethodSpec("hbvm", 3, 6)
HBVM123 = MethodSpec("hbvm", 3, 12)
EQUIP3 = MethodSpec("equip", 3)


def stage_residual(tab, sys, y, h, Y):
    F = full_field(sys, Y)
    return float(np.max(np.abs(Y - (y + h * tab.A @ F))))


def trapped_system(traps, value=np.inf):
    """H = 0 and a zero force, except that the force is value on the calls in traps.

    From a start at rest (p = 0) the field vanishes, which converges the
    stage solve on its first iteration, so each stacked solve evaluates the
    field twice: the stage solve on odd calls (1, 3, ...) and the update
    y + h sum b_i f(Y_i) on even calls (2, 4, ...).  A step is one such
    solve, and so is a window of fixed steps; as H = 0, an EQUIP step or
    window meets its alpha tolerance on its first evaluation.
    """
    calls = itertools.count(1)

    def force(q):
        q = np.asarray(q, dtype=float)
        return np.full_like(q, value if next(calls) in traps else 0.0)

    def energy(y):
        return np.zeros(np.shape(y)[:-1])

    return HamiltonianSystem(name="trapped", half_dim=1, energy=energy,
                             force=force, invariants={"H": energy})


def untouchable_system():
    """A problem whose every evaluation fails the test."""
    def untouchable(y):
        raise AssertionError("the problem was evaluated")

    return HamiltonianSystem(name="untouchable", half_dim=1, energy=untouchable,
                             force=untouchable, invariants={"H": untouchable})


@pytest.fixture
def first_h(monkeypatch):
    """The adaptive driver's first attempt has h = 0.5 and costs no field call."""
    monkeypatch.setattr(integrator, "initial_stepsize", lambda sys, y0: 0.5)


@contextlib.contextmanager
def stacked_evaluations():
    """Yield (alphas, states), filled per evaluation of the stacked attempts run in the block.

    integrator._stack forms each attempt's system from its three tableaus,
    of the full step and the two half-steps, whose alphas are recorded, and
    integrator._evaluate gives its (full, half, last) states, or None when
    it fails; steps and windows of fixed steps are not recorded.  An
    attempt's system is the one whose only link is its last half-step's.
    """
    alphas, states = [], []
    stack, evaluate = integrator._stack, integrator._evaluate

    def recording_stack(tabs, doubling=False):
        system = stack(tabs, doubling)
        if system[2] == [2]:
            alphas.append(tuple(tab.alpha for tab in tabs))
        return system

    def recording_evaluate(*args):
        result = None
        try:
            result = evaluate(*args)
        finally:
            if args[2] == [2]:
                states.append(None if result is None else result[0])
        return result

    with mock.patch.object(integrator, "_stack", recording_stack), \
            mock.patch.object(integrator, "_evaluate", recording_evaluate):
        yield alphas, states


def returned_evaluation(evaluations, sol):
    """(alphas, (full, half, last)) of the evaluation whose states the attempt returned."""
    return next((a, s) for a, s in zip(*evaluations) if sol.states is s)


def doubling_error(sol, order):
    """The adaptive driver's err_est of an attempt's _Solve: |full - last|_inf / (2^p - 1)."""
    return float(np.max(np.abs(sol.states[0] - sol.states[-1]))) / (2.0 ** order - 1.0)


def step_doubling_error(method, sys, y, h, cfg):
    """The controller's error estimate for one attempt of size h from y."""
    attempt, _ = _stepper(method, sys, cfg, doubling=True)
    return doubling_error(attempt(y, h, 1, 0.0), method.order)


def assert_record_of(rec, sol, h, i=0):
    """rec is the fixed driver's record of block i of the _Solve sol, bit for bit."""
    np.testing.assert_array_equal(rec.state.y, sol.states[i])
    assert (rec.h, rec.alpha, rec.stage_iters, rec.alpha_iters, rec.err_est, rec.flagged) == \
        (h, sol.alphas[i], sol.stage_iters, sol.alpha_iters, None, sol.flags[i])


# ---------------------------------------------------------------------------
# stage solver


def test_midpoint_linear_stage_solve(harmonic, cfg):
    sys, state0 = harmonic
    tab = build_gauss(1)
    Y, iters = solve_stages(tab.A, sys, state0.y, 0.5, cfg)
    assert stage_residual(tab, sys, state0.y, 0.5, Y) <= 1e-13
    # fixed point of the affine map: Y = y + (h/2) J Y
    h = 0.5
    M = np.eye(2) - (h / 2) * np.array([[0.0, 1.0], [-1.0, 0.0]])
    np.testing.assert_allclose(Y[0], np.linalg.solve(M, state0.y), atol=1e-13)


def test_zero_step_returns_start(harmonic, cfg):
    sys, state0 = harmonic
    Y, iters = solve_stages(build_gauss(1).A, sys, state0.y, 0.0, cfg)
    np.testing.assert_array_equal(Y, np.tile(state0.y, (1, 1)))
    assert iters <= 1


def test_kepler_stage_iterations_budget(cfg):
    # regression: fixed point converges comfortably at the benchmark stepsize
    sys, state0 = kepler_system(0.6)
    Y, iters = solve_stages(build_gauss(3).A, sys, state0.y, T / 200, cfg)
    assert iters <= 30
    assert stage_residual(build_gauss(3), sys, state0.y, T / 200, Y) <= 1e-13 * 3


@pytest.mark.parametrize("tab_builder,h", [
    (lambda: build_gauss(3), T / 100),
    (lambda: build_hbvm(6, 3), T / 100),
    (lambda: build_hbvm(12, 3), T / 50),
])
def test_stage_residual_contract(tab_builder, h, cfg):
    sys, state0 = kepler_system(0.6)
    tab = tab_builder()
    y = kepler_reference(0.6, 2.0)
    Y, _ = solve_stages(tab.A, sys, y, h, cfg)
    limit = 2 * cfg.stage_tol * (1 + np.max(np.abs(y)))
    assert stage_residual(tab, sys, y, h, Y) <= limit


@pytest.mark.parametrize("alpha", [1e-4, 0.25])
def test_warm_start_meets_residual_contract(alpha, cfg):
    # periapsis at e = 0.6, the hardest point of the orbit for the iteration
    sys, state0 = kepler_system(0.6)
    y, h = state0.y, T / 50
    tol = cfg.stage_tol * (1 + np.max(np.abs(y)))
    Y0, _ = solve_stages(build_equip_tableau(3, 0.0).A, sys, y, h, cfg)
    tab = build_equip_tableau(3, alpha)
    cold, cold_iters = solve_stages(tab.A, sys, y, h, cfg)
    warm, warm_iters = solve_stages(tab.A, sys, y, h, cfg, Y0)
    assert stage_residual(tab, sys, y, h, warm) <= tol
    assert np.max(np.abs(warm - cold)) <= tol
    assert warm_iters < cold_iters


def test_equip_warm_start_saves_stage_iterations(cfg):
    # regression guard: each secant evaluation after the first starts from
    # the previous one's stages (7.14 iterations per evaluation; 8.70 cold)
    sys, state0 = kepler_system(0.6)
    recs = integrate_fixed(EQUIP3, sys, state0.y, T / 100, 100, cfg)
    ratio = sum(r.stage_iters for r in recs) / sum(r.alpha_iters for r in recs)
    assert ratio <= 7.5


@pytest.mark.parametrize("tab_builder, budget", [
    (lambda: build_gauss(3), 8),
    (lambda: build_hbvm(12, 3), 8),
    (lambda: build_equip_tableau(3, 0.05), 9),
])
def test_partitioned_sweep_iteration_count(tab_builder, budget, harmonic, cfg):
    # updating Q from the new P squares the contraction factor on this linear
    # problem: a sweep that took Q from the old P needs 15, 15 and 16 here
    sys, state0 = harmonic
    _, iters = solve_stages(tab_builder().A, sys, state0.y, 0.5, cfg)
    assert iters <= budget


@settings(deadline=None, max_examples=60)
@given(r=st.floats(0.5, 2.0), theta=st.floats(0.0, T),
       p=st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2),
       h=st.floats(-0.1, 0.1), tab=st.sampled_from(["gauss", "hbvm", "equip"]),
       alpha=st.floats(-0.2, 0.2))
def test_stages_solve_the_partitioned_equations(r, theta, p, h, tab, alpha):
    # Q = q + hA P holds to round-off (a sweep forms it as
    # q + hA p + (hA)^2 F(Q)), and P = p + hA F(Q) within the tolerance the
    # last sweep's change met
    cfg = SolverConfig()
    sys, _ = kepler_system(0.6)
    y = np.array([r * np.cos(theta), r * np.sin(theta), *p])
    tab = {"gauss": build_gauss(3), "hbvm": build_hbvm(12, 3),
           "equip": build_equip_tableau(3, alpha)}[tab]
    Y, _ = solve_stages(tab.A, sys, y, h, cfg)
    Q, P, hA = Y[:, :2], Y[:, 2:], h * tab.A
    scale = 1.0 + np.max(np.abs(y))
    assert np.max(np.abs(Q - (y[:2] + hA @ P))) <= 8 * np.finfo(float).eps * scale
    assert np.max(np.abs(P - (y[2:] + hA @ sys.force(Q)))) <= cfg.stage_tol * scale


def test_nonconvergence_signalled(cfg):
    sys, state0 = kepler_system(0.6)
    starved = SolverConfig(max_stage_iters=2)
    with pytest.raises(NonConvergence):
        solve_stages(build_gauss(3).A, sys, state0.y, T / 100, starved)


@pytest.mark.parametrize("value", [np.inf, np.nan, 1e12])
def test_stage_solve_divergence_on_blown_up_iterate(value, cfg):
    # field call 1 is the stage solve's first iteration; its residual is
    # inf, NaN (inf - inf in the matmul) or far beyond the divergence limit
    with np.errstate(invalid="ignore"), pytest.raises(Divergence, match="diverged"):
        solve_stages(build_gauss(2).A, trapped_system({1}, value), np.array([1.0, 0.0]),
                     0.1, cfg)


def test_an_infinite_residual_is_a_divergence_where_the_limit_is_inf(cfg):
    # at |y|_inf = 1e301 the divergence limit 1e8 (1 + |y|_inf) is inf,
    # without a warning; the first sweep moves Q by h p / 2 = 5e299, and the
    # second, whose force is inf (call 2), has an inf residual: a Divergence
    # at that sweep, which would otherwise pass and then converge
    with pytest.raises(Divergence, match="stage iterates diverged") as exc:
        solve_stages(build_gauss(1).A, trapped_system({2}), np.array([0.0, 1e301]), 0.1, cfg)
    assert exc.value.sweeps == 2


@pytest.mark.parametrize("h", [np.nan, np.inf])
def test_stage_solve_rejects_a_non_finite_h_before_any_evaluation(h, cfg):
    with pytest.raises(ValueError, match="^stepsize must be finite$"):
        rk_step(build_gauss(2), untouchable_system(), np.array([1.0, 0.0]), h, cfg)


def test_solver_config_validation():
    # an infinite alpha_tol would accept EQUIP's first secant evaluation
    # unflagged, a NaN stage_tol would run every stage solve to its budget
    for name in ("stage_tol", "alpha_tol"):
        for value in (0.0, -1e-13, np.nan, np.inf):
            with pytest.raises(ValueError, match=name):
                SolverConfig(**{name: value})


@pytest.mark.parametrize("value", [0, 2.5, np.nan, np.inf])
@pytest.mark.parametrize("name", ["max_stage_iters", "max_alpha_iters"])
def test_solver_config_rejects_budgets_that_are_not_positive_integers(name, value):
    # a float budget used to construct and then fail the first step with a
    # TypeError from range
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= 1, got "):
        SolverConfig(**{name: value})


# ---------------------------------------------------------------------------
# stacked systems


def stacked_block_by_block(tabs, doubling=False):
    """_stack's (A, b, links) of tabs, each block written and scaled in place."""
    chains = [(tabs[:1], 1.0), (tabs[1:], 0.5)] if doubling else [(tabs, 1.0)]
    b, k, n = tabs[0].b, len(tabs), len(tabs[0].b)
    A, scale, links, first = np.zeros((k, n, k, n)), [], [], 0
    for chain, c in chains:
        for i, tab in enumerate(chain, first):
            if i > first:
                A[i, :, first:i] = b
            A[i, :, i] = tab.A
        if c != 1.0:
            A[first:first + len(chain)] *= c
        scale += [c] * len(chain)
        links += range(first + 1, first + len(chain))
        first += len(chain)
    return A.reshape(k * n, k * n), np.multiply.outer(scale, b)[:, None], links


def test_stack_matches_the_block_by_block_system_bit_for_bit():
    # _stack copies its shape's layout, kept for the last shape alone, and
    # writes the diagonal blocks.  Each shape is stacked twice in a row, so
    # that the layout is made and then reused, before the next shape; the
    # first A is overwritten in between, which must not reach the second
    rng = np.random.default_rng(38)
    families = [*(lambda s=s: build_gauss(s) for s in range(1, 5)),
                *(lambda k=k: build_hbvm(k, 3) for k in (3, 4, 6, 9, 12)),
                lambda: build_equip_tableau(3, rng.uniform(-0.5, 0.5))]
    for k in (1, 2, 3, 8, 32):
        for doubling in (False, True):
            for family in families:
                systems = []
                for _ in range(2):
                    tabs = [family() for _ in range(k)]
                    A, b, links = integrator._stack(tabs, doubling)
                    A_ref, b_ref, links_ref = stacked_block_by_block(tabs, doubling)
                    assert A.shape == A_ref.shape and A.tobytes() == A_ref.tobytes()
                    assert b.shape == b_ref.shape and b.tobytes() == b_ref.tobytes()
                    assert links == links_ref
                    systems.append(A)
                    A[:] = np.nan
                assert not np.shares_memory(*systems)


def chained_states(sys, y, h, Y, b, links):
    """_evaluate's states from its stages Y, each linked step added from the state before."""
    F = np.concatenate([Y[:, sys.half_dim:], sys.force(Y[:, :sys.half_dim])], axis=1)
    dy = h * (b @ F.reshape(len(b), b.shape[-1], -1))[:, 0]
    states = y + dy
    for i in links:
        states[i] = states[i - 1] + dy[i]
    return states


@pytest.mark.parametrize("k, doubling", [(integrator._WINDOW, False), (3, True), (1, False)])
def test_evaluate_sums_a_chain_of_linked_steps_bit_for_bit(k, doubling, cfg):
    # a window, an attempt and a lone step at random alphas and starts near
    # the orbit: the states are the step-by-step sums of the increments
    rng = np.random.default_rng(k)
    sys, state0 = kepler_system(0.6)
    for _ in range(10):
        tabs = [build_equip_tableau(3, a) for a in rng.uniform(-0.1, 0.1, k)]
        y = state0.y + rng.uniform(-0.2, 0.2, 4)
        A, b, links = integrator._stack(tabs, doubling)
        states, Y, _ = integrator._evaluate(A, b, links, sys, y, T / 100, cfg)
        assert states.tobytes() == chained_states(sys, y, T / 100, Y, b, links).tobytes()


def test_a_late_step_of_a_window_that_overflows_is_a_divergence(cfg):
    # with no force, a window of 8 Gauss(1) steps from (q, p) = (0, 1e308) at
    # h = 0.23 has stages up to q = 7.5 h p = 1.7e308, which converge on the
    # second sweep; only the last step's state, q = 8 h p, overflows
    sys, y, h = trapped_system(set()), np.array([0.0, 1e308]), 0.23
    A, b, links = integrator._stack([build_gauss(1)] * 8)
    Y, sweeps = solve_stages(A, sys, y, h, cfg)
    with np.errstate(over="ignore"):
        finite = np.isfinite(chained_states(sys, y, h, Y, b, links)).all(axis=1)
        assert finite.tolist() == [True] * 7 + [False] and sweeps == 2
        with pytest.raises(Divergence, match="^non-finite step result at h=0.23$") as exc:
            integrator._evaluate(A, b, links, sys, y, h, cfg)
    assert exc.value.sweeps == 2


# ---------------------------------------------------------------------------
# single steps


def test_midpoint_conserves_quadratic_energy(harmonic, cfg):
    sys, state0 = harmonic
    rec = rk_step(build_gauss(1), sys, state0.y, 0.1, cfg)
    assert abs(float(sys.energy(rec.state.y)) - 0.5) <= 1e-14
    assert rec.state.t == pytest.approx(0.1)
    assert rec.alpha == 0.0


def test_step_consistency_small_h(harmonic, cfg):
    sys, state0 = harmonic
    h = 1e-5
    rec = rk_step(build_gauss(2), sys, state0.y, h, cfg)
    f0 = full_field(sys, state0.y)
    assert np.linalg.norm(rec.state.y - state0.y) <= h * np.linalg.norm(f0) * (1 + 1e-10)


def test_gauss3_order_six_over_one_period(cfg):
    sys, state0 = kepler_system(0.6)
    errs, hs = [], []
    for m in (100, 140, 200):
        recs = integrate_fixed(GAUSS3, sys, state0.y, T / m, m, cfg)
        err = np.linalg.norm(recs[-1].state.y - kepler_reference(0.6, recs[-1].state.t))
        hs.append(T / m)
        errs.append(err)
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert 5.5 <= slope <= 6.5


@settings(deadline=None)
@given(s=st.integers(1, 6), alpha=st.floats(-0.2, 0.2), h=st.floats(0.005, 0.1),
       t=st.floats(0.0, T))
def test_gauss_reversibility(s, alpha, h, t):
    # EQUIP(s, alpha) is symmetric for every alpha (alpha = 0 is Gauss(s)):
    # A + P A P = 1 b^T with P the node reversal, so stepping back by -h
    # returns to the start up to the stage tolerance; at s = 1, where EQUIP
    # has no alpha, Gauss(1)
    cfg = SolverConfig()
    sys, _ = kepler_system(0.6)
    tab = build_equip_tableau(s, alpha) if s > 1 else build_gauss(1)
    P = np.eye(s)[::-1]
    assert np.max(np.abs(tab.A + P @ tab.A @ P - np.outer(np.ones(s), tab.b))) <= 1e-14
    y = kepler_reference(0.6, t)
    fwd = rk_step(tab, sys, y, h, cfg)
    back = rk_step(tab, sys, fwd.state.y, -h, cfg)
    assert np.max(np.abs(back.state.y - y)) <= 10 * cfg.stage_tol


# ---------------------------------------------------------------------------
# EQUIP steps


def test_equip_alpha_vanishes_on_quadratic_energy(harmonic, cfg):
    sys, state0 = harmonic
    sol = equip_step(3, sys, state0.y, 0.3, cfg)
    assert abs(sol.alphas[0]) <= 1e-8
    assert not sol.flagged


def test_equip_step_energy_contract(cfg):
    sys, state0 = kepler_system(0.6)
    H0 = float(sys.energy(state0.y))
    sol = equip_step(3, sys, state0.y, T / 100, cfg)
    assert abs(float(sys.energy(sol.states[0])) - H0) <= 1e-12 * (1 + abs(H0))
    assert abs(sol.alphas[0]) <= 1e-2  # regression bound at this stepsize
    assert sol.alpha_iters <= 25


def test_equip_period_conserves_angular_momentum(cfg):
    sys, state0 = kepler_system(0.6)
    L0 = float(angular_momentum(state0.y))
    recs = integrate_fixed(EQUIP3, sys, state0.y, T / 100, 100, cfg)
    for rec in recs:
        assert abs(float(angular_momentum(rec.state.y)) - L0) <= 1e-12
    assert not any(r.flagged for r in recs)


def test_equip_flagged_fallback(monkeypatch):
    # an unreachable alpha tolerance fails the secant on its budget; the step
    # is the evaluated alpha of least energy change, flagged, and reports all
    # the work it spent (quadratic energies are excluded here because they
    # can satisfy even an absurd tolerance exactly)
    solves = []
    solve = integrator.solve_stages

    def counted(*args):
        Y, iters = solve(*args)
        solves.append(iters)
        return Y, iters

    monkeypatch.setattr(integrator, "solve_stages", counted)
    sys, state0 = kepler_system(0.6)
    starved = SolverConfig(alpha_tol=1e-30, max_alpha_iters=3)
    y, h = state0.y, T / 100
    sol = equip_step(3, sys, y, h, starved)
    assert sol.flagged
    assert sol.flags == [True] and sol.states.shape == (1, 4)
    assert (sol.alpha_iters, sol.stage_iters) == (3, sum(solves))
    same = rk_step(build_equip_tableau(3, sol.alphas[0]), sys, y, h, starved)
    bound = starved.stage_tol * (1 + np.max(np.abs(y)))
    assert np.max(np.abs(sol.states[0] - same.state.y)) <= bound
    start = rk_step(build_equip_tableau(3, 0.0), sys, y, h, starved)
    H0 = float(sys.energy(y))
    assert (abs(float(sys.energy(sol.states[0])) - H0)
            <= abs(float(sys.energy(start.state.y)) - H0))


def test_equip_periapsis_steps_complete(cfg):
    # from Kepler e = 0.99 periapsis at h = 1e-3 the secant stalls just above
    # its tolerance; the step must still complete, as the benchmark's warm-up
    # and `geork run --e 0.99 --h 0.001` take it
    sys, state0 = kepler_system(0.99)
    recs = integrate_fixed(EQUIP3, sys, state0.y, 1e-3, 2, cfg)
    assert [r.state.t for r in recs] == pytest.approx([1e-3, 2e-3])
    H0 = float(sys.energy(state0.y))
    assert all(abs(float(sys.energy(r.state.y)) - H0) <= 1e-11 for r in recs)


def test_domain_error_is_a_divergence_the_controller_retries(harmonic, cfg, first_h):
    # the force leaves its domain on call 2, the first attempt's second
    # stage iteration; the controller halves h and carries on
    sys, state0 = harmonic
    calls = itertools.count(1)

    def force(q):
        if next(calls) == 2:
            raise DomainError("outside the domain")
        return sys.force(q)

    edgy = HamiltonianSystem(name="edgy", half_dim=1, energy=sys.energy, force=force,
                             invariants=sys.invariants)
    with pytest.raises(Divergence, match="vector field domain error"):
        rk_step(build_gauss(2), edgy, state0.y, 0.1, cfg)
    calls = itertools.count(1)
    (recs,) = integrate_adaptive(GAUSS3, edgy, state0.y, [1.0], tol=1e-8, cfg=cfg)
    assert recs[-1].state.t == 1.0


def test_equip_secant_with_a_flat_energy_falls_back_flagged(cfg):
    # no force and p = 1, so y_next = y + h (1, 0) for every alpha and
    # g = H(y_next) - H(y) = h never moves: the secant denominator is zero on
    # the second evaluation, and the step stalls there
    def energy(y):
        return np.asarray(y, dtype=float)[..., 0]

    flat = HamiltonianSystem(name="flat", half_dim=1, energy=energy,
                             force=lambda q: np.zeros(np.shape(q)), invariants={"H": energy})
    sol = equip_step(3, flat, np.array([0.0, 1.0]), 0.1, cfg)
    assert sol.flagged
    assert (sol.alphas, sol.alpha_iters) == ([0.0], 2)  # a tie keeps the first alpha
    assert sol.flags == [True] and sol.states.shape == (1, 2)
    np.testing.assert_allclose(sol.states[0], [0.1, 1.0], atol=1e-15)


def test_equip_failed_stage_solve_or_non_finite_update_raises(cfg):
    # field call 1 is the first secant evaluation's stage solve, field call 2
    # its update; either failure leaves the step, as it leaves rk_step, and
    # only the drivers change h
    y0 = np.array([1.0, 0.0])
    with np.errstate(invalid="ignore"), pytest.raises(Divergence, match="stage iterates"):
        equip_step(3, trapped_system({1}), y0, 0.1, cfg)
    with np.errstate(invalid="ignore"), pytest.raises(Divergence, match="non-finite"):
        equip_step(3, trapped_system({2}), y0, 0.1, cfg)
    sys, state0 = kepler_system(0.6)
    with pytest.raises(NonConvergence):
        equip_step(3, sys, state0.y, T / 100, SolverConfig(max_stage_iters=2))


def equip_backing_off(y, h, doubling=False):
    """An EQUIP step or attempt on Kepler e = 0.6 from y, and what its evaluations did.

    Returns (sys, sol, sweeps, built, evaluations).  sol is the _Solve, or
    the IntegrationError the call raised.  The sweeps are (iterations,
    failed) per solve, failed ones counted as the sweeps they spent; built
    holds the alphas of the tableaus built; evaluations holds per evaluation
    the number of tableaus built before it and its states, None for one that
    failed.
    """
    sys, _ = kepler_system(0.6)
    sweeps, solve = [], integrator.solve_stages
    built, build = [], integrator.build_equip_tableau
    evaluations, evaluate = [], integrator._evaluate

    def recorded(s, alpha):
        built.append(alpha)
        return build(s, alpha)

    def evaluated(*args):
        evaluations.append((len(built), None))
        result = evaluate(*args)
        evaluations[-1] = (len(built), result[0])
        return result

    def counted(*args):
        try:
            Y, iters = solve(*args)
        except (NonConvergence, Divergence) as exc:
            sweeps.append((exc.sweeps, True))
            raise
        sweeps.append((iters, False))
        return Y, iters

    with mock.patch.object(integrator, "solve_stages", counted), \
            mock.patch.object(integrator, "build_equip_tableau", recorded), \
            mock.patch.object(integrator, "_evaluate", evaluated):
        try:
            sol = equip_step(3, sys, np.array(y, dtype=float), h, SolverConfig(), doubling=doubling)
        except IntegrationError as exc:
            sol = exc
    return sys, sol, sweeps, built, evaluations


@pytest.mark.parametrize("y, h, doubling", [
    ([0.5 * np.cos(np.pi), 0.5 * np.sin(np.pi), 0.0, 1.0], 0.125, False),
    ([-0.495, 0.0706, -0.5, 0.0], -0.25, False),
    ([0.5, 0.0, 0.5, 0.0], -0.25, False),
    ([0.5, 0.0, 0.0758, 1.0], 0.25, True),
])
def test_equip_backs_off_from_a_failed_evaluation(y, h, doubling):
    # from each of these states a secant evaluation after the first fails its
    # stage solve.  That ends the secant: no tableau is built after it.  An
    # attempt raises, so that its driver reduces h; a step's solve, flagged
    # instead of raising, is the evaluation before it of least largest |g|,
    # with the failed sweeps counted in stage_iters
    sys, sol, sweeps, built, evaluations = equip_backing_off(y, h, doubling)
    assert len(sweeps) > 1
    assert [failed for _, failed in sweeps] == [False] * (len(sweeps) - 1) + [True]
    assert [states is None for _, states in evaluations] == [False] * (len(sweeps) - 1) + [True]
    assert evaluations[-1][0] == len(built)
    if doubling:
        assert isinstance(sol, NonConvergence)
        return
    H0 = float(sys.energy(np.array(y, dtype=float)))
    worst = []
    for _, states in evaluations[:-1]:
        H = sys.energy(states).tolist()
        g = [H[0] - H0, H[1] - H0, H[2] - H[1]] if doubling else [H[0] - H0]
        worst.append(max(map(abs, g)))
    (returned,) = [i for i, (_, states) in enumerate(evaluations) if sol.states is states]
    assert returned == int(np.argmin(worst))
    assert sol.flagged
    assert sol.stage_iters == sum(iters for iters, _ in sweeps)
    assert sol.alpha_iters == len(sweeps) <= SolverConfig().max_alpha_iters
    assert np.isfinite(sol.states).all() and sol.states.shape == (1, 4)


def test_equip_back_off_makes_mirror_states_alike():
    # y = (0.5, 0, 0, 1) and its mirror image in the q2 axis, which is off by
    # 0.5 sin(pi) = 6e-17 in q2: only the mirror's secant fails an evaluation
    # (its 25th and last), and both end flagged at mirrored states (measured
    # 1.3e-8 apart)
    _, sol, sweeps, *_ = equip_backing_off([0.5, 0.0, 0.0, 1.0], 0.125)
    _, mirror, mirror_sweeps, *_ = equip_backing_off(
        [0.5 * np.cos(np.pi), 0.5 * np.sin(np.pi), 0.0, 1.0], 0.125)
    assert not any(failed for _, failed in sweeps)
    assert any(failed for _, failed in mirror_sweeps)
    assert sol.flagged == mirror.flagged
    np.testing.assert_allclose(mirror.states[0] * [-1, 1, -1, 1], sol.states[0], rtol=0, atol=1e-6)


# ---------------------------------------------------------------------------
# fixed driver


def test_steps_look_the_field_up_as_integrator_canonical_field(monkeypatch, cfg):
    # the benchmark's tracer counts field evaluations by wrapping this name;
    # a step that called sys.force directly would hide them from it
    calls = []
    field = integrator.canonical_field

    def counted(sys, y):
        calls.append(y.shape)
        return field(sys, y)

    monkeypatch.setattr(integrator, "canonical_field", counted)
    sys, state0 = kepler_system(0.6)
    rec = rk_step(build_gauss(3), sys, state0.y, T / 100, cfg)
    assert len(calls) == rec.stage_iters + 1
    # each alpha evaluation is one stage solve plus one update
    calls.clear()
    sol = equip_step(3, sys, state0.y, T / 100, cfg)
    assert sol.alpha_iters > 1 and not sol.flagged
    assert len(calls) == sol.stage_iters + sol.alpha_iters
    # a Gauss attempt: each sweep of its one stacked solve, and the update,
    # see the full step's and both half-steps' 3n = 9 stages at once
    calls.clear()
    attempt, _ = _stepper(GAUSS3, sys, cfg, doubling=True)
    sol = attempt(state0.y, T / 100, 1, 0.0)
    assert sol.stage_iters >= 2
    assert calls == [(9, 4)] * (sol.stage_iters + 1)
    # an EQUIP attempt: each evaluation is one stacked solve and one update,
    # on the three blocks' 9 stages
    calls.clear()
    attempt, _ = _stepper(EQUIP3, sys, cfg, doubling=True)
    sol = attempt(state0.y, T / 100, 1, 0.0)
    assert sol.alpha_iters > 1 and not sol.flagged
    assert calls == [(9, 4)] * (sol.stage_iters + sol.alpha_iters)


def test_equip_looks_up_its_step_and_tableau_as_integrator_names(monkeypatch, cfg):
    # the benchmark's tracer counts EQUIP steps by wrapping
    # integrator.equip_step and alpha evaluations by wrapping
    # integrator.build_equip_tableau; a name bound at import would hide them
    calls = {"equip_step": 0, "build_equip_tableau": 0}
    built, starts = [], []  # the alphas built, and where each equip_step call began
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(integrator, name), **kwargs):
            calls[_name] += 1
            if _name == "build_equip_tableau":
                built.append(args[1])
            else:
                starts.append(len(built))
            return _fn(*args, **kwargs)
        monkeypatch.setattr(integrator, name, counted)
    sys, state0 = kepler_system(0.6)
    sol = integrator.equip_step(3, sys, state0.y, T / 100, cfg)
    assert not sol.flagged and sol.alpha_iters == 4
    assert calls == {"equip_step": 1, "build_equip_tableau": 4}
    # a starved step is still one call, with one build per evaluation
    calls.update(equip_step=0, build_equip_tableau=0)
    starved = SolverConfig(alpha_tol=1e-30, max_alpha_iters=3)
    sol = integrator.equip_step(3, sys, state0.y, T / 100, starved)
    assert sol.flagged
    assert calls == {"equip_step": 1, "build_equip_tableau": 3}
    # an attempt is one equip_step call; its first evaluation builds one
    # tableau for all three blocks, and each later one a tableau per block
    # whose alpha moved
    calls.update(equip_step=0, build_equip_tableau=0)
    built.clear()
    attempt, _ = _stepper(EQUIP3, sys, cfg, doubling=True)
    with stacked_evaluations() as (alphas, _):
        sol = attempt(state0.y, T / 100, 1, 0.0)
    moved = [a for old, new in zip(alphas, alphas[1:]) for a_old, a in zip(old, new) if a != a_old]
    assert alphas[0] == (0.0, 0.0, 0.0) and sol.alpha_iters == len(alphas) > 2
    assert built == [0.0, *moved] and len(moved) < 3 * (len(alphas) - 1)
    assert calls == {"equip_step": 1, "build_equip_tableau": len(built)}
    # a fixed run is one call per window.  A window's first evaluation builds
    # one tableau, at the last alpha of the window before, for all its steps;
    # each later one a tableau per step whose alpha moved, at least one
    calls.update(equip_step=0, build_equip_tableau=0)
    built.clear()
    starts.clear()
    W = integrator._WINDOW
    recs = integrate_fixed(EQUIP3, sys, state0.y, T / 100, 2 * W + 3, cfg)
    windows = [recs[:W], recs[W:2 * W], recs[2 * W:]]
    assert calls == {"equip_step": 3, "build_equip_tableau": len(built)}
    assert [built[i] for i in starts] == [0.0, recs[W - 1].alpha, recs[2 * W - 1].alpha]
    for w, first, end in zip(windows, starts, [*starts[1:], len(built)]):
        assert {rec.alpha_iters for rec in w} == {w[0].alpha_iters}
        assert w[0].alpha_iters <= end - first <= 1 + len(w) * (w[0].alpha_iters - 1)
    assert not any(rec.flagged for rec in recs)


@pytest.mark.parametrize("method", [GAUSS3, HBVM63, HBVM123], ids=str)
def test_single_step_matches_driver(method, cfg):
    # the driver's one-block step is rk_step, bit for bit, with no error estimate
    sys, state0 = kepler_system(0.6)
    recs = integrate_fixed(method, sys, state0.y, 0.1, 1, cfg)
    direct = rk_step(build_tableau(method), sys, state0.y, 0.1, cfg)
    assert len(recs) == 1
    np.testing.assert_array_equal(recs[0].state.y, direct.state.y)
    assert recs[0].err_est is None and direct.err_est is None


def test_final_time_is_exact(cfg):
    sys, state0 = kepler_system(0.6)
    recs = integrate_fixed(GAUSS3, sys, state0.y, T / 50, 150, cfg)
    assert recs[-1].state.t == pytest.approx(150 * T / 50, rel=1e-12)


def test_hbvm9_practical_energy_conservation(cfg):
    sys, state0 = kepler_system(0.6)
    H0 = float(sys.energy(state0.y))
    recs = integrate_fixed(MethodSpec("hbvm", 3, 9), sys, state0.y, T / 100, 1000, cfg)
    ys = np.stack([r.state.y for r in recs])
    assert np.max(np.abs(sys.energy(ys) - H0)) <= 1e-12 * abs(H0)


def test_quartic_polynomial_exact_conservation(cfg):
    sys, state0 = quartic_oscillator()
    recs = integrate_fixed(MethodSpec("hbvm", 3, 6), sys, state0.y, 0.1, 1000, cfg)
    ys = np.stack([r.state.y for r in recs])
    assert np.max(np.abs(sys.energy(ys) - 0.25)) <= 1e-12


def quartic_energy_drift(s, k, h, cfg, n=50):
    """Max |H - H0| over n HBVM(k, s) steps on the quartic, and the exactness bound.

    When k >= nu * s / 2 = 2s the method conserves the quartic energy
    exactly, so only the stage solve loses energy: each step's stages miss the
    fixed point by about stage_tol * (1 + |y|), and with |grad H| <= 1 and
    h * L <= 0.6 on this orbit a step can lose no more than that.
    """
    sys, state0 = quartic_oscillator()
    recs = integrate_fixed(MethodSpec("hbvm", s, k), sys, state0.y, h, n, cfg)
    drift = np.max(np.abs(sys.energy(np.stack([r.state.y for r in recs])) - 0.25))
    return drift, n * cfg.stage_tol * (1.0 + np.max(np.abs(state0.y)))


@settings(deadline=None, max_examples=40)
@given(s=st.integers(1, 3), extra=st.integers(0, 4), h=st.floats(0.01, 0.2))
def test_hbvm_conserves_polynomial_energy(s, extra, h):
    # nu = 4, the degree of the quartic energy p^2/2 + q^4/4
    k = 4 * s // 2 + extra
    drift, bound = quartic_energy_drift(s, k, h, SolverConfig())
    assert drift <= bound


def rk_step_loop(tab, sys, y, h, n_steps, cfg):
    """(states, failure) of n_steps plain rk_steps from y; failure is (step, type) or None."""
    states = []
    for k in range(n_steps):
        try:
            y = rk_step(tab, sys, y, h, cfg, k * h).state.y
        except (NonConvergence, Divergence) as exc:
            return states, (k, type(exc))
        states.append(y)
    return states, None


def window_of(method):
    """W, the steps a fixed run of method solves at a time."""
    return _stepper(method, quartic_oscillator()[0], SolverConfig())[1]


FIXED_METHODS = [*(MethodSpec("gauss", s) for s in range(1, 5)),
                 *(MethodSpec("hbvm", 3, k) for k in (4, 6, 9, 12))]


@settings(deadline=None, max_examples=60)
@example(problem="kepler", e=0.6, run=(HBVM123, 2 * window_of(HBVM123) + 3), divisor=50.0,
         budget=100)
# a cold step 1.17 tolerances from the tight root, and one whose tight
# root takes more than 100 sweeps (it sits 5.6 tolerances from the record)
@example(problem="kepler", e=0.734375, run=(MethodSpec("gauss", 1), 1), divisor=50.0,
         budget=100)
@example(problem="kepler", e=0.75, run=(MethodSpec("gauss", 1), 1), divisor=50.0, budget=100)
@given(problem=st.sampled_from(["kepler", "quartic"]), e=st.floats(0.0, 0.9),
       run=st.sampled_from(FIXED_METHODS).flatmap(
           lambda method: st.tuples(st.just(method), st.integers(1, 3 * window_of(method)))),
       divisor=st.floats(50.0, 200.0), budget=st.sampled_from([6, 100]))
def test_windowed_fixed_steps_match_cold_rk_steps(problem, e, run, divisor, budget):
    # a fixed Gauss/HBVM run solves W steps at a time, and its last window
    # holds the steps left over; n_steps reaches three of the method's own
    # windows.  h = 2 pi / divisor spans the default convergence campaign's
    # stepsizes (divisors 50 to 200), up to where Kepler runs near e = 0.9
    # fail.  Each record, at t = k h + h, is no farther from the root of the
    # step from the record before it, solved 1000 times tighter, than that
    # step solved alone at the same tolerance, give or take one tolerance: the
    # stage solve promises a small last sweep, not a small distance to the
    # root, which a slowly contracting sweep misses by more (5.6 tolerances
    # at e = 0.75, h = 2 pi / 50, Gauss(1)).  The tight root is the oracle, so
    # it gets the sweeps it needs.  The starved budget of 6 sweeps fails
    # windows and steps, and a run that fails names the step and the error
    # type of a plain rk_step loop
    method, n_steps = run
    cfg = SolverConfig(stage_tol=1e-10, max_stage_iters=budget)
    tight = SolverConfig(stage_tol=1e-13, max_stage_iters=5000)
    sys, state0 = kepler_system(e) if problem == "kepler" else quartic_oscillator()
    h = T / divisor
    tab = build_tableau(method)
    try:
        recs = integrate_fixed(method, sys, state0.y, h, n_steps, cfg)
    except (NonConvergence, Divergence) as exc:
        _, (k, error) = rk_step_loop(tab, sys, state0.y, h, n_steps, cfg)
        assert type(exc) is error
        assert str(exc).startswith(f"{method} failed at step {k} (")
        return
    assert len(recs) == n_steps
    y = state0.y
    for k, rec in enumerate(recs):
        exact = rk_step(tab, sys, y, h, tight, k * h).state.y
        alone = rk_step(tab, sys, y, h, cfg, k * h).state.y
        assert (rec.state.t, rec.h, rec.alpha, rec.err_est) == (k * h + h, h, 0.0, None)
        assert np.max(np.abs(rec.state.y - exact)) <= (
            np.max(np.abs(alone - exact)) + cfg.stage_tol * (1 + np.max(np.abs(y))))
        y = rec.state.y


def equip_step_loop(sys, y, h, n_steps, cfg):
    """(states, failure) of n_steps equip_steps from y, each from the alpha before."""
    states, alpha = [], 0.0
    for k in range(n_steps):
        try:
            sol = equip_step(3, sys, y, h, cfg, alpha)
        except (NonConvergence, Divergence) as exc:
            return states, (k, type(exc))
        y, alpha = sol.states[0], sol.alphas[0]
        states.append(y)
    return states, None


@settings(deadline=None, max_examples=40)
@example(e=0.6, divisor=200.0, n_steps=2 * integrator._WINDOW + 3, budget=100)
@given(e=st.floats(0.0, 0.9), divisor=st.floats(50.0, 200.0),
       n_steps=st.integers(1, 3 * integrator._WINDOW), budget=st.sampled_from([6, 100]))
def test_windowed_equip_steps_keep_the_energy_contract(e, divisor, n_steps, budget):
    # a fixed EQUIP run solves _WINDOW steps at a time, each with its own
    # secant on its energy change from the step before.  Over the default
    # convergence campaign's stepsizes every record is at t = k h + h and
    # meets |H(y_k) - H(y_k-1)| <= gtol or is flagged; a one-step run is
    # equip_step, bit for bit.  The starved budget of 6 sweeps fails windows
    # and steps, and a run that fails names the step and the error type of a
    # plain equip_step loop
    cfg = SolverConfig(max_stage_iters=budget)
    sys, state0 = kepler_system(e)
    h = T / divisor
    try:
        recs = integrate_fixed(EQUIP3, sys, state0.y, h, n_steps, cfg)
    except (NonConvergence, Divergence) as exc:
        _, (k, error) = equip_step_loop(sys, state0.y, h, n_steps, cfg)
        assert type(exc) is error
        assert str(exc).startswith(f"{EQUIP3} failed at step {k} (")
        return
    assert len(recs) == n_steps
    gtol = cfg.alpha_tol * (1 + abs(float(sys.energy(state0.y))))
    H = sys.energy(np.stack([state0.y, *(rec.state.y for rec in recs)]))
    for k, rec in enumerate(recs):
        assert (rec.state.t, rec.h, rec.err_est) == (k * h + h, h, None)
        assert rec.flagged or abs(H[k + 1] - H[k]) <= gtol
    if n_steps == 1:
        assert_record_of(recs[0], equip_step(3, sys, state0.y, h, cfg), h)


def test_flagged_window_is_solved_again_one_step_at_a_time(monkeypatch):
    # an unreachable alpha tolerance flags every window, so each window's
    # steps are solved again as one-step windows, from the window's start
    # and alpha: the run is the equip_step loop, bit for bit, and each
    # window costs one call more than it has steps
    calls, step = [], integrator.equip_step

    def counted(*args, **kwargs):
        calls.append(kwargs["steps"])
        return step(*args, **kwargs)

    monkeypatch.setattr(integrator, "equip_step", counted)
    sys, state0 = kepler_system(0.6)
    starved = SolverConfig(alpha_tol=1e-30, max_alpha_iters=3)
    W, h, n = integrator._WINDOW, T / 100, integrator._WINDOW + 3
    recs = integrate_fixed(EQUIP3, sys, state0.y, h, n, starved)
    assert calls == [W] + [1] * W + [3] + [1] * 3
    y, alpha = state0.y, 0.0
    for rec in recs:
        assert_record_of(rec, step(3, sys, y, h, starved, alpha), h)
        assert rec.flagged and rec.alpha_iters == 3
        y, alpha = rec.state.y, rec.alpha


def test_window_whose_later_evaluation_fails_is_solved_again_one_step_at_a_time(cfg):
    # H is 0 at the start and 1 at every step's end, so the first step's
    # |g| = 1 misses the tolerance and its secant takes a second evaluation,
    # whose stage solve (field call 3) is inf: the window ends with its first
    # evaluation, the first step flagged.  Its steps then run as one-step
    # windows, which stall flagged, and the run is the equip_step loop on an
    # untrapped copy
    def energy(y):
        return np.ones(np.shape(y)[:-1]) if np.ndim(y) > 1 else np.zeros(())

    def lifted(traps):
        return dataclasses.replace(trapped_system(traps), energy=energy)

    y0, h = np.array([1.0, 0.0]), 0.1
    with np.errstate(invalid="ignore"):
        sol = equip_step(3, lifted({3}), y0, h, cfg, 0.0, steps=3)
        assert sol.flags == [True, False, False] and sol.flagged
        assert sol.alpha_iters == 2
        run = integrate_fixed(EQUIP3, lifted({3}), y0, h, 3, cfg)
    y, alpha = y0, 0.0
    for rec in run:
        assert_record_of(rec, equip_step(3, lifted(set()), y, h, cfg, alpha), h)
        assert rec.flagged
        y, alpha = rec.state.y, rec.alpha


@pytest.mark.parametrize("method", [GAUSS3, HBVM63], ids=str)
def test_fixed_tableau_window_is_never_flagged(method, cfg):
    # a Gauss or HBVM window returns the same _Solve as an EQUIP one, so the
    # fixed driver reads its flag alike, and it has no secant to flag
    sys, state0 = kepler_system(0.6)
    window, _ = _stepper(method, sys, cfg)
    sol = window(state0.y, T / 100, 3, 0.0)
    assert isinstance(sol, integrator._Solve) and len(sol.states) == 3
    assert not sol.flagged and sol.flags == [False] * 3


@pytest.mark.parametrize("method", [GAUSS3, HBVM63], ids=str)
def test_fixed_solver_keeps_its_systems_bit_for_bit(method, cfg):
    # a Gauss or HBVM solve keeps each shape's stacked system, and its sweep
    # matrices while h stays the same: moving h or the window length and
    # back gives the solves of fresh closures, bit for bit; W is the
    # method's own window
    sys, state0 = kepler_system(0.6)
    y, h1, h2 = state0.y, T / 100, T / 70

    def assert_same(kept, fresh):
        np.testing.assert_array_equal(kept.states, fresh.states)
        assert kept[1:] == fresh[1:]

    def fresh_solve(doubling=False):
        return _stepper(method, sys, cfg, doubling)[0]

    attempt, _ = _stepper(method, sys, cfg, doubling=True)
    for h in (h1, h2, h1):
        assert_same(attempt(y, h, 1, 0.0), fresh_solve(doubling=True)(y, h, 1, 0.0))
    window, W = _stepper(method, sys, cfg)
    for h, n in ((h1, W), (h1, 3), (h2, W), (h1, 3), (h1, W)):
        kept, fresh = window(y, h, n, 0.0), fresh_solve()(y, h, n, 0.0)
        assert len(kept.states) == len(fresh.states) == n
        assert_same(kept, fresh)


@pytest.mark.parametrize("method, W", [(GAUSS3, 32), (MethodSpec("hbvm", 3, 4), 24),
                                       (HBVM63, 16), (MethodSpec("hbvm", 3, 9), 10),
                                       (HBVM123, 8), (EQUIP3, 8)], ids=str)
def test_fixed_run_solves_the_method_s_window_at_a_time(method, W, cfg):
    # Gauss and HBVM solve max(1, 96 // stages) steps at a time, EQUIP 8, so
    # a run of 2W + 3 steps is solves of W, W and 3 blocks.  An EQUIP window
    # solves once per secant evaluation, each from the window's start y
    blocks, solve, n = [], integrator.solve_stages, len(build_tableau(method).b)

    def counted(A, sys, y, *args):
        blocks.append((len(A) // n, y.tobytes()))
        return solve(A, sys, y, *args)

    sys, state0 = kepler_system(0.6)
    with mock.patch.object(integrator, "solve_stages", counted):
        recs = integrate_fixed(method, sys, state0.y, T / 100, 2 * W + 3, cfg)
    assert len(recs) == 2 * W + 3 and not any(rec.flagged for rec in recs)
    assert [k for (k, _), _ in itertools.groupby(blocks)] == [W, W, 3]
    assert window_of(method) == W


def test_campaign_grid_runs_every_gauss_and_hbvm_window_once():
    # on the default convergence grid over the benchmark's 2 periods, no
    # Gauss or HBVM window fails or falls back to single steps: a cell of n
    # steps is ceil(n / W) solves.  Gauss(3)'s L round-off grows with W
    # (1.15e-14 at h = 2 pi / 140 over 10 periods, against 1.78e-15 at
    # W = 8) but stays far inside 1e-13
    args = _build_parser().parse_args(["convergence"])
    sys, state0 = kepler_system(args.e)
    solves, failed, solve = [], [], integrator.solve_stages

    def counted(*a):
        solves.append(len(a[0]))
        try:
            return solve(*a)
        except IntegrationError as exc:
            failed.append(exc)
            raise

    fixed = [m for m in parse_method_list(args.methods) if m.kind != "equip"]
    assert len(fixed) == 5
    with mock.patch.object(integrator, "solve_stages", counted):
        for method, d in itertools.product(fixed, map(int, args.h_divisors.split(","))):
            solves.clear()
            recs = integrate_fixed(method, sys, state0.y, T / d, 2 * d, CONVERGENCE_CONFIG)
            assert len(recs) == 2 * d and len(solves) == -(-2 * d // window_of(method))
    assert not failed
    recs = integrate_fixed(GAUSS3, sys, state0.y, T / 140, 1400, CONVERGENCE_CONFIG)
    L = angular_momentum(np.stack([rec.state.y for rec in recs]))
    assert np.max(np.abs(L - angular_momentum(state0.y))) <= 1e-13


def test_campaign_equip_errors_do_not_depend_on_the_window(monkeypatch):
    # at small h any alpha inside the energy tolerance is a valid EQUIP step,
    # and where the secant stops moves the solution; at the convergence
    # campaign's alpha tolerance a windowed run and a step-by-step one agree
    # (measured 7.1695e-9 against 7.1707e-9; at the default tolerance they
    # differ by 1.3 %)
    def solution_error():
        (res, *_) = convergence_study([EQUIP3], 0.6, 2, [T / 200], CONVERGENCE_CONFIG)
        return res.samples[0][1]

    windowed = solution_error()
    monkeypatch.setattr(integrator, "_WINDOW", 1)
    assert windowed == pytest.approx(solution_error(), rel=1e-3, abs=0)


def check_failed_window_runs_the_rest_one_step_at_a_time(method, cfg):
    """The first window's first update is inf once.

    That window and the rest of the run go step by step, bit for bit the
    driver's step loop, and no window is tried again (every later field call
    is a single step's).  W is the method's own window.
    """
    sys, state0 = kepler_system(0.6)
    (step, W), h = _stepper(method, sys, cfg), T / 100
    sweeps, solve = [], integrator.solve_stages

    def counted(*args):
        Y, iters = solve(*args)
        sweeps.append(iters)
        return Y, iters

    with mock.patch.object(integrator, "solve_stages", counted):
        clean = integrate_fixed(method, sys, state0.y, h, W + 2, cfg)
    assert len({rec.stage_iters for rec in clean[:W]}) == 1
    update = sweeps[0] + 1  # the field call after the window's first sweeps
    calls = itertools.count(1)

    def force(q):
        f = sys.force(q)
        return np.full_like(f, np.inf) if next(calls) == update else f

    trapped = dataclasses.replace(sys, force=force)
    recs = integrate_fixed(method, trapped, state0.y, h, W + 2, cfg)
    y, alpha = state0.y, 0.0
    for k, rec in enumerate(recs):
        single = step(y, h, 1, alpha)
        np.testing.assert_array_equal(rec.state.y, single.states[0])
        assert (rec.state.t, rec.stage_iters, rec.alpha) == \
            (k * h + h, single.stage_iters, single.alphas[0])
        y, alpha = rec.state.y, rec.alpha
    assert len(recs) == W + 2
    # a step's field calls are its sweeps and an update per evaluation, of
    # which Gauss and HBVM steps have one (their alpha_iters is 0)
    assert next(calls) == update + sum(rec.stage_iters + max(rec.alpha_iters, 1)
                                       for rec in recs) + 1


def test_failed_window_runs_the_rest_one_step_at_a_time(cfg):
    check_failed_window_runs_the_rest_one_step_at_a_time(HBVM63, cfg)


def test_failed_equip_window_runs_the_rest_one_step_at_a_time(cfg):
    check_failed_window_runs_the_rest_one_step_at_a_time(EQUIP3, cfg)


@pytest.mark.parametrize("s", [1, 2, 3])
def test_hbvm_without_enough_nodes_breaks_the_energy_bound(s, cfg):
    # HBVM(s, s) is Gauss(s), which conserves no quartic energy
    drift, bound = quartic_energy_drift(s, s, 0.2, cfg)
    assert drift > bound


def test_fixed_driver_reports_failing_step(cfg):
    sys, state0 = kepler_system(0.6)
    starved = SolverConfig(max_stage_iters=2)
    with pytest.raises(NonConvergence, match="step 0"):
        integrate_fixed(GAUSS3, sys, state0.y, T / 100, 5, starved)


@pytest.mark.parametrize("method", [GAUSS3, EQUIP3], ids=str)
def test_non_finite_update_is_divergence(method, cfg):
    # the updates are inf on the trapped calls; the stage solves are not.  The
    # window's update (call 2) fails, so its steps run again one at a time:
    # step 0 on calls 3 and 4, and step 1, whose update is call 6
    y0 = np.array([1.0, 0.0])
    with pytest.raises(Divergence, match="step 1"):
        integrate_fixed(method, trapped_system({2, 6}), y0, 0.1, 3, cfg)


def overflowing_system():
    """H = 0 and the force 0.85e308 everywhere.

    From y = (0, 1e308) at h = 1 the stages stay finite, so the stage solve
    converges on its second sweep, while the update p + h F overflows.
    """
    def energy(y):
        return np.zeros(np.shape(y)[:-1])

    return HamiltonianSystem(name="overflowing", half_dim=1, energy=energy,
                             force=lambda q: np.full(np.shape(q), 0.85e308),
                             invariants={"H": energy})


def test_an_overflowing_update_is_a_divergence_from_its_solve(cfg):
    # the stopping tests scale with 1 + |y|_inf, so these stages converge; the
    # solve that makes the infinite state reports it, with its sweeps
    sys, y, h = overflowing_system(), np.array([0.0, 1e308]), 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for step in (lambda: rk_step(build_gauss(3), sys, y, h, cfg),
                     lambda: equip_step(3, sys, y, h, cfg)):
            with pytest.raises(Divergence, match="non-finite step result") as exc:
                step()
            assert exc.value.sweeps == 2
        for method in (GAUSS3, EQUIP3):
            with pytest.raises(Divergence, match="step 0"):
                integrate_fixed(method, sys, y, h, 3, cfg)


@pytest.mark.parametrize("method", [GAUSS3, HBVM63, EQUIP3], ids=str)
def test_a_linear_problem_integrates_the_same_at_any_amplitude(method, harmonic, cfg):
    # both stopping tests of the stage solve scale with 1 + |y|_inf, so a
    # scaled start makes the same solves, and states scaled to round-off,
    # also where the divergence limit 1e8 (1 + |y|_inf) is past the largest
    # float.  EQUIP evaluates H = |y|^2 / 2, which overflows there
    sys, state0 = harmonic
    runs = {}
    for amplitude in (1.0, 1e9, 1e12, 1e100, *([] if method.kind == "equip" else [1e301])):
        sizes = []

        def solve(A, *args, **kwargs):
            sizes.append(len(A))
            return solve_stages(A, *args, **kwargs)

        with mock.patch.object(integrator, "solve_stages", solve):
            records = integrate_fixed(method, sys, amplitude * state0.y, 0.1, 40, cfg)
        runs[amplitude] = sizes, np.array([r.state.y for r in records]) / amplitude
    sizes_1, states_1 = runs[1.0]
    for amplitude, (sizes, states) in runs.items():
        assert sizes == sizes_1, amplitude
        np.testing.assert_allclose(states, states_1, rtol=0.0, atol=1e-14, err_msg=str(amplitude))


def test_drivers_reject_equip1_before_any_solve(cfg):
    # EQUIP(1) is not a method, so no driver can be handed one
    with pytest.raises(ValueError, match="equip:s=1"):
        MethodSpec("equip", 1)
    # and the EQUIP step builds its tableau before it touches the problem
    with pytest.raises(ValueError, match="equip:s=1"):
        equip_step(1, untouchable_system(), np.array([1.0, 0.0]), 0.1, cfg)


def test_equip_step_rejects_a_bad_count_of_steps(cfg):
    # a window of no steps, a count that is no integer, and an attempt of
    # more than one step are input errors, caught before any evaluation
    for steps, doubling in [(0, False), (-1, False), (2.5, False), (np.nan, False),
                            ("2", False), (0, True), (2, True)]:
        with pytest.raises(ValueError, match="^steps must be an integer >= 1"):
            equip_step(3, untouchable_system(), np.array([1.0, 0.0]), 0.1, cfg, 0.0,
                       steps=steps, doubling=doubling)


def test_equip_step_takes_a_count_of_steps(cfg):
    # steps = 1 is a step and more, as any integer type, a window of that
    # many; the solve has a state, alpha and flag per step and no times
    sys, state0 = kepler_system(0.6)
    h = T / 100
    window = equip_step(3, sys, state0.y, h, cfg, 0.0, steps=2)
    assert window.states.shape == (2, 4) and len(window.alphas) == len(window.flags) == 2
    same = equip_step(3, sys, state0.y, h, cfg, 0.0, steps=np.int64(2))
    np.testing.assert_array_equal(same.states, window.states)
    assert same[1:] == window[1:]
    step, one = equip_step(3, sys, state0.y, h, cfg), equip_step(3, sys, state0.y, h, cfg, steps=1)
    np.testing.assert_array_equal(step.states, one.states)
    assert step.states.shape == (1, 4)
    # steps is keyword-only: a call that passes a start time after
    # alpha_prev fails before any evaluation instead of running a window
    for t in (0.0, [0.0, h]):
        with pytest.raises(TypeError):
            equip_step(3, untouchable_system(), np.array([1.0, 0.0]), 0.1, cfg, 0.0, t)


ONE_STEP = {"rk_step": lambda sys, y, h, cfg: rk_step(build_gauss(3), sys, y, h, cfg),
            "equip_step": lambda sys, y, h, cfg: equip_step(3, sys, y, h, cfg)}
BAD_STATES = {"3": np.zeros(3), "1x2": np.zeros((1, 2)), "2x2": np.zeros((2, 2)),
              "nan": [1.0, np.nan]}


# the test is named for rk_step, so only equip_step's cases name their step
@pytest.mark.parametrize("step, y", [
    pytest.param(ONE_STEP[name], y, id=key if name == "rk_step" else f"{name}-{key}")
    for name in ONE_STEP for key, y in BAD_STATES.items()])
def test_rk_step_checks_its_state_as_the_drivers_do(step, y, cfg):
    # a wrongly shaped or non-finite state is the caller's error, raised
    # before the problem is evaluated, not a NumPy error or a Divergence
    with pytest.raises(ValueError, match=r"^y must be finite with shape \(2,\)"):
        step(untouchable_system(), y, 0.1, cfg)


def test_one_step_takes_a_list_state(cfg):
    # a list of the right shape is the ndarray state, bit for bit
    sys, state0 = kepler_system(0.6)
    listed, array = (ONE_STEP["rk_step"](sys, y, T / 100, cfg) for y in (list(state0.y), state0.y))
    np.testing.assert_array_equal(listed.state.y, array.state.y)
    assert listed.stage_iters == array.stage_iters
    listed, array = (ONE_STEP["equip_step"](sys, y, T / 100, cfg)
                     for y in (list(state0.y), state0.y))
    np.testing.assert_array_equal(listed.states, array.states)
    assert listed[1:] == array[1:]


@pytest.mark.parametrize("h", [0.0, -0.1, np.nan, np.inf])
def test_fixed_driver_rejects_bad_h_before_any_solve(h, cfg):
    with pytest.raises(ValueError, match=f"h={h}"):
        integrate_fixed(GAUSS3, untouchable_system(), np.array([1.0, 0.0]), h, 3, cfg)


@pytest.mark.parametrize("n_steps", [0, -1, 2.5, np.nan])
def test_fixed_driver_rejects_bad_n_steps_before_any_solve(n_steps, cfg):
    # a non-integer count used to escape as a TypeError from range
    with pytest.raises(ValueError, match=f"n_steps must be an integer >= 1.*n_steps={n_steps}"):
        integrate_fixed(GAUSS3, untouchable_system(), np.array([1.0, 0.0]), 0.1, n_steps, cfg)


def test_fixed_driver_determinism(cfg):
    sys, state0 = kepler_system(0.6)
    a = integrate_fixed(EQUIP3, sys, state0.y, T / 100, 25, cfg)
    b = integrate_fixed(EQUIP3, sys, state0.y, T / 100, 25, cfg)
    for ra, rb in zip(a, b):
        np.testing.assert_array_equal(ra.state.y, rb.state.y)
        assert ra.alpha == rb.alpha
        assert ra.stage_iters == rb.stage_iters


# ---------------------------------------------------------------------------
# error estimation and the adaptive driver


def test_step_doubling_error_tiny_on_linear_problem(harmonic, cfg):
    sys, state0 = harmonic
    assert step_doubling_error(MethodSpec("gauss", 3), sys, state0.y, 0.05, cfg) <= 1e-13


def test_step_doubling_error_order_scaling(cfg):
    sys, _ = kepler_system(0.6)
    y = kepler_reference(0.6, 1.0)
    hs = [0.2, 0.15, 0.1, 0.05]
    errs = [step_doubling_error(GAUSS3, sys, y, h, cfg) for h in hs]
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert abs(slope - 7) <= 0.7  # local order p + 1 with p = 6


def test_step_doubling_error_order_follows_method(cfg):
    # p comes from the method spec (2s), not a constant
    sys, _ = kepler_system(0.6)
    y = kepler_reference(0.6, 1.0)
    hs = [0.1, 0.05, 0.025]
    errs = [step_doubling_error(MethodSpec("gauss", 2), sys, y, h, cfg) for h in hs]
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert abs(slope - 5) <= 0.7  # p + 1 with p = 4


@settings(deadline=None, max_examples=60)
@given(r=st.floats(0.5, 2.0), theta=st.floats(0.0, T),
       p=st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2),
       h=st.floats(-0.1, 0.1), method=st.sampled_from([GAUSS3, HBVM63, HBVM123]))
def test_stacked_attempt_is_the_full_step_and_two_half_steps(r, theta, p, h, method):
    # one stacked solve for the full step and the composed two half-steps
    # gives the three rk_steps' result to the stage tolerance
    cfg = SolverConfig()
    sys, _ = kepler_system(0.6)
    y = np.array([r * np.cos(theta), r * np.sin(theta), *p])
    tab = build_tableau(method)
    full = rk_step(tab, sys, y, h, cfg)
    half = rk_step(tab, sys, y, h / 2, cfg)
    last = rk_step(tab, sys, half.state.y, h / 2, cfg, h / 2)
    attempt, _ = _stepper(method, sys, cfg, doubling=True)
    sol = attempt(y, h, 1, 0.0)
    bound = 2 * cfg.stage_tol * (1 + np.max(np.abs(y)))
    assert (sol.alphas, sol.flags, sol.alpha_iters) == ([0.0] * 3, [False] * 3, 0)
    assert np.max(np.abs(sol.states[-1] - last.state.y)) <= bound
    err = np.max(np.abs(full.state.y - last.state.y)) / (2.0 ** method.order - 1.0)
    assert abs(doubling_error(sol, method.order) - err) <= bound / (2.0 ** method.order - 1.0)


@settings(deadline=None, max_examples=40)
@given(r=st.floats(0.5, 2.0), theta=st.floats(0.0, T),
       p=st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2), h=st.floats(-0.1, 0.1))
@example(r=0.5, theta=0.0, p=[-1.0, 0.0], h=0.25)  # crosses the collision: both raise
def test_stacked_equip_attempt_is_three_sequential_equip_steps(r, theta, p, h):
    # the full step's and the first half-step's secants take the same alphas
    # as two sequential equip_steps, so those blocks match them to the stage
    # tolerance; the last block's secant starts from alpha_prev, not from the
    # half-step's alpha, so it may settle elsewhere in the band where its
    # |g| meets gtol, or at another root of g (1.2e-9 apart at h = -0.155 in
    # one sampled case): it is compared with the sequential last step at its
    # own alpha, which must meet that step's energy condition
    cfg = SolverConfig()
    sys, _ = kepler_system(0.6)
    y = np.array([r * np.cos(theta), r * np.sin(theta), *p])
    step, _ = _stepper(EQUIP3, sys, cfg)
    attempt, _ = _stepper(EQUIP3, sys, cfg, doubling=True)
    with stacked_evaluations() as evaluations:
        try:
            sol = attempt(y, h, 1, 0.0)
        except (NonConvergence, Divergence):
            with pytest.raises((NonConvergence, Divergence)):
                step(y, h, 1, 0.0)
                half = step(y, h / 2, 1, 0.0)
                step(half.states[0], h / 2, 1, half.alphas[0])
            return
    full = step(y, h, 1, 0.0)
    half = step(y, h / 2, 1, 0.0)
    last = step(half.states[0], h / 2, 1, half.alphas[0])
    assume(not (sol.flagged or full.flagged or half.flagged or last.flagged))
    (_, _, a_last), states = returned_evaluation(evaluations, sol)
    assert (sol.alphas[-1], sol.alpha_iters) == (a_last, len(evaluations[0]))
    bound = 2 * cfg.stage_tol * (1 + np.max(np.abs(y)))
    at_alpha = rk_step(build_equip_tableau(3, a_last), sys, half.states[0], h / 2, cfg)
    for stacked, sequential in zip(states, (full.states[0], half.states[0], at_alpha.state.y)):
        assert np.max(np.abs(stacked - sequential)) <= bound
    gtol = cfg.alpha_tol * (1 + abs(float(sys.energy(y))))
    grad = float(np.sum(np.abs(sys.gradient(half.states[0]))))
    dH = float(sys.energy(at_alpha.state.y) - sys.energy(half.states[0]))
    assert abs(dH) <= gtol + grad * bound
    err = np.max(np.abs(full.states[0] - at_alpha.state.y)) / (2.0 ** EQUIP3.order - 1.0)
    assert doubling_error(sol, EQUIP3.order) == pytest.approx(
        err, rel=5e-4, abs=2 * bound / (2.0 ** EQUIP3.order - 1.0))


def test_stacked_attempt_sweeps_no_more_than_its_full_step(monkeypatch, cfg):
    # regression guard: a sweep of the half-steps contracts about four times
    # more than one of the full step, so they converge within its sweeps; over
    # one period the 32 attempts take 254 sweeps (Gauss(3)) and 268
    # (HBVM(12,3)), where their three separate solves take 662 and 695
    attempts = []
    stepper = integrator._stepper

    def recording(method, sys, cfg, doubling=False):
        attempt, W = stepper(method, sys, cfg, doubling)

        def recorded(y, h, steps, alpha_prev):
            sol = attempt(y, h, steps, alpha_prev)
            attempts.append((y, h, sol.stage_iters))
            return sol
        return recorded, W

    monkeypatch.setattr(integrator, "_stepper", recording)
    sys, state0 = kepler_system(0.6)
    for method in (GAUSS3, HBVM123):
        attempts.clear()
        integrate_adaptive(method, sys, state0.y, [T], 1e-8, cfg)
        tab, three = build_tableau(method), 0
        for y, h, iters in attempts:
            full = rk_step(tab, sys, y, h, cfg)
            half = rk_step(tab, sys, y, h / 2, cfg)
            last = rk_step(tab, sys, half.state.y, h / 2, cfg)
            three += full.stage_iters + half.stage_iters + last.stage_iters
            assert iters <= full.stage_iters
        assert len(attempts) == 32
        assert sum(iters for *_, iters in attempts) <= 0.45 * three


def test_propose_factor_formula():
    assert propose_factor(1e-8, 1e-8, 6) == pytest.approx(0.9)
    assert propose_factor(0.0, 1e-8, 6) == 5.0
    assert propose_factor(1e-30, 1e-8, 6) == 5.0  # clamped growth
    assert propose_factor(1e8, 1e-8, 6) == pytest.approx(0.2)  # clamped shrink
    # the exponent is 1/(p+1)
    assert propose_factor(1e-9, 1e-8, 6) == pytest.approx(0.9 * 10 ** (1 / 7))


def test_adaptive_lands_exactly_and_respects_tol(cfg):
    sys, state0 = kepler_system(0.6)
    (recs,) = integrate_adaptive(GAUSS3, sys, state0.y, [T], 1e-8, cfg)
    assert recs[-1].state.t == T
    assert all(r.err_est <= 1e-8 for r in recs)
    # the trajectory is genuinely accurate at that tolerance
    err = np.linalg.norm(recs[-1].state.y - kepler_reference(0.6, T))
    assert err <= 1e-5


@pytest.mark.parametrize("method", [GAUSS3, EQUIP3], ids=str)
def test_adaptive_records_own_their_states(method, cfg):
    # a record's state is a copy, not a view of its attempt's (3, dim)
    # states, which would keep the full step and the first half-step alive
    sys, state0 = kepler_system(0.6)
    (recs,) = integrate_adaptive(method, sys, state0.y, [T], 1e-8, cfg)
    assert recs and all(r.state.y.base is None and r.state.y.shape == (4,) for r in recs)


def test_adaptive_stepsize_span_hard_orbit(cfg):
    sys, state0 = kepler_system(0.99)
    (recs,) = integrate_adaptive(GAUSS3, sys, state0.y, [5 * T], 1e-8, cfg)
    # the last record is the t_end landing step, shortened by construction
    hs = np.array([r.h for r in recs[:-1]])
    assert hs.max() / hs.min() >= 100  # at least two orders of magnitude
    assert hs.min() >= 1e-4 and hs.max() <= 1.0


def test_adaptive_min_step_abort(harmonic):
    sys, state0 = harmonic
    cfg = SolverConfig()
    with pytest.raises(MinStepReached,
                       match=r"^gauss:s=1 failed at t=.*, t_end=1: step rejected at h=1\.000e-08$"):
        integrate_adaptive(MethodSpec("gauss", 1), sys, state0.y, [1.0], 1e-30, cfg)


def test_adaptive_min_step_abort_after_persistent_solver_failure(cfg, first_h):
    # every field call is inf, so every attempt diverges and h halves to H_MIN
    with np.errstate(invalid="ignore"), pytest.raises(
            MinStepReached,
            match=r"^gauss:s=3 failed at t=0, t_end=1: solver failure persists at h=1\.000e-08$"):
        integrate_adaptive(GAUSS3, trapped_system(range(1, 10**6)), np.array([1.0, 0.0]),
                           [1.0], 1e-8, cfg)


@pytest.mark.parametrize("method", [GAUSS3, EQUIP3], ids=str)
def test_adaptive_halves_h_after_non_finite_update(method, cfg, first_h):
    # the first attempt's first update (field call 2, after a one-sweep
    # stage solve) is inf
    y0 = np.array([1.0, 0.0])
    (recs,) = integrate_adaptive(method, trapped_system({2}), y0, [1.0], 1e-8, cfg)
    assert recs[0].h == 0.25
    assert recs[-1].state.t == 1.0
    np.testing.assert_array_equal(recs[-1].state.y, y0)


def test_adaptive_halves_h_after_an_attempt_backs_off(cfg, monkeypatch):
    # from this state an evaluation after the first of the EQUIP attempt of
    # h = 0.25 fails its stage solve, and the attempt raises; the controller
    # retries it at h / 2
    sys, _ = kepler_system(0.6)
    y0 = np.array([0.5, 0.0, 0.0758, 1.0])
    with pytest.raises(NonConvergence, match=r"h=0\.25\)"):
        equip_step(3, sys, y0, 0.25, cfg, doubling=True)
    monkeypatch.setattr(integrator, "initial_stepsize", lambda sys, y0: 0.25)
    (recs,) = integrate_adaptive(EQUIP3, sys, y0, [0.25], 1e-5, cfg)
    assert recs[0].h == 0.125 and recs[-1].state.t == 0.25


def test_adaptive_determinism(cfg):
    sys, state0 = kepler_system(0.6)
    (a,) = integrate_adaptive(EQUIP3, sys, state0.y, [T], 1e-8, cfg)
    (b,) = integrate_adaptive(EQUIP3, sys, state0.y, [T], 1e-8, cfg)
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        np.testing.assert_array_equal(ra.state.y, rb.state.y)
        assert ra.h == rb.h and ra.err_est == rb.err_est


def test_equip_full_step_never_hides_its_error_from_the_controller(cfg):
    # a full EQUIP step whose secant failed used to retry itself as the
    # attempt's own two halves, so err_est was 0.0 and h grew fivefold, to
    # more than two periods per step here, and the run ended 1.19 off
    sys, state0 = kepler_system(0.6)
    (recs,) = integrate_adaptive(EQUIP3, sys, state0.y, [10 * T], 1e-8, cfg)
    assert all(r.err_est > 0.0 for r in recs)
    assert np.max(np.abs(recs[-1].state.y - kepler_reference(0.6, 10 * T))) <= 1e-5


def test_drift_campaign_has_no_zero_error_estimate(drift_campaign):
    _, _, data = drift_campaign
    for method, (per, _) in data.items():
        assert all(r.err_est > 0.0 for recs in per for r in recs), method


def test_drift_campaign_stacked_attempts_keep_every_step_for_fewer_sweeps(drift_campaign):
    # accepted steps and summed stage iterations per method; one stacked solve
    # per Gauss or HBVM attempt takes 9307 and 7775 iterations, where three
    # separate solves took 25,204 and 20,857 for the same steps; EQUIP's
    # stacked attempts are pinned exactly (its three sequential steps took
    # 77,849 stage iterations and 16,565 evaluations), with none flagged.
    # Near periapsis three attempts end their secants on a failed
    # evaluation, and the controller halves h after each of them as after a
    # solve that raised
    _, _, data = drift_campaign

    def totals(method):
        recs = [r for recs in data[method][0] for r in recs]
        return len(recs), sum(r.stage_iters for r in recs), sum(r.alpha_iters for r in recs)

    gauss, hbvm = totals("gauss:s=3"), totals("hbvm:k=12,s=3")
    assert gauss[0] == 1380 and gauss[1] <= 9800
    assert hbvm[0] == 1080 and hbvm[1] <= 8200
    assert totals("equip:s=3") == (1323, 34_001, 6560)
    assert not any(r.flagged for recs in data["equip:s=3"][0] for r in recs)


def test_adaptive_validates_inputs(harmonic, cfg):
    # an infinite tol would accept every attempt unchecked; bad stops are the
    # property below
    sys, state0 = harmonic
    for tol in (-1e-8, 0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match=f"got {tol}"):
            integrate_adaptive(GAUSS3, sys, state0.y, [1.0], tol, cfg)


positive = st.floats(0.0, 10.0, exclude_min=True)
positive_stops = st.lists(positive, max_size=3)
bad_stops = st.one_of(
    st.just([]),
    # a start at or before t = 0, -inf included: that one used to spin forever
    st.builds(lambda first, rest: [first, *rest], st.floats(max_value=0.0), positive_stops),
    st.lists(positive, min_size=2, max_size=4).filter(
        lambda xs: any(a >= b for a, b in zip(xs, xs[1:]))),
    st.builds(lambda xs, bad, i: xs[:i] + [bad] + xs[i:], positive_stops,
              st.sampled_from([np.nan, np.inf, -np.inf]), st.integers(0, 3)),
)


@given(stops=bad_stops)
def test_adaptive_rejects_bad_stops_before_any_evaluation(stops):
    # an infinite stop would never return and a NaN one would return no steps
    with pytest.raises(ValueError, match="t_stops"):
        integrate_adaptive(GAUSS3, untouchable_system(), np.array([1.0, 0.0]), stops, 1e-8,
                           SolverConfig())


@settings(deadline=None, max_examples=30,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(stops=st.lists(positive, min_size=1, max_size=4, unique=True).map(sorted))
def test_adaptive_lands_on_every_stop(stops, harmonic):
    sys, state0 = harmonic
    runs = integrate_adaptive(GAUSS3, sys, state0.y, stops, 1e-8, SolverConfig())
    assert [recs[-1].state.t for recs in runs] == stops
    # and the state there is the solution (cos t, -sin t) at the stop
    for stop, recs in zip(stops, runs):
        np.testing.assert_allclose(recs[-1].state.y, [np.cos(stop), -np.sin(stop)], atol=1e-6)


def test_initial_stepsize_clamps(harmonic):
    sys, state0 = harmonic
    assert initial_stepsize(sys, state0.y) == pytest.approx(0.1)
    # a huge field cannot push the first guess below H_MIN
    fast = HamiltonianSystem(name="fast", half_dim=1, energy=sys.energy,
                             force=lambda q: 1e12 * sys.force(q), invariants=sys.invariants)
    assert initial_stepsize(fast, state0.y) == H_MIN
    # nor can a NaN one (Python's max would keep the NaN)
    assert initial_stepsize(trapped_system({1}, np.nan), state0.y) == H_MIN


def test_start_outside_the_domain_is_a_divergence(cfg):
    # the first field call of an adaptive run is initial_stepsize's, at y0
    sys, _ = kepler_system(0.6)
    y0 = np.array([0.0, 0.0, 0.0, 1.0])
    with pytest.raises(Divergence, match="vector field domain error"):
        initial_stepsize(sys, y0)
    with pytest.raises(Divergence,
                       match="^gauss:s=3 failed at t=0, t_end=1: vector field domain error"):
        integrate_adaptive(GAUSS3, sys, y0, [1.0], 1e-8, cfg)


# the two kinds of start the drivers refuse: the right shape with a NaN or
# infinite entry, and finite entries in any other shape
bad_y0 = st.one_of(
    st.builds(lambda y, bad, i: np.insert(y, i, bad),
              hnp.arrays(float, 1, elements=st.floats(-1e3, 1e3)),
              st.sampled_from([np.nan, np.inf, -np.inf]), st.integers(0, 1)),
    hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3)
    .filter(lambda shape: shape != (2,))
    .flatmap(lambda shape: hnp.arrays(float, shape, elements=st.floats(-1e3, 1e3))),
)
run_from = {
    "fixed": lambda method, y0: integrate_fixed(method, untouchable_system(), y0, 0.1, 3,
                                                SolverConfig()),
    "adaptive": lambda method, y0: integrate_adaptive(method, untouchable_system(), y0, [1.0],
                                                      1e-8, SolverConfig()),
}


@pytest.mark.parametrize("method", [GAUSS3, EQUIP3], ids=str)
@pytest.mark.parametrize("driver", run_from)
@given(y0=bad_y0)
def test_drivers_reject_a_bad_start_before_any_evaluation(driver, method, y0):
    # a NaN start used to escape from inside the stage solve, an infinite
    # Kepler start to warn mid-step, and a (1, 2) start to run with 2-D states
    with pytest.raises(ValueError, match="y0 must be finite with shape \\(2,\\)"):
        run_from[driver](method, y0)


STARVED = SolverConfig(max_stage_iters=2)
ORIGIN = np.array([0.0, 0.0, 0.0, 1.0])  # Kepler's field is undefined there


def kepler(e=0.6):
    sys, state0 = kepler_system(e)
    return sys, state0.y


def persistent_failure(method):
    # every field call is inf, so every attempt diverges and h halves to H_MIN
    with np.errstate(invalid="ignore"):
        integrate_adaptive(method, trapped_system(range(1, 10**6)), np.array([1.0, 0.0]),
                           [1.0], 1e-8, SolverConfig())


# (case, the error that escapes, the run, the methods it fails for)
failing_runs = [
    ("fixed-starved", NonConvergence,
     lambda m: integrate_fixed(m, *kepler(), T / 100, 5, STARVED), (GAUSS3, EQUIP3)),
    ("study-starved", NonConvergence,
     lambda m: convergence_study([m], 0.6, 1, [T / 50], STARVED), (GAUSS3, EQUIP3)),
    ("periods-starved", MinStepReached,
     lambda m: run_adaptive_periods(m, *kepler(0.3), 3, 1e-8, SolverConfig(max_stage_iters=1)),
     (GAUSS3, EQUIP3)),
    ("adaptive-persistent-failure", MinStepReached, persistent_failure, (GAUSS3, EQUIP3)),
    # a NaN field gives the first attempt h = H_MIN, not a NaN h
    ("adaptive-nan-field", MinStepReached,
     lambda m: integrate_adaptive(m, trapped_system(range(1, 10**6), np.nan),
                                  np.array([1.0, 0.0]), [1.0], 1e-8, SolverConfig()),
     (GAUSS3, EQUIP3)),
    ("adaptive-tol-1e-30", MinStepReached,
     lambda m: integrate_adaptive(m, *kepler(), [1.0], 1e-30, SolverConfig()),
     (MethodSpec("gauss", 1), GAUSS3, EQUIP3)),
    ("fixed-origin", Divergence,
     lambda m: integrate_fixed(m, kepler()[0], ORIGIN, 0.1, 3, SolverConfig()),
     (GAUSS3, EQUIP3)),
    ("adaptive-origin", Divergence,
     lambda m: integrate_adaptive(m, kepler()[0], ORIGIN, [1.0], 1e-8, SolverConfig()),
     (GAUSS3, EQUIP3)),
    ("periods-origin", Divergence,
     lambda m: run_adaptive_periods(m, kepler()[0], ORIGIN, 3, 1e-8, SolverConfig()),
     (GAUSS3, EQUIP3)),
]


@pytest.mark.filterwarnings("error")  # a failing run fails cleanly, without warnings
@pytest.mark.parametrize("error, run, method", [
    pytest.param(error, run, method, id=f"{name}-{method}")
    for name, error, run, methods in failing_runs for method in methods])
def test_an_escaping_failure_names_the_method_once(error, run, method):
    with pytest.raises(error) as excinfo:
        run(method)
    assert str(excinfo.value).count(str(method)) == 1, str(excinfo.value)


@pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf])
def test_non_finite_start_alpha_is_rejected_before_any_evaluation(alpha, cfg):
    # a NaN start used to run steps that fell back flagged, an infinite one
    # to overflow in the tableau product; the first tableau build rejects it
    sys, y0 = untouchable_system(), np.array([1.0, 0.0])
    with pytest.raises(ValueError, match=f"^alpha must be finite, got alpha={alpha}$"):
        equip_step(3, sys, y0, 0.1, cfg, alpha_prev=alpha)


# ---------------------------------------------------------------------------
# quadratic invariants along fixed-step runs


def test_symplectic_methods_preserve_angular_momentum(cfg):
    sys, state0 = kepler_system(0.6)
    L0 = float(angular_momentum(state0.y))
    for method in (GAUSS3, EQUIP3):
        recs = integrate_fixed(method, sys, state0.y, T / 50, 100, cfg)
        ys = np.stack([r.state.y for r in recs])
        assert np.max(np.abs(angular_momentum(ys) - L0)) <= 1e-11


def test_hbvm_momentum_error_independent_of_k(cfg):
    sys, state0 = kepler_system(0.6)
    L0 = float(angular_momentum(state0.y))
    devs = {}
    for k in (6, 9, 12):
        recs = integrate_fixed(MethodSpec("hbvm", 3, k), sys, state0.y, T / 70, 140, cfg)
        ys = np.stack([r.state.y for r in recs])
        devs[k] = np.max(np.abs(angular_momentum(ys) - L0))
    assert devs[9] / devs[6] <= 1.5 and devs[6] / devs[9] <= 1.5
    assert devs[12] / devs[6] <= 1.5 and devs[6] / devs[12] <= 1.5
