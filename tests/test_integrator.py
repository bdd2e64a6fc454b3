import numpy as np
import pytest

from geork.dynamics import angular_momentum, canonical_field, kepler_reference, kepler_system, quartic_oscillator
from geork.integrator import (
    H_MIN,
    MinStepReached,
    NonConvergence,
    SolverConfig,
    _attempt_step,
    equip_step,
    initial_stepsize,
    integrate_adaptive,
    integrate_fixed,
    propose_factor,
    rk_step,
    solve_stages,
)
from geork.tableau import MethodSpec, build_gauss, build_hbvm, build_tableau

T = 2 * np.pi

GAUSS3 = MethodSpec("gauss", 3)
EQUIP3 = MethodSpec("equip", 3)


def stage_residual(tab, sys, y, h, Y):
    F = canonical_field(sys, Y)
    return float(np.max(np.abs(Y - (y + h * tab.A @ F))))


def step_doubling_error(method, sys, y, h, cfg):
    """The controller's error estimate for one attempt of size h from y."""
    _, err, _ = _attempt_step(method, build_tableau(method), sys, y, h, cfg, 0.0, 0.0)
    return err


# ---------------------------------------------------------------------------
# stage solver


def test_midpoint_linear_stage_solve(harmonic, cfg):
    sys, state0 = harmonic
    tab = build_gauss(1)
    Y, iters = solve_stages(tab, sys, state0.y, 0.5, cfg)
    assert stage_residual(tab, sys, state0.y, 0.5, Y) <= 1e-13
    # fixed point of the affine map: Y = y + (h/2) J Y
    h = 0.5
    M = np.eye(2) - (h / 2) * np.array([[0.0, 1.0], [-1.0, 0.0]])
    np.testing.assert_allclose(Y[0], np.linalg.solve(M, state0.y), atol=1e-13)


def test_zero_step_returns_start(harmonic, cfg):
    sys, state0 = harmonic
    Y, iters = solve_stages(build_gauss(1), sys, state0.y, 0.0, cfg)
    np.testing.assert_array_equal(Y, np.tile(state0.y, (1, 1)))
    assert iters <= 1


def test_kepler_stage_iterations_budget(cfg):
    # regression: fixed point converges comfortably at the benchmark stepsize
    sys, state0 = kepler_system(0.6)
    Y, iters = solve_stages(build_gauss(3), sys, state0.y, T / 200, cfg)
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
    Y, _ = solve_stages(tab, sys, y, h, cfg)
    limit = 2 * cfg.stage_tol * (1 + np.max(np.abs(y)))
    assert stage_residual(tab, sys, y, h, Y) <= limit


def test_nonconvergence_signalled(cfg):
    sys, state0 = kepler_system(0.6)
    starved = SolverConfig(max_stage_iters=2)
    with pytest.raises(NonConvergence):
        solve_stages(build_gauss(3), sys, state0.y, T / 100, starved)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(stage_tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_alpha_iters=0)


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
    f0 = canonical_field(sys, state0.y)
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


def test_gauss_reversibility(cfg):
    sys, _ = kepler_system(0.6)
    rng = np.random.default_rng(17)
    for s in (2, 3):
        tab = build_gauss(s)
        for t in rng.uniform(0, T, size=3):
            y = kepler_reference(0.6, t)
            fwd = rk_step(tab, sys, y, 0.05, cfg)
            back = rk_step(tab, sys, fwd.state.y, -0.05, cfg)
            assert np.max(np.abs(back.state.y - y)) <= 10 * cfg.stage_tol


# ---------------------------------------------------------------------------
# EQUIP steps


def test_equip_alpha_vanishes_on_quadratic_energy(harmonic, cfg):
    sys, state0 = harmonic
    rec = equip_step(3, sys, state0.y, 0.3, cfg)
    assert abs(rec.alpha) <= 1e-8
    assert not rec.flagged


def test_equip_step_energy_contract(cfg):
    sys, state0 = kepler_system(0.6)
    H0 = float(sys.energy(state0.y))
    rec = equip_step(3, sys, state0.y, T / 100, cfg)
    assert abs(float(sys.energy(rec.state.y)) - H0) <= 1e-12 * (1 + abs(H0))
    assert abs(rec.alpha) <= 1e-2  # regression bound at this stepsize
    assert rec.alpha_iters <= 25


def test_equip_period_conserves_angular_momentum(cfg):
    sys, state0 = kepler_system(0.6)
    L0 = float(angular_momentum(state0.y))
    recs = integrate_fixed(EQUIP3, sys, state0.y, T / 100, 100, cfg)
    for rec in recs:
        assert abs(float(angular_momentum(rec.state.y)) - L0) <= 1e-12
    assert not any(r.flagged for r in recs)


def test_equip_flagged_fallback():
    # an unreachable alpha tolerance with a one-evaluation budget fails the
    # root solve at every halving depth; the step must still complete, flagged,
    # as 32 plain alpha = 0 substeps (quadratic energies are excluded here
    # because they can satisfy even an absurd tolerance exactly)
    sys, state0 = kepler_system(0.6)
    starved = SolverConfig(alpha_tol=1e-30, max_alpha_iters=1)
    h = 2.0
    rec = equip_step(3, sys, state0.y, h, starved)
    assert rec.flagged
    assert rec.alpha == 0.0
    assert rec.state.t == pytest.approx(h)
    plain = integrate_fixed(GAUSS3, sys, state0.y, h / 32, 32, SolverConfig(alpha_tol=1e-30))
    np.testing.assert_allclose(rec.state.y, plain[-1].state.y, atol=1e-12)


# ---------------------------------------------------------------------------
# fixed driver


def test_single_step_matches_driver(cfg):
    sys, state0 = kepler_system(0.6)
    recs = integrate_fixed(GAUSS3, sys, state0.y, 0.1, 1, cfg)
    direct = rk_step(build_gauss(3), sys, state0.y, 0.1, cfg)
    assert len(recs) == 1
    np.testing.assert_array_equal(recs[0].state.y, direct.state.y)


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


def test_fixed_driver_reports_failing_step(cfg):
    sys, state0 = kepler_system(0.6)
    starved = SolverConfig(max_stage_iters=2)
    with pytest.raises(NonConvergence, match="step 0"):
        integrate_fixed(GAUSS3, sys, state0.y, T / 100, 5, starved)


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


def test_propose_factor_formula():
    assert propose_factor(1e-8, 1e-8, 6) == pytest.approx(0.9)
    assert propose_factor(0.0, 1e-8, 6) == 5.0
    assert propose_factor(1e-30, 1e-8, 6) == 5.0  # clamped growth
    assert propose_factor(1e8, 1e-8, 6) == pytest.approx(0.2)  # clamped shrink
    # the exponent is 1/(p+1)
    assert propose_factor(1e-9, 1e-8, 6) == pytest.approx(0.9 * 10 ** (1 / 7))


def test_adaptive_lands_exactly_and_respects_tol(cfg):
    sys, state0 = kepler_system(0.6)
    recs = integrate_adaptive(GAUSS3, sys, state0.y, T, 1e-8, cfg)
    assert recs[-1].state.t == T
    assert all(r.err_est <= 1e-8 for r in recs)
    assert all(r.accepted for r in recs)
    # the trajectory is genuinely accurate at that tolerance
    err = np.linalg.norm(recs[-1].state.y - kepler_reference(0.6, T))
    assert err <= 1e-5


def test_adaptive_stepsize_span_hard_orbit(cfg):
    sys, state0 = kepler_system(0.99)
    recs = integrate_adaptive(GAUSS3, sys, state0.y, 5 * T, 1e-8, cfg)
    # the last record is the t_end landing step, shortened by construction
    hs = np.array([r.h for r in recs[:-1]])
    assert hs.max() / hs.min() >= 100  # at least two orders of magnitude
    assert hs.min() >= 1e-4 and hs.max() <= 1.0


def test_adaptive_min_step_abort(harmonic):
    sys, state0 = harmonic
    cfg = SolverConfig()
    with pytest.raises(MinStepReached):
        integrate_adaptive(MethodSpec("gauss", 1), sys, state0.y, 1.0, 1e-30, cfg)


def test_adaptive_determinism(cfg):
    sys, state0 = kepler_system(0.6)
    a = integrate_adaptive(EQUIP3, sys, state0.y, T, 1e-8, cfg)
    b = integrate_adaptive(EQUIP3, sys, state0.y, T, 1e-8, cfg)
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        np.testing.assert_array_equal(ra.state.y, rb.state.y)
        assert ra.h == rb.h and ra.err_est == rb.err_est


def test_adaptive_validates_inputs(harmonic, cfg):
    sys, state0 = harmonic
    with pytest.raises(ValueError):
        integrate_adaptive(GAUSS3, sys, state0.y, 1.0, -1e-8, cfg)
    with pytest.raises(ValueError):
        integrate_adaptive(GAUSS3, sys, state0.y, 0.0, 1e-8, cfg)


def test_initial_stepsize_clamps(harmonic):
    sys, state0 = harmonic
    h = initial_stepsize(sys, state0.y, 10.0)
    assert H_MIN <= h <= 10.0


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
