import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geork import integrator
from geork.dynamics import (
    DomainError, HamiltonianSystem, angular_momentum, canonical_field, kepler_reference,
    kepler_system, quartic_oscillator,
)
from geork.integrator import (
    H_MIN,
    Divergence,
    MinStepReached,
    NonConvergence,
    SolverConfig,
    _attempt_step,
    _stepper,
    equip_step,
    initial_stepsize,
    integrate_adaptive,
    integrate_fixed,
    propose_factor,
    rk_step,
    solve_stages,
)
from geork.tableau import MethodSpec, build_equip_tableau, build_gauss, build_hbvm

T = 2 * np.pi

GAUSS3 = MethodSpec("gauss", 3)
EQUIP3 = MethodSpec("equip", 3)


def stage_residual(tab, sys, y, h, Y):
    F = canonical_field(sys, Y)
    return float(np.max(np.abs(Y - (y + h * tab.A @ F))))


def trapped_system(traps, value=np.inf):
    """H = 0, so the field vanishes, except that it is value on the calls in traps.

    A zero field converges the stage solve on its first iteration, so each
    step evaluates the field twice: the stage solve on odd calls (1, 3, ...)
    and the update y + h sum b_i f(Y_i) on even calls (2, 4, ...).
    """
    calls = itertools.count(1)

    def field(y):
        y = np.asarray(y, dtype=float)
        return np.full_like(y, value if next(calls) in traps else 0.0)

    def energy(y):
        return np.zeros(np.shape(y)[:-1])

    return HamiltonianSystem(name="trapped", half_dim=1, energy=energy,
                             field=field, invariants={"H": energy})


def untouchable_system():
    """A problem whose every evaluation fails the test."""
    def untouchable(y):
        raise AssertionError("the problem was evaluated")

    return HamiltonianSystem(name="untouchable", half_dim=1, energy=untouchable,
                             field=untouchable, invariants={"H": untouchable})


def step_doubling_error(method, sys, y, h, cfg):
    """The controller's error estimate for one attempt of size h from y."""
    return _attempt_step(_stepper(method, sys, cfg), method.order, y, h, 0.0, 0.0).err_est


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


@pytest.mark.parametrize("alpha", [1e-4, 0.25])
def test_warm_start_meets_residual_contract(alpha, cfg):
    # periapsis at e = 0.6, the hardest point of the orbit for the iteration
    sys, state0 = kepler_system(0.6)
    y, h = state0.y, T / 50
    tol = cfg.stage_tol * (1 + np.max(np.abs(y)))
    Y0, _ = solve_stages(build_equip_tableau(3, 0.0), sys, y, h, cfg)
    tab = build_equip_tableau(3, alpha)
    cold, cold_iters = solve_stages(tab, sys, y, h, cfg)
    warm, warm_iters = solve_stages(tab, sys, y, h, cfg, Y0)
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


def test_nonconvergence_signalled(cfg):
    sys, state0 = kepler_system(0.6)
    starved = SolverConfig(max_stage_iters=2)
    with pytest.raises(NonConvergence):
        solve_stages(build_gauss(3), sys, state0.y, T / 100, starved)


@pytest.mark.parametrize("value", [np.inf, np.nan, 1e12])
def test_stage_solve_divergence_on_blown_up_iterate(value, cfg):
    # field call 1 is the stage solve's first iteration; its residual is
    # inf, NaN (inf - inf in the matmul) or far beyond the divergence limit
    with np.errstate(invalid="ignore"), pytest.raises(Divergence, match="diverged"):
        solve_stages(build_gauss(2), trapped_system({1}, value), np.array([1.0, 0.0]),
                     0.1, cfg)


def test_solver_config_validation():
    # an infinite alpha_tol would accept EQUIP's first secant evaluation
    # unflagged, a NaN stage_tol would run every stage solve to its budget
    for name in ("stage_tol", "alpha_tol"):
        for value in (0.0, -1e-13, np.nan, np.inf):
            with pytest.raises(ValueError, match=name):
                SolverConfig(**{name: value})
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


@settings(deadline=None)
@given(s=st.integers(1, 6), alpha=st.floats(-0.2, 0.2), h=st.floats(0.005, 0.1),
       t=st.floats(0.0, T))
def test_gauss_reversibility(s, alpha, h, t):
    # EQUIP(s, alpha) is symmetric for every alpha (alpha = 0 is Gauss(s)):
    # A + P A P = 1 b^T with P the node reversal, so stepping back by -h
    # returns to the start up to the stage tolerance
    cfg = SolverConfig()
    sys, _ = kepler_system(0.6)
    tab = build_equip_tableau(s, alpha)
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


def test_domain_error_is_a_divergence_the_controller_retries(harmonic, cfg):
    # the field leaves its domain on call 2, the first attempt's second
    # stage iteration; the controller halves h and carries on
    sys, state0 = harmonic
    calls = itertools.count(1)

    def field(y):
        if next(calls) == 2:
            raise DomainError("outside the domain")
        return sys.field(y)

    edgy = HamiltonianSystem(name="edgy", half_dim=1, energy=sys.energy, field=field,
                             invariants=sys.invariants)
    with pytest.raises(Divergence, match="vector field domain error"):
        rk_step(build_gauss(2), edgy, state0.y, 0.1, cfg)
    calls = itertools.count(1)
    recs = integrate_adaptive(GAUSS3, edgy, state0.y, t_end=1.0, tol=1e-8, cfg=cfg, h0=0.5)
    assert recs[-1].state.t == 1.0


def test_equip_secant_with_a_flat_energy_falls_back_flagged(cfg):
    # y_next = y + h (1, 0) for every alpha, so g = H(y_next) - H(y) = h never
    # moves: the secant denominator is zero at every halving depth
    def energy(y):
        return np.asarray(y, dtype=float)[..., 0]

    flat = HamiltonianSystem(name="flat", half_dim=1, energy=energy,
                             field=lambda y: np.broadcast_to([1.0, 0.0], np.shape(y)),
                             invariants={"H": energy})
    rec = equip_step(3, flat, np.array([0.0, 0.0]), 0.1, cfg)
    assert rec.flagged
    assert rec.state.t == pytest.approx(0.1)
    np.testing.assert_allclose(rec.state.y, [0.1, 0.0], atol=1e-15)


def test_equip_failed_stage_solve_halves_but_non_finite_update_escapes(cfg):
    # field call 1 is the first secant evaluation's stage solve: it diverges,
    # so the step is retried as two half-steps of one evaluation each
    y0 = np.array([1.0, 0.0])
    with np.errstate(invalid="ignore"):
        rec = equip_step(3, trapped_system({1}), y0, 0.1, cfg)
    assert rec.state.t == pytest.approx(0.1)
    assert (rec.alpha_iters, rec.stage_iters, rec.flagged) == (2, 2, False)
    np.testing.assert_array_equal(rec.state.y, y0)
    # field call 3 is the first half-step's update; a non-finite step result
    # is not a failed secant evaluation and leaves the step
    with np.errstate(invalid="ignore"), pytest.raises(Divergence, match="non-finite"):
        equip_step(3, trapped_system({1, 3}), y0, 0.1, cfg)


# ---------------------------------------------------------------------------
# fixed driver


def test_steps_look_the_field_up_as_integrator_canonical_field(monkeypatch, cfg):
    # the benchmark's tracer counts field evaluations by wrapping this name;
    # a step that called sys.field directly would hide them from it
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
    rec = equip_step(3, sys, state0.y, T / 100, cfg)
    assert rec.alpha_iters > 1 and not rec.flagged
    assert len(calls) == rec.stage_iters + rec.alpha_iters


def test_equip_looks_up_its_step_and_tableau_as_integrator_names(monkeypatch, cfg):
    # the benchmark's tracer counts alpha evaluations by wrapping
    # integrator.build_equip_tableau and halvings by wrapping
    # integrator.equip_step, whose nested calls are the half-steps; a half-step
    # that called equip_step through a name bound at import would hide them
    calls = {"equip_step": 0, "build_equip_tableau": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(integrator, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(integrator, name, counted)
    sys, state0 = kepler_system(0.6)
    rec = integrator.equip_step(3, sys, state0.y, T / 100, cfg)
    assert not rec.flagged and rec.alpha_iters == 4
    assert calls == {"equip_step": 1, "build_equip_tableau": 4}
    # a starved step halves down to depth 5; each flagged leaf builds its
    # alpha = 0 tableau once more
    calls.update(equip_step=0, build_equip_tableau=0)
    starved = SolverConfig(alpha_tol=1e-30, max_alpha_iters=1)
    rec = integrator.equip_step(3, sys, state0.y, T / 100, starved)
    assert rec.flagged
    assert calls == {"equip_step": 55, "build_equip_tableau": 55 + 16}


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


def quartic_energy_drift(s, k, h, cfg, n=50):
    """Max |H - H0| over n HBVM(k, s) steps on the quartic, and the exactness bound.

    When k >= poly_degree * s / 2 = 2s the method conserves the quartic energy
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
    k = quartic_oscillator()[0].poly_degree * s // 2 + extra
    drift, bound = quartic_energy_drift(s, k, h, SolverConfig())
    assert drift <= bound


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
    # the update of step 1 (field call 4) is inf; the stage solves are not
    y0 = np.array([1.0, 0.0])
    with pytest.raises(Divergence, match="step 1"):
        integrate_fixed(method, trapped_system({4}), y0, 0.1, 3, cfg)


def test_drivers_reject_equip1_before_any_solve(cfg):
    sys = untouchable_system()
    y0 = np.array([1.0, 0.0])
    equip1 = MethodSpec("equip", 1)
    with pytest.raises(ValueError, match="equip:s=1"):
        integrate_fixed(equip1, sys, y0, 0.1, 3, cfg)
    with pytest.raises(ValueError, match="equip:s=1"):
        integrate_adaptive(equip1, sys, y0, 1.0, 1e-8, cfg)
    # so does the EQUIP step itself
    with pytest.raises(ValueError, match="equip:s=1"):
        equip_step(1, sys, y0, 0.1, cfg)


@pytest.mark.parametrize("h", [0.0, -0.1, np.nan, np.inf])
def test_fixed_driver_rejects_bad_h_before_any_solve(h, cfg):
    with pytest.raises(ValueError, match=f"h={h}"):
        integrate_fixed(GAUSS3, untouchable_system(), np.array([1.0, 0.0]), h, 3, cfg)


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
    with pytest.raises(MinStepReached, match="step rejected at h=1.000e-08, t="):
        integrate_adaptive(MethodSpec("gauss", 1), sys, state0.y, 1.0, 1e-30, cfg)


def test_adaptive_min_step_abort_after_persistent_solver_failure(cfg):
    # every field call is inf, so every attempt diverges and h halves to H_MIN
    with np.errstate(invalid="ignore"), \
            pytest.raises(MinStepReached, match="solver failure persists at h=1.000e-08, t=0"):
        integrate_adaptive(GAUSS3, trapped_system(range(1, 10**6)), np.array([1.0, 0.0]),
                           1.0, 1e-8, cfg, h0=0.5)


@pytest.mark.parametrize("method", [GAUSS3, EQUIP3], ids=str)
def test_adaptive_halves_h_after_non_finite_update(method, cfg):
    # the first attempt's full step (field calls 1, 2) has an inf update
    y0 = np.array([1.0, 0.0])
    recs = integrate_adaptive(method, trapped_system({2}), y0, 1.0, 1e-8, cfg, h0=0.5)
    assert recs[0].h == 0.25
    assert recs[-1].state.t == 1.0
    np.testing.assert_array_equal(recs[-1].state.y, y0)


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
    # an infinite t_end would never return and a NaN one would return no steps;
    # an infinite tol would accept every attempt unchecked
    for t_end, tol in ((1.0, -1e-8), (0.0, 1e-8), (np.nan, 1e-8), (np.inf, 1e-8),
                       (1.0, np.nan), (1.0, np.inf)):
        with pytest.raises(ValueError):
            integrate_adaptive(GAUSS3, sys, state0.y, t_end, tol, cfg)


@pytest.mark.parametrize("h0", [0.0, -1.0, np.nan, np.inf])
def test_adaptive_rejects_bad_h0_before_any_evaluation(h0, cfg):
    # clamping a caller's h0 into [H_MIN, t_end - t0] would hide the mistake
    with pytest.raises(ValueError, match=f"h0={h0}"):
        integrate_adaptive(GAUSS3, untouchable_system(), np.array([1.0, 0.0]), 1.0, 1e-8,
                           cfg, h0=h0)


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
