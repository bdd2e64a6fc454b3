import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from geork import integrator
from geork.dynamics import (
    DomainError, HamiltonianSystem, angular_momentum, kepler_reference, kepler_system,
    quartic_oscillator,
)
from geork.experiments import convergence_study, run_adaptive_periods
from geork.integrator import (
    H_MIN,
    Divergence,
    MinStepReached,
    NonConvergence,
    SolverConfig,
    _attempt_step,
    _stepper,
    canonical_field,
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
    """H = 0 and a zero force, except that the force is value on the calls in traps.

    From a start at rest (p = 0) the field vanishes, which converges the
    stage solve on its first iteration, so each step evaluates the field
    twice: the stage solve on odd calls (1, 3, ...) and the update
    y + h sum b_i f(Y_i) on even calls (2, 4, ...).
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


@pytest.mark.parametrize("tab_builder, budget", [
    (lambda: build_gauss(3), 8),
    (lambda: build_hbvm(12, 3), 8),
    (lambda: build_equip_tableau(3, 0.05), 9),
])
def test_partitioned_sweep_iteration_count(tab_builder, budget, harmonic, cfg):
    # updating Q from the new P squares the contraction factor on this linear
    # problem: a sweep that took Q from the old P needs 15, 15 and 16 here
    sys, state0 = harmonic
    _, iters = solve_stages(tab_builder(), sys, state0.y, 0.5, cfg)
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
    Y, _ = solve_stages(tab, sys, y, h, cfg)
    Q, P, hA = Y[:, :2], Y[:, 2:], h * tab.A
    scale = 1.0 + np.max(np.abs(y))
    assert np.max(np.abs(Q - (y[:2] + hA @ P))) <= 8 * np.finfo(float).eps * scale
    assert np.max(np.abs(P - (y[2:] + hA @ sys.force(Q)))) <= cfg.stage_tol * scale


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
    # g = H(y_next) - H(y) = h never moves: the secant denominator is zero at
    # every halving depth
    def energy(y):
        return np.asarray(y, dtype=float)[..., 0]

    flat = HamiltonianSystem(name="flat", half_dim=1, energy=energy,
                             force=lambda q: np.zeros(np.shape(q)), invariants={"H": energy})
    rec = equip_step(3, flat, np.array([0.0, 1.0]), 0.1, cfg)
    assert rec.flagged
    assert rec.state.t == pytest.approx(0.1)
    np.testing.assert_allclose(rec.state.y, [0.1, 1.0], atol=1e-15)


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
    # EQUIP(1) is not a method, so no driver can be handed one
    with pytest.raises(ValueError, match="equip:s=1"):
        MethodSpec("equip", 1)
    # and the EQUIP step builds its tableau before it touches the problem
    with pytest.raises(ValueError, match="equip:s=1"):
        equip_step(1, untouchable_system(), np.array([1.0, 0.0]), 0.1, cfg)


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
    (recs,) = integrate_adaptive(GAUSS3, sys, state0.y, [T], 1e-8, cfg)
    assert recs[-1].state.t == T
    assert all(r.err_est <= 1e-8 for r in recs)
    # the trajectory is genuinely accurate at that tolerance
    err = np.linalg.norm(recs[-1].state.y - kepler_reference(0.6, T))
    assert err <= 1e-5


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
    # the first attempt's full step (field calls 1, 2) has an inf update
    y0 = np.array([1.0, 0.0])
    (recs,) = integrate_adaptive(method, trapped_system({2}), y0, [1.0], 1e-8, cfg)
    assert recs[0].h == 0.25
    assert recs[-1].state.t == 1.0
    np.testing.assert_array_equal(recs[-1].state.y, y0)


def test_adaptive_determinism(cfg):
    sys, state0 = kepler_system(0.6)
    (a,) = integrate_adaptive(EQUIP3, sys, state0.y, [T], 1e-8, cfg)
    (b,) = integrate_adaptive(EQUIP3, sys, state0.y, [T], 1e-8, cfg)
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        np.testing.assert_array_equal(ra.state.y, rb.state.y)
        assert ra.h == rb.h and ra.err_est == rb.err_est


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
    # to overflow in the tableau product
    sys, y0 = untouchable_system(), np.array([1.0, 0.0])
    with pytest.raises(ValueError, match=f"alpha_prev={alpha}"):
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
