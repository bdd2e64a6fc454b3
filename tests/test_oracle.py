"""One float step against the exact step of its own tableau, to 40 digits.

The reference builds each tableau in mpmath from the Legendre series (an
independent route to the core-matrix formula), solves the stage equations
of Kepler's problem by fixed point to 1e-36 and takes the update.  A float
step may differ from it only by what its stopping test allows: the last
stage sweep changed no entry by more than stage_tol * (1 + |y|_inf), and the
update adds round-off.  So each float step must land within
stage_tol * (1 + |y|_inf) of the reference; the comparator against
tests/data is a thousand times looser.  An EQUIP step is compared with the
reference step at the alpha the float step chose.
"""

import functools

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, reject, settings, strategies as st

from geork.dynamics import kepler_system
from geork.integrator import (
    Divergence, NonConvergence, SolverConfig, _stepper, equip_step, rk_step)
from geork.tableau import MethodSpec, build_tableau
from test_integrator import doubling_error, returned_evaluation, stacked_evaluations
from test_quadrature import classical_legendre, mp_gauss_rule

DPS = 40
STAGE_TOL = mpmath.mpf("1e-36")
MAX_SWEEPS = 400
CFG = SolverConfig()
KEPLER, _ = kepler_system(0.6)

GAUSS3 = MethodSpec("gauss", 3)
HBVM63 = MethodSpec("hbvm", 3, 6)
HBVM123 = MethodSpec("hbvm", 3, 12)
EQUIP3 = MethodSpec("equip", 3)

# Kepler states with 0.5 <= |q| <= 2 and |p_i| <= 1, and steps of either sign
kepler_states = st.builds(
    lambda r, theta, p1, p2: np.array([r * np.cos(theta), r * np.sin(theta), p1, p2]),
    st.floats(0.5, 2.0), st.floats(0.0, 2 * np.pi), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
steps = st.floats(-0.25, 0.25)
# from here an EQUIP step of h = 0.125 exhausts its secant budget (one of 0.25 does not)
SECANT_FAILS = np.array([0.5, 0.0, 0.0, 1.0])
# a step of h = 0.25 from here crosses the collision, where no stage solve converges
COLLIDES = np.array([0.5, 0.0, -1.0, 0.0])
oracle_settings = settings(deadline=None, max_examples=20,
                           suppress_health_check=[HealthCheck.too_slow])


@functools.lru_cache(maxsize=None)
def mp_pieces(spec: MethodSpec):
    """(A0, D, b) at DPS digits: the tableau at alpha is A0 + alpha D, with weights b.

    On n nodes c with weights b, A0_ij = b_j sum_{l<s} P_l(c_j) int_0^{c_i} P_l,
    P_l(t) = sqrt(2l + 1) L_l(2t - 1), and EQUIP's alpha adds
    alpha b_j (P_{s-1}(c_i) P_{s-2}(c_j) - P_{s-2}(c_i) P_{s-1}(c_j)).
    """
    s, n = spec.s, spec.n_stages
    with mpmath.workdps(DPS):
        nodes, b = mp_gauss_rule(n, DPS)

        def P(l, c):
            return mpmath.sqrt(2 * l + 1) * classical_legendre(l, 2 * c - 1)

        def int_P(l, c):  # int_{-1}^x L_l = (L_{l+1}(x) - L_{l-1}(x)) / (2l + 1)
            if l == 0:
                return +c
            x = 2 * c - 1
            return (classical_legendre(l + 1, x) - classical_legendre(l - 1, x)) \
                / (2 * mpmath.sqrt(2 * l + 1))

        A0 = mpmath.matrix(n, n)
        D = mpmath.matrix(n, n)
        for i, ci in enumerate(nodes):
            for j, cj in enumerate(nodes):
                A0[i, j] = b[j] * mpmath.fsum(P(l, cj) * int_P(l, ci) for l in range(s))
                if s >= 2:
                    D[i, j] = b[j] * (P(s - 1, ci) * P(s - 2, cj) - P(s - 2, ci) * P(s - 1, cj))
        return A0, D, b


def mp_force(q):
    r2 = q[0] ** 2 + q[1] ** 2
    return [-qi / (r2 * mpmath.sqrt(r2)) for qi in q]


def mp_energy(y):
    return (y[2] ** 2 + y[3] ** 2) / 2 - 1 / mpmath.sqrt(y[0] ** 2 + y[1] ** 2)


def mp_step(spec: MethodSpec, y, h, alpha=0.0):
    """The exact step of spec's tableau at alpha from y (floats or mpf), as mpf."""
    A0, D, b = mp_pieces(spec)
    n = len(b)
    with mpmath.workdps(DPS):
        y = [mpmath.mpf(v) for v in y]
        h, A = mpmath.mpf(h), A0 + mpmath.mpf(alpha) * D
        q, p = y[:2], y[2:]
        tol = STAGE_TOL * (1 + max(abs(v) for v in y))
        Q, P = [q] * n, [p] * n
        for _ in range(MAX_SWEEPS):
            # partitioned sweep: momenta from the old positions, then positions
            F = [mp_force(Qi) for Qi in Q]
            P_new = [[p[d] + h * mpmath.fsum(A[i, j] * F[j][d] for j in range(n))
                      for d in range(2)] for i in range(n)]
            Q_new = [[q[d] + h * mpmath.fsum(A[i, j] * P_new[j][d] for j in range(n))
                      for d in range(2)] for i in range(n)]
            change = max(abs(u - v) for new, old in ((Q_new, Q), (P_new, P))
                         for row_new, row_old in zip(new, old) for u, v in zip(row_new, row_old))
            Q, P = Q_new, P_new
            if change <= tol:
                break
        else:
            raise AssertionError(f"the {DPS}-digit stage solve did not converge at h={h}")
        F = [mp_force(Qi) for Qi in Q]
        return ([q[d] + h * mpmath.fsum(b[i] * P[i][d] for i in range(n)) for d in range(2)]
                + [p[d] + h * mpmath.fsum(b[i] * F[i][d] for i in range(n)) for d in range(2)])


def distance(y_float, y_mp) -> float:
    return max(float(abs(mpmath.mpf(u) - v)) for u, v in zip(y_float, y_mp))


def bound(y) -> float:
    return CFG.stage_tol * (1.0 + float(np.max(np.abs(y))))


# ---------------------------------------------------------------------------
# the reference itself


def test_float_tableaus_match_the_mp_tableaus():
    for spec, alpha in ((GAUSS3, 0.0), (HBVM63, 0.0), (HBVM123, 0.0), (EQUIP3, 0.3)):
        A0, D, b = mp_pieces(spec)
        tab = build_tableau(spec, alpha)
        with mpmath.workdps(DPS):
            A = A0 + mpmath.mpf(alpha) * D
            n = spec.n_stages
            gap = max(float(abs(mpmath.mpf(tab.A[i, j]) - A[i, j]))
                      for i in range(n) for j in range(n))
        assert gap <= 4 * np.finfo(float).eps
        assert distance(tab.b, b) <= 2 * np.finfo(float).eps


def test_mp_step_conserves_what_the_method_conserves():
    # Gauss conserves the angular momentum q1 p2 - q2 p1 exactly, and with
    # it the oracle's stage solve: a loose solve would show here
    y = np.array([0.4, 0.0, 0.0, 2.0])
    y_next = mp_step(GAUSS3, y, 0.2)
    with mpmath.workdps(DPS):
        L0 = mpmath.mpf(y[0]) * mpmath.mpf(y[3]) - mpmath.mpf(y[1]) * mpmath.mpf(y[2])
        assert abs(y_next[0] * y_next[3] - y_next[1] * y_next[2] - L0) < mpmath.mpf("1e-35")


# ---------------------------------------------------------------------------
# float steps against it


def reject_where_the_40_digit_solve_fails_too(spec, y, h):
    """A float stage solve may fail only where the exact one at its start alpha (0) fails."""
    with pytest.raises(AssertionError, match="did not converge"):
        mp_step(spec, y, h)
    reject()


@oracle_settings
@given(y=kepler_states, h=steps, spec=st.sampled_from([GAUSS3, HBVM63, HBVM123]))
@example(y=COLLIDES, h=0.25, spec=GAUSS3)
def test_rk_step_matches_the_40_digit_step(y, h, spec):
    try:
        rec = rk_step(build_tableau(spec), KEPLER, y, h, CFG)
    except (NonConvergence, Divergence):
        reject_where_the_40_digit_solve_fails_too(spec, y, h)
    assert distance(rec.state.y, mp_step(spec, y, h)) <= bound(y)


@oracle_settings
@given(y=kepler_states, h=steps)
@example(y=SECANT_FAILS, h=0.125)
@example(y=COLLIDES, h=0.25)
def test_equip_step_matches_the_40_digit_step_at_its_alpha(y, h):
    try:
        sol = equip_step(3, KEPLER, y, h, CFG)
    except (NonConvergence, Divergence):
        # a secant that fails at a later alpha is not excused: the exact
        # solve at alpha = 0 converges there, so this check fails
        reject_where_the_40_digit_solve_fails_too(EQUIP3, y, h)
    y_next = mp_step(EQUIP3, y, h, sol.alphas[0])
    assert distance(sol.states[0], y_next) <= bound(y)
    if not sol.flagged:
        # the exact step at that alpha keeps the energy as the secant
        # promised, up to the energy change the float step's own error allows
        with mpmath.workdps(DPS):
            H0 = mp_energy([mpmath.mpf(v) for v in y])
            g = float(abs(mp_energy(y_next) - H0))
        grad = float(np.sum(np.abs(KEPLER.gradient(y))))
        assert g <= CFG.alpha_tol * (1.0 + abs(float(H0))) + 2 * grad * bound(y)


@oracle_settings
@given(y=kepler_states, h=steps, spec=st.sampled_from([GAUSS3, HBVM63, EQUIP3]))
@example(y=SECANT_FAILS, h=0.25, spec=EQUIP3)
@example(y=np.array([0.5, 0.0, 1.0, 0.0]), h=-0.25, spec=GAUSS3)
def test_attempt_step_matches_the_40_digit_attempt(y, h, spec):
    # the attempt the adaptive driver runs (one stacked solve for Gauss and
    # HBVM, one per secant evaluation for EQUIP) against the mp full step and
    # two half-steps, each EQUIP one at the alpha its block ended on
    with stacked_evaluations() as evaluations:
        window, attempt = _stepper(spec, KEPLER, CFG), _stepper(spec, KEPLER, CFG, doubling=True)
        try:
            sol = attempt(y, h, 1, 0.0)
        except (NonConvergence, Divergence):
            # a step that crosses the collision (the second example) is beyond
            # the fixed-point iteration; the attempt may fail only where the
            # three steps it stands for fail too
            with pytest.raises((NonConvergence, Divergence)):
                window(y, h, 1, 0.0)
                half = window(y, h / 2, 1, 0.0)
                window(half.states[0], h / 2, 1, half.alphas[0])
            reject()
    assert len(evaluations[0]) == (sol.alpha_iters if spec.kind == "equip" else 1)
    (a_full, a_half, a_last), _ = returned_evaluation(evaluations, sol)
    assert sol.alphas[-1] == a_last
    full = mp_step(spec, y, h, a_full)
    halves = mp_step(spec, mp_step(spec, y, h / 2, a_half), h / 2, a_last)
    assert distance(sol.states[-1], halves) <= 2 * bound(y)
    scale = 2 ** spec.order - 1
    with mpmath.workdps(DPS):
        err = max(abs(u - v) for u, v in zip(full, halves)) / scale
    assert abs(doubling_error(sol, spec.order) - float(err)) <= 3 * bound(y) / scale
