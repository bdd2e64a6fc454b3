import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from geork.dynamics import (
    DomainError,
    State,
    angular_momentum,
    kepler_reference,
    kepler_system,
    quartic_oscillator,
)
from geork.integrator import canonical_field


def fd_gradient(energy, y, step=1e-5):
    g = np.empty_like(y)
    for i in range(y.size):
        e = np.zeros_like(y)
        e[i] = step
        g[i] = (energy(y + e) - energy(y - e)) / (2 * step)
    return g


def full_field(sys, Y):
    """The canonical field (P, force(Q)) of a state stack, the force from canonical_field."""
    return np.concatenate([Y[..., sys.half_dim:], canonical_field(sys, Y)], axis=-1)


# ---------------------------------------------------------------------------
# canonical field


def test_canonical_field_harmonic(harmonic):
    sys, _ = harmonic
    np.testing.assert_allclose(full_field(sys, np.array([1.0, 0.0])), [0.0, -1.0])


def test_canonical_field_kepler_circular():
    sys, _ = kepler_system(0.0)
    f = full_field(sys, np.array([1.0, 0.0, 0.0, 1.0]))
    np.testing.assert_allclose(f, [0.0, 1.0, -1.0, 0.0], atol=1e-15)


coords = st.floats(-3.0, 3.0, allow_subnormal=False)
# Kepler states keep |q| >= 0.05, well inside the field's domain
kepler_states = st.lists(coords, min_size=4, max_size=4).filter(
    lambda y: np.hypot(y[0], y[1]) >= 0.05)
quartic_states = st.lists(coords, min_size=2, max_size=2)


@st.composite
def problem_stacks(draw):
    """(system, stack of 1-12 states, its gradient by the formula the field replaced)."""
    if draw(st.booleans()):
        Y = np.array(draw(st.lists(kepler_states, min_size=1, max_size=12)))
        q1, q2 = Y[:, 0], Y[:, 1]
        k = (q1 * q1 + q2 * q2) ** -1.5
        return kepler_system(0.6)[0], Y, np.stack([q1 * k, q2 * k, Y[:, 2], Y[:, 3]], axis=-1)
    Y = np.array(draw(st.lists(quartic_states, min_size=1, max_size=12)))
    return quartic_oscillator()[0], Y, np.stack([Y[:, 0] ** 3, Y[:, 1]], axis=-1)


@settings(deadline=None)
@given(problem_stacks())
def test_field_properties(problem):
    sys, Y, grad = problem
    m = sys.half_dim
    F = full_field(sys, Y)
    # a stack evaluates exactly as its rows do one at a time
    assert F.tobytes() == np.stack([full_field(sys, y) for y in Y]).tobytes()
    # gradient() reads (dH/dq, dH/dp) off the field: (q r^-3, p) and (q^3, p)
    assert sys.gradient(Y).tobytes() == grad.tobytes()
    # the field is (dH/dp, -dH/dq) of the energy, by central differences
    for y, f in zip(Y, F):
        dH = fd_gradient(sys.energy, y)
        np.testing.assert_allclose(f, np.concatenate([dH[m:], -dH[:m]]),
                                   rtol=1e-6, atol=1e-6 * (1.0 + np.max(np.abs(f))))


@pytest.mark.parametrize("problem", ["kepler", "quartic", "harmonic"])
def test_field_is_the_momenta_then_the_force(problem, harmonic):
    sys = {"kepler": kepler_system(0.6)[0], "quartic": quartic_oscillator()[0],
           "harmonic": harmonic[0]}[problem]
    m = sys.half_dim
    # positions in [0.5, 2] keep Kepler inside its domain
    Y = np.random.default_rng(5).uniform(0.5, 2.0, size=(6, 2 * m))
    for stack in (Y, Y[0], Y.reshape(2, 3, 2 * m)):
        F, force = full_field(sys, stack), sys.force(stack[..., :m])
        # the integrator's one problem call is the force alone
        assert canonical_field(sys, stack).tobytes() == force.tobytes()
        # bit for bit, so -0.0 and 0.0 differ
        assert F.shape == stack.shape and force.shape == stack[..., m:].shape
        assert F[..., :m].tobytes() == stack[..., m:].tobytes()
        assert F[..., m:].tobytes() == force.tobytes()
        assert sys.gradient(stack).tobytes() == np.concatenate(
            [-force, stack[..., m:]], axis=-1).tobytes()


@pytest.mark.parametrize("make", [lambda: kepler_system(0.6), quartic_oscillator])
def test_field_is_orthogonal_to_gradient(make):
    sys, state0 = make()
    rng = np.random.default_rng(11)
    dim = 2 * sys.half_dim
    count = 0
    while count < 100:
        y = rng.uniform(-2, 2, size=dim)
        if sys.name == "kepler" and np.linalg.norm(y[:2]) < 0.1:
            continue
        g = sys.gradient(y)
        f = full_field(sys, y)
        assert abs(float(g @ f)) <= 1e-12 * float(np.abs(g) @ np.abs(f) + 1e-30)
        count += 1


@pytest.mark.parametrize("make", [lambda: kepler_system(0.6), quartic_oscillator])
def test_gradient_matches_finite_differences(make):
    sys, _ = make()
    rng = np.random.default_rng(3)
    dim = 2 * sys.half_dim
    count = 0
    while count < 100:
        y = rng.uniform(-2, 2, size=dim)
        if sys.name == "kepler" and np.linalg.norm(y[:2]) < 0.1:
            continue
        want = fd_gradient(sys.energy, y)
        got = sys.gradient(y)
        np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-6)
        count += 1


# ---------------------------------------------------------------------------
# Kepler problem


def test_kepler_initial_invariants():
    for e in (0.0, 0.3, 0.6, 0.99):
        sys, state0 = kepler_system(e)
        # at e = 0.99 the energy is 99.5 - 100: ~1e-14 cancellation is inherent
        assert float(sys.energy(state0.y)) == pytest.approx(-0.5, abs=5e-14)
        assert float(angular_momentum(state0.y)) == pytest.approx(
            np.sqrt(1 - e * e), rel=1e-14)
    assert float(angular_momentum(kepler_system(0.6)[1].y)) == pytest.approx(0.8)


def test_kepler_hard_case_initial_momentum():
    _, state0 = kepler_system(0.99)
    assert state0.y[3] == pytest.approx(np.sqrt(1.99 / 0.01), rel=1e-14)


def test_kepler_rejects_bad_eccentricity():
    for e in (-0.1, 1.0, 1.5):
        with pytest.raises(ValueError):
            kepler_system(e)
        with pytest.raises(ValueError):
            kepler_reference(e, 1.0)


def test_kepler_gradient_guards_collision():
    sys, _ = kepler_system(0.6)
    healthy = [1.0, 0.0, 0.0, 1.0]
    for bad in ([1e-9, 0.0, 0.0, 1.0], [0.7e-8, 0.7e-8, 0.0, 1.0], [np.nan, 0.0, 0.0, 1.0]):
        for evaluate in (sys.gradient, lambda y: sys.force(y[..., :2])):
            with pytest.raises(DomainError):
                evaluate(np.array(bad))
            # one bad row in a stack of stage vectors is enough, wherever it sits
            for stack in ([healthy, bad], [bad, healthy], [healthy, bad, healthy]):
                with pytest.raises(DomainError):
                    evaluate(np.array(stack))


@given(q=hnp.arrays(float, st.tuples(st.integers(1, 24), st.just(2)),
                   elements=st.floats(-3.0, 3.0))
       .filter(lambda q: (np.hypot(q[:, 0], q[:, 1]) >= 1e-3).all()))
def test_kepler_force_of_a_stack_is_each_row_force_bit_for_bit(q):
    # a stage solve evaluates the force on a stack of rows and the update on
    # a stack too; neither may round differently from one state at a time
    sys, _ = kepler_system(0.6)
    stacked = sys.force(q)
    for row, force in zip(q, stacked):
        np.testing.assert_array_equal(sys.force(row), force)
    np.testing.assert_array_equal(sys.force(q.reshape(-1, 1, 2)), stacked[:, None])


def test_reference_recovers_initial_state():
    for e in (0.0, 0.6, 0.99):
        _, state0 = kepler_system(e)
        np.testing.assert_allclose(kepler_reference(e, 0.0), state0.y, atol=1e-14)


def test_reference_periodicity():
    _, state0 = kepler_system(0.6)
    np.testing.assert_allclose(kepler_reference(0.6, 2 * np.pi), state0.y, atol=1e-12)


@given(e=st.floats(0.0, 0.9), t=st.floats(-20.0, 20.0))
def test_reference_reversal_and_period(e, t):
    # the orbit starts at periapsis, so running time backwards mirrors it in
    # the q1 axis; a negative t takes the branch that shifts t mod 2 pi up
    y = kepler_reference(e, t)
    q1, q2, p1, p2 = y
    np.testing.assert_allclose(kepler_reference(e, -t), [q1, -q2, -p1, p2], atol=1e-10)
    np.testing.assert_allclose(kepler_reference(e, t + 2 * np.pi), y, atol=1e-10)


def test_reference_apoapsis():
    y = kepler_reference(0.6, np.pi)
    np.testing.assert_allclose(y, [-1.6, 0.0, 0.0, -0.5], atol=1e-12)


def test_reference_circular_quarter_period():
    y = kepler_reference(0.0, np.pi / 2)
    np.testing.assert_allclose(y, [0.0, 1.0, -1.0, 0.0], atol=1e-12)


@pytest.mark.parametrize("e", [0.0, 0.3, 0.6, 0.99])
def test_invariants_constant_along_reference(e):
    sys, state0 = kepler_system(e)
    L = np.sqrt(1 - e * e)
    for t in np.linspace(0.0, 2 * np.pi, 1000):
        y = kepler_reference(e, t)
        assert abs(float(sys.energy(y)) + 0.5) <= 1e-12
        assert abs(float(angular_momentum(y)) - L) <= 1e-12


def test_reference_satisfies_equations_of_motion():
    # centered difference of the reference flow matches the canonical field
    sys, _ = kepler_system(0.6)
    dt = 1e-6
    for t in (0.3, 2.0, 4.5):
        y = kepler_reference(0.6, t)
        dy = (kepler_reference(0.6, t + dt) - kepler_reference(0.6, t - dt)) / (2 * dt)
        np.testing.assert_allclose(dy, full_field(sys, y), atol=1e-7)


# ---------------------------------------------------------------------------
# angular momentum and the quartic oscillator


def test_angular_momentum_values():
    assert angular_momentum(np.array([1.0, 0.0, 0.0, 1.0])) == 1.0
    assert angular_momentum(np.array([1.0, 1.0, 1.0, 1.0])) == 0.0
    with pytest.raises(ValueError):
        angular_momentum(np.array([1.0, 0.0]))


def test_quartic_oscillator_basics():
    sys, state0 = quartic_oscillator()
    assert float(sys.energy(state0.y)) == 0.25
    np.testing.assert_array_equal(sys.gradient(state0.y), [1.0, 0.0])
    assert sys.half_dim == 1
    assert list(sys.invariants) == ["H"]
    # H has degree nu = 4, so with s = 3 exact conservation needs k >= nu * s / 2 = 6:
    # along the line q = p = t, at the integers t = 0..5 (exact in floats), the
    # fourth difference of H is the constant 4! / 4 and the fifth is zero
    t = np.arange(6.0)
    diffs = np.diff(sys.energy(np.stack([t, t], axis=-1)), n=4)
    np.testing.assert_array_equal(diffs, [6.0, 6.0])


def test_state_rejects_non_finite():
    with pytest.raises(ValueError):
        State(t=0.0, y=np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        State(t=0.0, y=np.array([np.inf, 0.0]))
