import numpy as np
import pytest

from geork.dynamics import HamiltonianSystem, State
from geork.integrator import SolverConfig


def _harmonic_energy(y):
    y = np.asarray(y, dtype=float)
    return 0.5 * (y[..., 0] ** 2 + y[..., 1] ** 2)


def _harmonic_field(y):
    y = np.asarray(y, dtype=float)
    return np.stack([y[..., 1], -y[..., 0]], axis=-1)


def harmonic_oscillator():
    """H = (q^2 + p^2)/2; the linear test problem for the solver contracts."""
    sys = HamiltonianSystem(
        name="harmonic",
        half_dim=1,
        energy=_harmonic_energy,
        field=_harmonic_field,
        invariants={"H": _harmonic_energy},
    )
    return sys, State(t=0.0, y=np.array([1.0, 0.0]))


@pytest.fixture
def harmonic():
    return harmonic_oscillator()


@pytest.fixture
def cfg():
    return SolverConfig()
