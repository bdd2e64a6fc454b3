import numpy as np
import pytest

from geork.dynamics import HamiltonianSystem, State, kepler_system
from geork.experiments import PERIOD, convergence_study, drift_reports, run_adaptive_periods
from geork.integrator import SolverConfig
from geork.tableau import MethodSpec


def _harmonic_energy(y):
    y = np.asarray(y, dtype=float)
    return 0.5 * (y[..., 0] ** 2 + y[..., 1] ** 2)


def _harmonic_force(q):
    return -np.asarray(q, dtype=float)


def harmonic_oscillator():
    """H = (q^2 + p^2)/2; the linear test problem for the solver contracts."""
    sys = HamiltonianSystem(
        name="harmonic",
        half_dim=1,
        energy=_harmonic_energy,
        force=_harmonic_force,
        invariants={"H": _harmonic_energy},
    )
    return sys, State(t=0.0, y=np.array([1.0, 0.0]))


@pytest.fixture
def harmonic():
    return harmonic_oscillator()


@pytest.fixture
def cfg():
    return SolverConfig()


# The default `geork convergence` and `geork drift` campaigns.  They are the
# expensive part of the suite, so each runs once per session: the acceptance
# criteria and the comparison against tests/data read the same results.
CONVERGENCE_METHODS = (MethodSpec("gauss", 3), MethodSpec("hbvm", 3, 4), MethodSpec("hbvm", 3, 6),
                       MethodSpec("hbvm", 3, 9), MethodSpec("hbvm", 3, 12), MethodSpec("equip", 3))
CONVERGENCE_DIVISORS = (50, 70, 100, 140, 200)
DRIFT_METHODS = (MethodSpec("gauss", 3), MethodSpec("hbvm", 3, 12), MethodSpec("equip", 3))
DRIFT_TOL = 1e-8


@pytest.fixture(scope="session")
def convergence_campaign():
    """ConvergenceResults of the default campaign (e = 0.6, 10 periods), in CSV order."""
    h_grid = [PERIOD / d for d in CONVERGENCE_DIVISORS]
    return convergence_study(CONVERGENCE_METHODS, 0.6, 10, h_grid, SolverConfig())


@pytest.fixture(scope="session")
def drift_campaign():
    """The default drift campaign (e = 0.99, tol 1e-8, 20 periods).

    Returns (sys, state0, {str(method): (records per period, DriftReports)}).
    """
    sys, state0 = kepler_system(0.99)
    data = {}
    for method in DRIFT_METHODS:
        per = run_adaptive_periods(method, sys, state0.y, 20, DRIFT_TOL, SolverConfig())
        data[str(method)] = (per, drift_reports(method, per, sys, state0.y, DRIFT_TOL))
    return sys, state0, data
