import numpy as np
import pytest

from geork.cli import CONVERGENCE_CONFIG, _build_parser, parse_method_list
from geork.dynamics import HamiltonianSystem, State, kepler_system
from geork.experiments import PERIOD, convergence_study, drift_reports, run_adaptive_periods
from geork.integrator import SolverConfig


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


# The default `geork convergence` and `geork drift` campaigns, as the CLI's
# own parser sets them up, so a changed CLI default is what gets compared.
# They are the expensive part of the suite, so each runs once per session:
# the acceptance criteria and the comparison against tests/data read the
# same results.
CONVERGENCE_ARGS = _build_parser().parse_args(["convergence"])
DRIFT_ARGS = _build_parser().parse_args(["drift"])


@pytest.fixture(scope="session")
def convergence_campaign():
    """ConvergenceResults of the default convergence campaign, in CSV order."""
    args = CONVERGENCE_ARGS
    h_grid = [PERIOD / int(d) for d in args.h_divisors.split(",")]
    return convergence_study(parse_method_list(args.methods), args.e, args.periods, h_grid,
                             CONVERGENCE_CONFIG)


@pytest.fixture(scope="session")
def drift_campaign():
    """The default drift campaign.

    Returns (sys, state0, {str(method): (records per period, DriftReports)}).
    """
    args = DRIFT_ARGS
    sys, state0 = kepler_system(args.e)
    data = {}
    for method in parse_method_list(args.methods):
        per = run_adaptive_periods(method, sys, state0.y, args.periods, args.tol, SolverConfig())
        data[str(method)] = (per, drift_reports(method, per, sys, state0.y, args.tol))
    return sys, state0, data
