"""Geometric Runge-Kutta integrators: Gauss-Legendre, HBVM(k,s) and EQUIP(s).

Tableau construction from a shared Legendre-basis core, an implicit stage
solver with per-step EQUIP energy tuning, Hamiltonian benchmark problems, and
the fixed-step / adaptive-step experiment campaigns behind the `geork` CLI.
"""

from .quadrature import QuadratureRule, gauss_rule, legendre_eval, vandermonde
from .tableau import (
    ButcherTableau,
    MethodSpec,
    build_equip_tableau,
    build_gauss,
    build_hbvm,
    build_tableau,
    core_matrix,
    format_tableau,
    symplecticity_residual,
    tableau_csv,
    xi,
)
from .dynamics import (
    DomainError,
    HamiltonianSystem,
    State,
    angular_momentum,
    canonical_field,
    kepler_reference,
    kepler_system,
    quartic_oscillator,
)
from .integrator import (
    AlphaNotFound,
    Divergence,
    IntegrationError,
    MinStepReached,
    NonConvergence,
    SolverConfig,
    StepRecord,
    equip_step,
    integrate_adaptive,
    integrate_fixed,
    rk_step,
    solve_stages,
)
from .experiments import (
    ConvergenceResult,
    DriftReport,
    convergence_study,
    drift_study,
    fit_order,
    pinned_constant,
)
from .cli import parse_method

__version__ = "0.1.0"
