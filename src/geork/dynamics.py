"""Hamiltonian test problems: forces, invariants, references.

Every problem has H(q, p) = |p|^2/2 + V(q), so it gives only its force
-grad V; the integrator composes the canonical field (p, force(q)).  State
layout is (q_1..q_m, p_1..p_m).  Energies take (..., 2m) arrays and forces
(..., m) arrays, broadcasting over leading axes: a stack is one call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "DomainError",
    "State",
    "HamiltonianSystem",
    "kepler_system",
    "kepler_reference",
    "angular_momentum",
    "quartic_oscillator",
]

# Kepler force guard: periapsis distance at e = 0.99 is 0.01, so states of
# a healthy run never get anywhere near this radius
_MIN_RADIUS = 1e-8

_KEPLER_NEWTON_TOL = 1e-14
_KEPLER_NEWTON_MAX = 50


class DomainError(ValueError):
    """The vector field was evaluated outside its domain (solver divergence)."""


@dataclass(frozen=True, eq=False)
class State:
    """Time plus state vector; non-finite entries signal upstream divergence."""

    t: float
    y: np.ndarray

    def __post_init__(self):
        if not np.isfinite(self.y).all():
            raise ValueError(f"non-finite state at t={self.t}")


@dataclass(frozen=True, eq=False)
class HamiltonianSystem:
    """Mechanical Hamiltonian problem H = |p|^2/2 + V(q) of dimension 2 * half_dim.

    ``force`` is -grad V of an (..., half_dim) stack of positions, and raises
    DomainError outside the problem's domain.  ``invariants`` maps short names
    to scalar functions of the state and always contains the energy under "H".
    """

    name: str
    half_dim: int
    energy: Callable[[np.ndarray], np.ndarray]
    force: Callable[[np.ndarray], np.ndarray]
    invariants: dict[str, Callable[[np.ndarray], np.ndarray]]

    def gradient(self, y: np.ndarray) -> np.ndarray:
        """(dH/dq, dH/dp) = (-force(q), p) (negation is exact)."""
        y, m = np.asarray(y, dtype=float), self.half_dim
        return np.concatenate([-self.force(y[..., :m]), y[..., m:]], axis=-1)


def _kepler_energy(y: np.ndarray) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    q1, q2, p1, p2 = y[..., 0], y[..., 1], y[..., 2], y[..., 3]
    return 0.5 * (p1 * p1 + p2 * p2) - 1.0 / np.sqrt(q1 * q1 + q2 * q2)


def _kepler_force(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    q2 = q * q
    r2 = q2[..., 0] + q2[..., 1]
    # NaN fails the comparison, so a NaN position is rejected as well
    if not (np.minimum.reduce(r2, axis=None) >= _MIN_RADIUS**2):
        raise DomainError(f"kepler force evaluated at radius < {_MIN_RADIUS} or at NaN")
    # np.power: for one state r2 is a NumPy scalar, whose ** may round unlike a stack's
    return q * (-np.power(r2, -1.5))[..., None]


def angular_momentum(y: np.ndarray) -> np.ndarray:
    """Planar angular momentum q1 p2 - q2 p1."""
    y = np.asarray(y, dtype=float)
    if y.shape[-1] != 4:
        raise ValueError(f"angular momentum needs a planar state (2m=4), got {y.shape[-1]}")
    return y[..., 0] * y[..., 3] - y[..., 1] * y[..., 2]


def kepler_reference(e: float, t: float) -> np.ndarray:
    """Exact Kepler state at time t via Newton on the eccentric anomaly.

    Solves E - e sin E = t (mod 2 pi), then maps to cartesian coordinates of
    the orbit with semi-major axis 1 starting at periapsis.
    """
    if not 0.0 <= e < 1.0:
        raise ValueError(f"eccentricity must be in [0, 1), got {e}")
    M = np.fmod(t, 2.0 * np.pi)
    if M < 0.0:
        M += 2.0 * np.pi
    # Danby-style start keeps Newton quadratic even for e close to 1
    E = M + 0.85 * e * np.sign(np.sin(M)) if e > 0.0 else M
    for _ in range(_KEPLER_NEWTON_MAX):
        f = E - e * np.sin(E) - M
        if abs(f) <= _KEPLER_NEWTON_TOL:
            break
        E -= f / (1.0 - e * np.cos(E))
    else:
        raise RuntimeError(f"eccentric anomaly iteration stalled at e={e}, t={t}")
    sE, cE = np.sin(E), np.cos(E)
    denom = 1.0 - e * cE
    root = np.sqrt(1.0 - e * e)
    return np.array([cE - e, root * sE, -sE / denom, root * cE / denom])


def kepler_system(e: float) -> tuple[HamiltonianSystem, State]:
    """Planar Kepler problem with eccentricity e, started at periapsis.

    H(q, p) = |p|^2 / 2 - 1 / |q|, gravitational parameter and semi-major
    axis normalised to 1, so the period is 2 pi and H = -1/2 on the orbit.
    """
    if not 0.0 <= e < 1.0:
        raise ValueError(f"eccentricity must be in [0, 1), got {e}")
    y0 = np.array([1.0 - e, 0.0, 0.0, np.sqrt((1.0 + e) / (1.0 - e))])
    sys = HamiltonianSystem(
        name="kepler",
        half_dim=2,
        energy=_kepler_energy,
        force=_kepler_force,
        invariants={"H": _kepler_energy, "L": angular_momentum},
    )
    return sys, State(t=0.0, y=y0)


def _quartic_energy(y: np.ndarray) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    return 0.5 * y[..., 1] ** 2 + 0.25 * y[..., 0] ** 4


def _quartic_force(q: np.ndarray) -> np.ndarray:
    return -np.asarray(q, dtype=float) ** 3


def quartic_oscillator() -> tuple[HamiltonianSystem, State]:
    """One-degree oscillator H = p^2/2 + q^4/4, a degree-4 polynomial energy."""
    sys = HamiltonianSystem(
        name="quartic",
        half_dim=1,
        energy=_quartic_energy,
        force=_quartic_force,
        invariants={"H": _quartic_energy},
    )
    return sys, State(t=0.0, y=np.array([1.0, 0.0]))
