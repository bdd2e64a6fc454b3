"""Geometric Runge-Kutta integrators: Gauss-Legendre, HBVM(k,s) and EQUIP(s).

Tableau construction from a shared Legendre-basis core, an implicit stage
solver with per-step EQUIP energy tuning, Hamiltonian benchmark problems, and
the fixed-step / adaptive-step experiment campaigns behind the `geork` CLI.
Import the public names from the submodules; each lists them in ``__all__``.
"""

__version__ = "0.1.0"
