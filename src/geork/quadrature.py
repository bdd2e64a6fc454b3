"""Shifted Legendre basis and Gauss-Legendre quadrature rules on [0, 1].

Conventions used throughout the library:

* Basis index ``j`` starts at 1 and the j-th polynomial has degree j - 1.
* The basis is orthonormal in L2[0, 1]: integral of P_i * P_j over [0, 1]
  equals the Kronecker delta.  In particular P_1 is identically 1.
* Quadrature nodes live in (0, 1), weights are positive and sum to 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "MAX_NODES",
    "QuadratureRule",
    "gauss_rule",
    "legendre_eval",
    "vandermonde",
]

MAX_NODES = 64

# Newton refinement of the classical Legendre roots; residual tolerance on
# |L_n(x)|, not on the update size.
_ROOT_TOL = 1e-15
_ROOT_MAX_ITERS = 100


def _legendre_pair(n: int, x):
    """Values (L_n(x), L_{n-1}(x)) of the classical Legendre polynomials on [-1, 1]."""
    x = np.asarray(x, dtype=float)
    p, p_prev = np.ones_like(x), np.zeros_like(x)
    for m in range(1, n + 1):
        p, p_prev = ((2 * m - 1) * x * p - (m - 1) * p_prev) / m, p
    return p, p_prev


def legendre_eval(j: int, tau):
    """Shifted, L2[0,1]-orthonormal Legendre polynomial of degree j - 1 at tau.

    Evaluated through the standard three-term recurrence after mapping
    [0, 1] -> [-1, 1]; stable for every supported degree.
    """
    if j < 1:
        raise ValueError(f"basis index must be >= 1, got {j}")
    x = 2.0 * np.asarray(tau, dtype=float) - 1.0
    value, _ = _legendre_pair(j - 1, x)
    result = np.sqrt(2 * j - 1) * value
    return float(result) if np.ndim(tau) == 0 else result


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Gauss-Legendre nodes and weights on [0, 1]."""

    n_nodes: int
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if self.nodes.shape != (self.n_nodes,) or self.weights.shape != (self.n_nodes,):
            raise ValueError("nodes/weights length does not match n_nodes")
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)

    def integrate(self, f: Callable) -> float:
        """Apply the rule to a function defined on [0, 1]."""
        return float(np.dot(self.weights, f(self.nodes)))


def gauss_rule(n: int) -> QuadratureRule:
    """n-point Gauss-Legendre rule on [0, 1].

    Roots of the degree-n Legendre polynomial are found by Newton iteration
    from Chebyshev initial guesses; only the roots x >= 0 are computed and the
    rule is mirrored so that node/weight symmetry about 1/2 holds exactly.
    """
    if n < 1 or n > MAX_NODES:
        raise ValueError(f"node count must be in 1..{MAX_NODES}, got {n}")

    n_low = (n + 1) // 2
    low = np.empty(n_low)
    w_low = np.empty(n_low)
    for i in range(n_low):
        # roots x >= 0, outermost first; for odd n the last guess is
        # cos(pi/2) and Newton lands on the middle root x = 0
        x = np.cos(np.pi * (i + 0.75) / (n + 0.5))
        for _ in range(_ROOT_MAX_ITERS):
            p, p_prev = _legendre_pair(n, x)
            dp = n * (x * p - p_prev) / (x * x - 1.0)
            x -= p / dp
            if abs(p) <= _ROOT_TOL:
                break
        p, p_prev = _legendre_pair(n, x)
        dp = n * (x * p - p_prev) / (x * x - 1.0)
        low[i] = 0.5 * (1.0 - x)
        w_low[i] = 1.0 / ((1.0 - x * x) * dp * dp)

    # mirror the off-middle roots so node/weight symmetry about 1/2 is exact
    half = n // 2
    nodes = np.concatenate([low, (1.0 - low[:half])[::-1]])
    weights = np.concatenate([w_low, w_low[:half][::-1]])
    return QuadratureRule(n_nodes=n, nodes=nodes, weights=weights)


def vandermonde(rule: QuadratureRule, n_cols: int) -> np.ndarray:
    """Matrix of the orthonormal basis evaluated at the rule's nodes.

    Entry (i, j) is the value of the basis polynomial of index j + 1 at node
    c_i, i.e. columns follow the 1-based basis indexing.  No construction in
    this library needs more than n_nodes + 1 columns, so larger requests are
    rejected.
    """
    if n_cols < 1:
        raise ValueError("n_cols must be positive")
    if n_cols > rule.n_nodes + 1:
        raise ValueError(
            f"n_cols={n_cols} exceeds n_nodes+1={rule.n_nodes + 1}"
        )
    return np.column_stack(
        [legendre_eval(j, rule.nodes) for j in range(1, n_cols + 1)]
    )
