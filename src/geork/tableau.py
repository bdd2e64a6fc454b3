"""Butcher tableaus for the Gauss, HBVM and EQUIP families.

All three families come from one formula on n Gauss-Legendre nodes:

    A(alpha) = W Xhat_s(alpha) W_s^T Omega = A0 + alpha D,

where W holds the first s + 1 shifted orthonormal Legendre polynomials at the
nodes, W_s its first s columns, Omega = diag(weights) and Xhat_s(alpha) is
the (s+1) x s core matrix in the Legendre basis.  Gauss(s) is n = s with
alpha = 0, EQUIP(s) is n = s with alpha, HBVM(k, s) is n = k with alpha = 0.
At n = s the last column of W is the degree-s polynomial, which vanishes at
the nodes, so only the top s x s block X_s(alpha) of the core contributes.

The off-diagonal coefficients xi_j = 1/(2 sqrt(4 j^2 - 1)) couple neighbouring
basis modes; the EQUIP parameter alpha moves only the outermost pair of the
top block, which keeps the algebraic symplecticity condition for every alpha.
A0 is the tableau of the alpha-free core, and D that of the pair at alpha = 1.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .quadrature import QuadratureRule, gauss_rule, vandermonde

__all__ = [
    "MethodSpec",
    "ButcherTableau",
    "xi",
    "core_matrix",
    "build_gauss",
    "build_equip_tableau",
    "build_hbvm",
    "build_tableau",
    "symplecticity_residual",
    "format_tableau",
    "tableau_csv",
]

KINDS = ("gauss", "hbvm", "equip")


def xi(j: int) -> float:
    """Coupling coefficient between basis modes j and j + 1."""
    if not isinstance(j, Integral) or j < 1:
        raise ValueError(f"index must be an integer >= 1, got {j!r}")
    return 1.0 / (2.0 * np.sqrt(4.0 * j * j - 1.0))


def core_matrix(s: int) -> np.ndarray:
    """Read-only (s+1) x s core matrix Xhat_s in the Legendre basis, at alpha = 0.

    Entry (1,1) is 1/2 and mode j couples to mode j + 1 through -xi_j above
    and +xi_j below the diagonal; row s + 1 carries only xi_s.
    """
    if not isinstance(s, Integral) or s < 1:
        raise ValueError(f"s must be a positive integer, got {s!r}")
    X = np.zeros((s + 1, s))
    X[0, 0] = 0.5
    for j in range(1, s + 1):
        X[j, j - 1] = xi(j)
        if j < s:
            X[j - 1, j] = -xi(j)
    X.setflags(write=False)
    return X


@dataclass(frozen=True)
class MethodSpec:
    """Identity of a method: family kind, degree parameter s, node count k (hbvm)."""

    kind: str
    s: int
    k: int | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown method kind {self.kind!r}")
        if not isinstance(self.s, Integral) or self.s < 1:
            raise ValueError(f"s must be an integer >= 1, got {self.s!r}")
        if self.kind == "equip" and self.s < 2:  # no outermost pair for alpha to tune
            raise ValueError("equip:s=1 has no alpha to tune; use gauss:s=1")
        if self.kind == "hbvm":
            if self.k is None:
                raise ValueError("hbvm requires k")
            if not isinstance(self.k, Integral):
                raise ValueError(f"k must be an integer, got {self.k!r}")
            if self.k < self.s:
                raise ValueError(f"hbvm requires k >= s, got k={self.k}, s={self.s}")
        elif self.k is not None:
            raise ValueError(f"k is only meaningful for hbvm, got kind={self.kind!r}")

    @property
    def n_stages(self) -> int:
        return self.k if self.kind == "hbvm" else self.s

    @property
    def order(self) -> int:
        return 2 * self.s

    def __str__(self) -> str:
        if self.kind == "hbvm":
            return f"hbvm:k={self.k},s={self.s}"
        return f"{self.kind}:s={self.s}"


@dataclass(frozen=True, eq=False)
class ButcherTableau:
    """Runge-Kutta data (A, b, c) of method ``spec`` at ``alpha``; spec sets size and order."""

    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    spec: MethodSpec
    alpha: float = 0.0

    def __post_init__(self):
        n = self.spec.n_stages
        if self.A.shape != (n, n) or self.b.shape != (n,) or self.c.shape != (n,):
            raise ValueError("tableau dimensions are inconsistent")
        self.A.setflags(write=False)
        self.b.setflags(write=False)
        self.c.setflags(write=False)

    @property
    def n_stages(self) -> int:
        return self.spec.n_stages

    @property
    def order(self) -> int:
        return self.spec.order


@functools.lru_cache(maxsize=None)
def _pieces(n_stages: int, s: int) -> tuple[QuadratureRule, np.ndarray, np.ndarray]:
    """Gauss rule on n_stages nodes and the read-only A0 and D of A(alpha) = A0 + alpha D.

    alpha sits at (s-1, s-2) and, negated, at (s-2, s-1) of the core, so D is
    (w_{s-1} w_{s-2}^T - w_{s-2} w_{s-1}^T) Omega, w_l column l of W; 0 at s = 1.
    """
    rule = gauss_rule(n_stages)
    W = vandermonde(rule, s + 1)
    A0 = (W @ core_matrix(s) @ W[:, :s].T) * rule.weights
    pair = np.outer(W[:, s - 1], W[:, s - 2])
    D = (pair - pair.T) * rule.weights if s > 1 else np.zeros_like(A0)
    for M in (A0, D):
        M.setflags(write=False)
    return rule, A0, D


def build_tableau(spec: MethodSpec, alpha: float = 0.0) -> ButcherTableau:
    """Construct the tableau a MethodSpec describes; alpha, finite, applies to equip only."""
    if not -np.inf < alpha < np.inf:  # NaN fails every comparison
        raise ValueError(f"alpha must be finite, got alpha={alpha}")
    if spec.kind != "equip" and alpha != 0.0:
        raise ValueError(f"alpha has no effect on {spec}; only equip takes it")
    rule, A0, D = _pieces(spec.n_stages, spec.s)
    return ButcherTableau(A=A0 if alpha == 0.0 else A0 + alpha * D, b=rule.weights,
                          c=rule.nodes, spec=spec,
                          alpha=float(alpha) if spec.kind == "equip" else 0.0)


def build_gauss(s: int) -> ButcherTableau:
    """s-stage Gauss-Legendre collocation tableau, order 2s."""
    return build_tableau(MethodSpec("gauss", s))


def build_hbvm(k: int, s: int) -> ButcherTableau:
    """HBVM(k, s) tableau on k Gauss nodes, order 2s; HBVM(s, s) is Gauss(s)."""
    return build_tableau(MethodSpec("hbvm", s, k))


def build_equip_tableau(s: int, alpha: float) -> ButcherTableau:
    """EQUIP tableau on s >= 2 Gauss nodes; alpha = 0 reduces to the Gauss method."""
    return build_tableau(MethodSpec("equip", s), alpha)


def symplecticity_residual(t: ButcherTableau) -> float:
    """Max-norm of diag(b) A + A^T diag(b) - b b^T.

    Zero (to round-off) certifies that the method conserves all quadratic
    invariants of canonical Hamiltonian flows.
    """
    B = np.diag(t.b)
    M = B @ t.A + t.A.T @ B - np.outer(t.b, t.b)
    return float(np.max(np.abs(M)))


def _fmt15(x: float) -> str:
    """Fixed-point decimal with 15 significant digits."""
    return np.format_float_positional(
        x, precision=15, unique=False, fractional=False, trim="k"
    )


def _cells(t: ButcherTableau, fmt) -> list[list[str]]:
    """Rows c_i, a_i1..a_in, then the weights row with an empty leading cell."""
    rows = [[fmt(t.c[i])] + [fmt(a) for a in t.A[i]] for i in range(t.n_stages)]
    return rows + [[""] + [fmt(w) for w in t.b]]


def format_tableau(t: ButcherTableau) -> str:
    """Aligned human-readable form: c | A rows, then the weights row."""
    cells = _cells(t, _fmt15)
    widths = [max(len(cell) for cell in column) for column in zip(*cells)]
    lines = [f"# {t.spec}  order {t.order}"]
    for i, row in enumerate(cells):
        aligned = [cell.rjust(w) for cell, w in zip(row, widths)]
        sep = " | " if i < t.n_stages else "   "
        lines.append(aligned[0] + sep + "  ".join(aligned[1:]))
    return "\n".join(lines) + "\n"


def tableau_csv(t: ButcherTableau) -> str:
    """Machine-readable form: header comments, then one CSV row per tableau row.

    Each stage row is ``c_i,a_i1,...,a_in``; the trailing row holds the
    weights with an empty leading field.
    """
    header = [f"# method {t.spec.kind}", f"# s {t.spec.s}", f"# k {t.n_stages}",
              f"# alpha {format(t.alpha, '.17g')}"]
    rows = [",".join(row) for row in _cells(t, lambda x: format(x, ".17g"))]
    return "\n".join(header + rows) + "\n"
