"""Discrete nonlocal operator: weight table, exterior tail, seminorm, action.

The operator kernel is |x - y|^(-(1+s*p)) on the line.  With s*p < 1 it is
integrable across the diagonal, so cell-pair integrals exist, but the
naive point evaluation at touching cells diverges; near-diagonal weights
therefore use the exact piecewise-constant cell-pair integrals while the
far field uses node-distance midpoint values.

The zero exterior extension turns the double integral over R^2 into a sum
over interior cell pairs plus, for each node, an exterior tail integral
with closed form t_i = [(x_i-a)^(-sp) + (b-x_i)^(-sp)] / (sp).  Both
orderings of (x, y) are counted, hence the factor 2 on the tail.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, UsageError
from .grid import Grid, as_grid_function


@dataclass(frozen=True, eq=False)
class Kernel:
    """Precomputed weights for a fixed (grid, s, p).

    W is the symmetric n x n table of cell-pair weights, tail the per-node
    exterior coefficients, cell_weight the quadrature weight h.  W[i][i]
    is set to the adjacent-cell closed form purely as a finite placeholder:
    the diagonal multiplies |u_i - u_i|^p = 0 in every sum.
    """

    s: float
    p: float
    sp: float
    n: int
    cell_weight: float
    W: np.ndarray
    tail: np.ndarray


def adjacent_cell_weight(h: float, sp: float) -> float:
    """Exact integral of |x-y|^(-(1+sp)) over two touching width-h cells."""
    return h ** (1.0 - sp) * (2.0 - 2.0 ** (1.0 - sp)) / (sp * (1.0 - sp))


def assemble_kernel(grid: Grid, s: float, p: float) -> Kernel:
    """Assemble the dense weight table and tail coefficients."""
    s = float(s)
    p = float(p)
    if not 0.0 < s < 1.0:
        raise ConfigurationError("fractional order must satisfy 0 < s < 1, got s=%g" % s)
    if p <= 1.0:
        raise ConfigurationError("integrability exponent must satisfy p > 1, got p=%g" % p)
    sp = s * p
    if sp >= 1.0:
        raise ConfigurationError(
            "s*p = %g >= 1: the one-dimensional regime needs s*p < 1" % sp
        )
    x = grid.nodes
    h = grid.h
    sep = np.abs(x[:, None] - x[None, :])
    with np.errstate(divide="ignore"):
        W = h * h * sep ** (-(1.0 + sp))
    idx = np.arange(grid.n)
    near = np.abs(idx[:, None] - idx[None, :]) <= 1
    W[near] = adjacent_cell_weight(h, sp)
    tail = ((x - grid.a) ** (-sp) + (grid.b - x) ** (-sp)) / sp
    return Kernel(s=s, p=p, sp=sp, n=grid.n, cell_weight=h, W=W, tail=tail)


def phi_p(s, p: float):
    """The odd power map |s|^(p-2) s, written as sign(s)|s|^(p-1) (p > 1).

    Elementwise on arrays, float for a scalar; at p = 2 the map is the
    identity and its argument comes back as is.
    """
    d = np.asarray(s, dtype=float)
    out = d if p == 2.0 else np.sign(d) * np.abs(d) ** (p - 1.0)
    return float(out) if np.isscalar(s) else out


def seminorm_p(u, K: Kernel) -> float:
    """S(u): the discrete Gagliardo double sum plus the exterior tail term.

    Returned un-rooted (the p-th power of the norm); use norm_W for the
    norm itself.
    """
    v = as_grid_function(u, K.n)
    diff = np.abs(v[:, None] - v[None, :])
    interior = float(np.sum(K.W * diff ** K.p))
    exterior = 2.0 * K.cell_weight * float(np.sum(K.tail * np.abs(v) ** K.p))
    return interior + exterior


def norm_W(u, K: Kernel) -> float:
    """The solution-space norm S(u)^(1/p)."""
    return seminorm_p(u, K) ** (1.0 / K.p)


def apply_flap(u, K: Kernel) -> np.ndarray:
    """Exact Euclidean gradient of seminorm_p at u.

    g_k = 2p [ sum_j W_kj Phi_p(u_k - u_j) + h t_k Phi_p(u_k) ], which makes
    <g, u> = p S(u) (Euler identity for the p-homogeneous S).
    """
    v = as_grid_function(u, K.n)
    diff = v[:, None] - v[None, :]
    pair = (K.W * phi_p(diff, K.p)).sum(axis=1)
    return 2.0 * K.p * (pair + K.cell_weight * K.tail * phi_p(v, K.p))


def quadratic_form_matrix(K: Kernel) -> np.ndarray:
    """For p = 2, the symmetric matrix G with S(u) = u^T G u.

    G is strictly diagonally dominant with positive diagonal (the tail term
    adds 2 h t_i > 0), hence positive definite.
    """
    if K.p != 2.0:
        raise UsageError("quadratic form exists only at p = 2, kernel has p=%g" % K.p)
    W0 = K.W.copy()
    np.fill_diagonal(W0, 0.0)
    G = 2.0 * (np.diag(W0.sum(axis=1)) - W0)
    G[np.diag_indices(K.n)] += 2.0 * K.cell_weight * K.tail
    return G
