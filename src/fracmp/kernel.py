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

The pair table |u_i - u_j|^e of the seminorm (e = p) and of the operator
(e = p - 1, odd) is symmetric, antisymmetric in the odd case, so each pair
power is computed once: a row block at a time, over the columns at or right
of the block's first row, the rest mirrored from the block's transpose.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, UsageError
from .grid import Grid, as_grid_function

# Rows of the pair table computed per block: large enough to amortise the
# per-call overhead of numpy, small enough that the block temporaries stay
# O(n * block) beside the one n x n table.
_PAIR_BLOCK = 128


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


def _pair_power(v: np.ndarray, e: float, odd: bool) -> np.ndarray:
    """The n x n table |v_i - v_j|^e, times sign(v_i - v_j) when odd.

    Each row block computes the columns j >= its first row; the entries
    below the block are its transpose, negated when odd.  IEEE subtraction
    gives v_j - v_i = -(v_i - v_j) exactly, so every entry is the float the
    full elementwise formula gives (0.0 - x keeps zero entries at +0.0).
    Up to one block of rows the loop runs once over the whole table.  The
    odd map at e = 1 is the plain difference, with no power to save.
    """
    if odd and e == 1.0:
        return v[:, None] - v[None, :]
    n = v.size
    M = np.empty((n, n))
    for r0 in range(0, n, _PAIR_BLOCK):
        r1 = min(r0 + _PAIR_BLOCK, n)
        blk = M[r0:r1, r0:]
        np.subtract(v[r0:r1, None], v[None, r0:], out=blk)
        sign = np.sign(blk) if odd else None
        np.abs(blk, out=blk)
        np.power(blk, e, out=blk)
        if odd:
            np.multiply(sign, blk, out=blk)
            np.subtract(0.0, blk[:, r1 - r0:].T, out=M[r1:, r0:r1])
        else:
            M[r1:, r0:r1] = blk[:, r1 - r0:].T
    return M


def seminorm_p(u, K: Kernel) -> float:
    """S(u): the discrete Gagliardo double sum plus the exterior tail term.

    Returned un-rooted (the p-th power of the norm); use norm_W for the
    norm itself.
    """
    v = as_grid_function(u, K.n)
    M = _pair_power(v, K.p, False)
    np.multiply(K.W, M, out=M)
    interior = float(np.sum(M))
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
    M = _pair_power(v, K.p - 1.0, True)
    np.multiply(K.W, M, out=M)
    pair = M.sum(axis=1)
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
