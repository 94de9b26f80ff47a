"""First eigenpair by Rayleigh-quotient minimization, and the torsion problem.

Both solvers run the monotone Barzilai-Borwein descent with backtracking
of ``_descent.bb_descent``, each with its own trial step: every accepted
step lowers the objective (up to a machine-epsilon slack; near
convergence the true decrement drops below one ulp of the objective
while the gradient still has room to shrink), so the recorded traces are
non-increasing to floating-point resolution.  The eigen iteration
projects onto nonnegativity (|u| can only lower the quotient, the kernel
weights being nonnegative) and renormalizes on the unit sphere of the
solution-space norm.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from ._descent import bb_descent
from .errors import PreconditionError, SolverError, UsageError
from .grid import Grid, as_grid_function
from .kernel import Kernel, apply_flap, phi_p, quadratic_form_matrix, seminorm_p
from .model import Potential

log = logging.getLogger(__name__)

EIGEN_CAP_PER_NODE = 50
TORSION_CAP_PER_NODE = 200


@dataclass(frozen=True, eq=False)
class EigenResult:
    """First eigenpair: phi1 is nonnegative with S(phi1)^(1/p) = 1."""

    lambda1: float
    phi1: np.ndarray
    residual: float
    iterations: int
    trace: np.ndarray


@dataclass(frozen=True, eq=False)
class TorsionResult:
    """Minimizer of the constant-right-hand-side energy, with diagnostics."""

    u: np.ndarray
    value: float
    residual: float
    iterations: int
    positive: bool
    trace: np.ndarray


def rayleigh(u, K: Kernel, grid: Grid) -> float:
    """R(u) = S(u) / (h sum |u_i|^p); scale-invariant, positive for u != 0."""
    v = as_grid_function(u, K.n)
    mass = grid.h * float(np.sum(np.abs(v) ** K.p))
    if mass == 0.0:
        raise UsageError("Rayleigh quotient undefined at u = 0")
    return seminorm_p(v, K) / mass


def first_eigenpair(K: Kernel, grid: Grid, tol: float,
                    max_iter: int | None = None) -> EigenResult:
    """Minimize the Rayleigh quotient by projected descent from the hat profile.

    The Euler-Lagrange residual ||apply_flap(phi)/p - lambda1 h Phi_p(phi)||_2
    / sqrt(h) is driven below tol; non-convergence within the iteration cap
    raises a solver error carrying the last iterate.
    """
    if tol <= 0.0:
        raise UsageError("tolerance must be positive, got %g" % tol)
    cap = EIGEN_CAP_PER_NODE * K.n if max_iter is None else int(max_iter)
    p = K.p
    h = grid.h
    hat = np.abs(grid.d.copy())
    u = hat / seminorm_p(hat, K) ** (1.0 / p)
    mass = h * float(np.sum(u ** p))

    def defect(u, R):
        # parallel to the sphere gradient of R; scale folded into the step
        return apply_flap(u, K) / p - R * h * phi_p(u, p)

    def trial(u, alpha, g):
        v = np.abs(u - alpha * g)
        S = seminorm_p(v, K)
        if not S > 0.0:
            return v, np.inf
        v = v / S ** (1.0 / p)
        return v, 1.0 / (h * float(np.sum(v ** p)))

    # S(u) = 1 after normalization
    u, R, residual, it, trace = bb_descent(u, 1.0 / mass, defect, trial, tol, cap, h)
    result = EigenResult(lambda1=float(R), phi1=u, residual=residual,
                         iterations=it, trace=trace)
    if residual > tol:
        raise SolverError("eigen solver stalled at residual %g > tol %g" % (residual, tol),
                          last=result, iterations=it, residual=residual)
    return result


def inverse_power_lambda1(K: Kernel, grid: Grid, tol: float = 1e-12,
                          max_iter: int = 10000) -> float:
    """p = 2 cross-check: inverse power iteration on the assembled pencil.

    Solves G v = mu h v for the smallest mu via repeated Cholesky solves;
    independent of the projected-descent path through the code.
    """
    if K.p != 2.0:
        raise UsageError("inverse power iteration applies at p = 2 only")
    G = quadratic_form_matrix(K)
    fac = cho_factor(G)
    h = grid.h
    u = np.abs(grid.d.copy())
    u /= np.linalg.norm(u)
    lam = np.inf
    for _ in range(max_iter):
        v = cho_solve(fac, h * u)
        v /= np.linalg.norm(v)
        lam_new = float(v @ G @ v) / (h * float(v @ v))
        done = abs(lam_new - lam) <= tol * abs(lam_new)
        lam = lam_new
        u = v
        if done:
            return lam
    raise SolverError("inverse power iteration did not settle", last=u,
                      iterations=max_iter, residual=np.nan)


def torsion_energy(u, K: Kernel, grid: Grid, V: Potential, rhs: float = 1.0) -> float:
    """E(u) = S(u)/p + (h/p) sum V |u|^p - rhs h sum u."""
    v = as_grid_function(u, K.n)
    S = seminorm_p(v, K)
    pot = grid.h * float(np.sum(V.values * np.abs(v) ** K.p))
    return S / K.p + pot / K.p - rhs * grid.h * float(np.sum(v))


def torsion_gradient(u, K: Kernel, grid: Grid, V: Potential, rhs: float = 1.0) -> np.ndarray:
    v = as_grid_function(u, K.n)
    return (apply_flap(v, K) / K.p + grid.h * V.values * phi_p(v, K.p)
            - rhs * grid.h)


def torsion_solve(K: Kernel, grid: Grid, V: Potential, tol: float,
                  rhs: float = 1.0, max_iter: int | None = None,
                  lambda1: float | None = None) -> TorsionResult:
    """Minimize the torsion energy; the solution should be strictly positive.

    When lambda1 is supplied the potential admissibility gate
    c_V < lambda1 is enforced up front.  A nonpositive node at
    convergence is flagged in the result (and logged), not raised: it
    would contradict the theory, so the caller gets to see it.
    """
    if tol <= 0.0:
        raise UsageError("tolerance must be positive, got %g" % tol)
    if lambda1 is not None and V.cV >= lambda1:
        raise PreconditionError(
            "c_V = %g >= lambda1 = %g: potential gate failed" % (V.cV, lambda1)
        )
    cap = TORSION_CAP_PER_NODE * K.n if max_iter is None else int(max_iter)
    # start on the hat ray at the best of a coarse log scan of t -> E(t*hat)
    hat = grid.d / np.max(grid.d)
    scales = np.geomspace(1e-3, 1e3, 25)
    vals = [torsion_energy(t * hat, K, grid, V, rhs) for t in scales]
    best = int(np.argmin(vals))

    def trial(u, alpha, g):
        v = u - alpha * g
        return v, torsion_energy(v, K, grid, V, rhs)

    u, E, residual, it, trace = bb_descent(
        scales[best] * hat, vals[best],
        lambda u, _: torsion_gradient(u, K, grid, V, rhs), trial, tol, cap, grid.h)
    positive = bool(np.min(u) > 0.0)
    result = TorsionResult(u=u, value=float(E), residual=residual,
                           iterations=it, positive=positive, trace=trace)
    if residual > tol:
        raise SolverError("torsion solver stalled at residual %g > tol %g" % (residual, tol),
                          last=result, iterations=it, residual=residual)
    if not positive:
        log.warning("torsion solution has a nonpositive node (min = %g); "
                    "this contradicts the positivity theory", float(np.min(u)))
    return result
