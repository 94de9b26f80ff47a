"""Rayleigh-quotient minimization (the first eigenpair and the embedding
constant) and the torsion problem.

Both solvers run the monotone Barzilai-Borwein descent with backtracking
of ``_descent.bb_descent``, each with its own trial step: every accepted
step lowers the objective (up to a machine-epsilon slack; near
convergence the true decrement drops below one ulp of the objective
while the gradient still has room to shrink), so the recorded traces are
non-increasing to floating-point resolution.  ``rayleigh_minimum``
minimizes S(u) / ||u||_t^p for any mass exponent t: the first eigenpair
is its t = p case, and ``solve.sobolev_constant`` runs it at t = q + 1.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from ._descent import bb_descent
from .errors import PreconditionError, SolverError, UsageError
from .grid import Grid, as_grid_function
from .kernel import Kernel, apply_flap, phi_p, quadratic_form_matrix, seminorm_p
from .model import Potential, operator_action, operator_energy

log = logging.getLogger(__name__)

EIGEN_CAP_PER_NODE = 50
TORSION_CAP_PER_NODE = 200
INVERSE_POWER_CAP = 10000


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
    """Minimizer of the torsion energy (right-hand side 1), with diagnostics."""

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


def rayleigh_minimum(K: Kernel, grid: Grid, t: float, start, tol: float, cap: int):
    """Minimize R(u) = S(u) / (h sum |u_i|^t)^(p/t) over u >= 0 on the sphere S(u) = 1.

    The projected descent of ``bb_descent`` from start: each trial step
    is |u - alpha g| (|u| can only lower the quotient, the kernel weights
    being nonnegative) renormalized to S = 1, where R = 1/(h sum v^t)^(p/t).
    The defect apply_flap(u)/p - R^(t/p) h Phi_t(u) is parallel to the
    sphere gradient of R.  At t = p this is the first eigenvalue; at t > p
    it is C^(-p) for the embedding constant C = sup ||u||_t / S(u)^(1/p).
    Returns bb_descent's (u, R, residual, iterations, trace); convergence
    is the caller's test.
    """
    p = K.p
    h = grid.h
    u = np.abs(start)
    u = u / seminorm_p(u, K) ** (1.0 / p)
    mass = h * float(np.sum(u ** t))

    def defect(u, R):
        # parallel to the sphere gradient of R; scale folded into the step
        return apply_flap(u, K) / p - R ** (t / p) * h * phi_p(u, t)

    def trial(u, alpha, g):
        v = np.abs(u - alpha * g)
        S = seminorm_p(v, K)
        if not S > 0.0:
            return v, np.inf
        v = v / S ** (1.0 / p)
        return v, 1.0 / (h * float(np.sum(v ** t))) ** (p / t)

    # S(u) = 1 after normalization
    return bb_descent(u, 1.0 / mass ** (p / t), defect, trial, tol, cap, h)


def first_eigenpair(K: Kernel, grid: Grid, tol: float) -> EigenResult:
    """Minimize the Rayleigh quotient (t = p) by projected descent from the hat profile.

    The Euler-Lagrange residual ||apply_flap(phi)/p - lambda1 h Phi_p(phi)||_2
    / sqrt(h) is driven below tol; non-convergence within EIGEN_CAP_PER_NODE
    n iterations raises a solver error carrying the last iterate.
    """
    if tol <= 0.0:
        raise UsageError("tolerance must be positive, got %g" % tol)
    u, R, residual, it, trace = rayleigh_minimum(K, grid, K.p, grid.d, tol,
                                                 EIGEN_CAP_PER_NODE * K.n)
    result = EigenResult(lambda1=float(R), phi1=u, residual=residual,
                         iterations=it, trace=trace)
    if residual > tol:
        raise SolverError("eigen solver stalled at residual %g > tol %g" % (residual, tol),
                          last=result, iterations=it, residual=residual)
    return result


def inverse_power_lambda1(K: Kernel, grid: Grid, tol: float = 1e-12) -> float:
    """p = 2 cross-check: inverse power iteration on the assembled pencil.

    Solves G v = mu h v for the smallest mu via repeated Cholesky solves;
    independent of the projected-descent path through the code.  scipy
    is imported here, so that only this oracle loads it.
    """
    from scipy.linalg import cho_factor, cho_solve

    if K.p != 2.0:
        raise UsageError("inverse power iteration applies at p = 2 only")
    G = quadratic_form_matrix(K)
    fac = cho_factor(G)
    h = grid.h
    u = np.abs(grid.d.copy())
    u /= np.linalg.norm(u)
    lam = np.inf
    for _ in range(INVERSE_POWER_CAP):
        v = cho_solve(fac, h * u)
        v /= np.linalg.norm(v)
        lam_new = float(v @ G @ v) / (h * float(v @ v))
        done = abs(lam_new - lam) <= tol * abs(lam_new)
        lam = lam_new
        u = v
        if done:
            return lam
    raise SolverError("inverse power iteration did not settle", last=u,
                      iterations=INVERSE_POWER_CAP, residual=np.nan)


def torsion_energy(u, K: Kernel, grid: Grid, V: Potential) -> float:
    """E(u) = S(u)/p + (h/p) sum V |u|^p - h sum u: the right-hand side is 1."""
    v = as_grid_function(u, K.n)
    return operator_energy(v, K, grid.h, V) - grid.h * float(np.sum(v))


def torsion_gradient(u, K: Kernel, grid: Grid, V: Potential) -> np.ndarray:
    """The gradient of torsion_energy, operator_action(u) - h."""
    v = as_grid_function(u, K.n)
    return operator_action(v, K, grid.h, V) - grid.h


def _torsion_start(hat: np.ndarray, K: Kernel, grid: Grid,
                   V: Potential) -> tuple[float, float]:
    """The t of least E(t hat) on a log scan of 25 scales, and that energy.

    The energy is p-homogeneous plus linear on the ray, E(t hat) = t^p A - t B
    with A = operator_energy(hat) and B = h sum(hat), so the closed form
    finds the least scale up to rounding, and the exact energy at it and its
    neighbours settles it as a scan of every scale would: the first least
    of the exact values, E being unimodal in t (A > 0 when c_V < lambda1).
    Four pair tables, not 25.
    """
    scales = np.geomspace(1e-3, 1e3, 25)
    A = operator_energy(hat, K, grid.h, V)
    B = grid.h * float(np.sum(hat))
    near = int(np.argmin(scales ** K.p * A - scales * B))
    first = max(near - 1, 0)
    vals = [torsion_energy(t * hat, K, grid, V) for t in scales[first:near + 2]]
    k = int(np.argmin(vals))
    return scales[first + k], vals[k]


def torsion_solve(K: Kernel, grid: Grid, V: Potential, tol: float,
                  lambda1: float | None = None) -> TorsionResult:
    """Minimize the torsion energy (right-hand side 1); the solution should be positive.

    When lambda1 is supplied the potential admissibility gate
    c_V < lambda1 is enforced up front.  Non-convergence within
    TORSION_CAP_PER_NODE n iterations raises a solver error carrying the
    last iterate.  A nonpositive node at convergence is flagged in the
    result (and logged), not raised: it would contradict the theory, so
    the caller gets to see it.
    """
    if tol <= 0.0:
        raise UsageError("tolerance must be positive, got %g" % tol)
    if lambda1 is not None and V.cV >= lambda1:
        raise PreconditionError(
            "c_V = %g >= lambda1 = %g: potential gate failed" % (V.cV, lambda1)
        )
    hat = grid.d / np.max(grid.d)
    t, E0 = _torsion_start(hat, K, grid, V)

    def trial(u, alpha, g):
        v = u - alpha * g
        return v, torsion_energy(v, K, grid, V)

    u, E, residual, it, trace = bb_descent(
        t * hat, E0, lambda u, _: torsion_gradient(u, K, grid, V), trial, tol,
        TORSION_CAP_PER_NODE * K.n, grid.h)
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
