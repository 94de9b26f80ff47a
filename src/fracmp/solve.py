"""Critical-point machinery: descent, endpoints, mountain pass, checks.

The certified constants chain follows the energy analysis: from the
primitive envelope (A1, C1, B1) and a numerically estimated embedding
constant, the balance identity fixes the ring radius factor tau, the
endpoint factor c, and the two lambda thresholds whose minimum bounds the
regime where the mountain geometry is guaranteed.  All estimated suprema
are inflated slightly so the certified inequalities err on the safe side.

The mountain-pass search is an elastic-path scheme: damped descent on
every interior vertex with a step accepted only if the path's max level
does not increase, plus energy-aware re-parameterization that
concentrates vertices near the maximizer.  The returned saddle is then
polished by a small-step gradient flow that reflects the step across the
estimated unstable direction, which turns the saddle into an attracting
fixed point of the flow; a damped Newton iteration takes over when the
flow ends above tolerance.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from ._descent import _slack, bb_descent, vector_norm
from .eigen import rayleigh, rayleigh_minimum
from .errors import PotentialGateError, PreconditionError, SolverError, UsageError
from .grid import Grid, as_grid_function
from .kernel import Kernel, _stack_rows, norm_W
from .model import (
    Problem,
    energy,
    f_eval,
    gradient,
    hessian,
    operator_action,
    primitive_envelope,
    residual_norm,
    validate_H1,
)

log = logging.getLogger(__name__)

DESCENT_CAP_PER_NODE = 200
MP_OUTER_CAP = 2000
POLISH_CAP = 40000
DISTINCT_REL = 1e-3
SOBOLEV_TOL = 1e-6
SOBOLEV_CAP_PER_NODE = 50
_DIVERGE_VALUE = -1e14
_DIVERGE_SUP = 1e12


@dataclass(frozen=True, eq=False)
class CriticalPoint:
    """A grid function with its energy, defect, classification and history.

    For the mountain pass, iterations counts the energy and gradient
    evaluations the path search made plus the polish flow steps.  An
    evaluation is one grid function, so a stacked call counts its rows;
    the rows of a path-scan stack after its first rejected sample are
    discarded and not counted.
    """

    u: np.ndarray
    value: float
    residual: float
    tag: str
    iterations: int
    path_value: float | None = None
    trace: np.ndarray | None = None


@dataclass(frozen=True)
class ScalingConstants:
    """Certified constants of the lambda-threshold and ring-bound formulas."""

    lambda1: float
    A1: float
    C1: float
    B1: float
    sobolev: float
    tau: float
    c: float
    lam_hat1: float
    lam_hat2: float

    @property
    def lam3(self) -> float:
        return min(self.lam_hat1, self.lam_hat2)

    def ring_radius(self, prob: Problem) -> float:
        """tau lambda^(-r): the norm of the ring that separates the endpoints."""
        return self.tau * prob.lam ** (-prob.r)

    def ring_bound(self, prob: Problem) -> float:
        """(1/(4p)) (tau lambda^(-r))^p: the energy floor on the ring."""
        return (1.0 / (4.0 * prob.p)) * self.ring_radius(prob) ** prob.p


def sobolev_constant(K: Kernel, grid: Grid, exponent: float) -> float:
    """sup ||u||_t / S(u)^(1/p) for t = exponent, as R^(-1/p) at the Rayleigh minimum R.

    ``eigen.rayleigh_minimum`` runs with mass exponent t from the hat tilted
    by 1 + 1e-4 (x - 1/2): the kernel and the hat are mirror-symmetric and
    the projected step keeps an even iterate even, so an even start finds
    only the best even function, and the maximizer need not be even (at
    n = 2 it is not).  A residual above SOBOLEV_TOL after the cap raises a
    solver error carrying the last iterate.  The caller is expected to
    inflate the estimate before using it as a certificate.
    """
    x = (grid.nodes - grid.a) / grid.length
    start = grid.d * (1.0 + 1e-4 * (x - 0.5))
    u, R, residual, it, _ = rayleigh_minimum(K, grid, float(exponent), start,
                                             SOBOLEV_TOL, SOBOLEV_CAP_PER_NODE * K.n)
    if residual > SOBOLEV_TOL:
        raise SolverError("embedding constant stalled at residual %g > tol %g"
                          % (residual, SOBOLEV_TOL),
                          last=u, iterations=it, residual=residual)
    return R ** (-1.0 / K.p)


def certify_constants(prob: Problem, phi1) -> ScalingConstants:
    """Evaluate the threshold formulas with numerically certified constants.

    lambda1 is taken as the Rayleigh quotient of the supplied eigenfunction
    (the Poincare step of the chain is then exact for that function), the
    embedding constant is a converged Rayleigh minimum inflated by 1.1,
    and tau / c / the two lambda thresholds follow the analysis verbatim;
    the second threshold is capped at 1 per its statement; validate_H1
    runs first.
    """
    validate_H1(prob.nl, prob.p, prob.s)
    phi = as_grid_function(phi1, prob.grid.n)
    K = prob.kernel
    grid = prob.grid
    p = prob.p
    q1 = prob.q + 1.0
    r = prob.r
    lam1 = rayleigh(phi, K, grid)
    cV = prob.V.cV
    Vinf = prob.V.Vinf
    if cV >= lam1:
        raise PotentialGateError("c_V = %g >= lambda1 = %g" % (cV, lam1))
    A1, C1, B1 = primitive_envelope(prob.nl)
    C = 1.1 * sobolev_constant(K, grid, q1)
    tau = (2.0 * (1.0 - cV / lam1) / (3.0 * p * C ** q1 * B1)) ** r
    phin = phi / norm_W(phi, K)
    phi_mass = grid.h * float(np.sum(np.abs(phin) ** q1))
    c = (2.0 * (1.0 + Vinf / lam1) / (p * A1 * phi_mass)) ** r
    omega = grid.length
    expo = 1.0 / (1.0 + r * p)
    lam_hat1 = (c ** p * (1.0 + Vinf / lam1) / (2.0 * p * A1 * C1 * omega)) ** expo
    lam_hat2 = min(1.0, (tau ** p * (1.0 - cV / lam1) / (4.0 * p * B1 * omega)) ** expo)
    return ScalingConstants(lambda1=float(lam1), A1=A1, C1=C1, B1=B1,
                            sobolev=float(C), tau=float(tau), c=float(c),
                            lam_hat1=float(lam_hat1), lam_hat2=float(lam_hat2))


def construct_endpoints(prob: Problem, phi1, constants: ScalingConstants
                        ) -> tuple[np.ndarray, np.ndarray]:
    """The two mountain-pass endpoints: the origin and c lambda^{-r} phi1.

    Warns (but proceeds) when lambda sits outside the certified window;
    the threshold formulas stay evaluable there, they just no longer
    guarantee the geometry.
    """
    phi = as_grid_function(phi1, prob.grid.n)
    if not np.all(phi > 0.0):
        raise UsageError("endpoint construction needs a strictly positive phi1")
    if prob.lam >= constants.lam3:
        log.warning("lambda = %g outside the certified window (lam3 = %g); "
                    "endpoint geometry not guaranteed", prob.lam, constants.lam3)
    phin = phi / norm_W(phi, prob.kernel)
    e1 = constants.c * prob.lam ** (-prob.r) * phin
    return np.zeros(prob.grid.n), e1


def ring_samples(K: Kernel, radius: float, count: int, seed: int = 0) -> list[np.ndarray]:
    """Seeded random grid functions with solution-space norm equal to radius."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        xi = rng.standard_normal(K.n)
        out.append(radius * xi / norm_W(xi, K))
    return out


def descend(u0, prob: Problem, tol: float) -> CriticalPoint:
    """Monotone descent of the energy to a residual-tol critical point.

    Divergence (the functional is unbounded below) is detected and raised
    as a solver error carrying the last iterate, as is the iteration cap,
    DESCENT_CAP_PER_NODE n.
    """
    if tol <= 0.0:
        raise UsageError("tolerance must be positive, got %g" % tol)
    n = prob.grid.n
    u = as_grid_function(u0, n).copy()

    def point(u, E, residual, it, trace) -> CriticalPoint:
        return CriticalPoint(u=u, value=float(E), residual=float(residual),
                             tag="unknown", iterations=it, trace=np.asarray(trace))

    def trial(u, alpha, g):
        v = u - alpha * g
        return v, energy(v, prob)

    def diverged(u, E, residual, it, trace):
        if E < _DIVERGE_VALUE or np.max(np.abs(u)) > _DIVERGE_SUP:
            raise SolverError("descent diverged (energy unbounded below)",
                              last=point(u, E, residual, it, trace), iterations=it,
                              residual=residual)

    cp = point(*bb_descent(u, energy(u, prob), lambda u, _: gradient(u, prob), trial,
                           tol, DESCENT_CAP_PER_NODE * n, prob.h, check=diverged))
    if cp.residual > tol:
        raise SolverError("descent stalled at residual %g > tol %g" % (cp.residual, tol),
                          last=cp, iterations=cp.iterations, residual=cp.residual)
    return replace(cp, tag=classify(cp, prob))


def classify(cp, prob: Problem) -> str:
    """local-min when the energy's Hessian H at the point is positive definite.

    Anything else is unknown.  H is eliminated in place without pivoting:
    by Sylvester's law of inertia it is positive definite exactly when every
    pivot (the D of H = L D L^T) is positive.  A pivot counts above 1e-10
    times the largest diagonal entry, a margin free of H's scale, so the
    test reads the same on H/h, whose spectrum does not depend on n.  A
    non-finite entry of H makes a diagonal one non-finite: no pivot passes.
    Elementwise numpy only: a first BLAS or LAPACK call costs more.
    """
    u = cp.u if isinstance(cp, CriticalPoint) else as_grid_function(cp, prob.grid.n)
    H = hessian(u, prob)
    floor = 1e-10 * float(np.abs(H.diagonal()).max())
    for k in range(len(H)):
        d = H[k, k]
        if not d > floor:
            return "unknown"
        # H is symmetric: row k stands for column k.  32 rows at a time, so
        # the update's temporary is small beside H
        for r0 in range(k + 1, len(H), 32):
            H[r0:r0 + 32, k + 1:] -= np.multiply.outer(H[k, r0:r0 + 32] / d, H[k, k + 1:])
    return "local-min"


def _reparametrize(path: np.ndarray, J: np.ndarray) -> np.ndarray:
    """Redistribute vertices by weighted arc length, endpoints pinned.

    Segment weights grow with the energy at their higher end, so equalizing
    weighted length shortens segments near the maximizer: vertices
    concentrate where resolution matters.
    """
    P = path.shape[0] - 1
    seg = np.linalg.norm(np.diff(path, axis=0), axis=1)
    if np.all(seg == 0.0):
        return path
    seg_top = np.maximum(J[:-1], J[1:])
    lo, hi = float(np.min(J)), float(np.max(J))
    w = 1.0 + 2.0 * (seg_top - lo) / (hi - lo + 1e-300)
    cum = np.concatenate([[0.0], np.cumsum(seg * w)])
    total = cum[-1]
    if total == 0.0:
        return path
    t = np.linspace(0.0, total, P + 1)[1:P]
    # interior target j lies on segment k, the first one whose end reaches it
    k = np.minimum(np.searchsorted(cum[1:], t), P - 1)
    width = cum[k + 1] - cum[k]
    frac = np.divide(t - cum[k], width, out=np.zeros(P - 1), where=width != 0.0)
    out = path.copy()
    out[1:P] = path[k] + frac[:, None] * (path[k + 1] - path[k])
    return out


def _path_forces(path: np.ndarray, G: np.ndarray, k_int: int) -> np.ndarray:
    """Projected forces on the interior vertices 1..P-1; G holds their gradients.

    Transverse descent for ordinary vertices, reversed tangential component
    for vertex k_int so it climbs toward the saddle; without the projection
    the tangential force drags vertices off the ridge and the discrete path
    loses the crossing.  Vertex k's tangent is path[k+1] - path[k-1]; where
    its norm is 0 the force is -G.  Each stacked product is the dot product
    of its one vector pair, so a row is the bytes of its vertex alone.
    """
    T = path[2:] - path[:-2]
    nt = np.sqrt((T[:, None, :] @ T[:, :, None])[:, 0, 0])
    zero = nt == 0.0
    t_hat = T / np.where(zero, 1.0, nt)[:, None]
    g_t = (G[:, None, :] @ t_hat[:, :, None])[:, 0, 0]
    g_t[k_int - 1] *= 2.0
    F = -(G - g_t[:, None] * t_hat)
    F[zero] = -G[zero]
    return F


def _refine_maximizer(path: np.ndarray, J: np.ndarray, kmax: int,
                      prob: Problem) -> tuple[np.ndarray, float]:
    """The 1-d max of the energy along the polyline near vertex kmax, and its energy."""
    P = path.shape[0] - 1
    t = np.linspace(0.0, 1.0, 15 + 2)[1:-1, None]  # 15 points inside each segment
    samples = np.concatenate([(1.0 - t) * path[ka] + t * path[kb]
                              for ka, kb in ((kmax - 1, kmax), (kmax, kmax + 1))
                              if ka >= 0 and kb <= P])
    best_u = path[kmax]
    best_J = J[kmax]
    for w, Jw in zip(samples, energy(samples, prob)):
        if Jw > best_J:
            best_J = Jw
            best_u = w
    return best_u.copy(), float(best_J)


def _refined_path(path: np.ndarray, prob: Problem, ends: tuple[float, float],
                  accept=None, start: int = 0
                  ) -> tuple[np.ndarray, np.ndarray | None, int]:
    """Vertices interleaved with segment midpoints, and their energies.

    The max over this refined sample set is what the accept test protects;
    a plain vertex max can miss the ridge entirely once a segment hops it.
    ends holds the energies of the two pinned endpoints, which are never
    re-evaluated.  With an accept test, samples are evaluated outward from
    index start and the scan stops at the first one that fails it; the
    energies are then None.  Returns (samples, energies, evaluations made).

    The samples are evaluated a stack at a time (kernel._stack_rows), in
    scan order, and the accept test runs sample by sample in that order.
    The rows of a stack after the first failure are computed but discarded,
    and not counted in the evaluations made.  A non-finite sample starts a
    stack of its own, so it raises only when the scan reaches it.
    """
    P = path.shape[0] - 1
    fine = np.empty((2 * P + 1, path.shape[1]))
    fine[0::2] = path
    fine[1::2] = 0.5 * (path[:-1] + path[1:])
    Jf = np.empty(2 * P + 1)
    Jf[0], Jf[2 * P] = ends
    if accept is not None and not (accept(Jf[0]) and accept(Jf[2 * P])):
        return fine, None, 0
    order = sorted(range(1, 2 * P), key=lambda k: abs(k - start))
    finite = np.isfinite(fine).all(axis=1)
    # the first stack is the start sample alone: a trial scan starts where
    # the path peaks, and most rejected trials fail right there
    step = 1
    made = 0
    while made < len(order):
        take = order[made:made + step]
        cut = next((i for i, k in enumerate(take) if not finite[k]), len(take))
        take = take[:max(cut, 1)]
        Jf[take] = energy(fine[take], prob)
        step = _stack_rows(path.shape[1])
        for k in take:
            made += 1
            if accept is not None and not accept(Jf[k]):
                return fine, None, made
    return fine, Jf, made


def _hessian_product(w: np.ndarray, xi: np.ndarray, prob: Problem,
                     fd_eps: float) -> np.ndarray:
    """Central finite-difference Hessian-vector product of the energy.

    xi is one direction or a stack of them; the gradients at w + eps xi and
    w - eps xi of every direction are one stacked call, on points filled
    into one array, and the difference quotient is taken in place.
    """
    B = len(xi) if xi.ndim == 2 else 1
    X = np.empty((2 * B, w.size))
    step = np.multiply(fd_eps, xi, out=X[B:])
    np.add(w, step, out=X[:B])
    np.subtract(w, step, out=step)
    g = gradient(X, prob)
    Hxi = g[:B]
    Hxi -= g[B:]
    Hxi /= 2.0 * fd_eps
    return Hxi if xi.ndim == 2 else Hxi[0]


def _negative_direction(w: np.ndarray, v: np.ndarray, prob: Problem,
                        fd_eps: float) -> np.ndarray:
    """Rotate v toward the most negative curvature direction of J at w.

    Rayleigh-quotient minimization with exact two-dimensional Rayleigh-Ritz
    steps on span{v, residual}, using finite-difference Hessian products.
    A non-finite Rayleigh quotient or Ritz value overflow keeps the last v.
    """
    v = v / max(vector_norm(v), 1e-300)
    for _ in range(40):
        Hv = _hessian_product(w, v, prob, fd_eps)
        a = float(v @ Hv)
        if not np.isfinite(a):
            break
        resid = Hv - a * v
        rn = vector_norm(resid)
        if rn < 1e-9 * max(1.0, abs(a)):
            break
        rhat = resid / rn
        Hr = _hessian_product(w, rhat, prob, fd_eps)
        b = float(rhat @ Hv)
        d = float(rhat @ Hr)
        try:
            mu = 0.5 * (a + d) - np.sqrt(0.25 * (a - d) ** 2 + b * b)
        except OverflowError:
            break
        c1, c2 = b, mu - a
        nc = np.hypot(c1, c2)
        if nc < 1e-14 * max(1.0, abs(mu)):
            break
        v = (c1 * v + c2 * rhat) / nc
        v = v / max(vector_norm(v), 1e-300)
    return v


def mountain_pass(prob: Problem, e0, e1, P: int = 21, tol: float = 1e-6,
                  constants: ScalingConstants | None = None) -> CriticalPoint:
    """Elastic-path min-max search between e0 and e1, then saddle polish.

    MP_OUTER_CAP caps the path-descent iterations.  The point's tag is
    "unknown": nothing here certifies its Morse type.
    """
    if P < 8:
        raise UsageError("path needs at least 8 segments, got P=%d" % P)
    n = prob.grid.n
    a0 = as_grid_function(e0, n)
    a1 = as_grid_function(e1, n)
    if np.array_equal(a0, a1):
        raise UsageError("mountain pass endpoints coincide")
    J1 = energy(a1, prob)
    J0 = energy(a0, prob)
    if J1 > max(J0, 0.0) + _slack(J0):
        log.warning("energy(e1) = %g above the endpoint budget; geometry dubious", J1)

    ts = np.linspace(0.0, 1.0, P + 1)[:, None]
    path = a0[None, :] * (1.0 - ts) + a1[None, :] * ts
    # path[0] and path[P] are e0 and e1 and never move
    ends = (J0, J1)
    fine, Jf, made = _refined_path(path, prob, ends)
    evals = 2 + made
    M = float(np.max(Jf))
    levels = [M]
    sep = float(np.max(np.abs(a1 - a0)))

    def _failure(message: str) -> SolverError:
        kref = int(np.argmax(Jf))
        u = fine[kref].copy()
        last = CriticalPoint(u=u, value=float(Jf[kref]),
                             residual=residual_norm(u, prob), tag="unknown",
                             iterations=evals, path_value=M,
                             trace=np.asarray(levels))
        return SolverError(message, last=last, iterations=outer, residual=res_max)

    # per-vertex trust radius: keeps any single step bounded even when a
    # vertex sits on a steep unbounded descent direction
    delta = 0.05 * sep
    alpha = None
    stall = 0
    res_max = np.inf
    outer = 0
    for outer in range(MP_OUTER_CAP):
        G = gradient(path[1:P], prob)
        evals += P - 1
        kmax = int(np.argmax(Jf[0::2]))
        k_int = min(max(kmax, 1), P - 1)
        res_max = float(vector_norm(G[k_int - 1]) / np.sqrt(prob.h))
        if res_max <= tol:
            break
        F = _path_forces(path, G, k_int)
        if alpha is None:
            gs = float(np.max(np.linalg.norm(G, axis=1)))
            alpha = 0.05 * sep / max(gs, 1e-30)
        # a trial is rejected at its first refined sample over the level,
        # so the scan starts where the current path peaks
        bound = M + _slack(M)
        kref = int(np.argmax(Jf))
        accepted = False
        for _ in range(45):
            sup = alpha * np.max(np.abs(F), axis=1)
            clip = np.minimum(1.0, delta / np.maximum(sup, 1e-300))
            trial = path.copy()
            trial[1:P] = path[1:P] + (alpha * clip)[:, None] * F
            fine_t, Jf_t, made = _refined_path(
                trial, prob, ends, lambda v: np.isfinite(v) and v <= bound, kref)
            evals += made
            if Jf_t is not None:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            stall += 1
            if stall >= 3:
                break
            alpha = None
            continue
        path, fine, Jf = trial, fine_t, Jf_t
        M_new = float(np.max(Jf))
        alpha *= 1.25
        # re-distribute, but never let bookkeeping raise the recorded level
        re_path = _reparametrize(path, Jf[0::2])
        bound_re = M_new + _slack(M_new)
        fine_re, Jf_re, made = _refined_path(
            re_path, prob, ends, lambda v: v <= bound_re, int(np.argmax(Jf)))
        evals += made
        if Jf_re is not None:
            path, fine, Jf = re_path, fine_re, Jf_re
            M_new = min(M_new, float(np.max(Jf)))
        M = min(M, M_new)
        levels.append(M)
        if float(np.max(np.abs(path))) > 50.0 * max(sep, 1.0):
            raise _failure("mountain-pass path diverged")
        if np.max(np.abs(path[1:P] - a0[None, :])) < 1e-9 * sep or \
           np.max(np.abs(path[1:P] - a1[None, :])) < 1e-9 * sep:
            raise _failure("path collapsed onto an endpoint")
        if len(levels) > 40 and levels[-40] - M < 1e-10 * (1.0 + abs(M)):
            break

    kref = int(np.argmax(Jf))
    w0, level = _refine_maximizer(fine, Jf, kref, prob)
    tangent = fine[min(kref + 1, 2 * P)] - fine[max(kref - 1, 0)]

    u_best, flow_its = _polish_saddle(w0, tangent, prob, tol)
    total_its = evals + flow_its
    value = energy(u_best, prob)
    final_res = residual_norm(u_best, prob)
    cp = CriticalPoint(u=u_best, value=float(value), residual=float(final_res),
                       tag="unknown", iterations=total_its,
                       path_value=M, trace=np.asarray(levels))
    if final_res > tol:
        raise SolverError(
            "mountain pass polished to residual %g > tol %g" % (final_res, tol),
            last=cp, iterations=total_its, residual=final_res)
    lo_ok, hi_ok = _level_bracket(level)
    if not (lo_ok <= value <= hi_ok):
        raise SolverError(
            "polish converged at value %g, away from the path level %g" % (value, level),
            last=cp, iterations=total_its, residual=final_res)
    if constants is not None and prob.lam < constants.lam_hat2:
        bound = constants.ring_bound(prob)
        if value < bound:
            log.warning("mountain-pass value %g below the ring bound %g "
                        "(lambda inside the certified window)", value, bound)
    return cp


def _level_bracket(M: float) -> tuple[float, float]:
    """Acceptance window for polished values around M, a level the path attains."""
    atol = 1e-9 + 1e-6 * abs(M)
    return M - 0.75 * abs(M) - atol, M + 0.25 * abs(M) + atol


def _stable_step(w: np.ndarray, v: np.ndarray, prob: Problem, fd_eps: float) -> float:
    """1/L step estimate from sampled finite-difference curvature products."""
    rng = np.random.default_rng(0)
    L = 1e-12
    dirs = [xi / max(float(np.linalg.norm(xi)), 1e-300)
            for xi in [v] + [rng.standard_normal(w.size) for _ in range(3)]]
    for Hxi in _hessian_product(w, np.array(dirs), prob, fd_eps):
        L = max(L, float(np.linalg.norm(Hxi)))
    return 1.0 / L


def _polish_saddle(w0: np.ndarray, tangent: np.ndarray, prob: Problem,
                   tol: float) -> tuple[np.ndarray, int]:
    """Reflected gradient flow from the path maximizer toward the saddle.

    The step reverses the gradient component along the estimated unstable
    direction, so the flow contracts toward the saddle from both sides;
    the direction estimate is refreshed periodically from finite-difference
    curvature and the step length comes from a sampled curvature bound.
    The flow runs in up to three rounds from the maximizer, each with a
    third of the step before it.  A round ends at tol (the polish is then
    done), on a non-finite iterate, or when the residual at a direction
    refresh exceeds 50 times the best; POLISH_CAP caps the steps of all
    rounds.  Keeps and returns the best-residual iterate, with the flow
    steps taken; if the flow stalls above tolerance a damped Newton
    iteration with the exact Hessian from the best iterate replaces it
    when its residual is lower.
    """
    sqrt_h = np.sqrt(prob.h)
    scale = max(float(np.max(np.abs(w0))), 1e-12)
    fd_eps = 1e-5 * scale
    it_total = 0
    w_best = w0.copy()
    r_best = residual_norm(w0, prob)
    v0 = tangent.copy()
    if float(np.linalg.norm(v0)) == 0.0:
        v0 = np.ones_like(w0)
    eta0 = _stable_step(w0, v0, prob, fd_eps)
    # an iterate that escapes overflows on its way out; the non-finite
    # iterate is the restart signal, so the overflow is not reported
    with np.errstate(over="ignore", invalid="ignore"):
        v_start = _negative_direction(w0, v0, prob, fd_eps)
        for round_ in range(3):
            w = w0.copy()
            v = v_start
            eta = eta0 / (3.0 ** round_)
            since_refresh = 0
            while it_total < POLISH_CAP:
                g = gradient(w, prob)
                r = float(vector_norm(g) / sqrt_h)
                it_total += 1
                if r < r_best:
                    r_best = r
                    w_best = w.copy()
                if r <= tol:
                    return w_best, it_total
                step = g - 2.0 * float(g @ v) * v
                w = w - eta * step
                if not np.all(np.isfinite(w)):
                    break
                since_refresh += 1
                if since_refresh >= 40:
                    v = _negative_direction(w, v, prob, fd_eps)
                    since_refresh = 0
                    if r > 50.0 * r_best:
                        break  # left the saddle; restart smaller
    if r_best > tol:
        # damped Newton on grad J = 0 from the best iterate, backtracking on ||grad J||
        w, g = w_best, gradient(w_best, prob)
        r = vector_norm(g)
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(50):
                try:
                    dw = np.linalg.solve(hessian(w, prob), g)
                except np.linalg.LinAlgError:
                    break
                for t in 0.5 ** np.arange(11):
                    z = w - t * dw
                    if np.isfinite(z).all():
                        gz = gradient(z, prob)
                        rz = vector_norm(gz)
                        if rz < (1.0 - 0.5 * t) * r:
                            break
                else:
                    break
                w, g, r = z, gz, rz
        r_newton = float(r / sqrt_h)
        if r_newton < r_best:
            log.info("saddle polish used the Newton fallback "
                     "(flow residual %g, Newton residual %g)", r_best, r_newton)
            w_best = w
    return w_best, it_total


@dataclass(frozen=True, eq=False)
class ComparisonReport:
    """Outcome of the discrete comparison test.

    ordered is None when the sub/supersolution hypothesis itself fails
    (the comparison is then vacuous and asserts nothing).
    """

    hypothesis: bool
    ordered: bool | None
    pairing: float
    max_excess: float

    def __bool__(self) -> bool:
        return bool(self.hypothesis) and bool(self.ordered)


def comparison_check(u, v, prob: Problem) -> ComparisonReport:
    """Discrete comparison principle: ordered operator actions force u <= v.

    Tests the hypothesis <A(u) - A(v), (u-v)^+> <= 0 with A the operator
    action (seminorm gradient over p plus the potential term), then the
    nodewise conclusion max(u - v) <= 1e-10.
    """
    if np.any(prob.V.values < 0.0):
        raise PreconditionError("comparison principle requires V >= 0 at all nodes")
    n = prob.grid.n
    uu = as_grid_function(u, n)
    vv = as_grid_function(v, n)
    phi = np.maximum(uu - vv, 0.0)
    Au = operator_action(uu, prob.kernel, prob.h, prob.V)
    Av = operator_action(vv, prob.kernel, prob.h, prob.V)
    pairing = float((Au - Av) @ phi)
    scale = float(np.sum(np.abs(phi) * (np.abs(Au) + np.abs(Av))))
    hypothesis = pairing <= 1e-10 * (1.0 + scale)
    max_excess = float(np.max(uu - vv))
    ordered = (max_excess <= 1e-10) if hypothesis else None
    return ComparisonReport(hypothesis=hypothesis, ordered=ordered,
                            pairing=pairing, max_excess=max_excess)


def positivity_check(cp, grid: Grid):
    """Nodewise positivity: (every entry > 0, the least entry)."""
    u = cp.u if hasattr(cp, "u") else cp
    mn = float(np.min(as_grid_function(u, grid.n)))
    return bool(mn > 0.0), mn


def distinct(u, v) -> bool:
    """L-inf distinctness with a relative-plus-absolute threshold."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    gap = float(np.max(np.abs(u - v))) if u.size else 0.0
    ref = max(float(np.max(np.abs(u))) if u.size else 0.0,
              float(np.max(np.abs(v))) if v.size else 0.0, 1.0)
    return gap > DISTINCT_REL * ref


def find_second_solution(prob: Problem, first: CriticalPoint, tol: float
                         ) -> CriticalPoint | None:
    """Search for a critical point distinct from first; None when not found.

    With f(0) = 0 the origin is the second, trivial, solution (a strict
    local minimum), and there is nothing to search for: None at once.  With
    f(0) != 0 a local minimizer lies below the mountain-pass ridge: descend
    from the origin, then from half the first solution.  Starts past the
    ridge are not tried, as the functional is unbounded below there.
    Absence is a report, not an error.
    """
    if not np.isfinite(first.residual):
        raise UsageError("first critical point must be converged")
    if f_eval(0.0, prob.nl) == 0.0:
        return None
    for idx, u0 in enumerate((np.zeros(prob.grid.n), 0.5 * first.u)):
        try:
            cand = descend(u0, prob, tol)
        except SolverError as exc:
            log.debug("second-solution start %d failed: %s", idx, exc)
            continue
        if distinct(first.u, cand.u):
            return cand
    return None
