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
fixed point of the flow.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np
from scipy import optimize

from ._descent import _slack, bb_descent
from .errors import PotentialGateError, PreconditionError, SolverError, UsageError
from .grid import Grid, as_grid_function
from .kernel import Kernel, apply_flap, norm_W, phi_p, seminorm_p
from .model import Problem, energy, f_eval, gradient, primitive_envelope, residual_norm

log = logging.getLogger(__name__)

DESCENT_CAP_PER_NODE = 200
MP_OUTER_CAP = 2000
DISTINCT_REL = 1e-3
_DIVERGE_VALUE = -1e14
_DIVERGE_SUP = 1e12


@dataclass(frozen=True, eq=False)
class CriticalPoint:
    """A grid function with its energy, defect, classification and history.

    For the mountain pass, iterations counts the energy and gradient
    evaluations the path search made plus the polish flow steps.
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


def sobolev_constant(K: Kernel, grid: Grid, exponent: float,
                     seed: int = 0, iters: int = 400) -> float:
    """Estimate sup ||u||_t / S(u)^(1/p) for t = exponent by projected ascent.

    Maximizes the L^t mass on the unit sphere of the solution-space norm
    from several deterministic and seeded starting profiles; the caller is
    expected to inflate the estimate before using it as a certificate.
    """
    h = grid.h
    t = float(exponent)
    x = (grid.nodes - grid.a) / grid.length
    starts = [
        grid.d / np.max(grid.d),
        (grid.d / np.max(grid.d)) ** K.s,
        np.exp(-0.5 * ((x - 0.5) / 0.15) ** 2),
    ]
    rng = np.random.default_rng(seed)
    starts.extend(np.abs(rng.standard_normal(grid.n)) + 1e-3 for _ in range(2))
    best = 0.0
    for u0 in starts:
        u = u0 / norm_W(u0, K)
        mass = h * float(np.sum(np.abs(u) ** t))
        alpha = None
        for _ in range(iters):
            g = t * h * np.sign(u) * np.abs(u) ** (t - 1.0)
            if alpha is None:
                alpha = 0.1 / max(float(np.linalg.norm(g)), 1e-30)
            moved = False
            while alpha > 1e-14:
                v = np.abs(u + alpha * g)
                S = seminorm_p(v, K)
                if S > 0.0:
                    v = v / S ** (1.0 / K.p)
                    mass_v = h * float(np.sum(np.abs(v) ** t))
                    if mass_v > mass:
                        u, mass = v, mass_v
                        alpha *= 1.3
                        moved = True
                        break
                alpha *= 0.5
            if not moved:
                break
        best = max(best, mass ** (1.0 / t))
    return best


def certify_constants(prob: Problem, phi1, *, sobolev_inflate: float = 1.1,
                      seed: int = 0) -> ScalingConstants:
    """Evaluate the threshold formulas with numerically certified constants.

    lambda1 is taken as the Rayleigh quotient of the supplied eigenfunction
    (the Poincare step of the chain is then exact for that function), the
    embedding constant is estimated by ascent and inflated, and tau / c /
    the two lambda thresholds follow the analysis verbatim; the second
    threshold is capped at 1 per its statement.
    """
    phi = as_grid_function(phi1, prob.grid.n)
    K = prob.kernel
    grid = prob.grid
    p = prob.p
    q1 = prob.q + 1.0
    r = prob.r
    lam1 = seminorm_p(phi, K) / (grid.h * float(np.sum(np.abs(phi) ** p)))
    cV = prob.V.cV
    Vinf = prob.V.Vinf
    if cV >= lam1:
        raise PotentialGateError("c_V = %g >= lambda1 = %g" % (cV, lam1))
    A1, C1, B1 = primitive_envelope(prob.nl)
    C = sobolev_inflate * sobolev_constant(K, grid, q1, seed=seed)
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


def construct_endpoints(prob: Problem, phi1, constants: ScalingConstants | None = None
                        ) -> tuple[np.ndarray, np.ndarray, float, float]:
    """The two mountain-pass endpoints: the origin and c lambda^{-r} phi1.

    Warns (but proceeds) when lambda sits outside the certified window;
    the threshold formulas stay evaluable there, they just no longer
    guarantee the geometry.
    """
    phi = as_grid_function(phi1, prob.grid.n)
    if not np.all(phi > 0.0):
        raise UsageError("endpoint construction needs a strictly positive phi1")
    if constants is None:
        constants = certify_constants(prob, phi)
    if prob.lam >= constants.lam3:
        log.warning("lambda = %g outside the certified window (lam3 = %g); "
                    "endpoint geometry not guaranteed", prob.lam, constants.lam3)
    phin = phi / norm_W(phi, prob.kernel)
    e1 = constants.c * prob.lam ** (-prob.r) * phin
    return np.zeros(prob.grid.n), e1, constants.c, constants.tau


def ring_samples(K: Kernel, radius: float, count: int, seed: int = 0) -> list[np.ndarray]:
    """Seeded random grid functions with solution-space norm equal to radius."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        xi = rng.standard_normal(K.n)
        out.append(radius * xi / norm_W(xi, K))
    return out


def descend(u0, prob: Problem, tol: float, max_iter: int | None = None,
            seed: int = 0, do_classify: bool = True,
            rho: float | None = None, probes: int = 20) -> CriticalPoint:
    """Monotone descent of the energy to a residual-tol critical point.

    Divergence (the functional is unbounded below) is detected and raised
    as a solver error carrying the last iterate, as is the iteration cap.
    """
    if tol <= 0.0:
        raise UsageError("tolerance must be positive, got %g" % tol)
    n = prob.grid.n
    cap = DESCENT_CAP_PER_NODE * n if max_iter is None else int(max_iter)
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
                           tol, cap, prob.h, check=diverged))
    if cp.residual > tol:
        raise SolverError("descent stalled at residual %g > tol %g" % (cp.residual, tol),
                          last=cp, iterations=cp.iterations, residual=cp.residual)
    if do_classify:
        scale = norm_W(cp.u, prob.kernel) if np.any(cp.u) else 0.0
        radius = rho if rho is not None else max(1e-3, 1e-2 * scale)
        if classify(cp, prob, radius, probes, seed=seed) == "local-min":
            cp = replace(cp, tag="local-min")
    return cp


def classify(cp, prob: Problem, rho: float, m: int, seed: int = 0,
             arc_probes: int = 7) -> str:
    """Probe the rho-sphere around a critical point with m seeded directions.

    All probes strictly higher: local-min.  At least two descent
    directions whose connecting arc (rescaled onto the sphere) stays
    strictly above the center value: mountain-pass, the sublevel set is
    seen to be disconnected on the sphere.  Anything else: unknown.

    Two of the m directions are the estimated softest-curvature direction
    and its negative; with many nodes a purely random probe is nearly
    orthogonal to the lone descent direction of a saddle and would report
    local-min for it.  Deterministic for a fixed seed.
    """
    u = cp.u if isinstance(cp, CriticalPoint) else as_grid_function(cp, prob.grid.n)
    if rho <= 0.0:
        raise UsageError("probe radius must be positive, got %g" % rho)
    J0 = energy(u, prob)
    eps = 1e-12 * (1.0 + abs(J0))
    rng = np.random.default_rng(seed)
    fd_eps = 1e-5 * max(float(np.max(np.abs(u))), 1.0)
    soft = _negative_direction(u, rng.standard_normal(prob.grid.n), prob, fd_eps)
    dirs = []
    vals = []
    for k in range(int(m)):
        if k == 0:
            xi = soft
        elif k == 1:
            xi = -soft
        else:
            xi = rng.standard_normal(prob.grid.n)
        delta = rho * xi / norm_W(xi, prob.kernel)
        dirs.append(delta)
        vals.append(energy(u + delta, prob))
    vals = np.asarray(vals)
    if np.all(vals > J0 + eps):
        return "local-min"
    lower = [i for i, v in enumerate(vals) if v < J0 - eps]
    if len(lower) >= 2:
        ts = np.linspace(0.0, 1.0, arc_probes + 2)[1:-1]
        for a in range(len(lower)):
            for b in range(a + 1, len(lower)):
                da, db = dirs[lower[a]], dirs[lower[b]]
                ok = True
                for t in ts:
                    z = (1.0 - t) * da + t * db
                    nz = norm_W(z, prob.kernel)
                    if nz < 1e-8 * rho:
                        ok = False
                        break
                    if energy(u + rho * z / nz, prob) <= J0 + eps:
                        ok = False
                        break
                if ok:
                    return "mountain-pass"
    return "unknown"


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
    targets = np.linspace(0.0, total, P + 1)
    out = np.empty_like(path)
    out[0] = path[0]
    out[P] = path[P]
    k = 0
    for j in range(1, P):
        t = targets[j]
        while k < P - 1 and cum[k + 1] < t:
            k += 1
        width = cum[k + 1] - cum[k]
        frac = 0.0 if width == 0.0 else (t - cum[k]) / width
        out[j] = path[k] + frac * (path[k + 1] - path[k])
    return out


def _refine_maximizer(path: np.ndarray, J: np.ndarray, kmax: int,
                      prob: Problem, samples: int = 15) -> np.ndarray:
    """1-d max of the energy along the polyline near the max vertex."""
    P = path.shape[0] - 1
    best_u = path[kmax]
    best_J = J[kmax]
    for ka, kb in ((kmax - 1, kmax), (kmax, kmax + 1)):
        if ka < 0 or kb > P:
            continue
        for t in np.linspace(0.0, 1.0, samples + 2)[1:-1]:
            w = (1.0 - t) * path[ka] + t * path[kb]
            Jw = energy(w, prob)
            if Jw > best_J:
                best_J = Jw
                best_u = w
    return best_u.copy()


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
    for evals, k in enumerate(order, start=1):
        Jf[k] = energy(fine[k], prob)
        if accept is not None and not accept(Jf[k]):
            return fine, None, evals
    return fine, Jf, len(order)


def _hessian_product(w: np.ndarray, xi: np.ndarray, prob: Problem,
                     fd_eps: float) -> np.ndarray:
    """Central finite-difference Hessian-vector product of the energy."""
    return (gradient(w + fd_eps * xi, prob)
            - gradient(w - fd_eps * xi, prob)) / (2.0 * fd_eps)


def _negative_direction(w: np.ndarray, v: np.ndarray, prob: Problem,
                        fd_eps: float, inner: int = 40) -> np.ndarray:
    """Rotate v toward the most negative curvature direction of J at w.

    Rayleigh-quotient minimization with exact two-dimensional Rayleigh-Ritz
    steps on span{v, residual}, using finite-difference Hessian products.
    """
    v = v / max(float(np.linalg.norm(v)), 1e-300)
    for _ in range(inner):
        Hv = _hessian_product(w, v, prob, fd_eps)
        a = float(v @ Hv)
        resid = Hv - a * v
        rn = float(np.linalg.norm(resid))
        if rn < 1e-9 * max(1.0, abs(a)):
            break
        rhat = resid / rn
        Hr = _hessian_product(w, rhat, prob, fd_eps)
        b = float(rhat @ Hv)
        d = float(rhat @ Hr)
        mu = 0.5 * (a + d) - np.sqrt(0.25 * (a - d) ** 2 + b * b)
        c1, c2 = b, mu - a
        nc = np.hypot(c1, c2)
        if nc < 1e-14 * max(1.0, abs(mu)):
            break
        v = (c1 * v + c2 * rhat) / nc
        v = v / max(float(np.linalg.norm(v)), 1e-300)
    return v


def mountain_pass(prob: Problem, e0, e1, P: int = 21, tol: float = 1e-6,
                  seed: int = 0, max_outer: int | None = None,
                  polish_cap: int = 40000,
                  constants: ScalingConstants | None = None) -> CriticalPoint:
    """Elastic-path min-max search between e0 and e1, then saddle polish.

    max_outer caps the path-descent iterations; None means the default,
    MP_OUTER_CAP = 2000.
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
    for outer in range(MP_OUTER_CAP if max_outer is None else int(max_outer)):
        G = np.array([gradient(path[k], prob) for k in range(1, P)])
        evals += P - 1
        kmax = int(np.argmax(Jf[0::2]))
        k_int = min(max(kmax, 1), P - 1)
        res_max = float(np.linalg.norm(G[k_int - 1]) / np.sqrt(prob.h))
        if res_max <= tol:
            break
        # transverse descent for ordinary vertices, reversed tangential
        # component for the max vertex so it climbs toward the saddle;
        # without the projection the tangential force drags vertices off
        # the ridge and the discrete path loses the crossing
        F = np.empty_like(G)
        for k in range(1, P):
            t_vec = path[k + 1] - path[k - 1]
            nt = float(np.linalg.norm(t_vec))
            g_k = G[k - 1]
            if nt == 0.0:
                F[k - 1] = -g_k
                continue
            t_hat = t_vec / nt
            g_t = float(g_k @ t_hat)
            if k == k_int:
                F[k - 1] = -(g_k - 2.0 * g_t * t_hat)
            else:
                F[k - 1] = -(g_k - g_t * t_hat)
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

    J_path_min = float(np.min(Jf[0::2]))
    kref = int(np.argmax(Jf))
    w0 = _refine_maximizer(fine, Jf, kref, prob)
    tangent = fine[min(kref + 1, 2 * P)] - fine[max(kref - 1, 0)]

    u_best, r_best, flow_its = _polish_saddle(
        w0, tangent, prob, tol, polish_cap,
        value_lo=J_path_min, value_hi=M)
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
    lo_ok, hi_ok = _level_bracket(M)
    if not (lo_ok <= value <= hi_ok):
        raise SolverError(
            "polish converged at value %g, away from the path level %g" % (value, M),
            last=cp, iterations=total_its, residual=final_res)
    if constants is not None and prob.lam < constants.lam_hat2:
        bound = (1.0 / (4.0 * prob.p)) * (constants.tau * prob.lam ** (-prob.r)) ** prob.p
        if value < bound:
            log.warning("mountain-pass value %g below the ring bound %g "
                        "(lambda inside the certified window)", value, bound)
    tag = classify(cp, prob, max(1e-3, 1e-2 * norm_W(u_best, prob.kernel)),
                   20, seed=seed)
    if tag != "unknown":
        cp = CriticalPoint(u=cp.u, value=cp.value, residual=cp.residual,
                           tag=tag, iterations=cp.iterations,
                           path_value=cp.path_value, trace=cp.trace)
    return cp


def _level_bracket(M: float) -> tuple[float, float]:
    """Acceptance window around the recorded path level for polished values."""
    atol = 1e-9 + 1e-6 * abs(M)
    return M - 0.75 * abs(M) - atol, M + 0.25 * abs(M) + atol


def _stable_step(w: np.ndarray, v: np.ndarray, prob: Problem,
                 fd_eps: float, seed: int = 0) -> float:
    """1/L step estimate from sampled finite-difference curvature products."""
    rng = np.random.default_rng(seed)
    L = 1e-12
    dirs = [v] + [rng.standard_normal(w.size) for _ in range(3)]
    for xi in dirs:
        xi = xi / max(float(np.linalg.norm(xi)), 1e-300)
        L = max(L, float(np.linalg.norm(_hessian_product(w, xi, prob, fd_eps))))
    return 1.0 / L


def _polish_saddle(w0: np.ndarray, tangent: np.ndarray, prob: Problem,
                   tol: float, cap: int, value_lo: float, value_hi: float
                   ) -> tuple[np.ndarray, float, int]:
    """Reflected gradient flow from the path maximizer toward the saddle.

    The step reverses the gradient component along the estimated unstable
    direction, so the flow contracts toward the saddle from both sides;
    the direction estimate is refreshed periodically from finite-difference
    curvature and the step length comes from a sampled curvature bound.
    Keeps and returns the best-residual iterate; if the flow stalls above
    tolerance a damped Newton-Krylov fallback is tried from the best
    iterate, accepted only when it lands near the recorded path level.
    """
    sqrt_h = np.sqrt(prob.h)
    scale = max(float(np.max(np.abs(w0))), 1e-12)
    fd_eps = 1e-5 * scale
    margin = 0.5 * abs(value_hi - value_lo) + 10.0 * _slack(value_hi)
    it_total = 0
    w_best = w0.copy()
    r_best = residual_norm(w0, prob)
    v0 = tangent.copy()
    if float(np.linalg.norm(v0)) == 0.0:
        v0 = np.ones_like(w0)
    eta0 = _stable_step(w0, v0, prob, fd_eps)
    for round_ in range(3):
        w = w0.copy()
        v = _negative_direction(w, v0, prob, fd_eps)
        eta = eta0 / (3.0 ** round_)
        since_refresh = 0
        while it_total < cap:
            g = gradient(w, prob)
            r = float(np.linalg.norm(g) / sqrt_h)
            it_total += 1
            if r < r_best:
                r_best = r
                w_best = w.copy()
            if r <= tol:
                return w_best, r_best, it_total
            step = g - 2.0 * float(g @ v) * v
            w = w - eta * step
            if not np.all(np.isfinite(w)):
                break
            since_refresh += 1
            if since_refresh >= 40:
                v = _negative_direction(w, v, prob, fd_eps)
                since_refresh = 0
                val = energy(w, prob)
                if r > 50.0 * r_best or val > value_hi + margin or val < value_lo - margin:
                    break  # escaped the saddle bracket; restart smaller
        if r_best <= tol:
            break
    if r_best > tol:
        w_newton = _newton_fallback(w_best, prob, tol)
        if w_newton is not None:
            r_newton = residual_norm(w_newton, prob)
            val = energy(w_newton, prob)
            lo, hi = _level_bracket(value_hi)
            if r_newton < r_best and lo <= val <= hi:
                log.info("saddle polish used the Newton fallback "
                         "(flow residual %g, Newton residual %g)", r_best, r_newton)
                w_best, r_best = w_newton, r_newton
    return w_best, r_best, it_total


def _newton_fallback(w0: np.ndarray, prob: Problem, tol: float) -> np.ndarray | None:
    """Jacobian-free Newton-Krylov root solve of the gradient system."""
    sqrt_h = np.sqrt(prob.h)

    def fun(z):
        if not np.all(np.isfinite(z)):
            return np.full_like(z, 1e30)
        return gradient(z, prob)

    try:
        sol = optimize.root(fun, w0, method="krylov",
                            options={"fatol": 0.5 * tol * sqrt_h / np.sqrt(prob.grid.n),
                                     "maxiter": 300})
    except Exception:
        return None
    if not np.all(np.isfinite(sol.x)):
        return None
    return np.asarray(sol.x, dtype=float)


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
    h = prob.h
    phi = np.maximum(uu - vv, 0.0)
    Au = apply_flap(uu, prob.kernel) / prob.p + h * prob.V.values * phi_p(uu, prob.p)
    Av = apply_flap(vv, prob.kernel) / prob.p + h * prob.V.values * phi_p(vv, prob.p)
    pairing = float((Au - Av) @ phi)
    scale = float(np.sum(np.abs(phi) * (np.abs(Au) + np.abs(Av))))
    hypothesis = pairing <= 1e-10 * (1.0 + scale)
    max_excess = float(np.max(uu - vv))
    ordered = (max_excess <= 1e-10) if hypothesis else None
    return ComparisonReport(hypothesis=hypothesis, ordered=ordered,
                            pairing=pairing, max_excess=max_excess)


def positivity_check(cp, grid: Grid, s: float):
    """Nodewise positivity plus the boundary quotient u_i / d_i^s.

    The quotient echoes the boundary-behavior statement for positive
    solutions; it is a diagnostic, nothing asserts its limit discretely.
    """
    u = cp.u if hasattr(cp, "u") else cp
    u = as_grid_function(u, grid.n)
    mn = float(np.min(u)) if grid.n else 0.0
    quotient = u / grid.d ** s
    return bool(mn > 0.0), mn, quotient


def distinct(u, v) -> bool:
    """L-inf distinctness with a relative-plus-absolute threshold."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    gap = float(np.max(np.abs(u - v))) if u.size else 0.0
    ref = max(float(np.max(np.abs(u))) if u.size else 0.0,
              float(np.max(np.abs(v))) if v.size else 0.0, 1.0)
    return gap > DISTINCT_REL * ref


def find_second_solution(prob: Problem, first: CriticalPoint, tol: float,
                         e1=None, seed: int = 0,
                         max_iter: int | None = None) -> CriticalPoint | None:
    """Search for a critical point distinct from first; None when not found.

    Strategies, in order: descend from small starts adjacent to the origin
    (the f(0) != 0 case has a nearby local minimizer), descend from beyond
    the far endpoint (guarded: the functional is unbounded below there),
    and descend from scaled perturbations of the first solution.  Absence
    is a report, not an error.
    """
    if not np.isfinite(first.residual):
        raise UsageError("first critical point must be converged")
    n = prob.grid.n
    hat = prob.grid.d / np.max(prob.grid.d)
    hatn = hat / norm_W(hat, prob.kernel)
    ref_norm = norm_W(first.u, prob.kernel) if np.any(first.u) else 1.0
    rng = np.random.default_rng(seed)

    starts: list[np.ndarray] = []
    if f_eval(0.0, prob.nl) != 0.0:
        starts.append(np.zeros(n))
        for frac in (1e-3, 1e-2, 1e-1):
            jitter = 1.0 + 0.05 * rng.standard_normal(n)
            starts.append(frac * ref_norm * hatn * jitter)
    if e1 is not None:
        starts.append(1.5 * as_grid_function(e1, n))
    starts.append(0.5 * first.u)
    starts.append(1.5 * first.u)

    trivial_zero = f_eval(0.0, prob.nl) == 0.0
    for idx, u0 in enumerate(starts):
        try:
            cand = descend(u0, prob, tol, max_iter=max_iter,
                           seed=seed + 17 * idx)
        except SolverError as exc:
            log.debug("second-solution start %d failed: %s", idx, exc)
            continue
        if trivial_zero and not distinct(cand.u, np.zeros(n)):
            continue  # origin is a known solution when f(0) = 0, not a find
        if distinct(first.u, cand.u):
            return cand
    return None
