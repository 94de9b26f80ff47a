"""The one monotone descent driver: Barzilai-Borwein steps with backtracking.

The eigenpair, the torsion function and the energy descent all run
``bb_descent``; each passes in only its gradient and its trial step.
"""
from __future__ import annotations

import math

import numpy as np

# Acceptance slack and stagnation window for the descent loops.  The slack
# lets the iteration keep moving once objective decrements underflow; the
# window aborts a run whose residual has stopped improving.
_EPS_SLACK = 1e-14
_STALL_WINDOW = 500


def _slack(value: float) -> float:
    return _EPS_SLACK * (1.0 + abs(value))


def vector_norm(x: np.ndarray) -> float:
    """The 2-norm of a vector, the float np.linalg.norm(x) gives.

    np.linalg.norm takes a vector through ravel(order="K"), dot and sqrt;
    this makes the same calls without its dispatch, which costs more than
    the arithmetic at small n.  sqrt is correctly rounded in math and numpy.
    """
    x = x.ravel(order="K")
    return math.sqrt(x.dot(x))


def bb_alpha(du: np.ndarray, dg: np.ndarray, fallback: float) -> float:
    """Barzilai-Borwein step from a secant pair, clipped to [1e-14, 1e14].

    Prefers the long BB1 step; falls back to BB2, then to the supplied
    default when the curvature estimate is not positive.
    """
    uu = float(du @ du)
    ug = float(du @ dg)
    gg = float(dg @ dg)
    if ug > 0.0 and uu > 0.0:
        alpha = uu / ug
    elif ug > 0.0 and gg > 0.0:
        alpha = ug / gg
    else:
        alpha = fallback
    return float(np.clip(alpha, 1e-14, 1e14))


def bb_descent(u: np.ndarray, value: float, gradient, trial, tol: float,
               cap: int, h: float, check=None):
    """Monotone descent from (u, value) until the residual is at most tol.

    gradient(u, value) is the search direction g; the residual is its
    grid norm ||g|| / sqrt(h).  trial(u, alpha, g) returns a candidate
    (v, value_v); it is accepted when value_v <= value + slack, else alpha
    is halved, up to 60 times.  A run that no step size improves ends
    after that iteration; so does one whose residual has not dropped by
    1% within the stall window, or one that reaches cap iterations.
    check(u, value, residual, iterations, trace), when given, sees every
    accepted iterate and may raise to abort the run.

    Returns (u, value, residual, iterations, trace), the residual that of
    the returned u; the trace holds the starting value and every accepted
    one.  Convergence is the caller's test: residual <= tol.
    """
    sqrt_h = np.sqrt(h)
    trace = [value]
    du = g_prev = alpha = None
    it = 0
    best_residual = np.inf
    best_it = 0
    while True:
        g = gradient(u, value)
        residual = float(vector_norm(g) / sqrt_h)
        if residual <= tol or it >= cap:
            break
        if residual < 0.99 * best_residual:
            best_residual = residual
            best_it = it
        elif it - best_it > _STALL_WINDOW:
            break
        if g_prev is None:
            alpha = 0.1 / max(vector_norm(g), 1e-30)
        else:
            alpha = bb_alpha(du, g - g_prev, 2.0 * alpha)
        it += 1
        for _ in range(60):
            v, value_v = trial(u, alpha, g)
            if value_v <= value + _slack(value):
                break
            alpha *= 0.5
        else:
            # no step of any size lowers the objective: flat to machine precision
            break
        du = v - u
        g_prev = g
        u = v
        value = value_v
        trace.append(value)
        if check is not None:
            check(u, value, residual, it, trace)
    return u, value, residual, it, np.asarray(trace)
