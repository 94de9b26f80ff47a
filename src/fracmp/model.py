"""Nonlinearity family, potential, hypothesis validators, energy and gradient.

The built-in nonlinearity is one parametric family covering f(0) > 0,
= 0 and < 0:

    f(s) = s^q + f0          for s >= 0,
    f(s) = f0 * (1 + s)      for -1 <= s < 0,
    f(s) = 0                 for s <= -1,

with primitive F(s) = integral of f from 0 to s, so F is constant below
-1 and F(0) = 0.  Both hypotheses on f are yes/no facts about this
formula and are decided from it exactly: the growth hypothesis is the
exponent window plus f0 > -1, and the superlinearity hypothesis a rule on
theta, q and f0.

energy and gradient take one grid function (n,) or a stack (B, n) and
return one energy or gradient row per row.  The stack goes through the
kernel's stacked tables and the same elementwise operations, and each sum
over nodes is the same pairwise sum along a row, so a stacked row is the
same bytes as the one-point call.  The input is validated once, by the
kernel call, before any product with it.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    ConfigurationError,
    ExponentWindowError,
    HypothesisError,
    OperatorRegimeError,
    UsageError,
)
from .grid import Grid, as_grid_function
from .kernel import Kernel, _weighted_table, apply_flap, phi_p, seminorm_p


@dataclass(frozen=True)
class NonlinearitySpec:
    """The family f(s) = s^q + f0 with its superlinearity exponent theta.

    validate_H1 and validate_AR decide its two hypotheses exactly.
    """

    q: float
    f0: float
    theta: float


def default_theta(q: float, p: float) -> float:
    """Default superlinearity exponent, strictly inside (p, q+1)."""
    return q + 1.0 - 0.1 * (q + 1.0 - p)


def _nonnegative(arr: np.ndarray) -> bool:
    """True for a C-contiguous array of at least one entry, none below 0.

    On such an array f and F are their s >= 0 branch on the whole array.
    Its power then runs numpy's contiguous loop, as it does on the masked
    entries; no other loop is let in, as scalar ** already differs from
    that loop in the last bit.  NaN fails the test.
    """
    return arr.ndim > 0 and arr.size > 0 and arr.flags.c_contiguous and arr.min() >= 0.0


def f_eval(s, nl: NonlinearitySpec):
    """Evaluate the nonlinearity f at scalar or array s.

    The two branches below 0 are one np.where over every entry, the branch
    at s >= 0 is evaluated on its entries only: each kept entry is the same
    float as on its branch alone.  A discarded entry of the np.where may
    overflow, hence its local errstate.  An array with no entry below 0
    (_nonnegative) skips the np.where and the mask.
    """
    arr = np.asarray(s, dtype=float)
    if _nonnegative(arr):
        return arr ** nl.q + nl.f0
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.where(arr > -1.0, nl.f0 * (1.0 + arr), 0.0)
    pos = arr >= 0.0
    out[pos] = arr[pos] ** nl.q + nl.f0
    return float(out) if np.isscalar(s) else out


def f_prime(s, nl: NonlinearitySpec):
    """f' at scalar or array s: q s^(q-1) for s >= 0 (0 included), f0 on (-1, 0), 0 below."""
    arr = np.asarray(s, dtype=float)
    out = np.where(arr > -1.0, nl.f0, 0.0)
    pos = arr >= 0.0
    out[pos] = nl.q * arr[pos] ** (nl.q - 1.0)
    return float(out) if np.isscalar(s) else out


def F_eval(s, nl: NonlinearitySpec):
    """Evaluate the primitive F(s) = int_0^s f (branches as in f_eval)."""
    arr = np.asarray(s, dtype=float)
    if _nonnegative(arr):
        return arr ** (nl.q + 1.0) / (nl.q + 1.0) + nl.f0 * arr
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.where(arr > -1.0, nl.f0 * (arr + arr ** 2 / 2.0), -nl.f0 / 2.0)
    pos = arr >= 0.0
    top = arr[pos]
    out[pos] = top ** (nl.q + 1.0) / (nl.q + 1.0) + nl.f0 * top
    return float(out) if np.isscalar(s) else out


def critical_exponent(p: float, s: float) -> float:
    """Fractional Sobolev critical exponent p*_s = p/(1 - s p) on the line."""
    sp = s * p
    if sp >= 1.0:
        raise OperatorRegimeError("s*p = %g >= 1: no subcritical window" % sp)
    return p / (1.0 - sp)


def exponent_window(p: float, s: float) -> tuple[float, float]:
    """Admissible open interval (p-1, p*_s - 1) for the growth exponent q."""
    return p - 1.0, critical_exponent(p, s) - 1.0


# Sampled suprema of the primitive envelope are inflated by this factor.
_ENVELOPE_INFLATE = 1.05


def validate_H1(nl: NonlinearitySpec, p: float, s: float) -> None:
    """Decide the growth hypothesis: q in the window, and f0 > -1.

    An envelope A(t^q - 1) <= f(t) <= B(t^q + 1) on t > 0 needs A >= -f0
    near t = 0 and A <= 1 on t > 1 (no A at all if f0 < -1); B = max(1, f0)
    and A = 1 fit iff -f0 <= 1.  The margin 1e-9 rejects f0 = -1 (A pinched).
    """
    lo, hi = exponent_window(p, s)
    if not lo < nl.q < hi:
        raise ExponentWindowError(
            "q=%g outside the window (%g, %g) for p=%g, s=%g" % (nl.q, lo, hi, p, s)
        )
    if not -nl.f0 < 1.0 - 1e-9:
        raise HypothesisError("no growth envelope: f0 = %g, need f0 > -1" % nl.f0)


def validate_AR(nl: NonlinearitySpec, p: float) -> None:
    """Decide superlinearity: s f(s) - theta F(s) bounded below, theta > p.

    The deficit is theta f0 / 2 below -1, bounded on [-1, 0], and
    (1 - theta/(q+1)) s^(q+1) + f0 (1 - theta) s above 0.  It is unbounded
    below exactly when theta > q+1, or theta = q+1 and f0 > 0.
    """
    if nl.theta <= p:
        raise HypothesisError("theta=%g must exceed p=%g" % (nl.theta, p))
    q1 = nl.q + 1.0
    if nl.theta > q1 or (nl.theta == q1 and nl.f0 > 0.0):
        raise HypothesisError(
            "deficit unbounded below: theta=%g against q+1=%g with f0=%g"
            % (nl.theta, q1, nl.f0)
        )


def make_nonlinearity(q: float, f0: float, p: float, s: float,
                      theta: float | None = None) -> NonlinearitySpec:
    """Build and fully certify a NonlinearitySpec for the given (p, s)."""
    q = float(q)
    f0 = float(f0)
    theta = default_theta(q, p) if theta is None else float(theta)
    nl = NonlinearitySpec(q=q, f0=f0, theta=theta)
    validate_H1(nl, p, s)
    validate_AR(nl, p)
    return nl


def primitive_envelope(nl: NonlinearitySpec) -> tuple[float, float, float]:
    """Constants (A1, C1, B1) boxing the primitive F.

    F(s) >= A1 (s^{q+1} - C1) for s >= 0 with A1 = 1/(2(q+1)) (half the
    integrated envelope constant A = 1, so C1 stays finite for f0 < 0), and
    F(s) <= B1 (|s|^{q+1} + 1) for all s.  Sampled suprema are inflated a
    little so the certificates err on the safe side; C1 has a small floor
    to keep downstream threshold formulas finite when the true supremum
    is zero.  The spec is taken as validated (validate_H1).
    """
    q1 = nl.q + 1.0
    A1 = 1.0 / (2.0 * q1)
    t_pos = np.geomspace(1e-8, 1e6, 4001)
    t_neg = np.linspace(-2.0, 0.0, 801)
    t_all = np.concatenate([t_neg, t_pos])
    ratio = F_eval(t_all, nl) / (np.abs(t_all) ** q1 + 1.0)
    B1 = _ENVELOPE_INFLATE * max(1.0 / q1, float(np.max(ratio)))
    gap = t_pos ** q1 - F_eval(t_pos, nl) / A1
    top = float(np.max(gap))
    C1 = max(1e-9, _ENVELOPE_INFLATE * top)
    return A1, C1, B1


@dataclass(frozen=True, eq=False)
class Potential:
    """Sampled potential with its negative-part size and sup norm."""

    values: np.ndarray
    cV: float
    Vinf: float


def make_potential(grid: Grid, constant: float | None = None,
                   values=None) -> Potential:
    """Build a Potential from a constant or from sampled node values."""
    if (constant is None) == (values is None):
        raise ConfigurationError("potential needs exactly one of constant/values")
    if constant is not None:
        vals = np.full(grid.n, float(constant))
    else:
        vals = as_grid_function(values, grid.n)
    return Potential(
        values=vals,
        cV=float(max(0.0, -np.min(vals))),
        Vinf=float(np.max(np.abs(vals))),
    )


@dataclass(frozen=True, eq=False)
class Problem:
    """One full instance: geometry, operator, potential, lambda, nonlinearity."""

    grid: Grid
    kernel: Kernel
    V: Potential
    lam: float
    nl: NonlinearitySpec

    @property
    def p(self) -> float:
        return self.kernel.p

    @property
    def s(self) -> float:
        return self.kernel.s

    @property
    def q(self) -> float:
        return self.nl.q

    @property
    def r(self) -> float:
        """Scaling exponent r = 1/(q+1-p) of the lambda power laws."""
        return 1.0 / (self.nl.q + 1.0 - self.kernel.p)

    @property
    def h(self) -> float:
        return self.grid.h

    @cached_property
    def hV(self) -> np.ndarray:
        """h V: the potential's weight in the gradient, formed once."""
        return self.grid.h * self.V.values

    @cached_property
    def lam_h(self) -> float:
        """lambda h: the nonlinearity's weight in the gradient."""
        return self.lam * self.grid.h


def make_problem(grid: Grid, kernel: Kernel, V: Potential, lam: float,
                 nl: NonlinearitySpec) -> Problem:
    """Assemble and sanity-check a Problem."""
    if kernel.n != grid.n:
        raise UsageError("kernel built for n=%d, grid has n=%d" % (kernel.n, grid.n))
    if len(V.values) != grid.n:
        raise UsageError("potential sampled at %d nodes, grid has %d" % (len(V.values), grid.n))
    lam = float(lam)
    if not (np.isfinite(lam) and lam > 0.0):
        raise ConfigurationError("lambda must be positive and finite, got %r" % lam)
    if nl.q + 1.0 <= kernel.p:
        raise ExponentWindowError("q+1 = %g <= p = %g: r undefined" % (nl.q + 1.0, kernel.p))
    return Problem(grid=grid, kernel=kernel, V=V, lam=lam, nl=nl)


def operator_energy(v: np.ndarray, K: Kernel, h: float, V: Potential):
    """S(v)/p + (h/p) sum V |v|^p: the operator part of every energy.

    seminorm_p comes first and validates v (one grid function or a stack).
    """
    S = seminorm_p(v, K)
    pot = h * np.sum(V.values * np.abs(v) ** K.p, axis=-1)
    E = S / K.p + pot / K.p
    return float(E) if v.ndim == 1 else E


def operator_action(v: np.ndarray, K: Kernel, h: float, V: Potential) -> np.ndarray:
    """A(v) = apply_flap(v)/p + h V Phi_p(v): the gradient of operator_energy.

    apply_flap validates v (one grid function or a stack) before any product
    with it.
    """
    return _action(v, K, h * V.values, phi_p(v, K.p))


def _action(v: np.ndarray, K: Kernel, hV: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """apply_flap(v)/p + (h V) phi, with phi = Phi_p(v) shared with apply_flap.

    Computed in place on apply_flap's fresh result, in the association of
    the formula.  phi_p raises no warning on a non-finite v, which apply_flap
    then rejects.
    """
    g = apply_flap(v, K, phi)
    g /= K.p
    g += hV * phi
    return g


def energy(u, prob: Problem):
    """J(u) = S(u)/p + (h/p) sum V |u|^p - lambda h sum F(u).

    A float for one grid function, an array of B for a stack (B, n).
    """
    v = np.asarray(u, dtype=float)
    J = operator_energy(v, prob.kernel, prob.h, prob.V)
    non = prob.h * np.sum(F_eval(v, prob.nl), axis=-1)
    J = J - prob.lam * non
    return float(J) if v.ndim == 1 else J


def gradient(u, prob: Problem) -> np.ndarray:
    """Exact Euclidean gradient of energy at u, one row per row of a stack."""
    v = np.asarray(u, dtype=float)
    g = _action(v, prob.kernel, prob.hV, phi_p(v, prob.kernel.p))
    f = f_eval(v, prob.nl)
    f *= prob.lam_h
    g -= f
    return g


def hessian(u, prob: Problem) -> np.ndarray:
    """The n x n Hessian of energy at one grid function u.

    Off the diagonal -2(p-1) W_kl |u_k - u_l|^(p-2); on it minus the
    off-diagonal row sum, plus (p-1) |u_k|^(p-2) (2 h t_k + h V_k)
    - lambda h f'(u_k).  Built in place in the kernel's weighted pair table
    W_kl |u_k - u_l|^(p-2) (kernel._weighted_table), so it holds one n x n
    array: one pass per row block builds its pair powers, weighs them by W
    and mirrors them into the rows below, exact as W is symmetric to the
    bit; from kernel._PARALLEL_ROWS rows on that pass is shared with the
    pool's thread, as the seminorm's and the operator's are.  At p < 2
    it is non-finite wherever two nodes coincide or a node vanishes.
    """
    v = as_grid_function(u, prob.grid.n)
    K = prob.kernel
    with np.errstate(divide="ignore", invalid="ignore"):
        H = _weighted_table(v[None], K.W_blocks, K.p - 2.0, False)[0]
        H *= -2.0 * (K.p - 1.0)
        np.fill_diagonal(H, 0.0)
        diag = (K.p - 1.0) * np.abs(v) ** (K.p - 2.0) * (2.0 * K.tail_weight + prob.hV)
        np.fill_diagonal(H, diag - prob.lam_h * f_prime(v, prob.nl) - H.sum(axis=1))
    return H


def residual_norm(u, prob: Problem) -> float:
    """||gradient||_2 / sqrt(h): the discrete L2 size of the equation defect."""
    return float(np.linalg.norm(gradient(u, prob)) / np.sqrt(prob.h))
