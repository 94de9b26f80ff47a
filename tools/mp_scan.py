"""Outcome of the mountain pass over a seeded grid of instances, one line each.

usage: PYTHONPATH=src python tools/mp_scan.py [--seed S] [--count N]

The tool draws N instances (default 120) with numpy's default_rng(S)
(default seed 0), each axis independently, from the grid

    n       24, 32, 48, 64
    (s, p)  (0.2, 2), (0.3, 2), (0.4, 2), (0.3, 2.5), (0.2, 3), (0.3, 2.2)
    q       0.2, 0.35, 0.5, 0.65 or 0.8 of the way across the exponent
            window (p - 1, p*_s - 1), capped at p + 6
    f0      1, 0.5, -0.5, 0
    V       0, 0.25, -0.5, 1 (a constant potential)
    lambda  0.1, 0.3, 0.5, 1, 3

on (0, 1).  For each it solves the first eigenpair (tol 1e-9), certifies
the constants, builds the endpoints and runs solve.mountain_pass (tol
1e-6), then prints the instance and its outcome:

    <i> n=<n> s=<s> p=<p> q=<q> f0=<f0> V=<V> lam=<lam>  ok <sha> <e1>,<e2>

where <sha> is the SHA-256 of the point's u, value, residual, iterations
and path_value, and <e1>,<e2> are the two lowest eigenvalues of H/h at u
(one negative at a mountain-pass point); or, when any step raises,

    <i> n=<n> ... lam=<lam>  <ErrorClass>: <message>

Lines carry no time, so `diff` of the outputs of two checkouts, each run
with the same seed and count, lists exactly the instances whose outcome
changed.  Log records and numpy warnings go to stderr.
"""
from __future__ import annotations

import argparse
import hashlib
import sys

import numpy as np

from fracmp import (
    assemble_kernel,
    build_grid,
    certify_constants,
    construct_endpoints,
    exponent_window,
    first_eigenpair,
    make_nonlinearity,
    make_potential,
    make_problem,
    mountain_pass,
)
from fracmp.model import hessian

SIZES = (24, 32, 48, 64)
SP = ((0.2, 2.0), (0.3, 2.0), (0.4, 2.0), (0.3, 2.5), (0.2, 3.0), (0.3, 2.2))
Q_FRACTIONS = (0.2, 0.35, 0.5, 0.65, 0.8)
F0 = (1.0, 0.5, -0.5, 0.0)
V_CONST = (0.0, 0.25, -0.5, 1.0)
LAMBDAS = (0.1, 0.3, 0.5, 1.0, 3.0)


def instances(seed: int, count: int) -> list[tuple]:
    """count instances (n, s, p, q, f0, V, lam) drawn from the grid."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = SIZES[rng.integers(len(SIZES))]
        s, p = SP[rng.integers(len(SP))]
        lo, hi = exponent_window(p, s)
        q = min(lo + Q_FRACTIONS[rng.integers(len(Q_FRACTIONS))] * (hi - lo), p + 6.0)
        out.append((n, s, p, q, F0[rng.integers(len(F0))],
                    V_CONST[rng.integers(len(V_CONST))], LAMBDAS[rng.integers(len(LAMBDAS))]))
    return out


def outcome(n, s, p, q, f0, V, lam) -> str:
    """The mountain pass's point digest and lowest H/h eigenvalues, or its error."""
    try:
        grid = build_grid(0.0, 1.0, n)
        kern = assemble_kernel(grid, s, p)
        prob = make_problem(grid, kern, make_potential(grid, constant=V), lam,
                            make_nonlinearity(q, f0, p, s))
        phi1 = first_eigenpair(kern, grid, 1e-9).phi1
        consts = certify_constants(prob, phi1)
        e0, e1 = construct_endpoints(prob, phi1, consts)
        cp = mountain_pass(prob, e0, e1, tol=1e-6, constants=consts)
    except Exception as exc:  # every failure is an outcome to compare
        return "%s: %s" % (type(exc).__name__, exc)
    sha = hashlib.sha256(np.ascontiguousarray(cp.u, dtype=np.float64).tobytes())
    sha.update(np.array([cp.value, cp.residual, cp.path_value]).tobytes())
    sha.update(b"%d" % cp.iterations)
    eig = np.linalg.eigvalsh(hessian(cp.u, prob) / prob.h)[:2]
    return "ok %s %.6g,%.6g" % (sha.hexdigest(), eig[0], eig[1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0, help="grid draw seed (default 0)")
    parser.add_argument("--count", type=int, default=120,
                        help="instances to draw (default 120)")
    args = parser.parse_args(argv)
    for i, inst in enumerate(instances(args.seed, args.count)):
        print("%d n=%d s=%g p=%g q=%r f0=%g V=%g lam=%g  %s" % ((i,) + inst + (outcome(*inst),)),
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
