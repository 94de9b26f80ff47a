"""Wall time per phase of one solve of configs/solve.cfg at growing n.

usage: PYTHONPATH=src python tools/phase_timing.py [--sizes N,N,...]

For each n (default 96, 192, 384) the tool runs the pipeline of
`fracmp solve` on configs/solve.cfg with n replaced, and prints the wall
time in seconds of its phases: assemble and certify (grid, kernel, first
eigenpair, certified constants), the mountain pass with, as a part of it,
its saddle polish, and the second-solution search.  It also prints the two
lowest eigenvalues of H/h, the energy's Hessian over the grid spacing, at
the mountain-pass point and at the second solution: their scale does not
depend on n, and their signs give the Morse type (one negative at a
mountain-pass point, none at a local minimum).  Last come the polish's
flow steps, its calls of solve._negative_direction (each runs its 40
iterations, two finite-difference Hessian products each, so a call is
80 products), and whether its Newton fallback fired (the INFO record
fracmp.solve logs when it does).

Each phase is timed once.  The tool has no pass/fail gate: wall-clock
times on a shared host vary too much for one.
"""
from __future__ import annotations

import argparse
import logging
import os
import time
from dataclasses import replace

import numpy as np

from fracmp import solve
from fracmp.config import _check, lambdas, parse_config
from fracmp.model import hessian
from fracmp.sweep import assemble, certify, first_solution

CONFIG = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "configs", "solve.cfg")
SIZES = (96, 192, 384)


def _lowest(u, prob) -> str:
    """The two lowest eigenvalues of H/h at u, or a dash without a point."""
    if u is None:
        return "-"
    eig = np.linalg.eigvalsh(hessian(u, prob) / prob.h)
    return ", ".join("%.4g" % x for x in eig[:2])


def phases(n: int) -> dict:
    """Phase times and Hessian eigenvalues of one solve at grid size n."""
    cfg = _check(replace(parse_config(CONFIG), n=n))
    polish = []
    flow = []
    turns = []
    real = solve._polish_saddle
    real_turn = solve._negative_direction

    def timed_polish(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            u, steps = real(*args, **kwargs)
        finally:
            polish.append(time.perf_counter() - t0)
        flow.append(steps)
        return u, steps

    def counted_turn(*args, **kwargs):
        turns.append(None)
        return real_turn(*args, **kwargs)

    notes = []
    handler = logging.Handler(logging.INFO)
    handler.emit = notes.append
    log = logging.getLogger("fracmp.solve")
    level = log.level

    t0 = time.perf_counter()
    eig, prob, consts = certify(cfg, assemble(cfg), float(lambdas(cfg)[0]))
    t1 = time.perf_counter()
    solve._polish_saddle = timed_polish
    solve._negative_direction = counted_turn
    log.addHandler(handler)
    log.setLevel(logging.INFO)
    try:
        cp = first_solution(cfg, prob, eig.phi1, consts)
    finally:
        solve._polish_saddle = real
        solve._negative_direction = real_turn
        log.removeHandler(handler)
        log.setLevel(level)
    t2 = time.perf_counter()
    second = solve.find_second_solution(prob, cp, cfg.solve_tol)
    t3 = time.perf_counter()
    return {"certify": t1 - t0, "mp": t2 - t1, "polish": sum(polish),
            "second": t3 - t2, "mp_eig": _lowest(cp.u, prob),
            "second_eig": _lowest(None if second is None else second.u, prob),
            "flow": sum(flow), "negdir": len(turns),
            "newton": any(r.getMessage().startswith("saddle polish used the Newton fallback")
                          for r in notes)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default=",".join(map(str, SIZES)))
    args = parser.parse_args(argv)
    print("%6s | %9s %9s %9s %9s | %-20s | %-20s | %6s %6s %6s" % (
        "n", "certify s", "MP s", "polish s", "second s", "MP eig(H/h)", "second eig(H/h)",
        "flow", "negdir", "Newton"))
    for n in (int(x) for x in args.sizes.split(",")):
        r = phases(n)
        print("%6d | %9.3f %9.3f %9.3f %9.3f | %-20s | %-20s | %6d %6d %6s" % (
            n, r["certify"], r["mp"], r["polish"], r["second"], r["mp_eig"],
            r["second_eig"], r["flow"], r["negdir"], "yes" if r["newton"] else "no"))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
