"""Per-call time of the pair-table kernels and of the layers above them.

usage: PYTHONPATH=src python tools/kernel_timing.py [--repeats R] [--sizes N,N,...]

The first table prints, for p = 2 and p = 2.5 and each n, the median time
in microseconds of seminorm_p, apply_flap and model.hessian on a fixed
random vector, with the work on the weighted pair table shared with the
kernel's second thread ("2 thr") and done on the calling thread alone
("1 thr"), whatever the size threshold in fracmp.kernel says.  This is how
the threshold _PARALLEL_ROWS is chosen and checked.  On a host with one
usable CPU both columns time the one-thread path.

The second table prints, for n = 96, 192 and 384, the median time per
point of seminorm_p and apply_flap on a stack of B random points: at
B = 1, and at the B that each candidate stack cap (B * n * n table
entries, 2^15 to 2^18) allows, with kernel._STACK_CAP set to that cap.
The row of the cap in fracmp.kernel is marked with a *.  This is how
_STACK_CAP is chosen and checked.

The third table prints, for p = 2 and p = 2.5, n = 96 and 192 and B = 1, 2
and 7, the median time in microseconds per call of model.energy and
model.gradient on B points, and of solve._hessian_product at one point in
B directions (one gradient call on 2B points).  The points have no
negative entry, as the mountain pass's iterates.  These are the layers
whose per-call overhead sets the time of small-n solves.

The fourth table prints, for p = 2 and p = 2.5 and each n, the bytes of
array data the assembled Kernel holds (its weight-table row blocks and its
tail) and the median time in microseconds of assemble_kernel.

Each median is over R rounds that alternate the paths compared; a round
times a loop long enough to take about 20 ms.  The tool has no pass/fail
gate: wall-clock times on a shared host vary too much for one.
"""
from __future__ import annotations

import argparse
import statistics
import time

import numpy as np

from fracmp import kernel
from fracmp.grid import build_grid
from fracmp.model import (energy, gradient, hessian, make_nonlinearity, make_potential,
                          make_problem)
from fracmp.solve import _hessian_product

SIZES = (96, 192, 384, 512, 1024, 1536)
STACK_SIZES = (96, 192, 384)
LAYER_SIZES = (96, 192)
LAYER_POINTS = (1, 2, 7)
EXPONENTS = (2.0, 2.5)
CAPS = tuple(1 << k for k in range(15, 19))
# seconds one timed loop takes
ROUND_S = 0.02


def _per_call_us(fn, rounds):
    fn()
    t0 = time.perf_counter()
    fn()
    loops = max(1, int(ROUND_S / max(time.perf_counter() - t0, 1e-7)))
    out = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(loops):
            fn()
        out.append((time.perf_counter() - t0) / loops * 1e6)
    return out


def _time_pair(fn, n, repeats):
    """Median us of fn under the two-thread and the one-thread build."""
    times = {True: [], False: []}
    saved = kernel._PARALLEL_ROWS
    try:
        for r in range(repeats):
            for threaded in ((True, False) if r % 2 == 0 else (False, True)):
                kernel._PARALLEL_ROWS = 1 if threaded else n + 1
                times[threaded] += _per_call_us(fn, 1)
    finally:
        kernel._PARALLEL_ROWS = saved
    return statistics.median(times[True]), statistics.median(times[False])


def _time_stacks(K, n, repeats):
    """Median us per point of both kernels at B = 1 and at each cap's B."""
    rng = np.random.default_rng(n)
    runs = [(None, rng.standard_normal(n))]
    for cap in CAPS:
        runs.append((cap, rng.standard_normal((max(1, cap // (n * n)), n))))
    times = {cap: ([], []) for cap, _ in runs}
    saved = kernel._STACK_CAP
    try:
        for r in range(repeats):
            for cap, U in (runs if r % 2 == 0 else runs[::-1]):
                kernel._STACK_CAP = saved if cap is None else cap
                points = 1 if U.ndim == 1 else U.shape[0]
                for fn, out in ((kernel.seminorm_p, times[cap][0]),
                                (kernel.apply_flap, times[cap][1])):
                    out += [t / points for t in _per_call_us(lambda: fn(U, K), 1)]
    finally:
        kernel._STACK_CAP = saved
    return [(cap, 1 if U.ndim == 1 else U.shape[0],
             statistics.median(times[cap][0]), statistics.median(times[cap][1]))
            for cap, U in runs]


def _time_layers(prob, B, repeats):
    """Median us per call of energy and gradient on B points, and of the
    Hessian product at one point in B directions."""
    n = prob.grid.n
    rng = np.random.default_rng(n + B)
    U = np.abs(rng.standard_normal(n if B == 1 else (B, n)))
    w = U if B == 1 else U[0]
    xi = rng.standard_normal(U.shape)
    calls = (lambda: energy(U, prob), lambda: gradient(U, prob),
             lambda: _hessian_product(w, xi, prob, 1e-5))
    times = [[] for _ in calls]
    for r in range(repeats):
        for k in (range(3) if r % 2 == 0 else range(2, -1, -1)):
            times[k] += _per_call_us(calls[k], 1)
    return [statistics.median(t) for t in times]


def _problem(n, p):
    grid = build_grid(0.0, 1.0, n)
    s = 0.9 / (p + 0.5)
    return make_problem(grid, kernel.assemble_kernel(grid, s, p),
                        make_potential(grid, constant=0.25), 0.5,
                        make_nonlinearity(3.0, 1.0, p, s))


def pair_table(sizes, repeats):
    names = ("seminorm_p us", "apply_flap us", "hessian us")
    print("%-4s %6s" % ("p", "n") + "".join(" | %22s" % name for name in names))
    print("%-4s %6s" % ("", "") + " | %10s %11s" % ("2 thr", "1 thr") * len(names))
    for p in EXPONENTS:
        for n in sizes:
            prob = _problem(n, p)
            K = prob.kernel
            u = np.random.default_rng(n).standard_normal(n)
            times = [_time_pair(fn, n, repeats)
                     for fn in (lambda: kernel.seminorm_p(u, K),
                                lambda: kernel.apply_flap(u, K),
                                lambda: hessian(u, prob))]
            print("%-4g %6d" % (p, n) + "".join(" | %10.1f %11.1f" % t for t in times))


def stack_table(sizes, repeats):
    print("%-4s %6s %8s %5s | %16s %16s" % ("p", "n", "cap", "B", "seminorm_p us/pt",
                                           "apply_flap us/pt"))
    for p in EXPONENTS:
        for n in sizes:
            K = kernel.assemble_kernel(build_grid(0.0, 1.0, n), 0.9 / (p + 0.5), p)
            for cap, B, sem, flap in _time_stacks(K, n, repeats):
                label = "-" if cap is None else "2^%d%s" % (
                    cap.bit_length() - 1, "*" if cap == kernel._STACK_CAP else "")
                print("%-4g %6d %8s %5d | %16.1f %16.1f" % (p, n, label, B, sem, flap))


def layer_table(sizes, points, repeats):
    print("%-4s %6s %3s | %12s %12s %12s" % ("p", "n", "B", "energy us", "gradient us",
                                            "H.xi us"))
    for p in EXPONENTS:
        for n in sizes:
            prob = _problem(n, p)
            for B in points:
                print("%-4g %6d %3d | %12.1f %12.1f %12.1f"
                      % (p, n, B, *_time_layers(prob, B, repeats)))


def kernel_table(sizes, repeats):
    print("%-4s %6s | %12s %12s" % ("p", "n", "kernel B", "assemble us"))
    for p in EXPONENTS:
        for n in sizes:
            grid = build_grid(0.0, 1.0, n)
            s = 0.9 / (p + 0.5)
            K = kernel.assemble_kernel(grid, s, p)
            held = sum(Wb.nbytes for Wb in K.W_blocks) + K.tail.nbytes
            us = statistics.median(_per_call_us(lambda: kernel.assemble_kernel(grid, s, p),
                                                repeats))
            print("%-4g %6d | %12d %12.1f" % (p, n, held, us))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=9)
    parser.add_argument("--sizes", default=",".join(map(str, SIZES)))
    args = parser.parse_args(argv)
    pair_table([int(x) for x in args.sizes.split(",")], args.repeats)
    print()
    stack_table(STACK_SIZES, args.repeats)
    print()
    layer_table(LAYER_SIZES, LAYER_POINTS, args.repeats)
    print()
    kernel_table([int(x) for x in args.sizes.split(",")], args.repeats)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
