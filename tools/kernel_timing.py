"""Per-call time of the pair-table kernels: threads, and stacks of points.

usage: PYTHONPATH=src python tools/kernel_timing.py [--repeats R] [--sizes N,N,...]

The first table prints, for p = 2 and p = 2.5 and each n, the median time
in microseconds of seminorm_p and apply_flap on a fixed random vector,
with the work on the pair table shared with the kernel's second thread
("2 thr") and done on the calling thread alone ("1 thr"), whatever the
size threshold in fracmp.kernel says.  This is how the threshold
_PARALLEL_ROWS is chosen and checked.  On a host with one usable CPU both
columns time the one-thread path.

The second table prints, for n = 96, 192 and 384, the median time per
point of seminorm_p and apply_flap on a stack of B random points: at
B = 1, and at the B that each candidate stack cap (B * n * n table
entries, 2^15 to 2^18) allows, with kernel._STACK_CAP set to that cap.
The row of the cap in fracmp.kernel is marked with a *.  This is how
_STACK_CAP is chosen and checked.

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

SIZES = (96, 192, 384, 512, 1024, 1536)
STACK_SIZES = (96, 192, 384)
EXPONENTS = (2.0, 2.5)
CAPS = tuple(1 << k for k in range(15, 19))


def _per_call_us(fn, rounds):
    fn()
    t0 = time.perf_counter()
    fn()
    loops = max(1, int(0.02 / max(time.perf_counter() - t0, 1e-7)))
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=9)
    parser.add_argument("--sizes", default=",".join(map(str, SIZES)))
    args = parser.parse_args(argv)
    sizes = [int(x) for x in args.sizes.split(",")]
    print("%-4s %6s | %22s | %22s" % ("p", "n", "seminorm_p us", "apply_flap us"))
    print("%-4s %6s | %10s %11s | %10s %11s" % ("", "", "2 thr", "1 thr", "2 thr", "1 thr"))
    for p in EXPONENTS:
        for n in sizes:
            K = kernel.assemble_kernel(build_grid(0.0, 1.0, n), 0.9 / (p + 0.5), p)
            u = np.random.default_rng(n).standard_normal(n)
            sem = _time_pair(lambda: kernel.seminorm_p(u, K), n, args.repeats)
            flap = _time_pair(lambda: kernel.apply_flap(u, K), n, args.repeats)
            print("%-4g %6d | %10.1f %11.1f | %10.1f %11.1f"
                  % (p, n, sem[0], sem[1], flap[0], flap[1]))
    print()
    print("%-4s %6s %8s %5s | %16s %16s" % ("p", "n", "cap", "B", "seminorm_p us/pt",
                                           "apply_flap us/pt"))
    for p in EXPONENTS:
        for n in STACK_SIZES:
            K = kernel.assemble_kernel(build_grid(0.0, 1.0, n), 0.9 / (p + 0.5), p)
            for cap, B, sem, flap in _time_stacks(K, n, args.repeats):
                label = "-" if cap is None else "2^%d%s" % (
                    cap.bit_length() - 1, "*" if cap == kernel._STACK_CAP else "")
                print("%-4g %6d %8s %5d | %16.1f %16.1f" % (p, n, label, B, sem, flap))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
