"""Discrete nonlocal operator: weight table, exterior tail, seminorm, action.

The operator kernel is |x - y|^(-(1+s*p)) on the line.  With s*p < 1 it is
integrable across the diagonal, so cell-pair integrals exist, but the
naive point evaluation at touching cells diverges; near-diagonal weights
therefore use the exact piecewise-constant cell-pair integrals while the
far field uses node-distance midpoint values.

The zero exterior extension turns the double integral over R^2 into a sum
over interior cell pairs plus, for each node, an exterior tail integral
with closed form t_i = [(x_i-a)^(-sp) + (b-x_i)^(-sp)] / (sp).  Both
orderings of (x, y) are counted, hence the factor 2 on the tail.

The pair table |u_i - u_j|^e of the seminorm (e = p) and of the operator
(e = p - 1, odd) is symmetric, antisymmetric in the odd case, so each pair
power is computed once: a row block at a time, over the columns at or right
of the block's first row, the rest mirrored from the block's transpose.
The table is then multiplied by W in place, and summed in full for the
seminorm and by rows for the operator.

From _PARALLEL_ROWS = 4 * _PAIR_BLOCK rows on, and when the process may
run on more than one CPU, the calling thread shares this work with the one
thread of a pool, started on first use (numpy's elementwise loops release
the interpreter lock).  Both the build and the weighting pop row-block
starts from one deque, widest block first, so the work splits evenly and a
thread that starts late or is descheduled just takes fewer blocks.  Build
block r0:r1 owns M[r0:r1, r0:] and the mirror M[r1:, r0:r1]; weighting
block r0:r1 owns the rows r0:r1 and their row sums: the blocks write
disjoint regions.  The seminorm's full sum stays one np.sum over the table
on the calling thread.  Every entry is the same elementwise operation on
the same floats whichever thread computes it, and a row's sum reads only
that row, so both functions return the same bytes on one thread or two.
Below the threshold the second thread costs more than it saves
(tools/kernel_timing.py prints both paths side by side).  Its scratch
comes from the caller, so it allocates no array data of its own, and it
runs in the caller's context, so the caller's np.errstate holds there.
"""
from __future__ import annotations

import contextvars
import os
import tracemalloc
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, UsageError
from .grid import Grid, as_grid_function

# Rows of the pair table computed per block: large enough to amortise the
# per-call overhead of numpy, small enough that the block temporaries stay
# O(n * block) beside the one n x n table.
_PAIR_BLOCK = 128
# From this many rows on, two threads share the row blocks of a table;
# below it one thread is faster (tools/kernel_timing.py).
_PARALLEL_ROWS = 4 * _PAIR_BLOCK
# CPUs this process may run on: one keeps every table on one thread.
_CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
         else os.cpu_count() or 1)
# The second thread; the pool starts it on the first submit.  A thread
# started and joined for each pass instead took about 80 us more per pass
# than a submit to the waiting pool thread (2-core Xeon, Python 3.11).
_pool = ThreadPoolExecutor(1, thread_name_prefix="fracmp-pairs")


def _new_pool() -> None:
    # a forked child has no copy of the pool's thread: the old pool would
    # queue the child's work forever
    global _pool
    _pool = ThreadPoolExecutor(1, thread_name_prefix="fracmp-pairs")


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_pool)


@dataclass(frozen=True, eq=False)
class Kernel:
    """Precomputed weights for a fixed (grid, s, p).

    W is the symmetric n x n table of cell-pair weights, tail the per-node
    exterior coefficients, cell_weight the quadrature weight h.  W[i][i]
    is set to the adjacent-cell closed form purely as a finite placeholder:
    the diagonal multiplies |u_i - u_i|^p = 0 in every sum.
    """

    s: float
    p: float
    sp: float
    n: int
    cell_weight: float
    W: np.ndarray
    tail: np.ndarray


def adjacent_cell_weight(h: float, sp: float) -> float:
    """Exact integral of |x-y|^(-(1+sp)) over two touching width-h cells."""
    return h ** (1.0 - sp) * (2.0 - 2.0 ** (1.0 - sp)) / (sp * (1.0 - sp))


def assemble_kernel(grid: Grid, s: float, p: float) -> Kernel:
    """Assemble the dense weight table and tail coefficients."""
    s = float(s)
    p = float(p)
    if not 0.0 < s < 1.0:
        raise ConfigurationError("fractional order must satisfy 0 < s < 1, got s=%g" % s)
    if p <= 1.0:
        raise ConfigurationError("integrability exponent must satisfy p > 1, got p=%g" % p)
    sp = s * p
    if sp >= 1.0:
        raise ConfigurationError(
            "s*p = %g >= 1: the one-dimensional regime needs s*p < 1" % sp
        )
    x = grid.nodes
    h = grid.h
    # built in place: the one n x n array is W itself
    W = np.subtract(x[:, None], x[None, :])
    np.abs(W, out=W)
    with np.errstate(divide="ignore"):
        np.power(W, -(1.0 + sp), out=W)
    np.multiply(h * h, W, out=W)
    near = adjacent_cell_weight(h, sp)
    for band in (W, W[1:], W[:, 1:]):
        np.fill_diagonal(band, near)
    tail = ((x - grid.a) ** (-sp) + (grid.b - x) ** (-sp)) / sp
    return Kernel(s=s, p=p, sp=sp, n=grid.n, cell_weight=h, W=W, tail=tail)


def phi_p(s, p: float):
    """The odd power map |s|^(p-2) s, written as sign(s)|s|^(p-1) (p > 1).

    Elementwise on arrays, float for a scalar; at p = 2 the map is the
    identity and its argument comes back as is.
    """
    d = np.asarray(s, dtype=float)
    out = d if p == 2.0 else np.sign(d) * np.abs(d) ** (p - 1.0)
    return float(out) if np.isscalar(s) else out


def _threads(n: int) -> int:
    """How many threads share the row blocks of an n-row table."""
    return 2 if n >= _PARALLEL_ROWS and _CPUS > 1 else 1


def _take(todo: deque):
    """Row-block starts popped from a deque that both threads share."""
    while True:
        try:
            yield todo.popleft()
        except IndexError:
            return


def _run_blocks(n: int, work, scratch: list) -> None:
    """Call work(starts, scratch[k]) on thread k over an n-row table's blocks.

    With two scratch entries the pool's thread runs beside the calling
    thread; both pop the next row-block start from one deque when they
    finish a block, so a pool thread that starts late, or is descheduled,
    only takes fewer blocks.  While tracemalloc is tracing, the calling
    thread takes every block: the peak it reports would otherwise depend
    on how the two threads' transient numpy buffers overlap, and the
    arrays allocated are the same either way.

    The pool's part gets work (whose closure holds the table) through a
    list that is empty when this returns.  A work item the pool still
    queues after its cancel, or still holds after its run, would otherwise
    keep the table alive into the next call, and whether two tables were
    resident at once, and so the process's peak memory, would depend on
    when the pool's thread woke.
    """
    if len(scratch) == 1 or tracemalloc.is_tracing():
        work(range(0, n, _PAIR_BLOCK), scratch[0])
        return
    todo = deque(range(0, n, _PAIR_BLOCK))
    args = [work, _take(todo), scratch[1]]
    # run in the caller's context, so the caller's np.errstate holds there
    part = _pool.submit(contextvars.copy_context().run, _run_taken, args)
    try:
        work(_take(todo), scratch[0])
    finally:
        if not part.cancel():
            part.result()
        args.clear()


def _run_taken(args: list) -> None:
    """work(starts, scratch) from args, emptied before the work starts."""
    work, starts, scratch = args
    args.clear()
    work(starts, scratch)


def _pair_table(v: np.ndarray, e: float, odd: bool) -> np.ndarray:
    """The n x n table |v_i - v_j|^e, times sign(v_i - v_j) when odd.

    Row block r0:r1 computes the columns j >= r0; the entries below the
    block are its transpose, negated when odd.  IEEE subtraction gives
    v_j - v_i = -(v_i - v_j) exactly, so every entry is the float the full
    elementwise formula gives (0.0 - x keeps zero entries at +0.0).  The
    odd map at e = 1 is the plain difference, with no power to save: a
    block fills its whole rows instead, or on one thread one numpy call
    the table.
    """
    n = v.size
    plain = odd and e == 1.0
    threads = _threads(n)
    if plain and threads == 1:
        return v[:, None] - v[None, :]
    M = np.empty((n, n))

    def fill(starts, sign):
        for r0 in starts:
            r1 = min(r0 + _PAIR_BLOCK, n)
            if plain:
                np.subtract(v[r0:r1, None], v[None, :], out=M[r0:r1])
                continue
            blk = M[r0:r1, r0:]
            np.subtract(v[r0:r1, None], v[None, r0:], out=blk)
            if odd:
                sgn = np.sign(blk, out=sign[:r1 - r0, :n - r0])
            np.abs(blk, out=blk)
            np.power(blk, e, out=blk)
            if odd:
                np.multiply(sgn, blk, out=blk)
                np.subtract(0.0, blk[:, r1 - r0:].T, out=M[r1:, r0:r1])
            else:
                M[r1:, r0:r1] = blk[:, r1 - r0:].T

    # the odd map's sign scratch, one per thread, so the second thread
    # allocates no array data
    shape = (min(_PAIR_BLOCK, n), n)
    _run_blocks(n, fill, [np.empty(shape) if odd and not plain else None
                          for _ in range(threads)])
    return M


def _weigh(M: np.ndarray, W: np.ndarray, row_sums: bool) -> np.ndarray | None:
    """M *= W in place, and M.sum(axis=1) if asked.

    On two threads a block of rows at a time: a row's sum reads that row
    only, so it is the same float however the rows are grouped.  On one
    thread one numpy call each: a block loop costs a few microseconds a
    call, which shows on small tables.
    """
    n = M.shape[0]
    if _threads(n) == 1:
        np.multiply(W, M, out=M)
        return M.sum(axis=1) if row_sums else None
    out = np.empty(n) if row_sums else None

    def weigh(starts, _):
        for r0 in starts:
            rows = M[r0:r0 + _PAIR_BLOCK]
            np.multiply(W[r0:r0 + _PAIR_BLOCK], rows, out=rows)
            if row_sums:
                rows.sum(axis=1, out=out[r0:r0 + _PAIR_BLOCK])

    _run_blocks(n, weigh, [None, None])
    return out


def seminorm_p(u, K: Kernel) -> float:
    """S(u): the discrete Gagliardo double sum plus the exterior tail term.

    Returned un-rooted (the p-th power of the norm); use norm_W for the
    norm itself.
    """
    v = as_grid_function(u, K.n)
    M = _pair_table(v, K.p, False)
    _weigh(M, K.W, False)
    interior = float(np.sum(M))
    exterior = 2.0 * K.cell_weight * float(np.sum(K.tail * np.abs(v) ** K.p))
    return interior + exterior


def norm_W(u, K: Kernel) -> float:
    """The solution-space norm S(u)^(1/p)."""
    return seminorm_p(u, K) ** (1.0 / K.p)


def apply_flap(u, K: Kernel) -> np.ndarray:
    """Exact Euclidean gradient of seminorm_p at u.

    g_k = 2p [ sum_j W_kj Phi_p(u_k - u_j) + h t_k Phi_p(u_k) ], which makes
    <g, u> = p S(u) (Euler identity for the p-homogeneous S).
    """
    v = as_grid_function(u, K.n)
    pair = _weigh(_pair_table(v, K.p - 1.0, True), K.W, True)
    return 2.0 * K.p * (pair + K.cell_weight * K.tail * phi_p(v, K.p))


def quadratic_form_matrix(K: Kernel) -> np.ndarray:
    """For p = 2, the symmetric matrix G with S(u) = u^T G u.

    G is strictly diagonally dominant with positive diagonal (the tail term
    adds 2 h t_i > 0), hence positive definite.
    """
    if K.p != 2.0:
        raise UsageError("quadratic form exists only at p = 2, kernel has p=%g" % K.p)
    # -2 W off the diagonal; doubling and negation are exact, so the row
    # sums of this G are -2 times those of W with a zero diagonal
    G = np.multiply(K.W, -2.0)
    np.fill_diagonal(G, 0.0)
    np.fill_diagonal(G, 2.0 * K.cell_weight * K.tail - G.sum(axis=1))
    return G
