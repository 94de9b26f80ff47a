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

The weighted pair table W_ij |u_i - u_j|^e of the seminorm (e = p), the
operator (e = p - 1, odd) and the Hessian (e = p - 2, model.hessian) is
symmetric, antisymmetric in the odd case, so each entry is computed once,
in one pass per row block (_weighted_table): the block builds the columns
at or right of its first row, signs them when odd, multiplies them by W,
and mirrors the weighted block into the rows below it.  W is symmetric to
the bit and negation is exact, so a mirrored entry is the float the full
formula gives, up to the sign of an underflowed zero that no sum sees.  The
table is summed in full for the seminorm and by rows for the operator, on
the calling thread.

So the pass reads only W[r0:r1, r0:] of each _PAIR_BLOCK-row block r0:r1,
and the Kernel holds exactly these upper row blocks, each one contiguous
array: about n^2 / 2 + 64 n entries, with no n x n array.  assemble_kernel
builds each block in place from the node distances, with the same steps
the dense table took, so every block is the matching slice of that table to
the bit.  weight_matrix(K) mirrors the blocks into a fresh dense W for the
callers that want it whole (quadratic_form_matrix, verify, the tests).

seminorm_p, norm_W and apply_flap take one grid function (n,) or a stack of
them (B, n), and return one result per row.  A stack builds one (B, n, n)
table: the same row-block loop, with every slice taken across the stack,
W broadcast over it, and each row's sums read along that row, so every row
of a stacked result is the same bytes as the call on that row alone.  One
grid function is the stack of one row, through the same code.  Stacks form
while B * n * n stays within _STACK_CAP = 2^16 entries (512 KiB); a longer
stack is cut into stacks of that size.  At n = 96 and p = 2 a stack of 7
costs about 32 (seminorm_p) and 26 us (apply_flap) a point, against 43 and
31 us for one point (tools/kernel_timing.py); from n = 182 on a stack is
one row, so the two-thread path below always sees one row.

From _PARALLEL_ROWS = 4 * _PAIR_BLOCK rows on, and when the process may
run on more than one CPU, the calling thread shares the block pass with the
one thread of a pool, started on first use (numpy's elementwise loops
release the interpreter lock); _weighted_table alone decides this, from n.
The block pass pops row-block starts from one deque, widest block first, so
the work splits evenly and a thread that starts late or is descheduled just
takes fewer blocks.  Block r0:r1 owns M[r0:r1, r0:] and the mirror
M[r1:, r0:r1]: the blocks write disjoint regions.  Every table, the
seminorm's, the operator's and the Hessian's, is handed to the pool's
thread once, for that pass; every sum over it runs on the calling thread.
Every entry is the same elementwise operation on the same floats whichever
thread computes it, and a row's sum reads only that row's n contiguous
entries, so every function returns the same bytes on one thread or two.
Below the threshold the second thread costs more than it saves
(tools/kernel_timing.py prints both paths side by side); there the blocks
run inline, with no scheduling.  The second thread's scratch comes from the
caller, so it allocates no array data of its own, and it runs in the
caller's context, so the caller's np.errstate holds there.
"""
from __future__ import annotations

import contextvars
import os
import tracemalloc
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, UsageError
from .grid import Grid, as_grid_stack

# Rows of the pair table computed per block: large enough to amortise the
# per-call overhead of numpy, small enough that the block temporaries stay
# O(n * block) beside the one n x n table.
_PAIR_BLOCK = 128
# From this many rows on, two threads share the row blocks of a table;
# below it one thread is faster (tools/kernel_timing.py).
_PARALLEL_ROWS = 4 * _PAIR_BLOCK
# Entries (B * n * n) of one stacked pair table, 512 KiB: a longer stack of
# grid functions is cut into stacks of this size.  At n = 96 the cost per
# point is level from 2^16 to 2^17 and rises at 2^18 (tools/kernel_timing.py);
# the larger cap only holds a larger table resident (the sweep-p2-n96
# benchmark's peak RSS rose 1.08 MB at 2^17, 0.59 MB at 2^16).
_STACK_CAP = 1 << 16
# CPUs this process may run on: one keeps every table on one thread, and a
# sweep's rows in this process (sweep._row_workers).
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

    W is the symmetric n x n table of cell-pair weights; W_blocks holds its
    upper row blocks, W_blocks[k] = W[r0:r0 + _PAIR_BLOCK, r0:] with
    r0 = k _PAIR_BLOCK, one contiguous array each, and weight_matrix(K)
    builds W whole.  tail holds the per-node exterior coefficients,
    cell_weight the quadrature weight h.  W[i][i] is set to the
    adjacent-cell closed form purely as a finite placeholder: the diagonal
    multiplies |u_i - u_i|^p = 0 in every sum.
    """

    s: float
    p: float
    n: int
    cell_weight: float
    W_blocks: tuple
    tail: np.ndarray

    @cached_property
    def tail_weight(self) -> np.ndarray:
        """h t: the tail's weight in apply_flap, formed once."""
        return self.cell_weight * self.tail


def adjacent_cell_weight(h: float, sp: float) -> float:
    """Exact integral of |x-y|^(-(1+sp)) over two touching width-h cells."""
    return h ** (1.0 - sp) * (2.0 - 2.0 ** (1.0 - sp)) / (sp * (1.0 - sp))


def assemble_kernel(grid: Grid, s: float, p: float) -> Kernel:
    """Assemble the weight table's row blocks and the tail coefficients."""
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
    near = adjacent_cell_weight(h, sp)
    blocks = []
    for r0 in range(0, grid.n, _PAIR_BLOCK):
        # built in place: each block is the one array of its rows
        Wb = np.subtract(x[r0:r0 + _PAIR_BLOCK, None], x[None, r0:])
        np.abs(Wb, out=Wb)
        with np.errstate(divide="ignore"):
            np.power(Wb, -(1.0 + sp), out=Wb)
        np.multiply(h * h, Wb, out=Wb)
        # the diagonal and the two bands beside it, as far as the block holds them
        for band in (Wb, Wb[1:], Wb[:, 1:]):
            np.fill_diagonal(band, near)
        blocks.append(Wb)
    tail = ((x - grid.a) ** (-sp) + (grid.b - x) ** (-sp)) / sp
    return Kernel(s=s, p=p, n=grid.n, cell_weight=h, W_blocks=tuple(blocks), tail=tail)


def weight_matrix(K: Kernel) -> np.ndarray:
    """A fresh dense n x n W: each block copied, its transpose mirrored below it."""
    W = np.empty((K.n, K.n))
    for r0, Wb in zip(range(0, K.n, _PAIR_BLOCK), K.W_blocks):
        r1 = r0 + Wb.shape[0]
        W[r0:r1, r0:] = Wb
        W[r1:, r0:r1] = Wb[:, r1 - r0:].T
    return W


def phi_p(s, p: float):
    """The odd power map |s|^(p-2) s, written as sign(s)|s|^(p-1) (p > 1).

    Elementwise on arrays, float for a scalar; at p = 2 the map is the
    identity and its argument comes back as is.
    """
    d = np.asarray(s, dtype=float)
    out = d if p == 2.0 else np.sign(d) * np.abs(d) ** (p - 1.0)
    if isinstance(s, np.ndarray):  # never a scalar: skip np.isscalar's tests
        return out
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

    This is _weighted_table's one hand-off to the pool per table.  The
    pool's thread runs beside the calling thread; both pop the next
    row-block start from one deque when they finish a block, so a pool
    thread that starts late, or is descheduled, only takes fewer blocks.
    While tracemalloc is tracing, the calling thread takes every block: the
    peak it reports would otherwise depend on how the two threads'
    transient numpy buffers overlap, and the arrays allocated are the same
    either way.

    The pool's part gets work (which holds the table) through a list that
    is empty when this returns.  A work item the pool still queues after
    its cancel, or still holds after its run, would otherwise keep the
    table alive into the next call, and whether two tables were resident at
    once, and so the process's peak memory, would depend on when the pool's
    thread woke.
    """
    if tracemalloc.is_tracing():
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


def _weighted_table(v: np.ndarray, W_blocks: tuple, e: float, odd: bool) -> np.ndarray:
    """The (B, n, n) tables W_ij |v_bi - v_bj|^e, times sign(v_bi - v_bj) when odd.

    One pass per row block r0:r1 builds, signs, weighs and mirrors.  It
    subtracts to get the columns j >= r0 of every table in the stack, takes
    the odd map's sign as a one-byte -1/0 mask of the negative differences,
    raises |d| to e, copies the sign back (sign(d) |d|^e to the bit, zero
    entries included, as sign(-0.0) is +0.0), multiplies by W[r0:r1, r0:]
    (the block's own array in W_blocks, Kernel), and writes the transpose
    of the weighted block below it, negated when odd.  A mirrored entry is
    the float the full formula gives: W is symmetric to the bit, IEEE
    subtraction gives v_j - v_i = -(v_i - v_j), and rounding commutes with
    negation, so entry (j, i) is -(W_ij x_ij) when entry (i, j) is
    W_ij x_ij.  Only the sign of a zero may differ, where W_ij x_ij
    underflows (0.0 - y keeps zero entries at +0.0); no sum sees it, as
    every row holds the +0.0 of its diagonal.  The odd map at e = 1 is the
    plain difference, so it takes no mask, abs or power; the even map at
    e = 2 skips abs, as d^2 is |d|^2 to the bit.  From _PARALLEL_ROWS rows
    on (_threads) the blocks are shared with the pool's thread in one
    _run_blocks pass; B is then 1 (_stack_rows).  The caller sums the
    returned table on its own thread.
    """
    B, n = v.shape
    M = np.empty((B, n, n))
    powered = not odd or e != 1.0
    signed = odd and powered

    def build(starts, neg):
        for r0 in starts:
            r1 = min(r0 + _PAIR_BLOCK, n)
            blk = M[:, r0:r1, r0:]
            np.subtract(v[:, r0:r1, None], v[:, None, r0:], out=blk)
            if signed:
                sgn = np.less(blk, 0.0, out=neg[:, :r1 - r0, :n - r0])
                np.negative(sgn, out=sgn)
            if powered:
                if signed or e != 2.0:
                    np.abs(blk, out=blk)
                np.power(blk, e, out=blk)
            if signed:
                np.copysign(blk, sgn, out=blk)
            np.multiply(W_blocks[r0 // _PAIR_BLOCK], blk, out=blk)
            if r1 == n:
                continue
            mirror = blk[:, :, r1 - r0:].transpose(0, 2, 1)
            if odd:
                np.subtract(0.0, mirror, out=M[:, r1:, r0:r1])
            else:
                M[:, r1:, r0:r1] = mirror

    # the odd map's sign mask, one per thread, so the second thread
    # allocates no array data
    neg = np.empty((B, min(_PAIR_BLOCK, n), n), dtype=np.int8) if signed else None
    if _threads(n) == 1:
        build(range(0, n, _PAIR_BLOCK), neg)
    else:
        _run_blocks(n, build, [neg, None if neg is None else np.empty_like(neg)])
    return M


def _stack_rows(n: int) -> int:
    """Grid functions per stacked pair table: as many as _STACK_CAP entries hold."""
    return max(1, _STACK_CAP // (n * n))


def _by_stack(sums, v: np.ndarray, n: int) -> np.ndarray:
    """sums(rows) over the rows of v, _stack_rows at a time.

    v is one grid function (n,), taken as a stack of one, or a stack
    (B, n); the results are joined along the first axis.
    """
    rows = v.reshape(-1, n)
    step = _stack_rows(n)
    if rows.shape[0] <= step:
        return sums(rows)
    return np.concatenate([sums(rows[b:b + step]) for b in range(0, rows.shape[0], step)])


def seminorm_p(u, K: Kernel):
    """S(u): the discrete Gagliardo double sum plus the exterior tail term.

    Returned un-rooted (the p-th power of the norm); use norm_W for the
    norm itself.  A float for one grid function, an array of B for a stack.
    """
    v = as_grid_stack(u, K.n)
    # the weighted pair sum of each table in full
    interior = _by_stack(lambda rows: _weighted_table(rows, K.W_blocks, K.p, False)
                         .reshape(rows.shape[0], -1).sum(axis=1), v, K.n)
    exterior = (K.tail * np.abs(v) ** K.p).sum(axis=-1)
    if v.ndim == 1:
        return float(interior[0]) + 2.0 * K.cell_weight * float(exterior)
    return interior + 2.0 * K.cell_weight * exterior


def norm_W(u, K: Kernel):
    """The solution-space norm S(u)^(1/p), per row for a stack.

    Each row takes the scalar power of its own S, as one grid function
    does: numpy's array power may differ from it in the last bit.
    """
    S = seminorm_p(u, K)
    if isinstance(S, float):
        return S ** (1.0 / K.p)
    return np.array([s ** (1.0 / K.p) for s in S.tolist()])


def apply_flap(u, K: Kernel, phi=None) -> np.ndarray:
    """Exact Euclidean gradient of seminorm_p at u, per row for a stack.

    g_k = 2p [ sum_j W_kj Phi_p(u_k - u_j) + h t_k Phi_p(u_k) ], which makes
    <g, u> = p S(u) (Euler identity for the p-homogeneous S).  phi, when
    given, is Phi_p(u), already computed by the caller.  The tail term and
    the factor 2p are applied in place to the fresh pair sums.
    """
    v = as_grid_stack(u, K.n)
    # sum_j W_kj Phi_p(u_k - u_j): each table's row sums
    g = _by_stack(lambda rows: _weighted_table(rows, K.W_blocks, K.p - 1.0, True)
                  .sum(axis=-1), v, K.n).reshape(v.shape)
    g += K.tail_weight * (phi_p(v, K.p) if phi is None else phi)
    g *= 2.0 * K.p
    return g


def quadratic_form_matrix(K: Kernel) -> np.ndarray:
    """For p = 2, the symmetric matrix G with S(u) = u^T G u.

    G is strictly diagonally dominant with positive diagonal (the tail term
    adds 2 h t_i > 0), hence positive definite.
    """
    if K.p != 2.0:
        raise UsageError("quadratic form exists only at p = 2, kernel has p=%g" % K.p)
    # -2 W off the diagonal; doubling and negation are exact, so the row
    # sums of this G are -2 times those of W with a zero diagonal
    G = weight_matrix(K)
    G *= -2.0
    np.fill_diagonal(G, 0.0)
    np.fill_diagonal(G, 2.0 * K.cell_weight * K.tail - G.sum(axis=1))
    return G
