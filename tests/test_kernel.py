"""Nonlocal kernel assembly and the seminorm/operator pair.

Oracles used here: adaptive quadrature (scipy.integrate.quad) for the
exterior tail and the adjacent-cell weight, a brute-force double
midpoint quadrature of the defining double integral for the seminorm,
and the full-matrix formulas, every pair power computed, for the
row-blocked symmetric weighted pair table of the seminorm, the operator
and the Hessian, built on one thread or on two.
"""

import os
import signal
import sys
import threading
import time
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from scipy import integrate

from fracmp import (
    ConfigurationError,
    UsageError,
    adjacent_cell_weight,
    apply_flap,
    assemble_kernel,
    build_grid,
    make_nonlinearity,
    make_potential,
    make_problem,
    quadratic_form_matrix,
    seminorm_p,
)
from fracmp import kernel
from fracmp.kernel import _PAIR_BLOCK, _PARALLEL_ROWS, weight_matrix
from fracmp.model import f_prime, hessian


def test_assemble_rejects_bad_regimes():
    g = build_grid(0.0, 1.0, 9)
    with pytest.raises(ConfigurationError):
        assemble_kernel(g, 0.6, 2.0)  # sp = 1.2
    with pytest.raises(ConfigurationError):
        assemble_kernel(g, 0.4, 2.5)  # sp = 1.0 exactly
    with pytest.raises(ConfigurationError):
        assemble_kernel(g, 0.0, 2.0)
    with pytest.raises(ConfigurationError):
        assemble_kernel(g, 1.0, 0.9)
    with pytest.raises(ConfigurationError):
        assemble_kernel(g, 0.4, 1.0)


def test_weights_symmetric_nonnegative():
    g = build_grid(-1.3, 2.1, 23)
    K = assemble_kernel(g, 0.3, 2.5)
    W = weight_matrix(K)
    np.testing.assert_array_equal(W, W.T)
    assert np.all(W >= 0.0)
    assert np.all(np.isfinite(W))


def _dense_weights(grid, s, p):
    """The n x n weight table built in place in one array, every power computed."""
    x, h, sp = grid.nodes, grid.h, s * p
    W = np.subtract(x[:, None], x[None, :])
    np.abs(W, out=W)
    with np.errstate(divide="ignore"):
        np.power(W, -(1.0 + sp), out=W)
    np.multiply(h * h, W, out=W)
    for band in (W, W[1:], W[:, 1:]):
        np.fill_diagonal(band, adjacent_cell_weight(h, sp))
    return W


@pytest.mark.parametrize("n", [1, 2, _PAIR_BLOCK - 1, _PAIR_BLOCK, _PAIR_BLOCK + 1, 200,
                               _PARALLEL_ROWS + 8])
@pytest.mark.parametrize("p", [2.0, 2.5])
def test_weight_blocks_are_the_dense_table_bit_for_bit(n, p):
    # block k holds rows r0:r0 + _PAIR_BLOCK from column r0 on, and nothing else
    g = build_grid(-0.4, 1.7, n)
    s = 0.9 / (p + 0.5)
    K = assemble_kernel(g, s, p)
    dense = _dense_weights(g, s, p)
    starts = range(0, n, _PAIR_BLOCK)
    assert len(K.W_blocks) == len(starts)
    for r0, Wb in zip(starts, K.W_blocks):
        want = dense[r0:r0 + _PAIR_BLOCK, r0:]
        assert Wb.shape == want.shape and Wb.flags.c_contiguous
        assert Wb.tobytes() == want.tobytes()
    W = weight_matrix(K)
    assert W.tobytes() == dense.tobytes()
    assert W.tobytes() == W.T.tobytes(order="C")


def test_assembly_holds_no_dense_table():
    # the blocks hold about n^2 / 2 + 64 n entries; the dense table was n^2
    n = 1024
    g = build_grid(0.0, 1.0, n)
    tracemalloc.start()
    try:
        K = assemble_kernel(g, 0.3, 2.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.6 * 8 * n * n
    held = [a for value in vars(K).values()
            for a in (value if isinstance(value, tuple) else (value,))
            if isinstance(a, np.ndarray)]
    assert all(a.shape != (n, n) for a in held)
    assert sum(Wb.size for Wb in K.W_blocks) == n * n // 2 + _PAIR_BLOCK // 2 * n


def test_far_field_weight_formula():
    # direct formula at h = 0.1: nodes 1 and 5 are 4h apart
    g = build_grid(0.0, 1.0, 9)
    K = assemble_kernel(g, 0.4, 2.0)
    assert weight_matrix(K)[0, 4] == pytest.approx(0.1 ** 2 * (4 * 0.1) ** -1.8, rel=1e-14)


def test_adjacent_cell_weight_against_quadrature():
    # integrate |x-y|^(-1-sp) over (0,h) x (h,2h); the inner integral in y
    # is an elementary power antiderivative, the outer one goes to quad
    # after the substitution z = h - x (singular endpoint at z = 0)
    for h, sp in ((0.1, 0.8), (0.05, 0.75), (0.02, 0.45)):
        def outer(z):
            return (z ** -sp - (h + z) ** -sp) / sp

        val, err = integrate.quad(outer, 0.0, h)
        assert err < 1e-8 * val
        assert adjacent_cell_weight(h, sp) == pytest.approx(val, rel=1e-8)


def test_tail_midpoint_value():
    # adaptive quadrature of the exterior integral at the midpoint of (0,1)
    g = build_grid(0.0, 1.0, 3)
    K = assemble_kernel(g, 0.4, 2.0)
    right, err = integrate.quad(lambda y: (y - 0.5) ** -1.8, 1.0, np.inf)
    assert err < 1e-10
    assert K.tail[1] == pytest.approx(2.0 * right, rel=1e-10)
    assert K.tail[1] == pytest.approx(4.352752816480621, rel=1e-12)


def test_tail_positive_and_symmetric():
    g = build_grid(-0.7, 1.9, 31)
    K = assemble_kernel(g, 0.35, 2.0)
    assert np.all(K.tail > 0.0)
    np.testing.assert_allclose(K.tail, K.tail[::-1], rtol=1e-12)


def test_seminorm_zero_and_constant():
    g = build_grid(0.0, 1.0, 12)
    K = assemble_kernel(g, 0.4, 2.0)
    assert seminorm_p(np.zeros(12), K) == 0.0
    # the tail term keeps constants away from the kernel's null space
    assert seminorm_p(np.ones(12), K) > 0.0


def test_seminorm_homogeneity():
    g = build_grid(0.0, 1.0, 15)
    rng = np.random.default_rng(11)
    for p in (2.0, 2.5, 3.0):
        K = assemble_kernel(g, 0.9 / (p + 0.5), p)
        u = rng.standard_normal(15)
        assert seminorm_p(-3.0 * u, K) == pytest.approx(
            3.0 ** p * seminorm_p(u, K), rel=1e-12)


def test_seminorm_dimension_mismatch():
    g = build_grid(0.0, 1.0, 12)
    K = assemble_kernel(g, 0.4, 2.0)
    with pytest.raises(UsageError):
        seminorm_p(np.zeros(11), K)


def test_seminorm_matches_direct_summation():
    # recompute S(u) from the weight table by explicit loops; the diagonal
    # must not contribute since |u_i - u_i| = 0
    g = build_grid(0.0, 1.0, 10)
    K = assemble_kernel(g, 0.3, 2.5)
    rng = np.random.default_rng(5)
    u = rng.standard_normal(10)
    W = weight_matrix(K)
    total = 0.0
    for i in range(10):
        for j in range(10):
            if i != j:
                total += W[i, j] * abs(u[i] - u[j]) ** 2.5
        total += 2.0 * g.h * K.tail[i] * abs(u[i]) ** 2.5
    assert seminorm_p(u, K) == pytest.approx(total, rel=1e-12)


def test_seminorm_hat_against_brute_force_quadrature():
    # independent oracle: double midpoint quadrature of the defining
    # integral on a 400-point tensor grid plus quadratured exterior part
    n = 100
    s, p = 0.4, 2.0
    g = build_grid(0.0, 1.0, n)
    K = assemble_kernel(g, s, p)
    hat = np.minimum(g.nodes, 1.0 - g.nodes)
    S_impl = seminorm_p(hat, K)

    m = 400
    w = 1.0 / m
    x = (np.arange(m) + 0.5) * w
    ux = np.minimum(x, 1.0 - x)
    diff = np.abs(ux[:, None] - ux[None, :]) ** p
    dist = np.abs(x[:, None] - x[None, :])
    np.fill_diagonal(dist, 1.0)  # zero numerator there anyway
    inner = float(np.sum(diff * dist ** -(1.0 + s * p))) * w * w

    sp = s * p
    tail_quad = np.empty(m)
    for k in range(m):
        left, _ = integrate.quad(lambda y: (x[k] - y) ** -(1.0 + sp), -np.inf, 0.0)
        right, _ = integrate.quad(lambda y: (y - x[k]) ** -(1.0 + sp), 1.0, np.inf)
        tail_quad[k] = left + right
    outer = 2.0 * float(np.sum(np.abs(ux) ** p * tail_quad)) * w
    assert S_impl == pytest.approx(inner + outer, rel=0.02)


def test_apply_flap_zero_and_odd():
    g = build_grid(0.0, 1.0, 14)
    K = assemble_kernel(g, 0.3, 3.0)
    np.testing.assert_array_equal(apply_flap(np.zeros(14), K), np.zeros(14))
    rng = np.random.default_rng(2)
    u = rng.standard_normal(14)
    np.testing.assert_allclose(
        apply_flap(-u, K) + apply_flap(u, K), np.zeros(14), atol=1e-12)


def test_apply_flap_euler_identity():
    # sizes below and above the pair-table block
    rng = np.random.default_rng(9)
    for n in (20, _PAIR_BLOCK + 1, 2 * _PAIR_BLOCK + 1):
        g = build_grid(0.0, 1.0, n)
        for p in (1.5, 2.0, 2.5, 3.0):
            K = assemble_kernel(g, 0.9 / (p + 0.5), p)
            for _ in range(5):
                u = rng.standard_normal(n)
                pairing = float(apply_flap(u, K) @ u)
                assert pairing == pytest.approx(p * seminorm_p(u, K), rel=1e-10)


def test_apply_flap_is_gradient_of_seminorm():
    # central finite differences of S at 20 random points per exponent
    g = build_grid(0.0, 1.0, 40)
    rng = np.random.default_rng(17)
    for p, s, tol in ((2.0, 0.4, 1e-5), (2.5, 0.35, 1e-3), (3.0, 0.3, 1e-3)):
        K = assemble_kernel(g, s, p)
        for _ in range(20):
            u = rng.standard_normal(40) * rng.uniform(0.2, 3.0)
            grad = apply_flap(u, K)
            fd = np.empty(40)
            for i in range(40):
                step = 1e-6 * (1.0 + abs(u[i]))
                up, dn = u.copy(), u.copy()
                up[i] += step
                dn[i] -= step
                fd[i] = (seminorm_p(up, K) - seminorm_p(dn, K)) / (2.0 * step)
            scale = max(float(np.max(np.abs(grad))), 1e-12)
            assert float(np.max(np.abs(fd - grad))) / scale < tol


def test_pairing_coercivity_inequality():
    # discrete analogue of the norm-difference lower bound used in the
    # compactness argument
    g = build_grid(0.0, 1.0, 25)
    rng = np.random.default_rng(23)
    for p in (2.0, 2.5, 3.0):
        K = assemble_kernel(g, 0.9 / (p + 0.5), p)
        for _ in range(10):
            u = rng.standard_normal(25)
            v = rng.standard_normal(25)
            lhs = float((apply_flap(u, K) - apply_flap(v, K)) @ (u - v)) / p
            nu = seminorm_p(u, K) ** (1.0 / p)
            nv = seminorm_p(v, K) ** (1.0 / p)
            rhs = (nu ** (p - 1.0) - nv ** (p - 1.0)) * (nu - nv)
            assert lhs >= rhs - 1e-10 * (1.0 + abs(rhs))


def test_seminorm_refinement_stability():
    # the same smooth profile sampled at n = 200 and n = 400
    vals = []
    for n in (200, 400):
        g = build_grid(0.0, 1.0, n)
        K = assemble_kernel(g, 0.4, 2.0)
        vals.append(seminorm_p(np.sin(np.pi * g.nodes), K))
    assert abs(vals[1] - vals[0]) / vals[0] < 0.01


def test_quadratic_form_matrix_matches_seminorm():
    g = build_grid(0.0, 1.0, 30)
    K = assemble_kernel(g, 0.4, 2.0)
    G = quadratic_form_matrix(K)
    np.testing.assert_allclose(G, G.T, rtol=1e-14)
    assert np.all(np.linalg.eigvalsh(G) > 0.0)
    rng = np.random.default_rng(31)
    for _ in range(5):
        u = rng.standard_normal(30)
        assert float(u @ G @ u) == pytest.approx(seminorm_p(u, K), rel=1e-12)


def test_quadratic_form_matrix_needs_p_two():
    g = build_grid(0.0, 1.0, 10)
    K = assemble_kernel(g, 0.3, 2.5)
    with pytest.raises(UsageError):
        quadratic_form_matrix(K)


def _full_seminorm(u, K):
    diff = np.abs(u[:, None] - u[None, :])
    interior = float(np.sum(weight_matrix(K) * diff ** K.p))
    return interior + 2.0 * K.cell_weight * float(np.sum(K.tail * np.abs(u) ** K.p))


def _full_flap(u, K):
    def phi(d):
        return d if K.p == 2.0 else np.sign(d) * np.abs(d) ** (K.p - 1.0)

    diff = u[:, None] - u[None, :]
    pair = (weight_matrix(K) * phi(diff)).sum(axis=1)
    return 2.0 * K.p * (pair + K.cell_weight * K.tail * phi(u))


_SIZES = (1, _PAIR_BLOCK - 1, _PAIR_BLOCK, _PAIR_BLOCK + 1, 2 * _PAIR_BLOCK + 1,
          _PARALLEL_ROWS - 1, _PARALLEL_ROWS, _PARALLEL_ROWS + 1)


def _pair_inputs(st):
    """(n, p, seed, levels, scale): sizes around the block, p below, at and
    above 2, and the p where the power is a square or a square root
    (p = 1.5, 2, 3); levels > 0 draws u from a few values, so many
    differences are 0, and about a tenth of the entries of u are -0.0."""
    p = st.one_of(st.floats(1.05, 1.95), st.sampled_from((1.5, 2.0, 3.0)),
                  st.floats(2.05, 4.0))
    return st.tuples(st.sampled_from(_SIZES), p, st.integers(0, 2 ** 32 - 1),
                     st.sampled_from((0, 1, 3)), st.floats(1e-3, 1e3))


def _draw_u(n, seed, levels, scale):
    rng = np.random.default_rng(seed)
    if levels:
        u = scale * rng.integers(-levels, levels + 1, n) / levels
    else:
        u = scale * rng.standard_normal(n)
    u[rng.random(n) < 0.1] = -0.0
    return u


def _kernel(n, p):
    return assemble_kernel(build_grid(0.0, 1.0, n), 0.9 / (p + 0.5), p)


def _same_bytes(u, K):
    assert (np.float64(seminorm_p(u, K)).tobytes()
            == np.float64(_full_seminorm(u, K)).tobytes())
    assert apply_flap(u, K).tobytes() == _full_flap(u, K).tobytes()


def test_pair_table_matches_full_formula_bit_for_bit():
    hyp = pytest.importorskip("hypothesis")

    @hyp.settings(max_examples=80, deadline=None)
    @hyp.given(_pair_inputs(hyp.strategies))
    def check(args):
        n, p, seed, levels, scale = args
        _same_bytes(_draw_u(n, seed, levels, scale), _kernel(n, p))

    check()


@pytest.fixture
def two_threads(monkeypatch):
    """Two threads for the pair tables from _PARALLEL_ROWS rows on, also on
    a one-CPU host."""
    monkeypatch.setattr(kernel, "_CPUS", 2)


def test_blocked_pair_table_matches_full_formula(two_threads):
    # three row blocks, then both sides of the two-thread threshold, odd
    # and even n, repeated values, without hypothesis
    for n in (2 * _PAIR_BLOCK + 1, _PARALLEL_ROWS - 1, _PARALLEL_ROWS,
              _PARALLEL_ROWS + 1):
        for p in (1.5, 2.0, 2.5, 3.0):
            _same_bytes(_draw_u(n, 5, 3, 0.7), _kernel(n, p))


def _full_hessian(u, prob):
    # -2(p-1) W |d|^(p-2) off the diagonal, every pair power computed; on
    # the diagonal the documented sum, in the order hessian forms it
    K = prob.kernel
    H = (weight_matrix(K) * np.abs(u[:, None] - u[None, :]) ** (K.p - 2.0)
         * (-2.0 * (K.p - 1.0)))
    np.fill_diagonal(H, 0.0)
    diag = (K.p - 1.0) * np.abs(u) ** (K.p - 2.0) * (2.0 * K.cell_weight * K.tail
                                                      + prob.h * prob.V.values)
    np.fill_diagonal(H, diag - prob.lam * prob.h * f_prime(u, prob.nl) - H.sum(axis=1))
    return H


def _check_table_bytes(monkeypatch, threaded):
    """seminorm_p, apply_flap and hessian against their full formulas at
    every _SIZES entry and p in (2, 4], p = 3 (the pair power is |d|) and
    p = 4 (d^2, no abs) among them.  Each call hands its one table to the
    pool's thread exactly once from _PARALLEL_ROWS rows on if threaded, and
    never otherwise: every sum runs on the calling thread."""
    handoffs = []
    run_blocks = kernel._run_blocks

    def spy(n, work, scratch):
        handoffs.append(n)
        run_blocks(n, work, scratch)

    monkeypatch.setattr(kernel, "_run_blocks", spy)

    def check(n, p, seed, levels, scale):
        s = 0.9 / (p + 0.5)
        g = build_grid(0.0, 1.0, n)
        rng = np.random.default_rng(seed)
        prob = make_problem(g, assemble_kernel(g, s, p),
                            make_potential(g, values=rng.uniform(-1.0, 2.0, n)), 0.7,
                            make_nonlinearity(p + 0.5, 1.0, p, s))
        u = _draw_u(n, seed, levels, scale)
        K = prob.kernel
        for call, want in ((lambda: seminorm_p(u, K), _full_seminorm(u, K)),
                           (lambda: apply_flap(u, K), _full_flap(u, K)),
                           (lambda: hessian(u, prob), _full_hessian(u, prob))):
            del handoffs[:]
            assert np.asarray(call()).tobytes() == np.asarray(want).tobytes()
            assert handoffs == ([n] if threaded and n >= _PARALLEL_ROWS else [])

    for n in _SIZES:
        for p in (2.5, 3.0, 4.0):
            check(n, p, n, 3, 0.7)

    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=40, deadline=None)
    @hyp.given(st.sampled_from(_SIZES),
               st.one_of(st.floats(2.0, 4.0, exclude_min=True),
                         st.sampled_from((3.0, 4.0))),
               st.integers(0, 2 ** 32 - 1), st.sampled_from((0, 1, 3)),
               st.floats(1e-3, 1e3))
    def drawn(n, p, seed, levels, scale):
        check(n, p, seed, levels, scale)

    drawn()


def test_hessian_matches_full_formula_bit_for_bit(monkeypatch):
    # every table on the calling thread; seminorm_p and apply_flap too
    monkeypatch.setattr(kernel, "_CPUS", 1)
    _check_table_bytes(monkeypatch, threaded=False)


def test_two_thread_hessian_matches_full_formula_bit_for_bit(two_threads, monkeypatch):
    # seminorm_p and apply_flap too: one hand-off per table
    _check_table_bytes(monkeypatch, threaded=True)


def test_concurrent_callers_get_the_serial_bytes(two_threads):
    # more calling threads than cores share the one pool thread
    n = _PARALLEL_ROWS + 1
    kernels = [_kernel(n, p) for p in (1.5, 2.0, 2.5)]
    inputs = [_draw_u(n, seed, seed % 2 * 3, 1.3) for seed in range(4)]
    want = [[(_full_seminorm(u, K), _full_flap(u, K).tobytes()) for K in kernels]
            for u in inputs]
    got = [None] * len(inputs)
    start = threading.Barrier(len(inputs))

    def run(i):
        start.wait(timeout=30)
        got[i] = [(seminorm_p(inputs[i], K), apply_flap(inputs[i], K).tobytes())
                  for K in kernels]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(inputs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for g, w in zip(got, want):
        assert g is not None
        for (s_got, f_got), (s_want, f_want) in zip(g, w):
            assert np.float64(s_got).tobytes() == np.float64(s_want).tobytes()
            assert f_got == f_want


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_builds_its_own_second_thread(two_threads):
    # the child has no copy of the parent's pool thread: the parent's pool
    # would queue the child's work forever
    n = _PARALLEL_ROWS + 1
    K = _kernel(n, 2.5)
    u = _draw_u(n, 3, 0, 1.0)
    want = np.float64(seminorm_p(u, K)).tobytes()
    parent_pool = kernel._pool
    pid = os.fork()
    if pid == 0:
        same = np.float64(seminorm_p(u, K)).tobytes() == want
        os._exit(0 if same and kernel._pool is not parent_pool else 3)
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        time.sleep(0.01)
    else:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("forked child hung in seminorm_p")
    assert os.waitstatus_to_exitcode(status) == 0


def test_traced_calls_stay_on_one_thread(two_threads, monkeypatch):
    # tracemalloc's peak would depend on how the two threads' transient
    # numpy buffers overlap: a traced call takes every block itself, and
    # its peak repeats exactly
    n = _PARALLEL_ROWS + 1
    K = _kernel(n, 2.5)
    u = _draw_u(n, 2, 0, 1.0)
    want = (seminorm_p(u, K), apply_flap(u, K).tobytes())

    def no_thread(*args, **kwargs):
        raise AssertionError("a traced call used the second thread")

    monkeypatch.setattr(kernel._pool, "submit", no_thread)
    peaks = []
    for _ in range(3):
        tracemalloc.start()
        try:
            got = (seminorm_p(u, K), apply_flap(u, K).tobytes())
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert got == want
    assert len(set(peaks)) == 1


def test_no_table_outlives_its_call(two_threads):
    # the pool's thread is busy, so the caller takes every block and the
    # pool's part is cancelled while queued: the queued work item must not
    # keep the table alive into the next call (two tables resident at once)
    release = threading.Event()
    busy = kernel._pool.submit(release.wait, 30)
    try:
        table = np.zeros(_PARALLEL_ROWS)
        gone = weakref.ref(table)

        def work(starts, _, table=table):
            for r0 in starts:
                table[r0] = 1.0

        kernel._run_blocks(_PARALLEL_ROWS, work, [None, None])
        assert table[::_PAIR_BLOCK].all()
        del work, table
        assert gone() is None
    finally:
        release.set()
        busy.result(timeout=30)


def test_second_thread_keeps_the_callers_errstate(two_threads):
    # every block overflows; the caller's errstate silences it on both threads
    n = _PARALLEL_ROWS + 1
    K = _kernel(n, 2.5)
    u = np.linspace(-1e160, 1e160, n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="ignore"):
            for _ in range(5):
                assert seminorm_p(u, K) == np.inf
