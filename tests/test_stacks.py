"""Stacked evaluation: a stack (B, n) of grid functions in one call.

Oracle: the one-point call on each row.  Every row of a stacked
seminorm_p, apply_flap, norm_W, energy and gradient must be the same bytes
as the call on that row alone, for stacks shorter and longer than one
stacked pair table holds (kernel._STACK_CAP).  The nonlinearity's np.where
branches, and its branch for inputs with no negative entry, are checked
against the masked formulas they replaced.
"""

import functools
import warnings
from unittest import mock

import numpy as np
import pytest

from fracmp import (
    UsageError,
    apply_flap,
    assemble_kernel,
    build_grid,
    energy,
    gradient,
    make_nonlinearity,
    make_potential,
    make_problem,
    seminorm_p,
)
from fracmp import kernel
from fracmp.kernel import _PAIR_BLOCK, _PARALLEL_ROWS, norm_W
from fracmp.model import F_eval, NonlinearitySpec, _nonnegative, f_eval

_SIZES = (1, 96, _PAIR_BLOCK - 1, _PAIR_BLOCK + 1, _PARALLEL_ROWS)
_EXPONENTS = (1.5, 2.0, 2.5, 3.0)


@functools.cache
def _problem(n, p):
    s = 0.9 / (p + 0.5)
    grid = build_grid(0.0, 1.0, n)
    return make_problem(grid, assemble_kernel(grid, s, p),
                        make_potential(grid, constant=0.25), 0.5,
                        make_nonlinearity(p + 0.5, 1.0, p, s))


def _stack(B, n, seed, levels):
    """B rows; levels > 0 draws from a few values (many ties), and about a
    tenth of the entries are -0.0."""
    rng = np.random.default_rng(seed)
    if levels:
        U = 1.5 * rng.integers(-levels, levels + 1, (B, n)) / levels
    else:
        U = 2.0 * rng.standard_normal((B, n))
    U[rng.random((B, n)) < 0.1] = -0.0
    return U


def _rows_match(U, prob):
    K = prob.kernel
    S, A, N = seminorm_p(U, K), apply_flap(U, K), norm_W(U, K)
    J, G = energy(U, prob), gradient(U, prob)
    assert S.shape == N.shape == J.shape == (len(U),)
    assert A.shape == G.shape == U.shape
    for b, u in enumerate(U):
        assert np.float64(seminorm_p(u, K)).tobytes() == S[b].tobytes()
        assert apply_flap(u, K).tobytes() == A[b].tobytes()
        assert np.float64(norm_W(u, K)).tobytes() == N[b].tobytes()
        assert np.float64(energy(u, prob)).tobytes() == J[b].tobytes()
        assert gradient(u, prob).tobytes() == G[b].tobytes()


def test_stacked_rows_are_one_point_bytes():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=60, deadline=None)
    @hyp.given(n=st.sampled_from(_SIZES), p=st.sampled_from(_EXPONENTS),
               seed=st.integers(0, 2 ** 32 - 1), levels=st.sampled_from((0, 1, 3)),
               small_cap=st.booleans(), data=st.data())
    def check(n, p, seed, levels, small_cap, data):
        # a small cap cuts even short stacks into several tables
        cap = 2 * n * n if small_cap else kernel._STACK_CAP
        with mock.patch.object(kernel, "_STACK_CAP", cap):
            rows = kernel._stack_rows(n)
            B = data.draw(st.integers(1, min(rows + 2, 40)))
            _rows_match(_stack(B, n, seed, levels), _problem(n, p))

    check()


def test_stacks_past_the_cap():
    # without hypothesis: one table, then several, at the real cap
    for n in (96, _PAIR_BLOCK + 1):
        rows = kernel._stack_rows(n)
        for p in _EXPONENTS:
            for B in (1, rows, rows + 1):
                _rows_match(_stack(B, n, B, 3), _problem(n, p))


def test_one_point_keeps_its_types():
    prob = _problem(96, 2.0)
    u = _stack(1, 96, 4, 0)[0]
    assert type(seminorm_p(u, prob.kernel)) is float
    assert type(norm_W(u, prob.kernel)) is float
    assert type(energy(u, prob)) is float
    assert gradient(u, prob).shape == (96,)


def test_stack_validation():
    prob = _problem(96, 2.0)
    U = _stack(3, 96, 5, 0)
    for bad in (U[:, :95], U[None], U[:0], np.float64(1.0)):
        with pytest.raises(UsageError, match="shape"):
            energy(bad, prob)
        with pytest.raises(UsageError, match="shape"):
            gradient(bad, prob)
        with pytest.raises(UsageError, match="shape"):
            seminorm_p(bad, prob.kernel)
        with pytest.raises(UsageError, match="shape"):
            apply_flap(bad, prob.kernel)
    U[2, 7] = np.nan
    with pytest.raises(UsageError, match="non-finite"):
        energy(U, prob)
    with pytest.raises(UsageError, match="non-finite"):
        seminorm_p(U, prob.kernel)


def _masked_f(s, nl):
    arr = np.asarray(s, dtype=float)
    out = np.zeros_like(arr)
    pos = arr >= 0.0
    mid = (arr < 0.0) & (arr > -1.0)
    out[pos] = arr[pos] ** nl.q + nl.f0
    out[mid] = nl.f0 * (1.0 + arr[mid])
    return out


def _masked_F(s, nl):
    arr = np.asarray(s, dtype=float)
    out = np.full_like(arr, -nl.f0 / 2.0)
    pos = arr >= 0.0
    mid = (arr < 0.0) & (arr > -1.0)
    out[pos] = arr[pos] ** (nl.q + 1.0) / (nl.q + 1.0) + nl.f0 * arr[pos]
    out[mid] = nl.f0 * (arr[mid] + arr[mid] ** 2 / 2.0)
    return out


def test_nonlinearity_matches_masked_formulas():
    rng = np.random.default_rng(61)
    special = [0.0, -0.0, -1.0, 1.0, -1e-300, 1e-300, 5e-324, -5e-324, 1e10, -1e10,
               np.nextafter(-1.0, 0.0), np.nextafter(-1.0, -2.0), 1e200, -1e200]
    values = np.concatenate([special, 3.0 * rng.standard_normal(20000),
                             rng.uniform(-1.0, 0.0, 2000)])
    # q = 2 and 4 make q + 1 odd, where F(-0.0) keeps its sign; 1e200 ** q
    # overflows in both formulas
    with np.errstate(over="ignore", invalid="ignore"):
        _check_nonlinearity(values, special)


def _check_nonlinearity(values, special):
    for q, f0 in ((3.0, 1.0), (2.0, 1.0), (4.0, 0.0), (2.5, -0.5), (3.7, 0.3)):
        nl = NonlinearitySpec(q=q, f0=f0, theta=q)
        want_f, want_F = _masked_f(values, nl), _masked_F(values, nl)
        assert f_eval(values, nl).tobytes() == want_f.tobytes()
        assert F_eval(values, nl).tobytes() == want_F.tobytes()
        stack = values[:2000].reshape(20, 100)
        assert f_eval(stack, nl).tobytes() == want_f[:2000].reshape(20, 100).tobytes()
        assert F_eval(stack, nl).tobytes() == want_F[:2000].reshape(20, 100).tobytes()
        for x in special[:10]:
            assert np.float64(f_eval(x, nl)).tobytes() == _masked_f(x, nl).tobytes()
            assert np.float64(F_eval(x, nl)).tobytes() == _masked_F(x, nl).tobytes()


def _warned(fn, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args)
    return out, [(w.category, str(w.message)) for w in caught]


def test_nonnegative_inputs_match_masked_formulas():
    # the whole-array branch: C-contiguous flat arrays and (B, n) stacks take
    # it, strided views of the same values do not; 1e200 overflows to the
    # same inf with the same warning
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    entry = st.one_of(st.sampled_from([0.0, -0.0, 1e-300, 5e-324, 1.0, 1e200]),
                      st.floats(0.0, 1e3), st.floats(0.0, 1e80))

    @hyp.settings(max_examples=150, deadline=None)
    @hyp.given(values=st.lists(entry, min_size=1, max_size=40),
               rows=st.integers(1, 4), layout=st.sampled_from(["flat", "stack", "strided"]),
               q=st.sampled_from((2.0, 2.5, 3.0, 3.7, 4.0)),
               f0=st.sampled_from((1.0, 0.0, -0.5, 0.3)))
    def check(values, rows, layout, q, f0):
        nl = NonlinearitySpec(q=q, f0=f0, theta=q)
        arr = np.array(values * rows)
        if layout == "stack":
            arr = arr.reshape(rows, len(values))
        elif layout == "strided":
            arr = np.repeat(arr, 2)[::2]
        # numpy flags a one-entry view contiguous
        assert _nonnegative(arr) == (layout != "strided" or arr.size == 1)
        for fn, masked in ((f_eval, _masked_f), (F_eval, _masked_F)):
            got, got_warnings = _warned(fn, arr, nl)
            want, want_warnings = _warned(masked, arr, nl)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            assert got_warnings == want_warnings

    check()
