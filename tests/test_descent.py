"""The shared descent driver on small synthetic objectives.

bb_descent runs the eigenpair, torsion and energy descents; here it is
checked on its own: convergence, the three ways a run stops short, and an
abort raised from the per-step hook.  vector_norm, the norm of the hot
loops, is checked byte for byte against np.linalg.norm.
"""

import numpy as np
import pytest

from fracmp._descent import _STALL_WINDOW, bb_descent, vector_norm

H = 0.25  # grid spacing: the residual is ||g|| / sqrt(H)
A = np.array([1.0, 3.0, 10.0, 30.0])
B = np.array([1.0, -2.0, 0.5, 4.0])


def _quadratic(u):
    return 0.5 * float(u @ (A * u)) - float(B @ u)


def _gradient(u, _value):
    return A * u - B


def _step(u, alpha, g):
    v = u - alpha * g
    return v, _quadratic(v)


def test_converges_on_convex_quadratic():
    u0 = np.zeros(4)
    u, value, residual, it, trace = bb_descent(u0, _quadratic(u0), _gradient, _step,
                                               1e-10, 1000, H)
    assert residual <= 1e-10
    assert residual == pytest.approx(np.linalg.norm(A * u - B) / np.sqrt(H))
    assert np.allclose(u, B / A, rtol=0.0, atol=1e-9)
    assert value == trace[-1] == _quadratic(u)
    assert len(trace) == it + 1 and trace[0] == 0.0
    assert np.all(np.diff(trace) <= 1e-14 * (1.0 + np.abs(trace[:-1])))


def test_stops_at_cap():
    u0 = np.zeros(4)
    u, value, residual, it, trace = bb_descent(u0, _quadratic(u0), _gradient, _step,
                                               1e-10, 3, H)
    assert it == 3 and len(trace) == 4
    # the residual is that of the returned iterate
    assert residual == np.linalg.norm(A * u - B) / np.sqrt(H) > 1e-10
    assert value == _quadratic(u) < 0.0


def test_stops_after_stall_window():
    # a residual that never shrinks, with every step accepted at a flat value
    g = np.ones(3)
    u, value, residual, it, trace = bb_descent(
        np.zeros(3), 0.0, lambda u, _: g, lambda u, alpha, g: (u - alpha * g, 0.0),
        1e-12, 10 * _STALL_WINDOW, H)
    assert it == _STALL_WINDOW + 1
    assert len(trace) == it + 1
    assert residual == pytest.approx(np.sqrt(3.0) / np.sqrt(H))


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_rejected_trials_end_after_one_iteration(bad):
    trials = []

    def trial(u, alpha, g):
        trials.append(alpha)
        return u - alpha * g, bad

    u0 = np.ones(4)
    u, value, residual, it, trace = bb_descent(u0, 5.0, _gradient, trial, 1e-10, 100, H)
    assert it == 1
    assert len(trials) == 60  # every halving tried once
    assert trials[1] == 0.5 * trials[0]
    assert u is u0 and value == 5.0 and list(trace) == [5.0]
    assert residual == pytest.approx(np.linalg.norm(A - B) / np.sqrt(H))


class _Abort(Exception):
    pass


def test_check_exception_carries_the_iterate():
    def check(u, value, residual, it, trace):
        raise _Abort(u, value, it, list(trace))

    u0 = np.zeros(4)
    with pytest.raises(_Abort) as err:
        bb_descent(u0, _quadratic(u0), _gradient, _step, 1e-10, 100, H, check=check)
    u, value, it, trace = err.value.args
    g0 = -B
    assert np.array_equal(u, u0 - (0.1 / np.linalg.norm(g0)) * g0)
    assert value == _quadratic(u) == trace[-1]
    assert it == 1 and len(trace) == 2


def test_vector_norm_is_numpys_norm():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    entry = st.one_of(st.floats(-1e3, 1e3), st.floats(-1e200, 1e200),
                      st.sampled_from([0.0, -0.0, 5e-324, 1e-300]))

    @hyp.settings(max_examples=150, deadline=None)
    @hyp.given(values=st.lists(entry, min_size=1, max_size=300),
               view=st.sampled_from(["contiguous", "step", "reversed", "column"]))
    def check(values, view):
        x = np.array(values)
        if view == "step":
            x = x[::3]
        elif view == "reversed":
            x = x[::-1]
        elif view == "column":
            x = np.stack([x, -x], axis=1)[:, 1]
        # 1e200-scale entries overflow the dot to inf in both
        with np.errstate(over="ignore"):
            got, want = vector_norm(x), np.linalg.norm(x)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    check()
