"""The mountain pass's refined-path scan, forces and re-parameterization.

A rejected trial path is scanned only up to its first refined sample that
fails the accept test; an accepted one must carry exactly the energies a
full evaluation gives, so the search takes the same steps either way.  The
projected forces and the re-parameterization work on the whole path at
once; each must give the bytes of its vertex-by-vertex loop, kept here.
"""

import itertools

import numpy as np
import pytest

from fracmp import (assemble_kernel, build_grid, energy, kernel, make_nonlinearity,
                    make_potential, make_problem)
from fracmp._descent import vector_norm
from fracmp.solve import _path_forces, _refined_path, _reparametrize

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def _random_path(seed, P, scale=1.0, zero_ends=False, n=96):
    path = scale * np.random.default_rng(seed).standard_normal((P + 1, n))
    if zero_ends:
        path[[0, P]] = 0.0
    return path


def test_unbounded_scan_is_every_energy(prob96):
    P = 9
    path = _random_path(71, P)
    ends = (energy(path[0], prob96), energy(path[P], prob96))
    fine, Jf, made = _refined_path(path, prob96, ends)
    assert made == 2 * P - 1
    direct = np.array([energy(x, prob96) for x in fine])
    assert Jf.tobytes() == direct.tobytes()
    np.testing.assert_array_equal(fine[0::2], path)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), P=st.integers(2, 9),
       scale=st.sampled_from([1.0, 10.0, 1e80, 1e160]),
       zero_ends=st.booleans(), data=st.data())
def test_bounded_scan_stops_at_first_failure(prob96, seed, P, scale, zero_ends, data):
    # zero endpoints have energy 0, so the scan often gets past them
    path = _random_path(seed, P, scale, zero_ends)
    with np.errstate(over="ignore", invalid="ignore"):
        ends = (energy(path[0], prob96), energy(path[P], prob96))
        _, full, _ = _refined_path(path, prob96, ends)
        # the bound may equal a sample's value, or be any float or inf
        bound = data.draw(st.one_of(st.floats(allow_nan=False),
                                    st.sampled_from(list(full))))
        start = data.draw(st.integers(0, 2 * P))

        def passes(v):
            return bool(np.isfinite(v) and v <= bound)

        seen = []

        def accept(v):
            seen.append(v)
            return passes(v)

        _, Jf, made = _refined_path(path, prob96, ends, accept, start)
    ok = bool(np.all(np.isfinite(full)) and full.max() <= bound)
    assert (Jf is not None) == ok
    # endpoints first, then outward from start, up to the first failure
    order = sorted(range(1, 2 * P), key=lambda k: abs(k - start))
    scan = [full[0], full[2 * P]] + [full[k] for k in order]
    fails = [i for i, v in enumerate(scan) if not passes(v)]
    stop = fails[0] + 1 if fails else len(scan)
    np.testing.assert_array_equal(seen, scan[:stop])
    assert made == max(stop - 2, 0)
    if ok:
        assert Jf.tobytes() == full.tobytes()


@pytest.fixture(scope="module")
def prob192():
    # the solve benchmark's instance: one row per stacked pair table
    grid = build_grid(0.0, 1.0, 192)
    return make_problem(grid, assemble_kernel(grid, 0.3, 2.5),
                        make_potential(grid, constant=0.25), 0.5,
                        make_nonlinearity(3.0, 1.0, 2.5, 0.3))


@pytest.mark.parametrize("fail_at", [None, 1, 2, 21], ids=["accepted", "first", "second",
                                                          "middle"])
@pytest.mark.parametrize("n", [96, 192])
def test_scan_is_the_same_on_one_cpu_and_two(monkeypatch, prob96, prob192, n, fail_at):
    # two CPUs take larger stacks and compute rows past the first failure;
    # the samples, the energies and the evaluations counted do not change
    prob = prob96 if n == 96 else prob192
    P = 21
    path = np.abs(_random_path(n, P, n=n))
    ends = (energy(path[0], prob), energy(path[P], prob))

    def scan(cpus):
        monkeypatch.setattr(kernel, "_CPUS", cpus)
        seen = itertools.count(-1)  # the two ends are tested first

        def accept(v):
            return next(seen) != fail_at

        fine, Jf, made = _refined_path(path, prob, ends, accept, P // 2)
        return fine.tobytes(), None if Jf is None else Jf.tobytes(), made

    one = scan(1)
    assert one == scan(2)
    assert (one[1] is None) == (fail_at is not None)
    assert one[2] == (2 * P - 1 if fail_at is None else fail_at)


def _loop_forces(path, G, k_int):
    P = path.shape[0] - 1
    F = np.empty_like(G)
    for k in range(1, P):
        t_vec = path[k + 1] - path[k - 1]
        nt = vector_norm(t_vec)
        g_k = G[k - 1]
        if nt == 0.0:
            F[k - 1] = -g_k
            continue
        t_hat = t_vec / nt
        g_t = float(g_k @ t_hat)
        if k == k_int:
            F[k - 1] = -(g_k - 2.0 * g_t * t_hat)
        else:
            F[k - 1] = -(g_k - g_t * t_hat)
    return F


def _loop_reparametrize(path, J):
    P = path.shape[0] - 1
    seg = np.linalg.norm(np.diff(path, axis=0), axis=1)
    if np.all(seg == 0.0):
        return path
    seg_top = np.maximum(J[:-1], J[1:])
    lo, hi = float(np.min(J)), float(np.max(J))
    w = 1.0 + 2.0 * (seg_top - lo) / (hi - lo + 1e-300)
    cum = np.concatenate([[0.0], np.cumsum(seg * w)])
    total = cum[-1]
    if total == 0.0:
        return path
    targets = np.linspace(0.0, total, P + 1)
    out = np.empty_like(path)
    out[0] = path[0]
    out[P] = path[P]
    k = 0
    for j in range(1, P):
        t = targets[j]
        while k < P - 1 and cum[k + 1] < t:
            k += 1
        width = cum[k + 1] - cum[k]
        frac = 0.0 if width == 0.0 else (t - cum[k]) / width
        out[j] = path[k] + frac * (path[k + 1] - path[k])
    return out


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), P=st.integers(2, 12),
       n=st.sampled_from([1, 3, 8, 33, 96]),
       scale=st.sampled_from([1e-170, 1e-3, 1.0, 1e80]), data=st.data())
def test_whole_path_arrays_match_vertex_loops(seed, P, n, scale, data):
    rng = np.random.default_rng(seed)
    path = scale * rng.standard_normal((P + 1, n))
    # repeated vertices give zero-length segments; a vertex equal to the one
    # two before it gives its middle vertex a zero tangent
    for k in data.draw(st.lists(st.integers(1, P), max_size=P)):
        path[k] = path[k - data.draw(st.sampled_from([1, 2])) if k >= 2 else k - 1]
    G = rng.standard_normal((P - 1, n))
    G[data.draw(st.lists(st.integers(0, P - 2), max_size=2))] = \
        data.draw(st.sampled_from([0.0, np.inf]))
    k_int = data.draw(st.integers(1, P - 1))
    with np.errstate(invalid="ignore"):
        F = _path_forces(path, G, k_int)
        assert F.tobytes() == _loop_forces(path, G, k_int).tobytes()
    # energies with ties, a flat path among them
    J = rng.choice(data.draw(st.sampled_from([[0.5], [0.0, 1.0], [-1.0, 0.25, 3.0]])), P + 1)
    assert _reparametrize(path, J).tobytes() == _loop_reparametrize(path, J).tobytes()
