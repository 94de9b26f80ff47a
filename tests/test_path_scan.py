"""The mountain pass's refined-path scan, with and without an accept test.

A rejected trial path is scanned only up to its first refined sample that
fails the accept test; an accepted one must carry exactly the energies a
full evaluation gives, so the search takes the same steps either way.
"""

import numpy as np
import pytest

from fracmp import energy
from fracmp.solve import _refined_path

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def _random_path(seed, P, scale=1.0, zero_ends=False):
    path = scale * np.random.default_rng(seed).standard_normal((P + 1, 96))
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
