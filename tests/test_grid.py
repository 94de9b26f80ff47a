"""Interval grid, grid-function validation, norms, and the file format."""

import numpy as np
import pytest

from fracmp import (
    ConfigurationError,
    UsageError,
    as_grid_function,
    build_grid,
    norms,
    read_gridfn,
    write_gridfn,
)


def test_build_grid_unit_interval():
    g = build_grid(0.0, 1.0, 3)
    assert g.h == pytest.approx(0.25)
    np.testing.assert_allclose(g.nodes, [0.25, 0.5, 0.75])
    np.testing.assert_allclose(g.d, [0.25, 0.5, 0.25])


def test_build_grid_rejects_bad_intervals():
    with pytest.raises(ConfigurationError):
        build_grid(1.0, 0.0, 3)
    with pytest.raises(ConfigurationError):
        build_grid(0.0, 0.0, 3)
    with pytest.raises(ConfigurationError):
        build_grid(0.0, 1.0, 0)
    with pytest.raises(ConfigurationError):
        build_grid(float("nan"), 1.0, 3)
    with pytest.raises(ConfigurationError):
        build_grid(0.0, float("inf"), 3)


def test_build_grid_random_geometry():
    rng = np.random.default_rng(20240811)
    for _ in range(25):
        a = float(rng.uniform(-5.0, 5.0))
        b = a + float(rng.uniform(0.1, 10.0))
        n = int(rng.integers(1, 40))
        g = build_grid(a, b, n)
        assert g.h == pytest.approx((b - a) / (n + 1))
        assert np.all(np.diff(g.nodes) > 0.0)
        assert a < g.nodes[0] and g.nodes[-1] < b
        assert np.all(g.d > 0.0)
        # boundary distance is reflection symmetric on a uniform grid
        np.testing.assert_allclose(g.d, g.d[::-1], rtol=0.0, atol=1e-12 * (b - a))
        np.testing.assert_allclose(
            g.d, np.minimum(g.nodes - a, b - g.nodes), rtol=1e-15)


def test_as_grid_function_accepts_lists_and_validates():
    v = as_grid_function([1.0, 2.0, 3.0], 3)
    assert isinstance(v, np.ndarray)
    np.testing.assert_allclose(v, [1.0, 2.0, 3.0])
    with pytest.raises(UsageError):
        as_grid_function([1.0, 2.0], 3)
    with pytest.raises(UsageError):
        as_grid_function(np.ones((3, 1)), 3)
    with pytest.raises(UsageError):
        as_grid_function([1.0, float("nan"), 3.0], 3)


def test_norms_zero_function():
    g = build_grid(0.0, 1.0, 7)
    assert norms(np.zeros(7), g, 2.0) == (0.0, 0.0)


def test_norms_constant_one():
    # h * sum 1 = 0.75 on (0, 1) with n = 3
    g = build_grid(0.0, 1.0, 3)
    lp, linf = norms(np.ones(3), g, 2.0)
    assert lp == pytest.approx(np.sqrt(0.75))
    assert linf == 1.0


def test_norms_homogeneity_and_reflection():
    g = build_grid(-1.0, 2.0, 17)
    rng = np.random.default_rng(7)
    for _ in range(20):
        u = rng.standard_normal(17)
        t = float(rng.uniform(-4.0, 4.0))
        p = float(rng.uniform(1.0, 4.0))
        lp, linf = norms(u, g, p)
        lp_t, linf_t = norms(t * u, g, p)
        assert lp_t == pytest.approx(abs(t) * lp, rel=1e-12, abs=1e-14)
        assert linf_t == pytest.approx(abs(t) * linf, rel=1e-12, abs=1e-14)
        lp_r, linf_r = norms(u[::-1].copy(), g, p)
        assert lp_r == pytest.approx(lp, rel=1e-12)
        assert linf_r == pytest.approx(linf, rel=1e-12)


def test_norms_rejects_p_below_one():
    g = build_grid(0.0, 1.0, 3)
    with pytest.raises(ConfigurationError):
        norms(np.ones(3), g, 0.5)


def test_gridfn_round_trip(tmp_path):
    g = build_grid(-0.5, 1.5, 11)
    rng = np.random.default_rng(3)
    u = rng.standard_normal(11) * 1e3
    path = tmp_path / "u.txt"
    write_gridfn(path, u, g)
    values, meta = read_gridfn(path)
    np.testing.assert_array_equal(values, u)  # 17 significant digits round-trip
    assert meta == {"n": 11, "a": -0.5, "b": 1.5}


def test_gridfn_round_trip_any_finite_floats(tmp_path):
    # every finite double, -0.0 and subnormals included, survives the 17
    # significant digits of the file format bit for bit
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    value = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                      st.sampled_from((-0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                                       1e308, -1e308, 1.7976931348623157e308)))

    @hyp.settings(max_examples=60, deadline=None)
    @hyp.given(values=st.lists(value, min_size=1, max_size=40),
               a=st.floats(-1e6, 1e6), width=st.floats(1e-3, 1e6))
    def check(values, a, width):
        g = build_grid(a, a + width, len(values))
        u = np.array(values)
        path = tmp_path / "u.txt"
        write_gridfn(path, u, g)
        back, meta = read_gridfn(path)
        assert back.tobytes() == u.tobytes()
        assert meta == {"n": g.n, "a": g.a, "b": g.b}

    check()


def test_gridfn_read_rejects_corrupt_files(tmp_path):
    g = build_grid(0.0, 1.0, 3)
    path = tmp_path / "u.txt"
    write_gridfn(path, np.ones(3), g)
    text = path.read_text().splitlines()

    bad_header = tmp_path / "bad_header.txt"
    bad_header.write_text("\n".join(["# wrong"] + text[1:]) + "\n")
    with pytest.raises(ConfigurationError):
        read_gridfn(bad_header)

    short = tmp_path / "short.txt"
    short.write_text("\n".join(text[:-1]) + "\n")
    with pytest.raises(ConfigurationError):
        read_gridfn(short)

    junk = tmp_path / "junk.txt"
    junk.write_text("\n".join(text[:-1] + ["not-a-number"]) + "\n")
    with pytest.raises(ConfigurationError):
        read_gridfn(junk)

    for good, bad in (("n=3", "n=abc"), ("a=0", "a=zero")):
        bad_value = tmp_path / "bad_value.txt"
        header = text[0].replace(good, bad)
        assert header != text[0]
        bad_value.write_text("\n".join([header] + text[1:]) + "\n")
        with pytest.raises(ConfigurationError, match="bad header token"):
            read_gridfn(bad_value)

    with pytest.raises(ConfigurationError, match="cannot read"):
        read_gridfn(tmp_path / "absent.txt")
