"""Flat key=value config parsing, admissibility gates, and overrides."""

import numpy as np
import pytest

from fracmp import (
    ConfigurationError,
    ExponentWindowError,
    GateError,
    OperatorRegimeError,
    PotentialGateError,
    build_grid,
    config_gate_violations,
    lambdas,
    load_potential,
    make_potential,
    parse_config,
    validate_config,
    with_overrides,
    write_gridfn,
)
from fracmp.config import _ALL_KEYS, MAX_TABLE_BYTES

BASE = """\
# standard instance
a = 0
b = 1
n = 96
s = 0.4
p = 2
q = 3
f0 = 1
V_const = 0.25
lambda = 0.5
"""


def _write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_round_trip(tmp_path):
    cfg = parse_config(_write(tmp_path, BASE))
    assert (cfg.a, cfg.b, cfg.n) == (0.0, 1.0, 96)
    assert (cfg.s, cfg.p, cfg.q, cfg.f0) == (0.4, 2.0, 3.0, 1.0)
    assert cfg.V_const == 0.25 and cfg.V_file is None
    assert cfg.lam == 0.5 and cfg.lambda_start is None
    # defaults
    assert cfg.eigen_tol == 1e-8 and cfg.solve_tol == 1e-6 and cfg.mp_tol == 1e-6
    assert cfg.path_vertices == 21 and cfg.seed == 0
    assert cfg.fmt == "csv" and cfg.out_dir == "."


def test_parse_lambda_grid_and_format(tmp_path):
    text = BASE.replace("lambda = 0.5",
                        "lambda_start = 0.05\nlambda_stop = 0.8\nlambda_count = 6")
    text += "format = json\nseed = 7\npath_vertices = 11\n"
    cfg = parse_config(_write(tmp_path, text))
    assert cfg.lam is None
    np.testing.assert_allclose(lambdas(cfg), np.geomspace(0.05, 0.8, 6))
    assert cfg.fmt == "json" and cfg.seed == 7 and cfg.path_vertices == 11


def test_lambdas_singleton(tmp_path):
    cfg = parse_config(_write(tmp_path, BASE))
    np.testing.assert_array_equal(lambdas(cfg), [0.5])


def test_parse_errors(tmp_path):
    with pytest.raises(ConfigurationError, match="unknown key"):
        parse_config(_write(tmp_path, BASE + "bogus = 1\n"))
    with pytest.raises(ConfigurationError, match="duplicate key"):
        parse_config(_write(tmp_path, BASE + "q = 3\n"))
    with pytest.raises(ConfigurationError, match="empty value"):
        parse_config(_write(tmp_path, BASE + "theta =\n"))
    with pytest.raises(ConfigurationError, match="key = value"):
        parse_config(_write(tmp_path, BASE + "just words\n"))
    with pytest.raises(ConfigurationError, match="missing required"):
        parse_config(_write(tmp_path, "a = 0\nb = 1\n"))
    with pytest.raises(ConfigurationError, match="bad value"):
        parse_config(_write(tmp_path, BASE.replace("n = 96", "n = many")))
    with pytest.raises(ConfigurationError):
        parse_config(str(tmp_path / "missing.cfg"))


def test_parse_error_carries_line_number(tmp_path):
    path = _write(tmp_path, BASE + "bogus = 1\n")
    with pytest.raises(ConfigurationError, match=r":11:"):
        parse_config(path)


def test_check_rejects_inconsistent_configs(tmp_path):
    with pytest.raises(ConfigurationError, match="a < b"):
        parse_config(_write(tmp_path, BASE.replace("b = 1", "b = -1")))
    with pytest.raises(ConfigurationError, match="mutually exclusive"):
        parse_config(_write(tmp_path, BASE + "V_file = V.txt\n"))
    with pytest.raises(ConfigurationError, match="exactly one"):
        parse_config(_write(tmp_path, BASE + "lambda_start = 0.1\n"
                            "lambda_stop = 1\nlambda_count = 4\n"))
    with pytest.raises(ConfigurationError, match="exactly one"):
        parse_config(_write(tmp_path, BASE.replace("lambda = 0.5\n", "")))
    with pytest.raises(ConfigurationError, match="all of"):
        parse_config(_write(tmp_path,
                            BASE.replace("lambda = 0.5", "lambda_start = 0.1")))
    with pytest.raises(ConfigurationError, match="positive"):
        parse_config(_write(tmp_path, BASE.replace("lambda = 0.5", "lambda = -1")))
    with pytest.raises(ConfigurationError, match="path_vertices"):
        parse_config(_write(tmp_path, BASE + "path_vertices = 4\n"))
    with pytest.raises(ConfigurationError, match="format"):
        parse_config(_write(tmp_path, BASE + "format = xml\n"))
    with pytest.raises(ConfigurationError, match="eigen_tol"):
        parse_config(_write(tmp_path, BASE + "eigen_tol = 0\n"))
    with pytest.raises(ConfigurationError, match="seed must be >= 0"):
        parse_config(_write(tmp_path, BASE + "seed = -1\n"))


def test_load_potential_constant_and_default(tmp_path):
    grid = build_grid(0.0, 1.0, 96)
    cfg = parse_config(_write(tmp_path, BASE))
    V = load_potential(cfg, grid)
    np.testing.assert_allclose(V.values, 0.25)
    cfg0 = parse_config(_write(tmp_path, BASE.replace("V_const = 0.25\n", ""),
                               name="zero.cfg"))
    np.testing.assert_allclose(load_potential(cfg0, grid).values, 0.0)


def test_load_potential_from_file(tmp_path):
    grid = build_grid(0.0, 1.0, 8)
    rng = np.random.default_rng(3)
    vals = rng.uniform(0.0, 1.0, 8)
    vpath = tmp_path / "V.txt"
    write_gridfn(vpath, vals, grid)
    text = BASE.replace("n = 96", "n = 8").replace("V_const = 0.25",
                                                   "V_file = %s" % vpath)
    cfg = parse_config(_write(tmp_path, text))
    np.testing.assert_array_equal(load_potential(cfg, grid).values, vals)
    # grid mismatch must be caught
    with pytest.raises(ConfigurationError, match="on grid"):
        load_potential(cfg, build_grid(0.0, 1.0, 9))


def test_gate_violations_clean_instance(tmp_path):
    cfg = parse_config(_write(tmp_path, BASE))
    assert config_gate_violations(cfg) == []
    # with lambda1 and the potential supplied the potential gate also passes
    grid = build_grid(0.0, 1.0, 96)
    V = load_potential(cfg, grid)
    assert config_gate_violations(cfg, lambda1=12.97, potential=V) == []
    assert validate_config(cfg, 12.97, V) is cfg


def test_gate_operator_regime(tmp_path):
    cfg = parse_config(_write(tmp_path, BASE.replace("s = 0.4", "s = 0.6")))
    bad = config_gate_violations(cfg)
    assert any(isinstance(v, OperatorRegimeError) for v in bad)
    with pytest.raises(GateError):
        validate_config(cfg)


def test_gate_exponent_window(tmp_path):
    cfg = parse_config(_write(tmp_path, BASE.replace("q = 3", "q = 9.5")))
    bad = config_gate_violations(cfg)
    assert any(isinstance(v, ExponentWindowError) for v in bad)


def test_gate_potential(tmp_path):
    # V identically -lambda1 has c_V = lambda1, outside the admissible range
    lam1 = 12.976554119765996
    cfg = parse_config(_write(tmp_path,
                              BASE.replace("V_const = 0.25",
                                           "V_const = -%.17g" % lam1)))
    grid = build_grid(0.0, 1.0, 96)
    V = load_potential(cfg, grid)
    bad = config_gate_violations(cfg, lambda1=lam1, potential=V)
    assert any(isinstance(v, PotentialGateError) for v in bad)
    with pytest.raises(GateError) as err:
        validate_config(cfg, lam1, V)
    assert any(isinstance(v, PotentialGateError) for v in err.value.violations)
    # without lambda1 the potential gate cannot fire yet
    assert config_gate_violations(cfg, potential=V) == []


def test_gate_direct_potential_object(tmp_path):
    cfg = parse_config(_write(tmp_path, BASE))
    grid = build_grid(0.0, 1.0, 96)
    ok = make_potential(grid, constant=-1.0)  # c_V = 1 < lambda1
    assert config_gate_violations(cfg, lambda1=12.97, potential=ok) == []


def test_with_overrides(tmp_path):
    cfg = parse_config(_write(tmp_path, BASE))
    same = with_overrides(cfg)
    assert same.out_dir == cfg.out_dir and same.fmt == cfg.fmt and same.seed == cfg.seed
    new = with_overrides(cfg, out_dir="/tmp/x", fmt="json", seed=5)
    assert new.out_dir == "/tmp/x" and new.fmt == "json" and new.seed == 5
    # originals untouched (frozen dataclass)
    assert cfg.out_dir == "." and cfg.fmt == "csv" and cfg.seed == 0
    # overrides are checked like the file's own values
    with pytest.raises(ConfigurationError, match="seed must be >= 0"):
        with_overrides(cfg, seed=-1)
    with pytest.raises(ConfigurationError, match="format"):
        with_overrides(cfg, fmt="xml")


def test_lambda_count_bounded_by_table_limit(tmp_path):
    # 8 bytes a lambda within MAX_TABLE_BYTES; parsing allocates no grid
    grid = BASE.replace("lambda = 0.5", "lambda_start = 0.05\nlambda_stop = 0.8\n"
                        "lambda_count = %d")
    cfg = parse_config(_write(tmp_path, grid % (MAX_TABLE_BYTES // 8)))
    assert cfg.lambda_count == MAX_TABLE_BYTES // 8
    with pytest.raises(ConfigurationError, match="lambda_count must be <= %d"
                       % (MAX_TABLE_BYTES // 8)):
        parse_config(_write(tmp_path, grid % (MAX_TABLE_BYTES // 8 + 1)))


def test_path_vertices_bounded_by_table_limit(tmp_path):
    # (2P+1) n values of 8 bytes within MAX_TABLE_BYTES; parsing allocates no path
    top = (MAX_TABLE_BYTES // (8 * 96) - 1) // 2
    assert 8 * (2 * top + 1) * 96 <= MAX_TABLE_BYTES < 8 * (2 * top + 3) * 96
    text = BASE + "path_vertices = %d\n"
    assert parse_config(_write(tmp_path, text % top)).path_vertices == top
    for bad in (top + 1, 10 ** 20):
        with pytest.raises(ConfigurationError,
                           match=r"path_vertices must be <= %d at n = 96 .*got %d"
                           % (top, bad)):
            parse_config(_write(tmp_path, text % bad))


def test_parse_config_raises_only_configuration_errors(tmp_path):
    # any key = value text, valid or not, parses or is a ConfigurationError
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    base = dict(ln.split(" = ") for ln in BASE.splitlines()[1:])
    number = st.one_of(st.integers(-10 ** 40, 10 ** 40).map(str), st.floats().map(repr),
                       st.sampled_from(["1" + "0" * 200, "1" + "0" * 5000, "1e400",
                                        "-0", "0x10", "1_0", " 7 "]))
    value = st.one_of(number, st.text(max_size=12))
    key = st.one_of(st.sampled_from(sorted(_ALL_KEYS)), st.text(max_size=6))

    @hyp.settings(max_examples=300, deadline=None)
    @hyp.given(changes=st.dictionaries(key, value, max_size=8),
               dropped=st.sets(st.sampled_from(sorted(base))), tail=st.binary(max_size=6))
    def check(changes, dropped, tail):
        pairs = {k: v for k, v in base.items() if k not in dropped}
        pairs.update(changes)
        text = "".join("%s = %s\n" % kv for kv in pairs.items())
        path = tmp_path / "fuzz.cfg"
        path.write_bytes(text.encode("utf-8", "surrogatepass") + tail)
        try:
            parse_config(str(path))
        except ConfigurationError:
            pass

    check()
