"""Flat key=value run configuration and the admissibility gates.

The file format is one `key = value` pair per line with `#` comments, no
sections.  A config describes one problem instance plus solver knobs; the
lambda specification is either a single value or a geometric grid given by
start/stop/count.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    ConfigurationError,
    ExponentWindowError,
    GateError,
    OperatorRegimeError,
    PotentialGateError,
)
from .grid import Grid, read_gridfn
from .model import Potential, critical_exponent, make_potential

_INT_KEYS = {"n", "lambda_count", "path_vertices", "seed",
             "eigen_iter_cap", "torsion_iter_cap", "solve_iter_cap", "mp_iter_cap"}
_STR_KEYS = {"V_file", "out_dir", "format"}
_FLOAT_KEYS = {"a", "b", "s", "p", "q", "f0", "theta", "V_const",
               "lambda", "lambda_start", "lambda_stop",
               "eigen_tol", "solve_tol", "mp_tol"}
_ALL_KEYS = _INT_KEYS | _STR_KEYS | _FLOAT_KEYS
_ATTR = {"lambda": "lam", "format": "fmt"}
_REQUIRED = ("a", "b", "n", "s", "p", "q", "f0")
# Largest dense storage a config may ask for.  A command holds at most the
# n x n weight table and one n x n pair table at once, 16 n^2 bytes; at
# p = 2, verify's linear-solver cross-check holds W, the quadratic form's
# matrix and its Cholesky factor, 24 n^2 bytes.  So n goes up to 16384, or
# 13377 at p = 2.
MAX_TABLE_BYTES = 4 * 2 ** 30


@dataclass(frozen=True)
class Config:
    """One run's parameters; lam is exclusive with the lambda_* grid."""

    a: float
    b: float
    n: int
    s: float
    p: float
    q: float
    f0: float
    theta: float | None = None
    V_const: float | None = None
    V_file: str | None = None
    lam: float | None = None
    lambda_start: float | None = None
    lambda_stop: float | None = None
    lambda_count: int | None = None
    eigen_tol: float = 1e-8
    solve_tol: float = 1e-6
    mp_tol: float = 1e-6
    path_vertices: int = 21
    seed: int = 0
    out_dir: str = "."
    fmt: str = "csv"
    eigen_iter_cap: int | None = None
    torsion_iter_cap: int | None = None
    solve_iter_cap: int | None = None
    mp_iter_cap: int | None = None


def _check(cfg: Config) -> Config:
    for key in sorted(_FLOAT_KEYS):
        value = getattr(cfg, _ATTR.get(key, key))
        if value is not None and not math.isfinite(value):
            raise ConfigurationError("%s must be finite, got %r" % (key, value))
    if not cfg.a < cfg.b:
        raise ConfigurationError("need a < b, got a=%g b=%g" % (cfg.a, cfg.b))
    if cfg.n < 1:
        raise ConfigurationError("need n >= 1, got %d" % cfg.n)
    tables = 3 if cfg.p == 2.0 else 2
    if 8 * tables * cfg.n ** 2 > MAX_TABLE_BYTES:
        raise ConfigurationError(
            "n = %d needs %.3g GiB for %d n x n tables (%d n^2 bytes), more than "
            "the %g GiB limit" % (cfg.n, 8 * tables * cfg.n ** 2 / 2 ** 30, tables,
                                  8 * tables, MAX_TABLE_BYTES / 2 ** 30))
    if cfg.V_const is not None and cfg.V_file is not None:
        raise ConfigurationError("V_const and V_file are mutually exclusive")
    grid_keys = (cfg.lambda_start, cfg.lambda_stop, cfg.lambda_count)
    has_grid = any(v is not None for v in grid_keys)
    if has_grid and not all(v is not None for v in grid_keys):
        raise ConfigurationError(
            "lambda grid needs all of lambda_start, lambda_stop, lambda_count")
    if (cfg.lam is None) == (not has_grid):
        raise ConfigurationError(
            "need exactly one of lambda or the lambda_start/stop/count grid")
    if has_grid:
        if cfg.lambda_start <= 0.0 or cfg.lambda_stop <= 0.0:
            raise ConfigurationError("lambda grid endpoints must be positive")
        if cfg.lambda_count < 1:
            raise ConfigurationError("lambda_count must be >= 1")
    elif cfg.lam <= 0.0:
        raise ConfigurationError("lambda must be positive, got %g" % cfg.lam)
    for name in ("eigen_tol", "solve_tol", "mp_tol"):
        if getattr(cfg, name) <= 0.0:
            raise ConfigurationError("%s must be positive" % name)
    if cfg.fmt not in ("csv", "json"):
        raise ConfigurationError("format must be csv or json, got %r" % cfg.fmt)
    if cfg.path_vertices < 8:
        raise ConfigurationError("path_vertices must be >= 8, got %d" % cfg.path_vertices)
    return cfg


def parse_config(path: str) -> Config:
    """Parse a flat key=value file into a checked Config."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigurationError("cannot read config %s: %s" % (path, exc)) from exc
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigurationError("%s:%d: expected key = value" % (path, lineno))
        key, _, value = body.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _ALL_KEYS:
            raise ConfigurationError("%s:%d: unknown key %r" % (path, lineno, key))
        if key in raw:
            raise ConfigurationError("%s:%d: duplicate key %r" % (path, lineno, key))
        if not value:
            raise ConfigurationError("%s:%d: empty value for %r" % (path, lineno, key))
        raw[key] = value
    missing = [k for k in _REQUIRED if k not in raw]
    if missing:
        raise ConfigurationError("%s: missing required keys: %s" % (path, ", ".join(missing)))
    kwargs = {}
    for key, value in raw.items():
        attr = _ATTR.get(key, key)
        try:
            if key in _INT_KEYS:
                kwargs[attr] = int(value)
            elif key in _FLOAT_KEYS:
                kwargs[attr] = float(value)
            else:
                kwargs[attr] = value
        except ValueError as exc:
            raise ConfigurationError("%s: bad value for %s: %r" % (path, key, value)) from exc
    return _check(Config(**kwargs))


def lambdas(cfg: Config) -> np.ndarray:
    """The lambda values of a config: a singleton or a geometric grid."""
    if cfg.lam is not None:
        return np.array([cfg.lam], dtype=float)
    return np.geomspace(cfg.lambda_start, cfg.lambda_stop, cfg.lambda_count)


def load_potential(cfg: Config, grid: Grid) -> Potential:
    """Materialize the potential on the grid (constant, file, or zero)."""
    if cfg.V_file is not None:
        values, meta = read_gridfn(cfg.V_file)
        if meta["n"] != grid.n or meta["a"] != grid.a or meta["b"] != grid.b:
            raise ConfigurationError(
                "potential file %s is on grid (n=%d, a=%g, b=%g), "
                "config wants (n=%d, a=%g, b=%g)"
                % (cfg.V_file, meta["n"], meta["a"], meta["b"], grid.n, grid.a, grid.b))
        return make_potential(grid, values=values)
    return make_potential(grid, constant=cfg.V_const if cfg.V_const is not None else 0.0)


def config_gate_violations(cfg: Config, lambda1: float | None = None,
                           potential: Potential | None = None) -> list:
    """Admissibility gates as a list of named violations (empty = pass).

    The potential gate needs the first eigenvalue; it is skipped when
    lambda1 is not supplied.
    """
    out = []
    if not (0.0 < cfg.s < 1.0) or cfg.p <= 1.0 or cfg.s * cfg.p >= 1.0:
        out.append(OperatorRegimeError(
            "need 0 < s < 1, p > 1, s*p < 1; got s=%g p=%g" % (cfg.s, cfg.p)))
    else:
        pstar = critical_exponent(cfg.p, cfg.s)
        if not (cfg.p - 1.0 < cfg.q < pstar - 1.0):
            out.append(ExponentWindowError(
                "need p-1 < q < p_s^*-1; got q=%g, window (%g, %g)"
                % (cfg.q, cfg.p - 1.0, pstar - 1.0)))
    if lambda1 is not None and potential is not None:
        if potential.cV >= lambda1:
            out.append(PotentialGateError(
                "need c_V < lambda1; got c_V=%g, lambda1=%g"
                % (potential.cV, lambda1)))
    return out


def validate_config(cfg: Config, lambda1: float | None = None,
                    potential: Potential | None = None) -> Config:
    """Return the config if every admissibility gate passes, else raise.

    The raised error carries the full list of violations so a caller can
    report all of them at once.
    """
    violations = config_gate_violations(cfg, lambda1, potential)
    if violations:
        raise GateError(violations)
    return cfg


def with_overrides(cfg: Config, out_dir: str | None = None,
                   fmt: str | None = None, seed: int | None = None) -> Config:
    """CLI-flag overrides applied on top of a parsed config."""
    changes = {}
    if out_dir is not None:
        changes["out_dir"] = out_dir
    if fmt is not None:
        if fmt not in ("csv", "json"):
            raise ConfigurationError("format must be csv or json, got %r" % fmt)
        changes["fmt"] = fmt
    if seed is not None:
        changes["seed"] = seed
    return replace(cfg, **changes) if changes else cfg
