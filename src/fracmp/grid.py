"""Uniform interior grids on an interval and grid-function plumbing.

A grid function is a plain 1-d float array holding the n interior node
values.  The function is zero at a, b and on the whole exterior by
convention; no operator ever stores that extension, they all account for
it analytically (see the kernel module's tail term).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, UsageError

GRIDFN_MAGIC = "# fracmp gridfn"


@dataclass(frozen=True, eq=False)
class Grid:
    """Interior nodes x_i = a + i*h, i = 1..n, with spacing h = (b-a)/(n+1).

    d holds the distance from each node to the nearer endpoint.
    """

    a: float
    b: float
    n: int
    h: float
    nodes: np.ndarray
    d: np.ndarray

    @property
    def length(self) -> float:
        """Measure of the interval (a, b)."""
        return self.b - self.a


def build_grid(a: float, b: float, n: int) -> Grid:
    """Build the uniform interior grid for the interval (a, b)."""
    a = float(a)
    b = float(b)
    n = int(n)
    if not (np.isfinite(a) and np.isfinite(b)):
        raise ConfigurationError("grid endpoints must be finite, got (%r, %r)" % (a, b))
    if a >= b:
        raise ConfigurationError("degenerate interval: a=%g must be < b=%g" % (a, b))
    if n < 1:
        raise ConfigurationError("need at least one interior node, got n=%d" % n)
    h = (b - a) / (n + 1)
    nodes = a + h * np.arange(1, n + 1, dtype=float)
    d = np.minimum(nodes - a, b - nodes)
    return Grid(a=a, b=b, n=n, h=h, nodes=nodes, d=d)


def as_grid_function(u, n: int) -> np.ndarray:
    """Validate u as a grid function of length n and return it as an array."""
    v = np.asarray(u, dtype=float)
    if v.shape != (n,):
        raise UsageError("grid function has shape %r, expected (%d,)" % (v.shape, n))
    return as_grid_stack(v, n)


def as_grid_stack(u, n: int) -> np.ndarray:
    """Validate u as one grid function (n,) or a stack of B >= 1 of them (B, n)."""
    v = np.asarray(u, dtype=float)
    if v.shape != (n,) and (v.ndim != 2 or v.shape[1] != n or not v.shape[0]):
        raise UsageError("grid function has shape %r, expected (%d,) or (B, %d)"
                         % (v.shape, n, n))
    if not np.isfinite(v).all():
        raise UsageError("grid function contains non-finite values")
    return v


def norms(u, grid: Grid, p: float) -> tuple[float, float]:
    """Return (Lp norm, sup norm) of u under midpoint quadrature.

    ||u||_p^p is approximated by h * sum |u_i|^p; the sup norm is the max
    over interior nodes (the exterior extension is zero).
    """
    if p < 1:
        raise ConfigurationError("Lp norm needs p >= 1, got p=%g" % p)
    v = as_grid_function(u, grid.n)
    lp = float((grid.h * np.sum(np.abs(v) ** p)) ** (1.0 / p))
    linf = float(np.max(np.abs(v)))
    return lp, linf


def write_gridfn(path, u, grid: Grid) -> None:
    """Write u in the grid-function file format (17 significant digits)."""
    v = as_grid_function(u, grid.n)
    lines = [
        "%s n=%d a=%s b=%s" % (GRIDFN_MAGIC, grid.n, format(grid.a, ".17g"), format(grid.b, ".17g"))
    ]
    lines.extend(format(x, ".17g") for x in v)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_gridfn(path) -> tuple[np.ndarray, dict]:
    """Read a grid-function file; return (values, header dict with n, a, b)."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError("cannot read grid function %s: %s" % (path, exc)) from exc
    if not raw or not raw[0].startswith(GRIDFN_MAGIC):
        raise ConfigurationError("%s: missing '%s' header" % (path, GRIDFN_MAGIC))
    meta = {}
    for tok in raw[0][len(GRIDFN_MAGIC):].split():
        key, _, val = tok.partition("=")
        if key not in ("n", "a", "b") or not val:
            raise ConfigurationError("%s: bad header token %r" % (path, tok))
        try:
            meta[key] = int(val) if key == "n" else float(val)
        except ValueError:
            raise ConfigurationError("%s: bad header token %r" % (path, tok)) from None
    if set(meta) != {"n", "a", "b"}:
        raise ConfigurationError("%s: header must carry n, a and b" % path)
    body = [ln for ln in raw[1:] if ln.strip()]
    if len(body) != meta["n"]:
        raise ConfigurationError(
            "%s: expected %d values, found %d" % (path, meta["n"], len(body))
        )
    try:
        values = np.array([float(ln) for ln in body], dtype=float)
    except ValueError as exc:
        raise ConfigurationError("%s: non-numeric line (%s)" % (path, exc)) from None
    return values, meta
