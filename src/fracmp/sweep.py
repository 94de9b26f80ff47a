"""Lambda-sweep driver, power-law fitting, and delimited-table export.

One sweep solves the eigenproblem once, certifies the threshold constants
once, then runs the mountain-pass search and the second-solution scan at
every lambda of a geometric grid (``solve_lambda``, which ``fracmp solve``
runs at its one lambda), recording norms, the energy value and window
flags per lambda.  Scaling exponents are recovered by ordinary
least squares on the log-log data.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from .config import Config, lambdas, load_potential, validate_config
from .eigen import first_eigenpair
from .errors import ConfigurationError, ExportError, FracmpError, UsageError
from .grid import build_grid
from .kernel import assemble_kernel, norm_W
from .model import Problem, make_nonlinearity, make_problem
from .solve import (
    CriticalPoint,
    ScalingConstants,
    certify_constants,
    construct_endpoints,
    find_second_solution,
    mountain_pass,
)

CSV_HEADER = "lambda,norm_W,norm_inf,energy,residual,positive,distinct_count,in_window"


@dataclass(frozen=True)
class SweepRecord:
    """Per-lambda outcome row; error is set when the solve failed."""

    lam: float
    norm_W: float
    norm_inf: float
    energy: float
    residual: float
    positive: bool
    distinct_count: int
    in_hat1: bool
    in_hat2: bool
    error: str | None = None

    @property
    def in_window(self) -> bool:
        return self.in_hat1 and self.in_hat2

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass(frozen=True)
class FitSummary:
    """OLS slopes of the three scaling laws with their theoretical targets."""

    slope_W: float
    slope_inf: float
    slope_energy: float
    r2_W: float
    r2_inf: float
    r2_energy: float
    target_W: float
    target_inf: float
    target_energy: float
    points: int


@dataclass(frozen=True)
class SweepResult:
    records: list
    fit: FitSummary | None
    constants: ScalingConstants
    lambda1: float
    solutions: list


def derive_seed(base: int, index: int) -> int:
    """Per-lambda child seed: deterministic in (base seed, lambda index)."""
    return int(np.random.SeedSequence([int(base), int(index)]).generate_state(1)[0])


def fit_powerlaw(pairs) -> tuple[float, float, float]:
    """OLS fit of log(value) = slope*log(lam) + intercept; returns R^2 too."""
    arr = np.asarray(list(pairs), dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 2:
        raise UsageError("fit needs at least 2 (lambda, value) pairs")
    if np.any(arr <= 0.0) or not np.all(np.isfinite(arr)):
        raise UsageError("power-law fit needs positive finite data")
    x = np.log(arr[:, 0])
    y = np.log(arr[:, 1])
    xm = x - np.mean(x)
    denom = float(xm @ xm)
    if denom == 0.0:
        raise UsageError("fit needs at least 2 distinct lambda values")
    slope = float(xm @ (y - np.mean(y))) / denom
    intercept = float(np.mean(y) - slope * np.mean(x))
    resid = y - (slope * x + intercept)
    ss_res = float(resid @ resid)
    ss_tot = float((y - np.mean(y)) @ (y - np.mean(y)))
    r2 = 1.0 if ss_tot == 0.0 and ss_res <= 1e-28 else 1.0 - ss_res / max(ss_tot, 1e-300)
    return slope, intercept, float(min(max(r2, 0.0), 1.0))


def _slope_or_nan(pairs) -> tuple[float, float]:
    try:
        slope, _, r2 = fit_powerlaw(pairs)
        return slope, r2
    except UsageError:
        return float("nan"), float("nan")


def assemble(cfg: Config):
    """The grid, kernel, potential and nonlinearity a config describes."""
    grid = build_grid(cfg.a, cfg.b, cfg.n)
    kern = assemble_kernel(grid, cfg.s, cfg.p)
    V = load_potential(cfg, grid)
    nl = make_nonlinearity(cfg.q, cfg.f0, cfg.p, cfg.s, theta=cfg.theta)
    return grid, kern, V, nl


def certify(cfg: Config, parts, lam: float):
    """Eigenpair, potential gate, and the constants (which do not read lam).

    parts is assemble(cfg); returns (eigenpair, problem at lam, constants).
    """
    grid, kern, V, nl = parts
    eig = first_eigenpair(kern, grid, cfg.eigen_tol, max_iter=cfg.eigen_iter_cap)
    validate_config(cfg, eig.lambda1, V)
    prob = make_problem(grid, kern, V, lam, nl)
    return eig, prob, certify_constants(prob, eig.phi1, seed=cfg.seed)


def first_solution(cfg: Config, prob: Problem, phi1, consts: ScalingConstants,
                   index: int = 0) -> tuple[CriticalPoint, np.ndarray]:
    """Mountain pass at the index-th lambda of cfg: (critical point, e1)."""
    e0, e1, _, _ = construct_endpoints(prob, phi1, consts)
    cp = mountain_pass(prob, e0, e1, P=cfg.path_vertices, tol=cfg.mp_tol,
                       seed=derive_seed(cfg.seed, index), max_outer=cfg.mp_iter_cap,
                       constants=consts)
    return cp, e1


def solve_lambda(cfg: Config, prob: Problem, phi1, consts: ScalingConstants,
                 index: int = 0) -> tuple[CriticalPoint, CriticalPoint | None]:
    """Mountain pass, then the second-solution search: (first, second or None)."""
    cp, e1 = first_solution(cfg, prob, phi1, consts, index)
    second = find_second_solution(prob, cp, cfg.solve_tol, e1=e1,
                                  seed=derive_seed(cfg.seed, index) + 1,
                                  max_iter=cfg.solve_iter_cap)
    return cp, second


def sweep(cfg: Config, progress=None) -> SweepResult:
    """Run the full lambda sweep described by a validated config."""
    lams = lambdas(cfg)
    if len(lams) < 4:
        raise UsageError("sweep needs >= 4 lambda points, got %d" % len(lams))
    span = float(np.max(lams) / np.min(lams))
    if span < 10.0:
        raise UsageError("sweep lambda grid must span >= 1 decade, got %.3g" % span)
    parts = assemble(cfg)
    grid, kern, V, nl = parts
    eig, _, consts = certify(cfg, parts, float(lams[0]))

    records: list[SweepRecord] = []
    solutions: list[tuple[float, CriticalPoint | None, CriticalPoint | None]] = []
    for i, lam in enumerate(lams):
        lam = float(lam)
        in1 = lam < consts.lam_hat1
        in2 = lam < consts.lam_hat2
        prob = make_problem(grid, kern, V, lam, nl)
        try:
            cp, second = solve_lambda(cfg, prob, eig.phi1, consts, i)
            rec = SweepRecord(
                lam=lam,
                norm_W=norm_W(cp.u, kern),
                norm_inf=float(np.max(np.abs(cp.u))),
                energy=cp.value,
                residual=cp.residual,
                positive=bool(np.min(cp.u) > 0.0),
                distinct_count=1 + (1 if second is not None else 0),
                in_hat1=in1, in_hat2=in2)
            solutions.append((lam, cp, second))
        except FracmpError as exc:
            rec = SweepRecord(lam=lam, norm_W=float("nan"), norm_inf=float("nan"),
                              energy=float("nan"), residual=float("nan"),
                              positive=False, distinct_count=0,
                              in_hat1=in1, in_hat2=in2, error=str(exc))
            solutions.append((lam, None, None))
        records.append(rec)
        if progress is not None:
            progress(rec)

    good = [r for r in records if r.ok]
    fit = None
    if len(good) >= 4:
        r = 1.0 / (cfg.q + 1.0 - cfg.p)
        sW, r2W = _slope_or_nan([(g.lam, g.norm_W) for g in good])
        sI, r2I = _slope_or_nan([(g.lam, g.norm_inf) for g in good])
        sE, r2E = _slope_or_nan([(g.lam, g.energy) for g in good])
        fit = FitSummary(slope_W=sW, slope_inf=sI, slope_energy=sE,
                         r2_W=r2W, r2_inf=r2I, r2_energy=r2E,
                         target_W=-r, target_inf=-r, target_energy=-r * cfg.p,
                         points=len(good))
    return SweepResult(records=records, fit=fit, constants=consts,
                       lambda1=eig.lambda1, solutions=solutions)


def _csv_row(rec: SweepRecord) -> str:
    return ",".join([
        "%.17g" % rec.lam,
        "%.17g" % rec.norm_W,
        "%.17g" % rec.norm_inf,
        "%.17g" % rec.energy,
        "%.17g" % rec.residual,
        "true" if rec.positive else "false",
        "%d" % rec.distinct_count,
        "true" if rec.in_window else "false",
    ])


def export(records, fmt: str, path: str) -> None:
    """Write sweep records as CSV or JSON; full 17-digit precision."""
    if fmt not in ("csv", "json"):
        raise UsageError("format must be csv or json, got %r" % fmt)
    stamp = datetime.now(timezone.utc).isoformat()
    if fmt == "csv":
        lines = ["# generated %s" % stamp, CSV_HEADER]
        lines.extend(_csv_row(r) for r in records)
        payload = "\n".join(lines) + "\n"
    else:
        body = {"generated": stamp,
                "records": [{
                    "lambda": r.lam,
                    "norm_W": r.norm_W,
                    "norm_inf": r.norm_inf,
                    "energy": r.energy,
                    "residual": r.residual,
                    "positive": bool(r.positive),
                    "distinct_count": int(r.distinct_count),
                    "in_window": bool(r.in_window),
                } for r in records]}
        payload = json.dumps(body, indent=2) + "\n"
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload)
    except OSError as exc:
        raise ExportError("cannot write %s: %s" % (path, exc), path) from exc


def load_records(path: str, fmt: str | None = None) -> list[dict]:
    """Read an exported table back as dicts keyed by the CSV field names."""
    if fmt is None:
        fmt = "json" if path.endswith(".json") else "csv"
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ExportError("cannot read %s: %s" % (path, exc), path) from exc
    fields = CSV_HEADER.split(",")
    if fmt == "json":
        body = json.loads(text)
        out = []
        for rec in body["records"]:
            out.append({k: rec[k] for k in fields})
        return out
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    if not lines or lines[0] != CSV_HEADER:
        raise ConfigurationError("%s: missing or wrong CSV header" % path)
    out = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(fields):
            raise ConfigurationError("%s: bad CSV row %r" % (path, ln))
        rec: dict = {}
        for key, part in zip(fields, parts):
            if key in ("positive", "in_window"):
                rec[key] = part == "true"
            elif key == "distinct_count":
                rec[key] = int(part)
            else:
                rec[key] = float(part)
        out.append(rec)
    return out
