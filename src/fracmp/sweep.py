"""Lambda-sweep driver, power-law fitting, and delimited-table export.

One sweep solves the eigenproblem once, certifies the threshold constants
once, then runs the mountain-pass search and the second-solution scan at
every lambda of a geometric grid (``solve_lambda``, which ``fracmp solve``
runs at its one lambda), recording norms, the energy value and whether
lambda lies in the certified window.  The lambdas are independent rows,
solved in worker processes when more than one CPU is usable
(_row_workers).  Scaling exponents are recovered by ordinary least squares
on the log-log data.  ``export`` writes the records as a CSV or JSON
table; nothing in the package reads a table back.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import partial

import numpy as np

from . import kernel
from .config import Config, lambdas, load_potential, validate_config
from .eigen import first_eigenpair
from .errors import ExportError, FracmpError, UsageError
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
    """Per-lambda outcome row; in_window is lam < lam3, error is set on failure."""

    lam: float
    norm_W: float
    norm_inf: float
    energy: float
    residual: float
    positive: bool
    distinct_count: int
    in_window: bool
    error: str | None = None

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
    lambda1: float
    solutions: list


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
    eig = first_eigenpair(kern, grid, cfg.eigen_tol)
    validate_config(cfg, eig.lambda1, V)
    prob = make_problem(grid, kern, V, lam, nl)
    return eig, prob, certify_constants(prob, eig.phi1)


def first_solution(cfg: Config, prob: Problem, phi1, consts: ScalingConstants
                   ) -> CriticalPoint:
    """The mountain-pass point at the lambda of prob, between its endpoints."""
    e0, e1 = construct_endpoints(prob, phi1, consts)
    return mountain_pass(prob, e0, e1, P=cfg.path_vertices, tol=cfg.mp_tol,
                         constants=consts)


def solve_lambda(cfg: Config, prob: Problem, phi1, consts: ScalingConstants
                 ) -> tuple[CriticalPoint, CriticalPoint | None]:
    """Mountain pass, then the second-solution search: (first, second or None)."""
    cp = first_solution(cfg, prob, phi1, consts)
    return cp, find_second_solution(prob, cp, cfg.solve_tol)


def _sweep_row(cfg: Config, parts, phi1, consts: ScalingConstants, lam):
    """The sweep's row at lam: (record, (lam, first, second)).

    A FracmpError makes a failed record, with no solutions, that names the
    error's class; any other error propagates.
    """
    lam = float(lam)
    grid, kern, V, nl = parts
    in_window = lam < consts.lam3
    try:
        prob = make_problem(grid, kern, V, lam, nl)
        cp, second = solve_lambda(cfg, prob, phi1, consts)
        rec = SweepRecord(
            lam=lam,
            norm_W=norm_W(cp.u, kern),
            norm_inf=float(np.max(np.abs(cp.u))),
            energy=cp.value,
            residual=cp.residual,
            positive=bool(np.min(cp.u) > 0.0),
            distinct_count=1 + (1 if second is not None else 0),
            in_window=in_window)
    except FracmpError as exc:
        return SweepRecord(lam=lam, norm_W=float("nan"), norm_inf=float("nan"),
                           energy=float("nan"), residual=float("nan"),
                           positive=False, distinct_count=0, in_window=in_window,
                           error="%s: %s" % (type(exc).__name__, exc)), (lam, None, None)
    return rec, (lam, cp, second)


def _row_workers(rows: int, n: int) -> int:
    """Worker processes for a sweep of this many rows at grid size n.

    0 runs the rows in this process.  Rows run in forked processes when
    fork exists and this process may use more than one CPU, but only while
    the pair tables stay on one thread (n below kernel._PARALLEL_ROWS), so
    row processes and the two-thread tables never share the cores.  Each
    worker's kernel then takes its share of the CPUs (_use_cpus): one, when
    there are as many workers as CPUs, so it does not share its stacks with
    a second thread either.
    """
    workers = min(rows, kernel._CPUS)
    if not hasattr(os, "fork") or workers < 2 or kernel._threads(n) != 1:
        return 0
    return workers


def _use_cpus(cpus: int) -> None:
    """A row worker's initializer: the CPUs its kernel counts on (kernel._CPUS)."""
    kernel._CPUS = cpus


def sweep(cfg: Config, progress=None) -> SweepResult:
    """Run the full lambda sweep described by a validated config.

    The rows are independent (each depends on its lambda alone), so they
    may run in worker processes (_row_workers), each of which counts on
    its share of the CPUs, max(1, kernel._CPUS // workers); they come back
    in lambda order, and every row is the same bytes either way.
    progress(record) is called in this process, in lambda order.
    """
    lams = lambdas(cfg)
    if len(lams) < 4:
        raise UsageError("sweep needs >= 4 lambda points, got %d" % len(lams))
    span = float(np.max(lams) / np.min(lams))
    if span < 10.0:
        raise UsageError("sweep lambda grid must span >= 1 decade, got %.3g" % span)
    parts = assemble(cfg)
    eig, _, consts = certify(cfg, parts, float(lams[0]))
    row = partial(_sweep_row, cfg, parts, eig.phi1, consts)

    records: list[SweepRecord] = []
    solutions: list[tuple[float, CriticalPoint | None, CriticalPoint | None]] = []
    workers = _row_workers(len(lams), cfg.n)
    pool = None
    if workers:
        # imported here: solve, eigen and a one-CPU sweep never load it.
        # fork, not spawn: a spawned worker would import numpy and fracmp
        # again before its first row (kernel._new_pool gives a forked one
        # its own pair-table thread)
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                   initializer=_use_cpus,
                                   initargs=(max(1, kernel._CPUS // workers),))
    try:
        for rec, sol in (pool.map if pool else map)(row, lams):
            records.append(rec)
            solutions.append(sol)
            if progress is not None:
                progress(rec)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)

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
    return SweepResult(records=records, fit=fit, lambda1=eig.lambda1,
                       solutions=solutions)


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
        raise ExportError("cannot write (%s)" % exc.strerror, path) from exc
