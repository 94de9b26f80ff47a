"""Command-line entry points: eigen, torsion, solve, sweep, verify.

Every subcommand reads one flat key=value config.  Reports are printed as
JSON to stdout and mirrored into the output directory together with grid
function files for any solutions produced.  Exit codes: 0 success, 1
solver or hypothesis failure, 2 configuration or usage problems.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .config import (
    Config,
    lambdas,
    parse_config,
    validate_config,
    with_overrides,
)
from .eigen import first_eigenpair, inverse_power_lambda1, torsion_solve
from .errors import (
    ConfigurationError,
    ExportError,
    HypothesisError,
    SolverError,
    UsageError,
)
from .grid import read_gridfn, write_gridfn
from .kernel import apply_flap, norm_W, seminorm_p
from .model import energy, gradient, residual_norm
from .solve import (
    classify,
    comparison_check,
    construct_endpoints,
    distinct,
    positivity_check,
    ring_samples,
)
from .sweep import (
    assemble,
    certify,
    derive_seed,
    export,
    first_solution,
    solve_lambda,
    sweep,
)


def _single_lambda(cfg: Config) -> float:
    lams = lambdas(cfg)
    if len(lams) != 1:
        raise UsageError("this subcommand needs a single lambda, "
                         "config has a grid of %d" % len(lams))
    return float(lams[0])


def _out_path(cfg: Config, name: str) -> str:
    """Path of an output file, creating the output directory if needed."""
    try:
        os.makedirs(cfg.out_dir, exist_ok=True)
    except OSError as exc:
        raise ExportError("cannot create output directory (%s)" % exc.strerror,
                          cfg.out_dir) from exc
    return os.path.join(cfg.out_dir, name)


def _emit_report(report: dict, path: str) -> None:
    text = json.dumps(report, indent=2)
    print(text)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise ExportError("cannot write report %s" % path, path) from exc


def _write_solution(u, grid, path: str) -> str:
    try:
        write_gridfn(path, u, grid)
    except OSError as exc:
        raise ExportError("cannot write solution %s" % path, path) from exc
    return path


def cmd_eigen(cfg: Config) -> int:
    validate_config(cfg)
    phi_path = _out_path(cfg, "phi1.txt")
    report_path = _out_path(cfg, "eigen_report.json")
    grid, kern, V, _ = assemble(cfg)
    eig = first_eigenpair(kern, grid, cfg.eigen_tol, max_iter=cfg.eigen_iter_cap)
    validate_config(cfg, eig.lambda1, V)
    report = {
        "lambda1": eig.lambda1,
        "residual": eig.residual,
        "iterations": eig.iterations,
        "phi1_min": float(np.min(eig.phi1)),
        "phi1_file": _write_solution(eig.phi1, grid, phi_path),
    }
    _emit_report(report, report_path)
    return 0


def cmd_torsion(cfg: Config) -> int:
    validate_config(cfg)
    u_path = _out_path(cfg, "torsion_u.txt")
    report_path = _out_path(cfg, "torsion_report.json")
    grid, kern, V, _ = assemble(cfg)
    lam1 = None
    if V.cV > 0.0:
        lam1 = first_eigenpair(kern, grid, cfg.eigen_tol,
                               max_iter=cfg.eigen_iter_cap).lambda1
    tor = torsion_solve(kern, grid, V, cfg.solve_tol,
                        max_iter=cfg.torsion_iter_cap, lambda1=lam1)
    report = {
        "value": tor.value,
        "residual": tor.residual,
        "iterations": tor.iterations,
        "positive": bool(tor.positive),
        "min_value": float(np.min(tor.u)),
        "norm_inf": float(np.max(np.abs(tor.u))),
        "solution_file": _write_solution(tor.u, grid, u_path),
    }
    _emit_report(report, report_path)
    return 0


def cmd_solve(cfg: Config, ref_path: str | None) -> int:
    validate_config(cfg)
    lam = _single_lambda(cfg)
    mp_path = _out_path(cfg, "solution_mp.txt")
    second_path = _out_path(cfg, "solution_second.txt")
    report_path = _out_path(cfg, "solve_report.json")
    parts = assemble(cfg)
    grid, kern = parts[:2]
    ref = None
    if ref_path is not None:
        ref, meta = read_gridfn(ref_path)
        if meta["n"] != grid.n or meta["a"] != grid.a or meta["b"] != grid.b:
            raise UsageError("reference solution %s is on a different grid" % ref_path)
    eig, prob, consts = certify(cfg, parts, lam)
    cp, second = solve_lambda(cfg, prob, eig.phi1, consts)
    all_pos, min_val, _ = positivity_check(cp, grid, cfg.s)
    report = {
        "lambda": lam,
        "value": cp.value,
        "residual": cp.residual,
        "tag": cp.tag,
        "iterations": cp.iterations,
        "path_value": cp.path_value,
        "positive": all_pos,
        "min_value": min_val,
        "norm_W": norm_W(cp.u, kern),
        "norm_inf": float(np.max(np.abs(cp.u))),
        "constants": {**asdict(consts), "lam3": consts.lam3},
        "solution_file": _write_solution(cp.u, grid, mp_path),
    }
    if second is not None:
        pos2, min2, _ = positivity_check(second, grid, cfg.s)
        report["second"] = {
            "value": second.value,
            "residual": second.residual,
            "tag": second.tag,
            "positive": pos2,
            "min_value": min2,
            "norm_inf": float(np.max(np.abs(second.u))),
            "distinct": distinct(cp.u, second.u),
            "solution_file": _write_solution(second.u, grid, second_path),
        }
    else:
        report["second"] = None
    if ref is not None:
        report["distinct_from_ref"] = distinct(cp.u, ref)
    _emit_report(report, report_path)
    return 0


def cmd_sweep(cfg: Config) -> int:
    validate_config(cfg)
    out_path = _out_path(cfg, "sweep.%s" % cfg.fmt)

    def progress(rec):
        if rec.ok:
            print("lambda=%.6g: value=%.6g residual=%.3g distinct=%d positive=%s"
                  % (rec.lam, rec.energy, rec.residual, rec.distinct_count,
                     "true" if rec.positive else "false"))
        else:
            print("lambda=%.6g: FAILED (%s)" % (rec.lam, rec.error))

    result = sweep(cfg, progress=progress)
    export(result.records, cfg.fmt, out_path)
    print("table: %s" % out_path)
    if result.fit is not None:
        f = result.fit
        print("fit (%d points): slope_W=%.4f (target %.4f)  "
              "slope_inf=%.4f (target %.4f)  slope_energy=%.4f (target %.4f)"
              % (f.points, f.slope_W, f.target_W, f.slope_inf, f.target_inf,
                 f.slope_energy, f.target_energy))
        print("fit R^2: W=%.5f inf=%.5f energy=%.5f" % (f.r2_W, f.r2_inf, f.r2_energy))
    else:
        print("fit: skipped (needs >= 4 successful lambda points)")
    return 0 if any(r.ok for r in result.records) else 1


def cmd_verify(cfg: Config) -> int:
    """Instance-level invariant suite; one printed line per check."""
    failures = 0

    def check(name, fn):
        nonlocal failures
        try:
            detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            failures += 1
            print("FAIL %s: %s: %s" % (name, type(exc).__name__, exc))
            return
        print("ok   %s%s" % (name, " (%s)" % detail if detail else ""))

    validate_config(cfg)
    grid, kern, V, nl = assemble(cfg)
    lam = float(np.min(lambdas(cfg)))
    rng = np.random.default_rng(cfg.seed)

    def chk_kernel():
        if not np.array_equal(kern.W, kern.W.T):
            raise AssertionError("kernel matrix not symmetric")
        if np.any(kern.W < 0.0) or np.any(kern.tail <= 0.0):
            raise AssertionError("kernel weights must be positive")
        return "n=%d" % grid.n

    check("kernel symmetry and positivity", chk_kernel)

    def chk_pairing():
        worst = 0.0
        for _ in range(5):
            u = rng.standard_normal(grid.n)
            lhs = float(apply_flap(u, kern) @ u)
            rhs = cfg.p * seminorm_p(u, kern)
            worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-300))
        if worst > 1e-10:
            raise AssertionError("pairing identity off by %g" % worst)
        return "rel err %.2g" % worst

    check("gradient pairing identity", chk_pairing)

    eig, prob, consts = certify(cfg, (grid, kern, V, nl), lam)

    def chk_fd():
        tol = 1e-5 if cfg.p == 2.0 else 1e-3
        h_fd = 1e-6
        worst = 0.0
        for _ in range(3):
            u = rng.standard_normal(grid.n)
            g = gradient(u, prob)
            idx = rng.integers(0, grid.n, size=8)
            for j in idx:
                e = np.zeros(grid.n)
                e[j] = h_fd
                fd = (energy(u + e, prob) - energy(u - e, prob)) / (2.0 * h_fd)
                worst = max(worst, abs(fd - g[j]) / max(1.0, abs(g[j])))
        if worst > tol:
            raise AssertionError("finite-difference mismatch %g" % worst)
        return "rel err %.2g" % worst

    check("energy gradient vs finite differences", chk_fd)

    def chk_eigen():
        if eig.residual > cfg.eigen_tol:
            raise AssertionError("eigen residual %g" % eig.residual)
        if np.min(eig.phi1) < 0.0:
            raise AssertionError("phi1 has negative nodes")
        if cfg.p == 2.0:
            lam_dense = inverse_power_lambda1(kern, grid, tol=1e-12)
            rel = abs(lam_dense - eig.lambda1) / lam_dense
            if rel > 1e-6:
                raise AssertionError("linear-solver cross-check off by %g" % rel)
        return "lambda1=%.8g" % eig.lambda1

    check("first eigenpair", chk_eigen)

    @functools.cache
    def torsion():
        # one solve for two checks; a failure is not cached, so both report it
        return torsion_solve(kern, grid, V, cfg.solve_tol,
                             max_iter=cfg.torsion_iter_cap, lambda1=eig.lambda1)

    def chk_torsion():
        tor = torsion()
        if not tor.positive:
            raise AssertionError("torsion solution not positive")
        return "min=%.3g" % float(np.min(tor.u))

    check("torsion positivity", chk_torsion)

    def chk_ring():
        if lam >= consts.lam_hat2:
            return "skipped: lambda outside the certified window"
        radius = consts.tau * lam ** (-prob.r)
        bound = (1.0 / (4.0 * prob.p)) * radius ** prob.p
        vals = [energy(u, prob) for u in ring_samples(kern, radius, 30, seed=cfg.seed)]
        if min(vals) < bound:
            raise AssertionError("ring sample at %g below bound %g" % (min(vals), bound))
        return "min %.4g >= bound %.4g" % (min(vals), bound)

    check("ring lower bound", chk_ring)

    def chk_endpoint():
        e0, e1, _, _ = construct_endpoints(prob, eig.phi1, consts)
        if lam <= consts.lam_hat1 and energy(e1, prob) > 0.0:
            raise AssertionError("endpoint energy %g > 0" % energy(e1, prob))
        return "J(e1)=%.4g" % energy(e1, prob)

    check("endpoint energy", chk_endpoint)

    def chk_mp():
        cp, _ = first_solution(cfg, prob, eig.phi1, consts)
        if cp.residual > cfg.mp_tol:
            raise AssertionError("residual %g" % cp.residual)
        lv = np.asarray(cp.trace)
        if np.any(np.diff(lv) > 1e-12 * (1.0 + np.abs(lv[:-1]))):
            raise AssertionError("path level increased along the iteration")
        if residual_norm(cp.u, prob) > cfg.mp_tol:
            raise AssertionError("independent residual recheck failed")
        if lam < consts.lam_hat2:
            bound = (1.0 / (4.0 * prob.p)) * (consts.tau * lam ** (-prob.r)) ** prob.p
            if cp.value < bound:
                raise AssertionError("value %g below ring bound %g" % (cp.value, bound))
        return "value=%.6g residual=%.2g" % (cp.value, cp.residual)

    check("mountain pass", chk_mp)

    def chk_comparison():
        if cfg.p != 2.0 or np.any(V.values < 0.0):
            return "skipped: needs p=2 and V >= 0"
        tor = torsion()
        rep = comparison_check(0.5 * tor.u, tor.u, prob)
        if not rep:
            raise AssertionError("0.5*v vs v not confirmed: %r" % (rep,))
        return "max excess %.2g" % rep.max_excess

    check("comparison principle", chk_comparison)

    def chk_determinism():
        origin = np.zeros(grid.n)
        t1 = classify(origin, prob, rho=1e-3, m=8, seed=cfg.seed)
        t2 = classify(origin, prob, rho=1e-3, m=8, seed=cfg.seed)
        if t1 != t2:
            raise AssertionError("classify not deterministic for a fixed seed")
        if derive_seed(cfg.seed, 3) != derive_seed(cfg.seed, 3):
            raise AssertionError("seed derivation unstable")
        return "tag=%s" % t1

    check("seeded determinism", chk_determinism)

    print("%d check(s) failed" % failures if failures else "all checks passed")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracmp",
        description="Nonlocal p-Laplacian model problem: eigen, torsion, "
                    "critical-point and sweep drivers.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("eigen", "first eigenpair of the nonlocal operator"),
            ("torsion", "torsion problem (constant right-hand side)"),
            ("solve", "critical points at a single lambda"),
            ("sweep", "geometric lambda sweep with scaling fits"),
            ("verify", "run the instance-level invariant suite")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="path to a key=value config file")
        p.add_argument("--out", help="override the output directory")
        p.add_argument("--format", choices=("csv", "json"),
                       help="override the export format")
        p.add_argument("--seed", type=int, help="override the base seed")
        if name == "solve":
            p.add_argument("--ref", help="grid function file to compare against")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
        cfg = with_overrides(cfg, out_dir=args.out, fmt=args.format, seed=args.seed)
        if args.command == "eigen":
            return cmd_eigen(cfg)
        if args.command == "torsion":
            return cmd_torsion(cfg)
        if args.command == "solve":
            return cmd_solve(cfg, args.ref)
        if args.command == "sweep":
            return cmd_sweep(cfg)
        return cmd_verify(cfg)
    except (SolverError, HypothesisError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except (ConfigurationError, UsageError, ExportError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
