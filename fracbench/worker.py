"""One repetition of a workload, in a fresh process: set up, run, check.

usage: python3 worker.py WORKLOAD SEED TRACE REPDIR

The runner writes REPDIR/workload.cfg and starts this process with the
thread caps already in the environment.  The worker imports fracmp from the
checkout's src/, assembles the workload's problem (the set-up), runs the
workload's subcommands through fracmp.cli.main (the timed part), checks the
outputs and writes REPDIR/rep.json.  With TRACE=1 every public layer
function is wrapped after the set-up and the per-layer metrics go into
rep.json.
"""
from __future__ import annotations

import json
import math
import os
import resource
import sys
import time
import traceback

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from workloads import REFERENCE_SEED, WORKLOADS, cli_seed  # noqa: E402

REFERENCE = os.path.join(HERE, "reference.json")
MAX_DRIFT = 1e-12        # relative drift allowed against reference.json
PAIRING_TOL = 1e-10      # Euler pairing <grad S(u), u> = p S(u)
CROSS_CHECK_TOL = 1e-6   # p = 2 inverse-power lambda1 against the descent


def _run_cli(main, argv) -> int:
    try:
        return int(main(argv))
    except SystemExit as exc:  # argparse usage errors
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # an uncaught error fails this command's ops
        traceback.print_exc()
        return -1


def _read_csv_rows(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln and not ln.startswith("#")]
    fields = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        row = {}
        for key, text in zip(fields, line.split(",")):
            if text in ("true", "false"):
                row[key] = text == "true"
            elif key == "distinct_count":
                row[key] = int(text)
            else:
                row[key] = float(text)
        rows.append(row)
    return rows


def _compare(values: dict, ref: dict, why: list) -> float:
    """Largest relative drift of the float fields; other fields must match."""
    worst = 0.0
    for key, want in ref.items():
        got = values.get(key)
        if isinstance(want, float) and isinstance(got, float):
            drift = abs(got - want) / max(abs(want), 1e-300)
            worst = max(worst, drift) if not math.isnan(drift) else math.inf
            if not drift <= MAX_DRIFT:
                why.append("%s drifted %.3g from %r" % (key, drift, want))
        elif got != want or type(got) is not type(want):
            why.append("%s is %r, reference %r" % (key, got, want))
    return worst


class Checker:
    """Builds one op record per solve: invariants, then reference values.

    The problem is assembled here, after the timed calls, so that it adds
    nothing to the workload's peak memory.  Residuals are recomputed from
    the solutions the program produced, not read from its reports.
    """

    def __init__(self, workload, seed, cfg):
        from fracmp.config import load_potential
        from fracmp.grid import build_grid
        from fracmp.kernel import apply_flap, assemble_kernel, seminorm_p
        from fracmp.model import make_nonlinearity
        self._flap, self._semi = apply_flap, seminorm_p
        self.grid = build_grid(cfg.a, cfg.b, cfg.n)
        self.kern = assemble_kernel(self.grid, cfg.s, cfg.p)
        self.V = load_potential(cfg, self.grid)
        self.nl = make_nonlinearity(cfg.q, cfg.f0, cfg.p, cfg.s, theta=cfg.theta)
        self.ref = None
        if seed == REFERENCE_SEED:
            self.ref = {}
            if os.path.exists(REFERENCE):
                with open(REFERENCE, encoding="utf-8") as fh:
                    self.ref = json.load(fh)["ops"].get(workload, {})
        self.ops: list[dict] = []

    def pairing(self, u, why: list) -> None:
        rhs = self.kern.p * self._semi(u, self.kern)
        rel = abs(float(self._flap(u, self.kern) @ u) - rhs) / abs(rhs)
        if not rel <= PAIRING_TOL:
            why.append("Euler pairing off by %.3g" % rel)

    @staticmethod
    def _within(label, value, tol, why: list) -> None:
        if not value <= tol:
            why.append("%s residual %r > tol %g" % (label, value, tol))

    def critical_point(self, label, u, lam, tol, why: list) -> None:
        """||grad J(u)|| / sqrt(h) of the problem at lam, within tol."""
        from fracmp.model import make_problem, residual_norm
        prob = make_problem(self.grid, self.kern, self.V, lam, self.nl)
        self._within(label, residual_norm(u, prob), tol, why)

    def eigenpair(self, phi, lambda1, tol, why: list) -> None:
        """The eigen equation's defect, as first_eigenpair defines it."""
        from fracmp.model import phi_p
        p, h = self.kern.p, self.grid.h
        defect = self._flap(phi, self.kern) / p - lambda1 * h * phi_p(phi, p)
        self._within("eigen", float(np.linalg.norm(defect) / np.sqrt(h)), tol, why)

    def torsion(self, u, tol, why: list) -> None:
        from fracmp.eigen import torsion_gradient
        g = torsion_gradient(u, self.kern, self.grid, self.V)
        self._within("torsion", float(np.linalg.norm(g) / np.sqrt(self.grid.h)), tol, why)

    def add(self, name: str, values: dict, why: list) -> None:
        drift = None
        if self.ref is not None:
            if name in self.ref:
                drift = _compare(values, self.ref[name], why)
            else:
                why.append("no reference value")
        self.ops.append({"op": name, "ok": not why, "why": why,
                         "values": values, "drift": drift})

    def failed(self, name: str, reason: str) -> None:
        self.ops.append({"op": name, "ok": False, "why": [reason],
                         "values": {}, "drift": None})


def check_sweep(chk: Checker, cfg, rcs: list, out: str, result) -> None:
    from fracmp.eigen import inverse_power_lambda1
    rc = rcs[0]
    names = ["lambda[%d]" % i for i in range(cfg.lambda_count)]
    csv_path = os.path.join(out, "sweep.csv")
    if rc != 0 or result is None or not os.path.exists(csv_path):
        for name in names:
            chk.failed(name, "sweep exited %d" % rc)
        return
    rows = _read_csv_rows(csv_path)
    lam_dense = inverse_power_lambda1(chk.kern, chk.grid, tol=1e-12)
    cross = abs(lam_dense - result.lambda1) / lam_dense
    for i, name in enumerate(names):
        why = []
        if not cross <= CROSS_CHECK_TOL:
            why.append("lambda1 off the inverse-power value by %.3g" % cross)
        rec = result.records[i] if i < len(result.records) else None
        if rec is None or i >= len(rows):
            chk.failed(name, "no sweep row")
            continue
        if not rec.ok:
            why.append("row error: %s" % rec.error)
        else:
            lam, cp, second = result.solutions[i]
            chk.critical_point("mountain-pass", cp.u, lam, cfg.mp_tol, why)
            if second is not None:
                chk.critical_point("second-solution", second.u, lam, cfg.solve_tol, why)
            chk.pairing(cp.u, why)
        chk.add(name, rows[i], why)


def _load_solution(out, path):
    from fracmp.grid import read_gridfn
    values, _ = read_gridfn(os.path.join(out, os.path.basename(path)))
    return values


def _report(out: str, name: str):
    path = os.path.join(out, name)
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_solve(chk: Checker, cfg, rcs: list, out: str, result) -> None:
    rc = rcs[0]
    rep = _report(out, "solve_report.json")
    if rc != 0 or rep is None:
        chk.failed("solve", "solve exited %d" % rc)
        return
    why = []
    u = _load_solution(out, rep["solution_file"])
    chk.critical_point("mountain-pass", u, rep["lambda"], cfg.mp_tol, why)
    if rep["second"] is not None:
        chk.critical_point("second-solution",
                           _load_solution(out, rep["second"]["solution_file"]),
                           rep["lambda"], cfg.solve_tol, why)
    chk.pairing(u, why)
    values = {key: rep[key] for key in ("value", "norm_W", "norm_inf", "positive", "tag")}
    values["distinct_count"] = 1 + (rep["second"] is not None)
    chk.add("solve", values, why)


def check_eigen_torsion(chk: Checker, cfg, rcs: list, out: str, result) -> None:
    for cmd, rc, fields, file_key in (
            ("eigen", rcs[0], ("lambda1",), "phi1_file"),
            ("torsion", rcs[1], ("value", "norm_inf", "positive"), "solution_file")):
        rep = _report(out, cmd + "_report.json")
        if rc != 0 or rep is None:
            chk.failed(cmd, "%s exited %d" % (cmd, rc))
            continue
        why = []
        u = _load_solution(out, rep[file_key])
        if cmd == "eigen":
            chk.eigenpair(u, rep["lambda1"], cfg.eigen_tol, why)
        else:
            chk.torsion(u, cfg.solve_tol, why)
        chk.pairing(u, why)
        chk.add(cmd, {key: rep[key] for key in fields}, why)


# workload -> check(checker, config, exit codes, output dir, sweep result)
CHECKS = {
    "sweep-p2-n96": check_sweep,
    "solve-p2.5-n192": check_solve,
    "eigen-torsion-p2.5-n1024": check_eigen_torsion,
}


def _environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": "%s %s" % (blas.get("name"), blas.get("version"))}


def main() -> int:
    workload, seed, trace, repdir = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1", sys.argv[4]
    _, commands, _ = WORKLOADS[workload]

    import fracmp.cli
    if not os.path.abspath(fracmp.cli.__file__).startswith(os.path.join(ROOT, "src")):
        print("fracmp imported from %s, not this checkout" % fracmp.cli.__file__,
              file=sys.stderr)
        return 3

    # Set-up: the problem assembly main() repeats; it also warms the imports.
    # Nothing it builds is kept, so the timed calls' peak memory is main()'s.
    from fracmp.config import load_potential, parse_config, with_overrides
    from fracmp.grid import build_grid
    from fracmp.kernel import assemble_kernel
    from fracmp.model import make_nonlinearity
    cfg_path = os.path.join(repdir, "workload.cfg")
    out = os.path.join(repdir, "out")
    cfg = with_overrides(parse_config(cfg_path), out_dir=out, seed=cli_seed(seed))
    grid = build_grid(cfg.a, cfg.b, cfg.n)
    load_potential(cfg, grid)
    assemble_kernel(grid, cfg.s, cfg.p)
    make_nonlinearity(cfg.q, cfg.f0, cfg.p, cfg.s, theta=cfg.theta)
    del grid
    setup_done = time.monotonic()

    # Installed after the set-up, so the traced set-up times are main()'s own.
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    # keep the SweepResult main() discards: the checks need its solutions
    captured = {}
    run_sweep = fracmp.cli.sweep

    def capture(*args, **kwargs):
        captured["result"] = run_sweep(*args, **kwargs)
        return captured["result"]

    fracmp.cli.sweep = capture

    rcs = []
    wall = 0.0
    for cmd in commands:
        argv = [cmd, cfg_path, "--out", out, "--seed", str(cli_seed(seed))]
        t0 = time.perf_counter()
        rcs.append(_run_cli(fracmp.cli.main, argv))
        wall += time.perf_counter() - t0
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    rep = {"setup_done": setup_done, "wall_s": wall, "peak_rss_mb": peak_kb * 1024 / 1e6,
           "rcs": rcs, "env": _environment()}
    if tracer is not None:
        rep["layers"] = tracer.layer_metrics()
        tracer.write(os.path.join(repdir, "spans.tsv.gz"))

    chk = Checker(workload, seed, cfg)
    CHECKS[workload](chk, cfg, rcs, out, captured.get("result"))
    rep["ops"] = chk.ops
    with open(os.path.join(repdir, "rep.json"), "w", encoding="utf-8") as fh:
        json.dump(rep, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
