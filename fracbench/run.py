"""fracmp benchmark runner.

usage: python3 fracbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each repetition of a workload is a fresh
``python3 fracbench/worker.py`` process that imports fracmp from ``src/``,
assembles the problem and runs the workload's subcommands through
``fracmp.cli.main`` on a generated config, writing into a temporary
directory under ``fracbench/_work/``.  Repetitions are started until the next
one would end after S seconds (at least one runs).  BLAS and OpenMP threads
are capped at nproc before numpy is imported.

--trace 0 reports the end-to-end metrics, medians over the repetitions:
  setup_s      process start until fracmp.cli is imported and the problem
               is assembled (config, grid, kernel, potential, nonlinearity)
  wall_s       the fracmp.cli.main call(s) after set-up
  peak_rss_mb  peak resident memory of the repetition's process
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones (times are medians, counts must repeat
exactly) plus trace.overhead_frac, traced over untraced wall_s minus one.

Every op (one lambda solve, or one eigen or torsion solve) is checked:
the CLI exits 0 and the row carries no error, the residual recomputed
from the solution the program produced is within the config's tolerance,
and the Euler pairing <grad S(u), u> = p S(u) holds to
1e-10; on the p = 2 sweep lambda1 agrees with inverse_power_lambda1 to
1e-6.  At the reference seed the outputs must also match reference.json to
a relative drift of 1e-12.  failed_frac = failed ops / attempted ops.

The last line of stdout is the JSON result; the full record, with the
machine description, goes to fracbench/_work/results/.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

WORK = os.path.join(HERE, "_work")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# a repetition starts only while the run has time left, so with this cap a
# run ends within 180 s even when a repetition hangs
REP_TIMEOUT = 120
# per-layer metrics that are counts: they must repeat exactly between runs
COUNT_UNITS = ("count", "B")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_threads() -> None:
    """Cap BLAS/OpenMP threads at nproc in the environment workers inherit."""
    for var in THREAD_VARS:
        try:
            cap = min(int(os.environ[var]), nproc())
        except (KeyError, ValueError):
            cap = nproc()
        os.environ[var] = str(max(cap, 1))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_rep(workload: str, seed: int, trace: bool, repdir: str) -> dict:
    """One repetition in a fresh worker process; returns its rep.json."""
    os.makedirs(repdir)
    with open(os.path.join(repdir, "workload.cfg"), "w", encoding="utf-8") as fh:
        fh.write(WORKLOADS[workload][0])
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed),
           "1" if trace else "0", repdir]
    with open(os.path.join(repdir, "stdout.txt"), "w") as out, \
            open(os.path.join(repdir, "stderr.txt"), "w") as err:
        t_spawn = time.monotonic()
        code = subprocess.run(cmd, stdout=out, stderr=err, cwd=ROOT,
                              timeout=REP_TIMEOUT).returncode
    rep_path = os.path.join(repdir, "rep.json")
    if code != 0 or not os.path.exists(rep_path):
        with open(os.path.join(repdir, "stderr.txt"), encoding="utf-8") as fh:
            sys.stderr.write(fh.read())
        raise SystemExit("worker for %s exited %d" % (workload, code))
    with open(rep_path, encoding="utf-8") as fh:
        rep = json.load(fh)
    rep["setup_s"] = rep.pop("setup_done") - t_spawn
    rep["traced"] = trace
    return rep


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Repeat the workload for about `seconds`; aggregate and check."""
    run_dir = os.path.join(WORK, "%s-seed%d-trace%d-%d" % (
        workload, seed, int(trace), os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    reps = []
    start = time.monotonic()
    longest = 0.0
    while True:
        traced = trace and len(reps) % 2 == 1
        t0 = time.monotonic()
        reps.append(run_rep(workload, seed, traced, os.path.join(run_dir, "rep%d" % len(reps))))
        longest = max(longest, time.monotonic() - t0)
        enough = not trace or len(reps) >= 2
        if enough and time.monotonic() - start + longest > seconds:
            break
    plain = [r for r in reps if not r["traced"]]
    traced_reps = [r for r in reps if r["traced"]]
    ops = [op for r in reps for op in r["ops"]]
    failed = sum(not op["ok"] for op in ops)
    drifts = [op["drift"] for op in ops if op["drift"] is not None]
    result = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "reps": len(reps),
        "attempted": len(ops), "failed": failed,
        "failed_frac": failed / len(ops),
        "worst_drift": max(drifts) if drifts else None,
        "failures": [(op["op"], op["why"]) for op in ops if not op["ok"]],
        "e2e": {name: statistics.median(r[name] for r in plain) for name in END_TO_END},
        "e2e_reps": [{name: r[name] for name in END_TO_END} for r in plain],
    }
    if trace:
        layers = {}
        repeat = True
        for name, unit in PER_LAYER.items():
            if name == "trace.overhead_frac":
                wall = statistics.median(r["wall_s"] for r in traced_reps)
                layers[name] = wall / result["e2e"]["wall_s"] - 1.0
                continue
            values = [r["layers"].get(name, 0) for r in traced_reps]
            if unit in COUNT_UNITS:
                repeat &= len(set(values)) == 1
                layers[name] = values[0]
            else:
                layers[name] = statistics.median(values)
        result["layers"] = layers
        result["counts_repeat"] = repeat
        result["all_layers"] = traced_reps[0]["layers"]
        result["spans"] = os.path.relpath(
            os.path.join(run_dir, "rep1", "spans.tsv.gz"), ROOT)
    result["env"] = dict(reps[0]["env"], nproc=nproc(), cpu=cpu_model(),
                         threads={var: os.environ[var] for var in THREAD_VARS})
    for r in range(len(reps)):
        shutil.rmtree(os.path.join(run_dir, "rep%d" % r, "out"), ignore_errors=True)
    return result


def summary_lines(result: dict) -> list[str]:
    env = result["env"]
    lines = ["%s seed %d: %d reps, python %s numpy %s scipy %s, %s, nproc %d, %s, threads %s"
             % (result["workload"], result["seed"], result["reps"], env["python"],
                env["numpy"], env["scipy"], env["blas"], env["nproc"], env["cpu"],
                ",".join("%s=%s" % kv for kv in env["threads"].items()))]
    for name, unit in END_TO_END.items():
        lines.append("  %-12s %.4f %s" % (name, result["e2e"][name], unit))
    lines.append("  %-12s %.4g (%d of %d ops failed)" % (
        "failed_frac", result["failed_frac"], result["failed"], result["attempted"]))
    if result["worst_drift"] is not None:
        lines.append("  worst drift vs reference: %.3g" % result["worst_drift"])
    for op, why in result["failures"]:
        lines.append("  FAILED %s: %s" % (op, "; ".join(why)))
    if result["trace"]:
        for name, unit in PER_LAYER.items():
            lines.append("  %-36s %.6g %s" % (name, result["layers"][name], unit))
        if not result["counts_repeat"]:
            lines.append("  WARNING: per-layer counts differ between traced reps")
    return lines


def result_line(result: dict) -> dict:
    """The contract's last line: correct, attempted, failed and metrics."""
    if result["trace"]:
        metrics = {name: {"value": result["layers"][name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": result["e2e"][name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def save(result: dict) -> None:
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    path = os.path.join(WORK, "results", "%s-seed%d-trace%d.json" % (
        result["workload"], result["seed"], int(result["trace"])))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "fracmp", "cli.py")):
        print("no fracmp sources under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    cap_threads()
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        save(result)
        print("\n".join(summary_lines(result)), flush=True)
        results.append(result)
    if args.workload == "all":
        print(json.dumps({r["workload"]: result_line(r) for r in results}))
    else:
        print(json.dumps(result_line(results[0])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
