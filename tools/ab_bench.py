"""A/B benchmark of two revisions: alternating pairs of fracbench runs.

usage: python tools/ab_bench.py REV_A REV_B [--pairs 10] [--workload all]
                                [--seconds S]

Run from a git checkout.  Each revision is taken with `git archive` into a
temporary directory (under $TMPDIR), so neither side sees the working tree
or a stale bytecode cache; every run has PYTHONDONTWRITEBYTECODE=1 set.
Pair i runs `python3 fracbench/run.py --workload W --seed i --seconds S` in
both copies, REV_A first in even pairs and REV_B first in odd ones; pair 0
is at the reference seed, where fracbench compares outputs with its
reference.json.  S defaults to BENCHMARK.json's run_seconds.

After each pair the tool prints both sides' end-to-end metrics.  At the end
it prints, per workload and end-to-end metric of BENCHMARK.json: both sides'
medians and quartiles, the number of pairs k/N in which REV_B is better,
the spread of REV_A's runs (its interquartile range over its median)
against the metric's bound, REV_B's median change, and a verdict:
  gain        REV_B better in at least 9 of 10 pairs, and the medians
              differ by more than REV_A's interquartile range
  withheld    a gain, but REV_B failed more ops than REV_A on the workload,
              so it does not count
  WORSE       REV_B's median worse than REV_A's by more than the bound
  unresolved  REV_A's spread wider than the bound, and not every REV_B
              run better than every REV_A run
  level       otherwise
and then each side's failed ops and worst drift against reference.json.
The tool changes nothing in either revision and has no pass/fail exit code.
"""
from __future__ import annotations

import argparse
import io
import json
import math
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def extract(rev: str, dest: str) -> None:
    """The tree of rev, from `git archive`, written into dest."""
    tar = subprocess.run(["git", "archive", rev], cwd=ROOT, capture_output=True,
                         check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        if hasattr(tarfile, "data_filter"):
            archive.extractall(dest, filter="data")
        else:  # Python before 3.10.12 / 3.11.4: no extraction filters
            archive.extractall(dest)


def run_once(root: str, workload: str, seed: int, seconds: float) -> dict:
    """One fracbench run in the checkout at root: workload -> its record.

    A record holds the end-to-end metric values, the ops attempted and
    failed, and the worst drift against reference.json (None off the
    reference seed).
    """
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run([sys.executable, os.path.join("fracbench", "run.py"),
                          "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds)],
                         cwd=root, env=env, capture_output=True, text=True, check=True)
    last = json.loads(out.stdout.splitlines()[-1])
    lines = last if workload == "all" else {workload: last}
    records = {}
    for name, line in lines.items():
        path = os.path.join(root, "fracbench", "_work", "results",
                            "%s-seed%d-trace0.json" % (name, seed))
        with open(path, encoding="utf-8") as fh:
            drift = json.load(fh)["worst_drift"]
        records[name] = {"metrics": {m: v["value"] for m, v in line["metrics"].items()},
                         "attempted": line["attempted"], "failed": line["failed"],
                         "worst_drift": drift}
    return records


def quartiles(values: list) -> tuple[float, float, float]:
    """(lower quartile, median, upper quartile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def verdict(a: list, b: list, bound: float, lower: bool,
            failed: tuple[int, int] = (0, 0)) -> tuple[int, float, float, str]:
    """(pairs where b is better, a's spread, b's median change, verdict).

    a and b hold the metric of each pair, in pair order; bound is the
    relative worsening BENCHMARK.json allows; lower says lower is better;
    failed holds the ops a's and b's runs failed.
    """
    sign = 1.0 if lower else -1.0
    wins = sum(sign * (y - x) < 0.0 for x, y in zip(a, b))
    q1, med_a, q3 = quartiles(a)
    med_b = quartiles(b)[1]
    spread = (q3 - q1) / abs(med_a) if med_a else math.inf
    change = (med_b - med_a) / abs(med_a) if med_a else math.inf
    if wins >= math.ceil(0.9 * len(a)) and sign * (med_a - med_b) > q3 - q1:
        word = "gain" if failed[1] <= failed[0] else "withheld"
    elif sign * change > bound:
        word = "WORSE"
    elif spread > bound and not (max(b) < min(a) if lower else min(b) > max(a)):
        word = "unresolved"
    else:
        word = "level"
    return wins, spread, change, word


def summary(pairs: list, metrics: list) -> list[str]:
    """The table of pairs [(record of REV_A, record of REV_B)] per workload.

    metrics is BENCHMARK.json's end_to_end list (name, bound, better).
    """
    lines = []
    for workload in pairs[0][0]:
        runs = [(a[workload], b[workload]) for a, b in pairs]
        failed = tuple(sum(r[k]["failed"] for r in runs) for k in (0, 1))
        lines.append("%s (%d pairs)" % (workload, len(runs)))
        lines.append("  %-12s %-26s %-26s %7s %7s %6s %8s  %s" % (
            "metric", "A median [q1, q3]", "B median [q1, q3]", "B bttr", "A IQR",
            "bound", "change", "verdict"))
        for m in metrics:
            a = [ra["metrics"][m["name"]] for ra, _ in runs]
            b = [rb["metrics"][m["name"]] for _, rb in runs]
            wins, spread, change, word = verdict(a, b, m["bound"], m["better"] == "lower",
                                                 failed)
            lines.append("  %-12s %-26s %-26s %7s %7.3f %6.3f %+7.1f%%  %s" % (
                m["name"], "%.4g [%.4g, %.4g]" % _mid_first(a),
                "%.4g [%.4g, %.4g]" % _mid_first(b), "%d/%d" % (wins, len(runs)),
                spread, m["bound"], 100.0 * change, word))
        for side, k in (("A", 0), ("B", 1)):
            drifts = [r[k]["worst_drift"] for r in runs if r[k]["worst_drift"] is not None]
            lines.append("  %s: %d of %d ops failed, worst drift %s" % (
                side, failed[k], sum(r[k]["attempted"] for r in runs),
                "%.3g" % max(drifts) if drifts else "-"))
    return lines


def _mid_first(values: list) -> tuple[float, float, float]:
    q1, med, q3 = quartiles(values)
    return med, q1, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev_a")
    parser.add_argument("rev_b")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    pairs = []
    with tempfile.TemporaryDirectory(prefix="ab_bench-") as tmp:
        roots = [os.path.join(tmp, "a"), os.path.join(tmp, "b")]
        for rev, root in zip((args.rev_a, args.rev_b), roots):
            extract(rev, root)
        for i in range(args.pairs):
            order = (0, 1) if i % 2 == 0 else (1, 0)
            pair = [None, None]
            for k in order:
                pair[k] = run_once(roots[k], args.workload, i, seconds)
            pairs.append(tuple(pair))
            for workload in pair[0]:
                print("pair %d seed %d %s first %s: %s" % (
                    i, i, "AB"[order[0]], workload, "  ".join(
                        "%s %.4g / %.4g" % (m["name"], pair[0][workload]["metrics"][m["name"]],
                                            pair[1][workload]["metrics"][m["name"]])
                        for m in bench["end_to_end"])), flush=True)
    print("\n".join(summary(pairs, bench["end_to_end"])))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
