"""Run the benchmark over several seeds and record medians and quartiles.

usage: python3 fracbench/series.py --label LABEL --seeds 1 2 ...

For every seed, every workload is run once through run.py for
BENCHMARK.json's run_seconds (seeds outer, so each workload's runs spread
over the whole series).  Per end-to-end metric the record holds the values,
the median, the quartiles from statistics.quantiles(n=4) and the spread
(q3 - q1) / median.  Two traced runs per workload at the first seed record
the per-layer metrics and whether the counts repeat exactly.  Writes
fracbench/BENCH_<label>.json.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import run
from workloads import END_TO_END, PER_LAYER, WORKLOADS

TRACED_RUNS = 2


def bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def describe(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args()
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    workloads = sorted(WORKLOADS)
    runs = {w: [] for w in workloads}
    for seed in args.seeds:
        for w in workloads:
            res = bench(w, seed, seconds, 0)
            runs[w].append(res)
            print("%s seed %d: %s failed %d/%d" % (
                w, seed, "  ".join("%s=%.4f" % (k, v["value"])
                                   for k, v in res["metrics"].items()),
                res["failed"], res["attempted"]), flush=True)
    record = {"label": args.label, "seconds": seconds, "seeds": args.seeds,
              "environment": None, "workloads": {}}
    for w, results in runs.items():
        entry = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": {m: dict(describe([r["metrics"][m]["value"] for r in results]),
                                   unit=unit) for m, unit in END_TO_END.items()},
        }
        entry["failed_frac"] = entry["failed"] / entry["attempted"]
        traced = [bench(w, args.seeds[0], seconds, 1) for _ in range(TRACED_RUNS)]
        entry["per_layer"] = {m: {"values": [t["metrics"][m]["value"] for t in traced],
                                  "unit": unit} for m, unit in PER_LAYER.items()}
        entry["per_layer_counts_repeat"] = all(
            len(set(v["values"])) == 1 for v in entry["per_layer"].values()
            if v["unit"] in run.COUNT_UNITS)
        record["workloads"][w] = entry
    results_dir = os.path.join(run.WORK, "results")
    with open(os.path.join(results_dir, "%s-seed%d-trace0.json" % (
            workloads[0], args.seeds[-1])), encoding="utf-8") as fh:
        record["environment"] = json.load(fh)["env"]
    path = os.path.join(run.HERE, "BENCH_%s.json" % args.label)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    for w, entry in record["workloads"].items():
        print("%s  failed_frac %.4g" % (w, entry["failed_frac"]) + "".join(
            "  %s median %.4f %s spread %.3f" % (m, d["median"], d["unit"], d["spread"])
            for m, d in entry["end_to_end"].items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
