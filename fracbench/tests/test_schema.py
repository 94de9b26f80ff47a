"""Schema of the benchmark's declarations and results; no timing gates.

Run from the repository root: python -m pytest -q fracbench/tests
"""
from __future__ import annotations

import glob
import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402
from workloads import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)


def test_benchmark_json_declares_the_runner_metrics():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == PER_LAYER
    setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])


def _result(trace: bool) -> dict:
    result = {"trace": trace, "attempted": 6, "failed": 0,
              "e2e": {name: 1.5 for name in END_TO_END}}
    if trace:
        result["layers"] = {name: 2.5 for name in PER_LAYER}
    return result


def test_result_line_schema():
    for trace, declared in ((False, END_TO_END), (True, PER_LAYER)):
        line = json.loads(json.dumps(run.result_line(_result(trace))))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True
        assert {name: m["unit"] for name, m in line["metrics"].items()} == declared
        assert all(set(m) == {"value", "unit"} for m in line["metrics"].values())


def test_reference_covers_every_workload():
    with open(os.path.join(BENCH_DIR, "reference.json"), encoding="utf-8") as fh:
        ref = json.load(fh)
    assert set(ref["ops"]) == set(WORKLOADS)
    for name, (_, _, ops) in WORKLOADS.items():
        assert len(ref["ops"][name]) == ops


def test_recorded_series_schema():
    paths = glob.glob(os.path.join(BENCH_DIR, "BENCH_*.json"))
    assert paths
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
        assert set(record["workloads"]) == set(WORKLOADS)
        for entry in record["workloads"].values():
            assert {m: d["unit"] for m, d in entry["end_to_end"].items()} == END_TO_END
            assert {m: d["unit"] for m, d in entry["per_layer"].items()} == PER_LAYER
