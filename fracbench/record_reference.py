"""Record the reference outputs that run.py compares against at REFERENCE_SEED.

usage: python3 fracbench/record_reference.py COMMIT

Runs one untraced repetition of every workload at the reference seed and
writes each op's output values to fracbench/reference.json.  Record only
from a commit whose outputs are the intended reference (the seed commit for
the first recording); COMMIT is stored with the values.
"""
from __future__ import annotations

import json
import os
import shutil
import sys

import run
from workloads import REFERENCE_SEED, WORKLOADS


def main() -> int:
    run.cap_threads()
    ops = {}
    for workload in sorted(WORKLOADS):
        repdir = os.path.join(run.WORK, "reference", workload)
        shutil.rmtree(repdir, ignore_errors=True)
        rep = run.run_rep(workload, REFERENCE_SEED, False, repdir)
        ops[workload] = {op["op"]: op["values"] for op in rep["ops"]}
        print(workload, json.dumps(ops[workload]))
    with open(os.path.join(run.HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump({"commit": sys.argv[1], "seed": REFERENCE_SEED, "ops": ops}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
