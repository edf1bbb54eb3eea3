#!/usr/bin/env python3
"""One digest over every seed-0 solve of the benchmark's listed workloads.

    python3 scripts/bench_fingerprint.py

Sets up each workload that BENCHMARK.json lists (fullbatch_covertype and
highdim_lanczos: 28 public solver calls in all), runs its solve list at
workload seed 0 once, and prints the first 16 hex digits of the sha256 over
the concatenated `checks.fingerprint` digests, in list order.  Two source
trees whose solves are bit-identical print the same digits.  The workloads
and the fingerprint come from perfbench/workloads.py and perfbench/checks.py,
imported as they are.  The BLAS thread count is pinned to 1 before numpy
loads, as the benchmark does: another count can move the bits.  A run takes
about 13 s on a 2-vCPU VM.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import checks  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 0


def fingerprint() -> str:
    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    digest = hashlib.sha256()
    for name in names:
        workload = WORKLOADS[name]
        dataset, model = workload.setup(workload.prepare(SEED, None))
        for solve in workload.solves(SEED):
            digest.update(checks.fingerprint(workload.run(solve, dataset, model)).encode())
    return digest.hexdigest()[:16]


if __name__ == "__main__":
    print(fingerprint())
