#!/usr/bin/env python3
"""dpopt benchmark entry point.

    python3 perfbench/run.py --workload fullbatch_covertype --seed 0 --seconds 10 --trace 0

Pins the BLAS thread count before numpy loads, imports dpopt from the src/
directory next to this one, and hands over to bench.py.  Exits 2 without a
result when the sources are not there.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
# One BLAS thread: on 2 vCPUs, two OpenBLAS threads made the n = 500k gemv
# bimodal (p25 36 ms, p75 84 ms) where one thread gave p25 49 ms, p75 51 ms.
BLAS_THREADS = "1"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="dpopt benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    if not (SRC / "dpopt" / "__init__.py").is_file():
        print(f"error: dpopt sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import dpopt
    if Path(dpopt.__file__).resolve().parent != SRC / "dpopt":
        print(f"error: imported dpopt from {dpopt.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import bench
    return bench.main(args, BLAS_THREADS)


if __name__ == "__main__":
    raise SystemExit(main())
