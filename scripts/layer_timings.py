#!/usr/bin/env python3
"""Median wall time of each dpopt layer, one layer at a time.

    python3 scripts/layer_timings.py [--repeats 9] [--json layers.json]

Times the layers the benchmark's per-layer list names, each over repeats
on fixed seeded inputs, and prints one line per layer (median, quartiles,
repeat count) under a header with nproc (the usable cores), the BLAS
thread setting, the number of threads synth_dataset builds on and the
number the spread passes run on.  After each group of layers it prints the
host's steal share over that group: the steal ticks of the cpu line of
/proc/stat over its first eight columns (user to steal), the share of the
machine's time that a timing on a shared VM lost to other guests.
The last line of standard output is the whole result as one JSON object,
the steal shares in its header.

  * objective, at the two benchmark shapes (n = 500 000, d = 54 and
    n = 30 000, d = 600): erm_value and erm_gradient without a memo (one
    pass each), erm_hessian and erm_hvp with a warm memo (the cost per call
    inside a run, margins and curvature already kept), and one raw gemv
    over X (X @ v), the floor of any pass that reads X;
  * spread, at n = 500 000, d = 54: the fused value-and-gradient pass
    (erm_gradient without a memo) and erm_hessian with a warm memo, once
    on one worker and once on as many as the passes use (every usable
    core, objective.SPREAD_WORKERS at most), each as its own group with its
    own steal share;
  * mechanisms, at d = 600: the Wigner draw, its stored (dense) matvec and
    its matrix-free matvec, which regenerates the draw row by row;
  * spectral: one Lanczos eigen-check on the noisy d = 600 Hessian at the
    origin, as a highdim_lanczos solve makes it;
  * accountant: one subsampled RDP curve over the default orders, and
    tune_noise_plan at T = 10, s = 0.05, (1, 1e-5) with the sigma_f an
    RdpTuneBudget for that target fixes;
  * data: CSV ingest scaled to 100 000 rows of 54 features (the file is
    written to a temporary directory first, untimed), and synth_dataset at
    the two benchmark shapes (500 000 x 54 at margin 0.15, 30 000 x 600 at
    margin 0.01).

The BLAS thread count is pinned to 1 before numpy loads, as the benchmark
does, unless OPENBLAS_NUM_THREADS is already set.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile
import time
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", os.environ["OPENBLAS_NUM_THREADS"])
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from dpopt import mechanisms, objective  # noqa: E402
from dpopt.accountant import (ApproxDp, subsampled_gaussian_rdp_curve,  # noqa: E402
                              tune_noise_plan)
from dpopt.harness import load_dataset, synth_dataset  # noqa: E402
from dpopt.harness.data import synth_workers  # noqa: E402
from dpopt.mechanisms import SeededRng, WignerOperator, wigner_matrix  # noqa: E402
from dpopt.objective import (MarginMemo, builtin_nonconvex_logistic, erm_gradient,  # noqa: E402
                             erm_hessian, erm_hvp, erm_value)
from dpopt.optimizer import RdpTuneBudget  # noqa: E402
from dpopt.spectral import lanczos_min_eig  # noqa: E402

CSV_ROWS = 100_000
# the Wigner entries' standard deviation in a highdim_lanczos solve's check
# (0.0017 to 0.0024 at seed 0), which gives its Lanczos cap of 10 matvecs
HESS_NOISE_SCALE = 0.002


def timed(fn, repeats: int) -> dict:
    """Median and quartiles of fn's wall time in ms, after one untimed call."""
    fn()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    p25, p50, p75 = np.percentile(np.array(times) * 1e3, [25, 50, 75])
    return {"median_ms": p50, "p25_ms": p25, "p75_ms": p75, "repeats": repeats}


@functools.lru_cache(maxsize=1)
def objective_inputs(n: int, d: int) -> tuple:
    """The dataset, model, memo, iterate and vector the objective layers are
    timed on; the last shape's are kept for the next group."""
    ds = synth_dataset("logistic_separable", n, d, seed=1, margin=0.01)
    model = builtin_nonconvex_logistic(1e-3, ds.feature_norm_bound, d)
    w = 0.01 * SeededRng(2).standard_normal(d)
    v = SeededRng(3).standard_normal(d)
    return ds, model, MarginMemo(model, ds), w, v


def objective_layers(n: int, d: int, repeats: int) -> dict:
    ds, model, memo, w, v = objective_inputs(n, d)
    tag = f"n={n},d={d}"
    out = {
        f"objective.raw_gemv[{tag}]": timed(lambda: ds.features @ v, repeats),
        f"objective.erm_value[{tag}]": timed(lambda: erm_value(model, ds, w), repeats),
        f"objective.erm_gradient[{tag}]": timed(lambda: erm_gradient(model, ds, w), repeats),
        f"objective.erm_hvp[{tag},memo]":
            timed(lambda: erm_hvp(model, ds, w, v, memo=memo), repeats),
    }
    if d <= 512:
        out[f"objective.erm_hessian[{tag},memo]"] = timed(
            lambda: erm_hessian(model, ds, w, memo=memo), repeats)
    return out


def spread_layers(workers: int, repeats: int) -> dict:
    """The passes that spread over the cores, at 500 000 x 54, on this many
    workers."""
    ds, model, memo, w, _ = objective_inputs(500_000, 54)
    tag = f"n=500000,d=54,workers={workers}"
    cores = objective.usable_cores
    objective.usable_cores = lambda: workers
    try:
        return {
            f"objective.erm_gradient[{tag}]": timed(lambda: erm_gradient(model, ds, w), repeats),
            f"objective.erm_hessian[{tag},memo]":
                timed(lambda: erm_hessian(model, ds, w, memo=memo), repeats),
        }
    finally:
        objective.usable_cores = cores


def spectral_layers(repeats: int) -> dict:
    n, d = 30_000, 600
    ds = synth_dataset("logistic_separable", n, d, seed=1, margin=0.01)
    model = builtin_nonconvex_logistic(1e-3, ds.feature_norm_bound, d)
    w = np.zeros(d)
    memo = MarginMemo(model, ds)
    scale = HESS_NOISE_SCALE
    source = SeededRng(4).child()
    stored = WignerOperator(d, scale, source)
    budget = mechanisms.WIGNER_DENSE_BUDGET_BYTES
    mechanisms.WIGNER_DENSE_BUDGET_BYTES = 0
    try:
        free = WignerOperator(d, scale, source)
    finally:
        mechanisms.WIGNER_DENSE_BUDGET_BYTES = budget
    v = SeededRng(5).standard_normal(d)
    norm_bound = model.G + 3.0 * math.sqrt(d) * scale

    def check():
        return lanczos_min_eig(lambda q: erm_hvp(model, ds, w, q, memo=memo) + stored.matvec(q),
                               d, norm_bound, 0.245, 0.05, SeededRng(6))

    matvecs = check().matvec_count
    return {
        "mechanisms.wigner_draw[d=600]":
            timed(lambda: wigner_matrix(d, scale, source.fresh()), repeats),
        "mechanisms.wigner_matvec_dense[d=600]": timed(lambda: stored.matvec(v), repeats),
        "mechanisms.wigner_matvec_free[d=600]": timed(lambda: free.matvec(v), repeats),
        f"spectral.lanczos_check[n=30000,d=600,{matvecs} matvecs]": timed(check, repeats),
    }


def accountant_layers(repeats: int) -> dict:
    sigma_f = RdpTuneBudget(1.0, 1e-5).sigma_f
    return {
        "accountant.rdp_curve[sigma=5,s=0.01]":
            timed(lambda: subsampled_gaussian_rdp_curve(5.0, 0.01), repeats),
        "accountant.tune_noise_plan[T=10,s=0.05]":
            timed(lambda: tune_noise_plan(ApproxDp(1.0, 1e-5), 0.05, 10, sigma_f), repeats),
    }


def data_layers(repeats: int) -> dict:
    src = synth_dataset("logistic_separable", CSV_ROWS, 54, seed=7)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ingest.csv"
        np.savetxt(path, np.column_stack([src.features, src.labels]), fmt="%.17g",
                   delimiter=",")
        del src
        ingest = timed(lambda: load_dataset(path, "csv"), max(1, repeats // 3))
    return {
        f"data.csv_ingest[per {CSV_ROWS} rows,d=54]": ingest,
        "data.synth_dataset[n=500000,d=54]": timed(
            lambda: synth_dataset("logistic_separable", 500_000, 54, seed=8),
            max(1, repeats // 3)),
        "data.synth_dataset[n=30000,d=600,margin=0.01]": timed(
            lambda: synth_dataset("logistic_separable", 30_000, 600, seed=8, margin=0.01),
            repeats),
    }


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) clock ticks of all CPUs since boot, from /proc/stat;
    (0, 0) where there is no such file."""
    try:
        with open("/proc/stat") as fh:
            ticks = [int(t) for t in fh.readline().split()[1:]]
    except OSError:
        return 0, 0
    # user nice system idle iowait irq softirq steal; guest time is in user
    return ticks[7], sum(ticks[:8])


def steal_share(before: tuple[int, int], after: tuple[int, int]) -> float | None:
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total > 0 else None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeats", type=int, default=9)
    parser.add_argument("--json", help="also write the result to this file")
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")

    header = {"nproc": objective.usable_cores(),
              "openblas_num_threads": os.environ["OPENBLAS_NUM_THREADS"],
              "synth_workers": synth_workers(),
              "spread_workers": min(objective.usable_cores(), objective.SPREAD_WORKERS),
              "numpy": np.__version__}
    print(" ".join(f"{k}={v}" for k, v in header.items()))
    layers: dict = {}
    steal = header["steal_share"] = {}
    for group, run in (("objective[n=500000,d=54]",
                        lambda: objective_layers(500_000, 54, args.repeats)),
                       ("spread[workers=1]", lambda: spread_layers(1, args.repeats)),
                       (f"spread[workers={header['spread_workers']}]",
                        lambda: spread_layers(header["spread_workers"], args.repeats)),
                       ("objective[n=30000,d=600]",
                        lambda: objective_layers(30_000, 600, args.repeats)),
                       ("spectral", lambda: spectral_layers(args.repeats)),
                       ("accountant", lambda: accountant_layers(args.repeats)),
                       ("data", lambda: data_layers(args.repeats))):
        before = cpu_ticks()
        for name, stats in run().items():
            layers[name] = stats
            print(f"{name:52s} {stats['median_ms']:10.3f} ms  "
                  f"[{stats['p25_ms']:.3f}, {stats['p75_ms']:.3f}]  x{stats['repeats']}",
                  flush=True)
        steal[group] = steal_share(before, cpu_ticks())
        shown = "n/a" if steal[group] is None else f"{steal[group]:.4f}"
        print(f"  host steal share over {group}: {shown}", flush=True)
    result = {"machine": header, "layers": layers}
    if args.json:
        Path(args.json).write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
