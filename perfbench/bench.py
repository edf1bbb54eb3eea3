"""One benchmark run: a workload's public solver calls back to back.

A closed loop with one client: each solve starts when the previous one has
returned.  The run prepares its inputs from the seed, times the set-up
several times and makes one untimed warm-up solve.  Every solve is
checked (checks.py); repeats must be bit-identical to the first run of the
same solve.

Untraced runs time solves from the workload's solve list, cycling, until
the run's seconds have passed and every solve has run once, and print the
end-to-end metrics.  Traced runs make one pass over the list instead, each
solve once untraced and once with every dpopt layer wrapped (tracer.py),
and print the per-layer metrics.  The last line of standard output is the
result as one JSON object.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy
import scipy

import checks
import tracer as tracing
from workloads import DELTA, WORKLOADS

SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 5.0
SETUP_MAX_REPEATS = 15
WORKDIR = Path(__file__).resolve().parent / "_work"


def loaded_blas() -> list[dict]:
    """The thread count each loaded OpenBLAS reports about itself."""
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh
                        if "openblas" in line.lower() and ".so" in line})
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for suffix in ("64_", ""):
            getter = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            if getter is not None:
                getter.restype = ctypes.c_int
                found.append({"library": Path(path).name, "threads": getter()})
                break
    return found


def machine_block(blas_threads: str) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
        blas_loaded = loaded_blas()
    except OSError:
        blas_loaded = []
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "blas": f"{blas['name']} {blas['version']}",
            "blas_threads_env": blas_threads, "blas_loaded": blas_loaded,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


class Bench:
    """One workload's dataset, model and solve list, and the check result of
    every solve seen so far."""

    def __init__(self, workload, dataset, model, solves):
        self.workload, self.dataset, self.model, self.solves = workload, dataset, model, solves
        self.digests: dict[int, str] = {}
        self.problems: dict[int, list[str]] = {}

    def attempt(self, i: int, tracer=None):
        """Solve i once: (wall seconds, outcome or None if it raised, passed)."""
        solve = self.solves[i]
        start = time.perf_counter()
        try:
            with tracer.span(tracing.SOLVE_SPAN) if tracer is not None else nullcontext():
                outcome = self.workload.run(solve, self.dataset, self.model)
        except Exception as err:  # a raising solve is a counted failure, not an abort
            wall = time.perf_counter() - start
            print(f"FAILED {solve}: raised {type(err).__name__}: {err}", file=sys.stderr)
            return wall, None, False
        wall = time.perf_counter() - start
        digest = checks.fingerprint(outcome)
        if i not in self.digests:
            self.digests[i] = digest
            self.problems[i] = checks.outcome_problems(
                outcome, solve.epsilon, DELTA, self.dataset, self.model.lambda_reg)
            problems = self.problems[i]
        elif digest != self.digests[i]:
            problems = ["a repeat of this solve is not bit-identical to its first run"]
        else:
            problems = self.problems[i]
        for problem in problems:
            print(f"FAILED {solve}: {problem}", file=sys.stderr)
        return wall, outcome, not problems

    def timed(self, seconds: float):
        """Solves, cycling through the list, until every solve has run once
        and `seconds` have elapsed.  The loop stops only after a whole round
        -- one solver seed's (variant, epsilon) cells -- so the mix of cells
        stays even however far it gets."""
        per_round = len(self.workload.variants) * len(self.workload.epsilons)
        results = []
        start = time.perf_counter()
        while len(results) < len(self.solves) or time.perf_counter() - start < seconds:
            first = len(results) % len(self.solves)
            results += [self.attempt(i) for i in range(first, first + per_round)]
        return results


def timed_setups(workload, prepared, tracer):
    """Set up once when traced.  Otherwise at least SETUP_MIN_REPEATS times,
    and again while the total stays under SETUP_MIN_SECONDS, up to
    SETUP_MAX_REPEATS: a sub-second ingest then still gets a steady median."""
    times = []
    while True:
        dataset = model = None  # release the previous copy before rebuilding
        start = time.perf_counter()
        with tracing.patched(tracing.patch_targets(tracer)) if tracer else nullcontext():
            dataset, model = workload.setup(prepared)
        times.append(time.perf_counter() - start)
        if tracer or len(times) >= SETUP_MAX_REPEATS or (
                len(times) >= SETUP_MIN_REPEATS and sum(times) >= SETUP_MIN_SECONDS):
            return dataset, model, times


def end_to_end(results, setup_times, n_solves: int) -> dict:
    """results[:n_solves] is one whole pass over the solve list; later
    results repeat it bit for bit, so the outcome metrics use the pass."""
    walls = [wall for wall, _, _ in results]
    outcomes = [o for _, o, _ in results if o is not None]
    first_pass = [o for _, o, _ in results[:n_solves] if o is not None]
    losses = [o.final_loss for o in first_pass]
    return {
        "solve_s_p50": (statistics.median(walls), "s"),
        "iters_per_s": (sum(o.iterations for o in outcomes) / sum(walls), "1/s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "converged_frac": (sum(o.converged for o in first_pass) / n_solves, "frac"),
        "final_loss_mean": (statistics.fmean(losses) if losses else None, "loss"),
        "passed_frac": (sum(ok for _, _, ok in results) / len(results), "frac"),
    }


def main(args, blas_threads: str) -> int:
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    print("machine " + json.dumps(machine_block(blas_threads)))

    WORKDIR.mkdir(exist_ok=True)
    prepared = workload.prepare(args.seed, WORKDIR)
    tracer = tracing.Tracer() if args.trace else None
    try:
        dataset, model, setup_times = timed_setups(workload, prepared, tracer)
    finally:
        if isinstance(prepared, Path):
            prepared.unlink()

    solves = workload.solves(args.seed)
    bench = Bench(workload, dataset, model, solves)
    bench.attempt(0)  # warm-up, untimed; the timed repeat must match it bit for bit
    if tracer:
        # one pass, each solve untraced and then traced, so that drift in the
        # machine's speed hits both sides of trace.overhead_frac alike
        targets = tracing.patch_targets(tracer)
        results, traced = [], []
        for i in range(len(solves)):
            results.append(bench.attempt(i))
            with tracing.patched(targets):
                traced.append(bench.attempt(i, tracer))
    else:
        results = bench.timed(args.seconds)
    walls = [wall for wall, _, _ in results]
    print(f"workload {workload.name} seed {args.seed}: {len(setup_times)} set-ups, "
          f"{len(walls)} untraced solves timed ({len(solves)} per pass), "
          f"solve p50 {statistics.median(walls):.4f} s, max {max(walls):.4f} s")

    if tracer:
        metrics = tracing.layer_metrics(tracer, [o for _, o, _ in traced if o is not None],
                                        statistics.median(walls))
        results += traced
        share_name, floor = workload.dominant
        share = metrics[share_name][0]
        print(f"dominant layer {share_name} = {share:.3f} (predicted >= {floor}): "
              + ("confirmed" if share >= floor else "NOT confirmed"))
    else:
        metrics = end_to_end(results, setup_times, len(solves))

    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value!r:>24} {unit}")
    failed = sum(not ok for _, _, ok in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0
