"""Span tracer for the benchmark's traced run.

The traced run wraps the public functions of each dpopt module at the names
its callers look them up by, so no source change is needed.
`dpopt.optimizer.runs` imports `erm_*`, `gaussian_vector`,
`tune_noise_plan`, `account_run`, `dp_line_search` and the eigen routines by
name, so those are patched in `runs` itself; patching only the defining
module would miss every call.  The accountant reaches
`subsampled_gaussian_rdp_curve` through its own globals, `WignerOperator`
is patched on the class, and the data loaders on `dpopt.harness`, which is
where the benchmark calls them.

Each call becomes a span (name, start, end, parent).  Spans nest through the
call stack -- the SVT query closures put their `erm_value` spans under
`svt.dp_line_search`, the Lanczos `hvp` closure puts `erm_hvp` and matvec
spans under `spectral.lanczos_min_eig` -- so a span's self time is its
duration minus that of its direct children.  Counts are taken at the same
boundaries from arguments and return values.
"""

from __future__ import annotations

import functools
import inspect
import math
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in Tracer.spans, -1 for a root


class Tracer:
    """In-memory spans and counters of one traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append(Span(name, self.clock(), math.nan,
                               self._open[-1] if self._open else -1))
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx].end = self.clock()

    def innermost(self) -> str | None:
        return self.spans[self._open[-1]].name if self._open else None

    def wrap(self, name: str, fn, after=None):
        """fn recorded as span `name`; after(tracer, result, bound_args)
        takes counts from each call."""
        signature = inspect.signature(fn) if after is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                after(self, result, bound.arguments)
            return result

        return traced


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the durations of its direct children
    (children of one span never overlap: the program is single-threaded)."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, covered)]


def has_ancestor(spans: list[Span], idx: int, name: str) -> bool:
    parent = spans[idx].parent
    while parent >= 0:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


# ---------------------------------------------------------------------------
# what the traced run patches

# Passes over the selected (m, d) feature block each evaluator makes as
# written: value X@w; gradient X@w, X.T@c; Hessian X@w, X*curv, X.T@(.);
# HVP X@w, X@v, X.T@(.).  A mini-batch call also gathers its rows once.
_FEATURE_PASSES = {"erm_value": 1, "erm_gradient": 2, "erm_hessian": 3, "erm_hvp": 3}


def _count_rows(fn_name: str):
    def after(tracer: Tracer, result, args) -> None:
        dataset, indices = args["dataset"], args["indices"]
        rows = dataset.n if indices is None else len(indices)
        passes = _FEATURE_PASSES[fn_name] + (indices is not None)
        tracer.counts["objective.rows_scanned"] += rows
        tracer.counts["objective.bytes_computed"] += rows * dataset.d * 8 * passes
    return after


def _count_matvecs(tracer: Tracer, result, args) -> None:
    tracer.counts["spectral.lanczos.matvecs"] += result.matvec_count


def _count_probes(tracer: Tracer, result, args) -> None:
    tracer.counts["svt.probes"] += result.probes
    tracer.counts["svt.accepted"] += not result.exhausted


def _count_rows_loaded(tracer: Tracer, result, args) -> None:
    tracer.counts["data.rows_loaded"] += result.n


def _counting_normals(tracer: Tracer, fn):
    """SeededRng.standard_normal, counting the normals drawn inside a
    matrix-free Wigner matvec (the ones regenerated on every product)."""
    @functools.wraps(fn)
    def counted(rng, size=None):
        if tracer.innermost() == "mechanisms.wigner_matvec":
            tracer.counts["mechanisms.normals_regenerated"] += (
                size if type(size) is int else 1 if size is None else int(np.prod(size)))
        return fn(rng, size)
    return counted


def patch_targets(tracer: Tracer) -> list[tuple[object, str, object]]:
    """(owner, attribute, replacement) for every name the traced run patches."""
    from dpopt import accountant, harness, mechanisms
    from dpopt.optimizer import runs

    targets = [(runs, name, tracer.wrap(f"objective.{name}", getattr(runs, name),
                                        _count_rows(name)))
               for name in _FEATURE_PASSES]
    wigner = mechanisms.WignerOperator
    targets += [
        (runs, "gaussian_vector",
         tracer.wrap("mechanisms.gaussian_vector", runs.gaussian_vector)),
        (wigner, "__init__", tracer.wrap("mechanisms.wigner_init", wigner.__init__)),
        (wigner, "matvec", tracer.wrap("mechanisms.wigner_matvec", wigner.matvec)),
        (mechanisms.SeededRng, "standard_normal",
         _counting_normals(tracer, mechanisms.SeededRng.standard_normal)),
        (runs, "min_eigenpair_dense",
         tracer.wrap("spectral.min_eigenpair_dense", runs.min_eigenpair_dense)),
        (runs, "lanczos_min_eig",
         tracer.wrap("spectral.lanczos_min_eig", runs.lanczos_min_eig, _count_matvecs)),
        (runs, "tune_noise_plan",
         tracer.wrap("accountant.tune_noise_plan", runs.tune_noise_plan)),
        (runs, "account_run", tracer.wrap("accountant.account_run", runs.account_run)),
        (accountant, "subsampled_gaussian_rdp_curve",
         tracer.wrap("accountant.rdp_curve", accountant.subsampled_gaussian_rdp_curve)),
        (runs, "dp_line_search",
         tracer.wrap("svt.dp_line_search", runs.dp_line_search, _count_probes)),
        (harness, "load_dataset",
         tracer.wrap("data.load_dataset", harness.load_dataset, _count_rows_loaded)),
        (harness, "synth_dataset",
         tracer.wrap("data.synth_dataset", harness.synth_dataset)),
    ]
    return targets


@contextmanager
def patched(targets):
    """Install the replacements; restore every original on exit."""
    saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in targets]
    try:
        for owner, attr, replacement in targets:
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics

SOLVE_SPAN = "runs.solve"

# the timing fields reported for each traced name
_TIMED = {
    "objective.erm_value": ("calls", "busy_s"),
    "objective.erm_gradient": ("calls", "busy_s"),
    "objective.erm_hessian": ("calls", "busy_s"),
    "objective.erm_hvp": ("calls", "busy_s"),
    "mechanisms.gaussian_vector": ("calls", "busy_s"),
    "mechanisms.wigner_init": ("busy_s",),
    "mechanisms.wigner_matvec": ("calls", "busy_s"),
    "spectral.min_eigenpair_dense": ("calls", "busy_s"),
    "spectral.lanczos_min_eig": ("calls", "busy_s", "self_s"),
    "accountant.tune_noise_plan": ("calls", "busy_s"),
    "accountant.rdp_curve": ("calls", "busy_s"),
    "accountant.account_run": ("busy_s",),
    "svt.dp_line_search": ("calls", "busy_s", "self_s"),
    "data.load_dataset": ("busy_s",),
    "data.synth_dataset": ("busy_s",),
    SOLVE_SPAN: ("calls", "busy_s"),
}


def layer_metrics(tracer: Tracer, outcomes, untraced_p50: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass: {name: (value, unit)}.

    outcomes are the RunOutcomes of the traced solves; untraced_p50 is the
    median time of the same solves run untraced.
    """
    spans = tracer.spans
    own = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    busy: dict[str, float] = defaultdict(float)
    selfs: dict[str, float] = defaultdict(float)
    for s, own_s in zip(spans, own):
        calls[s.name] += 1
        busy[s.name] += s.end - s.start
        selfs[s.name] += own_s

    out: dict[str, tuple[float, str]] = {}
    for name, fields in _TIMED.items():
        for field in fields:
            value = {"calls": calls, "busy_s": busy, "self_s": selfs}[field][name]
            out[f"{name}.{field}"] = (value, "count" if field == "calls" else "s")

    counts = tracer.counts
    solve_s = busy[SOLVE_SPAN]
    tunes = calls["accountant.tune_noise_plan"]
    plan_curves = sum(1 for i, s in enumerate(spans) if s.name == "accountant.rdp_curve"
                      and has_ancestor(spans, i, "accountant.tune_noise_plan"))
    sweeps = calls["svt.dp_line_search"]
    load_s = busy["data.load_dataset"]
    objective_s = sum(busy[f"objective.{name}"] for name in _FEATURE_PASSES)
    traced_p50 = statistics.median(s.end - s.start for s in spans if s.name == SOLVE_SPAN)
    out.update({
        "objective.rows_scanned": (counts["objective.rows_scanned"], "count"),
        "objective.bytes_computed": (counts["objective.bytes_computed"], "B"),
        "objective.solve_share": (objective_s / solve_s, "frac"),
        "mechanisms.normals_regenerated": (counts["mechanisms.normals_regenerated"], "count"),
        "spectral.lanczos.matvecs": (counts["spectral.lanczos.matvecs"], "count"),
        "spectral.lanczos_min_eig.solve_share":
            (busy["spectral.lanczos_min_eig"] / solve_s, "frac"),
        "accountant.curves_per_plan": (plan_curves / tunes if tunes else 0.0, "ratio"),
        "accountant.tune_noise_plan.solve_share":
            (busy["accountant.tune_noise_plan"] / solve_s, "frac"),
        "svt.probes": (counts["svt.probes"], "count"),
        "svt.accepted_frac": (counts["svt.accepted"] / sweeps if sweeps else 0.0, "frac"),
        "runs.self_s": (selfs[SOLVE_SPAN], "s"),
        "runs.iterations": (sum(o.iterations for o in outcomes), "count"),
        "runs.hess_evals": (sum(o.hess_evals for o in outcomes), "count"),
        "data.rows_per_s": (counts["data.rows_loaded"] / load_s if load_s else 0.0, "1/s"),
        "trace.overhead_frac": (traced_p50 / untraced_p50 - 1.0, "frac"),
    })
    return out
