"""Self-test of the benchmark's tracer.

    python3 -m pytest perfbench/tests
"""

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import bench  # noqa: E402
import tracer as tracing  # noqa: E402
from tracer import Span, Tracer, self_times  # noqa: E402
from workloads import Workload  # noqa: E402


def ticking_clock():
    ticks = iter(range(1000))
    return lambda: float(next(ticks))


def test_self_times_of_a_hand_built_tree():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 8]
    spans = [Span("root", 0.0, 10.0, -1), Span("a", 1.0, 4.0, 0),
             Span("b", 5.0, 9.0, 0), Span("c", 6.0, 8.0, 2)]
    assert self_times(spans) == [3.0, 3.0, 2.0, 2.0]


def test_spans_nest_through_the_call_stack():
    t = Tracer(clock=ticking_clock())
    traced = t.wrap("leaf", lambda: t.innermost())
    with t.span("outer"):
        assert traced() == "leaf"
        traced()
    assert [(s.name, s.start, s.end, s.parent) for s in t.spans] == [
        ("outer", 0.0, 5.0, -1), ("leaf", 1.0, 2.0, 0), ("leaf", 3.0, 4.0, 0)]
    assert self_times(t.spans) == [3.0, 1.0, 1.0]
    assert t.innermost() is None


# small enough for a test, large enough to take every instrumented path:
# SVT line search, RDP tuning, and matrix-free Lanczos above the dense cap
TINY = (
    Workload("tiny_ls", n=2000, d=5, variants=("opt_ls",), epsilons=(1.0,),
             seeds_per_cell=1, dominant=("objective.solve_share", 0.0)),
    Workload("tiny_b", n=20_000, d=5, variants=("opt_b",), epsilons=(1.0,),
             seeds_per_cell=1, batch_size=200, via_csv=True,
             dominant=("accountant.tune_noise_plan.solve_share", 0.0)),
    Workload("tiny_lanczos", n=2000, d=520, variants=("2opt",), epsilons=(1000.0,),
             seeds_per_cell=1, margin=0.01, lanczos=True,
             dominant=("spectral.lanczos_min_eig.solve_share", 0.0)),
)


def traced_pass(tracer, workloads, workdir):
    outcomes = []
    for workload in workloads:
        prepared = workload.prepare(0, workdir)
        dataset, model = workload.setup(prepared)
        for solve in workload.solves(0):
            with tracer.span(tracing.SOLVE_SPAN):
                outcomes.append(workload.run(solve, dataset, model))
    return outcomes


def test_traced_run_restores_every_patched_name(tmp_path):
    t = Tracer()
    targets = tracing.patch_targets(t)
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in targets]
    with tracing.patched(targets):
        assert all(vars(owner)[attr] is new for owner, attr, new in targets)
        outcomes = traced_pass(t, TINY, tmp_path)
    assert all(vars(owner)[attr] is original for owner, attr, original in originals)

    with pytest.raises(ZeroDivisionError), tracing.patched(targets):
        1 / 0
    assert all(vars(owner)[attr] is original for owner, attr, original in originals)

    metrics = tracing.layer_metrics(t, outcomes, untraced_p50=1.0)
    for name in ("objective.erm_value.calls", "objective.erm_hvp.calls",
                 "mechanisms.wigner_matvec.calls", "spectral.lanczos_min_eig.calls",
                 "accountant.tune_noise_plan.calls", "svt.dp_line_search.calls",
                 "data.load_dataset.busy_s", "data.synth_dataset.busy_s",
                 "mechanisms.normals_regenerated", "svt.probes"):
        assert metrics[name][0] > 0, name
    # 520 (520 + 1) / 2 normals regenerated by every matrix-free product
    assert metrics["mechanisms.normals_regenerated"][0] == \
        metrics["mechanisms.wigner_matvec.calls"][0] * 520 * 521 // 2
    assert metrics["spectral.lanczos.matvecs"][0] == metrics["mechanisms.wigner_matvec.calls"][0]


def test_metric_names_match_benchmark_json(tmp_path):
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    t = Tracer()
    with tracing.patched(tracing.patch_targets(t)):
        outcomes = traced_pass(t, TINY[:1], tmp_path)
    layer = tracing.layer_metrics(t, outcomes, untraced_p50=1.0)
    assert {(m["name"], m["unit"]) for m in spec["per_layer"]} == \
        {(name, unit) for name, (_, unit) in layer.items()}

    results = [(1.0, outcome, True) for outcome in outcomes]
    e2e = bench.end_to_end(results, [1.0], len(results))
    assert {(m["name"], m["unit"]) for m in spec["end_to_end"]} == \
        {(name, unit) for name, (_, unit) in e2e.items()}
