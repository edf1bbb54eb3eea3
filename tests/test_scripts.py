"""Smoke tests of the scripts under scripts/, so that a rename in the
package they call cannot break them silently."""

import importlib.util
import math
import sys
import threading
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name, monkeypatch):
    # a script puts src/ on sys.path when it loads; the test keeps the path as it was
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_timings_objective_layers_run(monkeypatch):
    layers = load_script("layer_timings", monkeypatch).objective_layers(2000, 5, repeats=1)
    tag = "n=2000,d=5"
    assert set(layers) == {f"objective.raw_gemv[{tag}]", "objective.link_span[rows=2000]",
                           f"objective.cold_pass[{tag}]", f"objective.erm_hvp[{tag},memo]",
                           f"objective.erm_hessian[{tag},memo]"}
    for stats in layers.values():
        assert stats["repeats"] == 1
        assert math.isfinite(stats["median_ms"]) and stats["median_ms"] >= 0.0


def test_layer_timings_spectral_layers_run(monkeypatch):
    layers = load_script("layer_timings", monkeypatch).spectral_layers(500, 8, repeats=1)
    names = sorted(layers)
    assert names[:2] == ["mechanisms.wigner_draw[d=8]", "mechanisms.wigner_matvec[d=8]"]
    assert len(names) == 3 and names[2].startswith("spectral.lanczos_check[n=500,d=8,")
    for stats in layers.values():
        assert stats["repeats"] == 1
        assert math.isfinite(stats["median_ms"]) and stats["median_ms"] >= 0.0


@pytest.mark.parametrize("cap", [512, 4])
def test_layer_timings_spread_layers_run(cap, monkeypatch):
    from dpopt import objective
    monkeypatch.setattr(objective, "span_rows", lambda d: 64)  # 32 spans: the passes spread
    monkeypatch.setattr(objective, "DENSE_HESSIAN_CAP", cap)
    cores = objective.usable_cores
    starts = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda t: (starts.append(t), start(t)))
    layers = load_script("layer_timings", monkeypatch).spread_layers(2048, 5, 2, repeats=1)
    tag = "n=2048,d=5,workers=2"
    # above the dense cap, as at d = 600, the group has no Hessian
    assert set(layers) == {f"objective.read_floor[{tag}]", f"objective.erm_gradient[{tag}]",
                           f"objective.erm_hvp[{tag},memo]"} | (
        {f"objective.erm_hessian[{tag},memo]"} if cap >= 5 else set())
    assert starts  # two workers: the second half ran on a thread of its own
    assert objective.usable_cores is cores
    for stats in layers.values():
        assert stats["repeats"] == 1
        assert math.isfinite(stats["median_ms"]) and stats["median_ms"] >= 0.0


def test_layer_timings_gil_probe_runs(monkeypatch):
    script = load_script("layer_timings", monkeypatch)
    monkeypatch.setattr(script, "PROBE_CALLS", 3)
    layers = script.gil_probe(192, 6, repeats=1)
    assert set(layers) == {"objective.gil_probe[np.matmul,192x6,threads=2]",
                           "objective.gil_probe[np.dot,192x6,threads=2]"}
    for stats in layers.values():
        assert stats["repeats"] == 1
        assert math.isfinite(stats["median_ms"]) and stats["median_ms"] >= 0.0
        assert stats["scaling"] > 0.0


def test_layer_timings_accountant_layers_run(monkeypatch):
    layers = load_script("layer_timings", monkeypatch).accountant_layers(repeats=1)
    assert set(layers) == {"accountant.rdp_curve[sigma=5,s=0.01]",
                           "accountant.tune_noise_plan[T=10,s=0.05]"}
    for stats in layers.values():
        assert stats["repeats"] == 1
        assert math.isfinite(stats["median_ms"]) and stats["median_ms"] >= 0.0


def test_privacy_mutants_each_match_once_in_src(monkeypatch):
    mutants = load_script("privacy_mutants", monkeypatch)
    assert len(mutants.MUTANTS) >= 10
    for name, (original, replacement, _) in mutants.MUTANTS.items():
        assert len(mutants.occurrences(original)) == 1, name
        assert replacement != original, name
