"""Golden traces: seeded runs of every variant, compared bit for bit.

Each case runs one public solver call (or one small sweep) on a small
synthetic instance and compares the whole outcome with tests/data/
golden_runs.json: status, every trace record, the releases, the ledger,
the plan, t_budget, z_draw, final_loss, w_final and, for two-phase runs,
each phase.
Floats are stored as float.hex, so the comparison is exact.  A case that
raises stores the exception type instead.  The zero-noise cases run inside
tests/noise_doubles.zero_noise.

The instances fit in one span of a feature pass (n <= 2000, d <= 6), so no
span boundary moves a sum.  The bits hold at one BLAS thread, which
tests/conftest.py sets.

To rewrite the file after a change that is meant to alter the traces:

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import csv
import dataclasses
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from dpopt.accountant import (ApproxDp, InfeasiblePlanError, NoisePlan, RdpCurve, ZCdp,
                              account_run, run_log, tally)
from dpopt.harness import ExperimentConfig, emit_report, synth_dataset
from dpopt.harness import run_experiment
from dpopt.mechanisms import SeededRng
from dpopt.objective import (BatchSelector, builtin_nonconvex_logistic,
                             builtin_quartic_saddle)
from dpopt.optimizer import (AlgorithmConstants, LineSearchBudget, RdpTuneBudget,
                             ShortStepBudget, SubsampledDpBudget, run_minibatch, runs)
from noise_doubles import zero_noise

GOLDEN = Path(__file__).parent / "data" / "golden_runs.json"

CONSTS = AlgorithmConstants(eps_g=0.06, eps_h=0.245)
SADDLE_CONSTS = AlgorithmConstants(eps_g=0.05, eps_h=0.3)
BATCH = 500


def _logistic():
    ds = synth_dataset("logistic_separable", 2000, 4, seed=3)
    return ds, builtin_nonconvex_logistic(1e-3, ds.feature_norm_bound, 4)


def _saddle():
    ds = synth_dataset("planted_saddle", 400, 6, seed=5, saddle_signal=1.6,
                       saddle_noise=0.4)
    return ds, builtin_quartic_saddle(ds.feature_norm_bound, 6, weight_box=1.0)


def _logistic_run(name, budget, seed, **kw):
    ds, model = _logistic()
    return runs.run_variant(name, model, ds, np.zeros(ds.d), CONSTS, budget, SeededRng(seed),
                            **kw)


def _saddle_run(name, budget, seed, **kw):
    ds, model = _saddle()
    return runs.run_variant(name, model, ds, np.zeros(ds.d), SADDLE_CONSTS, budget,
                            SeededRng(seed), **kw)


def _minibatch(budget, seed, m=BATCH, **kw):
    return _logistic_run("opt_b", budget, seed, selector=BatchSelector(m), **kw)


def _accounting(budget, seed, accounting, m=BATCH):
    """run_minibatch's accounting keyword, which may only restate the budget's notion."""
    ds, model = _logistic()
    return run_minibatch(model, ds, np.zeros(ds.d), CONSTS, budget, BatchSelector(m),
                         SeededRng(seed), accounting=accounting, lanczos=False)


def _two_phase(budget, seed, name, **kw):
    if name == "2opt_b":
        kw.setdefault("selector", BatchSelector(BATCH))
    return _logistic_run(name, budget, seed, **kw)


def _zero(case):
    """The case run inside the zero-noise double."""
    def run():
        with zero_noise():
            return case()
    return run


def _fallback(t_full: int) -> int:
    return 2


def _cap(t_full: int) -> int:
    return min(t_full, 12)


RDP = RdpTuneBudget(1.0, 1e-5)
# a target that has a plan on a batch of RDP_BATCH rows, so its runs draw Hessians
LOOSE_RDP = RdpTuneBudget(4.0, 1e-5)
RDP_BATCH = 100
SUBSAMPLED = SubsampledDpBudget(0.8, 1e-5)
SMALL_BATCH = 20
PLAN_SADDLE = NoisePlan(10.0, 0.03, 0.03, lambda_svt=0.03)

CASES = {
    # full batch, zCDP
    "opt_zcdp": lambda: _logistic_run("opt", ShortStepBudget(0.5), 0),
    "opt_ls_zcdp": lambda: _logistic_run("opt_ls", LineSearchBudget(0.5), 1),
    "opt_lanczos": lambda: _logistic_run("opt", ShortStepBudget(0.5), 2, lanczos=True),
    "opt_ls_lanczos": lambda: _logistic_run("opt_ls", LineSearchBudget(0.5), 3, lanczos=True),
    "opt_weight_box": lambda: _saddle_run("opt", ShortStepBudget(2.0), 4),
    "opt_zero_noise": _zero(lambda: _logistic_run("opt", ShortStepBudget(0.5), 5)),
    "opt_ls_zero_noise": _zero(lambda: _logistic_run("opt_ls", LineSearchBudget(0.5), 6)),
    # a saddle start: noisy negative-curvature steps, dense and Lanczos
    "opt_noise_plan": lambda: _saddle_run("opt", PLAN_SADDLE, 6, t_policy=_cap),
    "opt_ls_noise_plan": lambda: _saddle_run("opt_ls", PLAN_SADDLE, 7, t_policy=_cap),
    "opt_lanczos_noise_plan": lambda: _saddle_run("opt", PLAN_SADDLE, 8, lanczos=True,
                                                  t_policy=_cap),
    "opt_ls_zero_noise_saddle": _zero(lambda: _saddle_run("opt_ls", LineSearchBudget(0.5), 1,
                                                          t_policy=_cap)),
    # mini-batch: RDP and approx_dp; zCDP on a batch of all n rows only
    "opt_b_rdp": lambda: _minibatch(RDP, 0),
    "opt_b_rdp_small_batch": lambda: _minibatch(RDP, 1, m=SMALL_BATCH),
    "opt_b_rdp_explicit": lambda: _accounting(RDP, 1, "rdp", m=SMALL_BATCH),
    # a calibrated RDP run that finishes, so its ledger is checked against its trace
    "opt_b_rdp_finished": lambda: _minibatch(LOOSE_RDP, 0, m=RDP_BATCH),
    "opt_b_approx_dp": lambda: _accounting(SUBSAMPLED, 2, "approx_dp"),
    "opt_b_approx_dp_default": lambda: _minibatch(SUBSAMPLED, 3),
    "opt_b_noise_plan": lambda: _minibatch(NoisePlan(10.0, 20.0, 20.0, None, 0.25), 5),
    "opt_b_full_batch_zcdp": lambda: _accounting(ShortStepBudget(0.5), 6, "zcdp", m=2000),
    "opt_b_zero_noise": _zero(lambda: _minibatch(LOOSE_RDP, 7, m=RDP_BATCH)),
    "opt_b_lanczos": lambda: _minibatch(LOOSE_RDP, 8, m=RDP_BATCH, lanczos=True),
    "opt_b_infeasible": lambda: _minibatch(RdpTuneBudget(0.05, 1e-5), 9, m=SMALL_BATCH),
    # two-phase
    "2opt": lambda: _two_phase(ShortStepBudget(0.5), 0, "2opt"),
    "2opt_fallback": lambda: _two_phase(ShortStepBudget(0.5), 1, "2opt", t_policy=_fallback),
    "2opt_ls": lambda: _two_phase(LineSearchBudget(0.5), 2, "2opt_ls"),
    "2opt_ls_fallback": lambda: _two_phase(LineSearchBudget(0.5), 3, "2opt_ls",
                                           t_policy=_fallback, lanczos=True),
    "2opt_b_rdp": lambda: _two_phase(RDP, 4, "2opt_b", t_policy=_fallback),
    "2opt_b_rdp_small_batch": lambda: _two_phase(
        RDP, 4, "2opt_b", selector=BatchSelector(SMALL_BATCH), t_policy=_fallback),
    "2opt_b_approx_dp": lambda: _two_phase(SUBSAMPLED, 5, "2opt_b", t_policy=_fallback),
    # an RDP run that falls back and draws a Hessian in phase 2
    "2opt_b_rdp_fallback": lambda: _two_phase(
        RdpTuneBudget(8.0, 1e-5), 10, "2opt_b", selector=BatchSelector(RDP_BATCH),
        t_policy=_fallback),
    "2opt_zero_noise": _zero(lambda: _two_phase(ShortStepBudget(0.5), 7, "2opt",
                                                t_policy=_fallback)),
    "2opt_split": lambda: _two_phase(ShortStepBudget(0.5), 8, "2opt", budget_split=0.5,
                                     t_policy=_fallback),
    # rejected inputs
    "reject_opt_line_search_budget": lambda: _logistic_run("opt", LineSearchBudget(0.5), 0),
    "reject_opt_ls_short_budget": lambda: _logistic_run("opt_ls", ShortStepBudget(0.5), 0),
    "reject_opt_b_line_search_budget": lambda: _minibatch(LineSearchBudget(0.5), 0),
    "reject_opt_b_approx_dp_short_budget": lambda: _accounting(ShortStepBudget(0.5), 0,
                                                               "approx_dp"),
    "reject_opt_b_unknown_accounting": lambda: _accounting(ShortStepBudget(0.5), 0, "pure"),
    # zCDP has no amplification by subsampling
    "opt_b_short_budget": lambda: _minibatch(ShortStepBudget(0.5), 4),
    "2opt_b_short_budget": lambda: _two_phase(ShortStepBudget(0.5), 6, "2opt_b",
                                              t_policy=_fallback),
    "reject_opt_b_plan_fraction": lambda: _minibatch(NoisePlan(10.0, 20.0, 20.0), 0),
    "reject_opt_b_batch_above_n": lambda: _minibatch(RDP, 0, m=2001),
    "reject_opt_ls_plan_without_lambda": lambda: _logistic_run(
        "opt_ls", NoisePlan(10.0, 20.0, 20.0), 0),
    "reject_2opt_noise_plan": lambda: _two_phase(NoisePlan(10.0, 20.0, 20.0), 0, "2opt"),
    "reject_2opt_unknown_variant": lambda: _two_phase(ShortStepBudget(0.5), 0, "newton"),
    "reject_2opt_split": lambda: _two_phase(ShortStepBudget(0.5), 0, "2opt", budget_split=1.0),
    "reject_2opt_b_no_selector": lambda: _two_phase(RDP, 0, "2opt_b", selector=None),
    "reject_2opt_b_line_search_budget": lambda: _two_phase(LineSearchBudget(0.5), 0, "2opt_b"),
    "reject_2opt_ls_short_budget": lambda: _two_phase(ShortStepBudget(0.5), 0, "2opt_ls"),
}


def _sweep(**config) -> list[list[str]]:
    """The sweep's CSV rows without the runtime_s column, header first."""
    report = run_experiment(ExperimentConfig(
        synth="logistic_separable", synth_n=2000, synth_d=4, synth_seed=3,
        variants=("opt", "opt_b", "opt_ls", "2opt", "2opt_b", "2opt_ls"),
        epsilons=(1.0,), seeds=(0,), constants=CONSTS, **config))
    with tempfile.TemporaryDirectory() as tmp:
        path = emit_report(report, "csv", Path(tmp) / "sweep.csv")
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    drop = rows[0].index("runtime_s")
    return [row[:drop] + row[drop + 1:] for row in rows]


# small sweeps over all six names pin how the harness maps a name to a run:
# both mini-batch accounting modes, and a batch of all n rows
SWEEPS = {
    "rdp": lambda: _sweep(batch_size=SMALL_BATCH, minibatch_accounting="rdp"),
    "approx_dp": lambda: _sweep(batch_size=SMALL_BATCH, minibatch_accounting="approx_dp"),
    "full_batch_zero_noise_lanczos": _zero(lambda: _sweep(batch_size=2000, lanczos=True)),
}


def _encode(value):
    """JSON form of an outcome: floats as float.hex, dataclasses by field."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, float):
        return float(value).hex()
    if isinstance(value, np.ndarray):
        return [_encode(float(x)) for x in value]
    if isinstance(value, (tuple, list)):
        return [_encode(x) for x in value]
    if dataclasses.is_dataclass(value):
        return {"type": type(value).__name__,
                **{f.name: _encode(getattr(value, f.name))
                   for f in dataclasses.fields(value)}}
    raise TypeError(f"cannot encode {type(value)!r}")


def run_case(name: str):
    try:
        outcome = CASES[name]()
    except (InfeasiblePlanError, TypeError, ValueError) as err:
        return {"raises": type(err).__name__}
    return _encode(outcome)


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as fh:
        return json.load(fh)


def test_golden_covers_every_case(golden):
    assert sorted(golden["runs"]) == sorted(CASES)
    assert sorted(golden["sweeps"]) == sorted(SWEEPS)


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_matches_golden(golden, name):
    assert run_case(name) == golden["runs"][name]


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_matches_golden(golden, name):
    assert SWEEPS[name]() == golden["sweeps"][name]


def _decode_plan(plan: dict) -> NoisePlan:
    fields = {name: None if value is None else float.fromhex(value)
              for name, value in plan.items() if name != "type"}
    return NoisePlan(**fields)


# the type name of an encoded ledger -> the ledger kind
NOTIONS = {"ZCdp": ZCdp, "RdpCurve": RdpCurve}


def _trace_log(run: dict, line_search: bool):
    """The log of the run's trace: records with a noisy eigenvalue drew a
    Hessian as well as a gradient, and a line-search record logs one sweep."""
    k = len(run["trace"])
    k_h = sum(1 for r in run["trace"] if r["lambda_noisy"] is not None)
    return run_log(_decode_plan(run["plan"]), k - k_h, k_h, k if line_search else 0)


def test_finished_golden_ledgers_are_account_run_of_their_traces(golden):
    # every approx_dp case aborts at the weight box, and an aborted run is
    # also charged its partial iteration; test_runs.py covers both by counting
    # the draws themselves
    finished = {name: run for name, run in golden["runs"].items()
                if "status" in run and run["status"] != "failed_termination"}
    assert {run["accounted_privacy"]["type"] for run in finished.values()} == set(NOTIONS)
    assert any("_ls" in name for name in finished)
    for name, run in finished.items():
        joined = []
        for phase in run["phases"] or [run]:
            log = _trace_log(phase, "_ls" in name)
            notion = NOTIONS[phase["accounted_privacy"]["type"]]
            assert _encode(tally(log)) == phase["releases"], name
            assert _encode(account_run(log, notion)) == phase["accounted_privacy"], name
            joined += log
        notion = NOTIONS[run["accounted_privacy"]["type"]]
        assert _encode(tally(joined)) == run["releases"], name
        assert _encode(account_run(joined, notion)) == run["accounted_privacy"], name


class _Budget(Exception):
    """Carries the budget a case hands to run_variant, before any run."""


def _budget_of(name: str, monkeypatch):
    def stop(*args, **kw):
        raise _Budget(args[5])  # run_variant(name, model, dataset, w0, constants, budget, ...)

    monkeypatch.setattr(runs, "run_variant", stop)
    with pytest.raises(_Budget) as caught:
        CASES[name]()
    return caught.value.args[0]


def _decode_ledger(ledger: dict):
    kind = {"ZCdp": ZCdp, "RdpCurve": RdpCurve, "ApproxDp": ApproxDp}[ledger["type"]]
    return kind(**{key: np.array([float.fromhex(x) for x in value]) if isinstance(value, list)
                   else float.fromhex(value) for key, value in ledger.items() if key != "type"})


def test_every_policy_run_spends_within_its_target(golden, monkeypatch):
    # in the ledger's notion, which is the budget's own: rho against rho,
    # epsilon at delta = 1e-5 (every golden budget's) against epsilon.  A
    # NoisePlan is used as given and claims no target.
    checked = 0
    for name, run in golden["runs"].items():
        if "status" not in run:
            continue  # refused
        budget = _budget_of(name, monkeypatch)
        if isinstance(budget, NoisePlan):
            continue
        ledger, target = _decode_ledger(run["accounted_privacy"]), budget.target
        assert (type(ledger) is ZCdp) == (type(target) is ZCdp), name
        assert ledger.spent(1e-5) <= target.spent(1e-5), name
        if type(ledger) is ApproxDp:
            assert ledger.delta <= target.delta, name
        checked += 1
    assert checked >= 20
    for name, (header, *rows) in golden["sweeps"].items():
        for row in rows:
            cells = dict(zip(header, row))
            if cells["notion"] != "NA":
                assert float(cells["ledger_spent"]) <= float(cells["target"]), (name, row)


def main() -> int:
    data = {"runs": {name: run_case(name) for name in sorted(CASES)},
            "sweeps": {name: SWEEPS[name]() for name in sorted(SWEEPS)}}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(data['runs'])} runs and {len(data['sweeps'])} sweeps to {GOLDEN}",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
