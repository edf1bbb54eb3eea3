"""The benchmark's solver calls are run_variant calls.

perfbench/workloads.py, imported unedited as scripts/bench_fingerprint.py
imports it, calls the four named adapters of dpopt.optimizer.runs with
budgets from its three budget constructors.  Each of its calls must give
the outcome of the run_variant call it stands for, built on Budget itself,
bit for bit, or raise the same error: an adapter or constructor that drops
or ignores an argument the benchmark passes fails here.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from dpopt.accountant import ApproxDp, InfeasiblePlanError, ZCdp, approx_dp_to_zcdp
from dpopt.mechanisms import SeededRng
from dpopt.objective import BatchSelector
from dpopt.optimizer import VARIANTS, Budget, run_variant

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads
    return workloads


def _stands_for(workloads, workload, solve, dataset, model):
    """The run_variant call that workload.run(solve, ...) makes."""
    eps, c_f = solve.epsilon, workloads.COVERTYPE_LOOSE.c_f
    rho = approx_dp_to_zcdp(ApproxDp(eps, workloads.DELTA)).rho
    kw = dict(lanczos=workload.lanczos)
    if solve.variant.endswith("_b"):
        budget = Budget(ApproxDp(eps, workloads.DELTA), c_f, "rdp")
        kw["selector"] = BatchSelector(workload.batch_size)
    else:
        budget = Budget(ZCdp(rho), c_f)
    return run_variant(solve.variant, model, dataset, np.zeros(dataset.d),
                       workloads.COVERTYPE_LOOSE, budget, SeededRng(solve.seed), **kw)


def _summary(call):
    """Status, trace, w_final bytes and ledger bytes of call(), or its error."""
    try:
        out = call()
    except Exception as err:  # the two calls must fail alike, whatever the error
        return type(err), str(err)
    ledger = out.accounted_privacy
    return (out.status, out.trace, out.w_final.tobytes(), type(ledger),
            [np.asarray(getattr(ledger, f.name)).tobytes() for f in dataclasses.fields(ledger)])


def test_each_benchmark_call_is_its_run_variant_call(workloads):
    # at epsilon = 1 the mini-batch plans are infeasible; at 8 every run
    # draws a Hessian, so an ignored lanczos shows in the trace
    small = workloads.Workload("calls", n=2000, d=5, variants=tuple(VARIANTS),
                               epsilons=(1.0, 8.0), seeds_per_cell=1, dominant=("", 0.0),
                               batch_size=200)
    cases = (small, dataclasses.replace(small, epsilons=(8.0,), lanczos=True))
    infeasible = set()
    for workload in cases:
        dataset, model = workload.setup(workload.prepare(0, None))
        for solve in workload.solves(0):
            got = _summary(lambda: workload.run(solve, dataset, model))
            want = _summary(lambda: _stands_for(workloads, workload, solve, dataset, model))
            assert got == want, (workload.lanczos, solve)
            if got[0] is InfeasiblePlanError:
                infeasible.add(solve.variant)
            elif workload.lanczos:
                assert any(r.lambda_noisy is not None for r in got[1]), solve
    assert infeasible == {"opt_b", "2opt_b"}
