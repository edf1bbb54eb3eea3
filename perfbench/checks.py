"""Correctness checks applied to every solve the benchmark times.

A solve fails when it raises, ends `failed_termination`, or breaks one of:
its ledger stays within the target in the run's own notion (two-phase
ledgers composed), `w_final` and `final_loss` are finite and the loss equals
an independent recomputation, and the status is a documented one.  Repeats
of a solve must reproduce its fingerprint bit for bit.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from dpopt.accountant import (ApproxDp, RdpCurve, ZCdp, approx_dp_to_zcdp,
                              rdp_to_approx_dp)

STATUSES = ("converged_2s", "budget_exhausted", "failed_termination")

# Ledger comparisons allow this relative rounding: a run that draws a
# Hessian on every one of its T iterations spends its target exactly, and
# the closed-form sums may land one ulp above it.
LEDGER_RTOL = 1e-12
LOSS_RTOL = 1e-9


def exact_loss(dataset, lambda_reg: float, w: np.ndarray) -> float:
    """Nonconvex-logistic empirical risk, written out independently of
    dpopt.objective: mean softplus(-y <x, w>) + lam sum w^2 / (1 + w^2)."""
    margins = dataset.labels * (dataset.features @ w)
    w2 = w * w
    return float(np.mean(np.logaddexp(0.0, -margins))) + lambda_reg * float(np.sum(w2 / (1 + w2)))


def ledger_problems(ledger, epsilon: float, delta: float) -> list[str]:
    if isinstance(ledger, ZCdp):
        rho = approx_dp_to_zcdp(ApproxDp(epsilon, delta)).rho
        if ledger.rho > rho * (1 + LEDGER_RTOL):
            return [f"zCDP ledger rho {ledger.rho!r} exceeds the target {rho!r}"]
        return []
    if isinstance(ledger, RdpCurve):
        spent = rdp_to_approx_dp(ledger, delta)[0].epsilon
        if spent > epsilon * (1 + LEDGER_RTOL):
            return [f"RDP ledger converts to eps {spent!r} > target {epsilon!r} at delta {delta}"]
        return []
    return [f"unknown ledger type {type(ledger).__name__}"]


def outcome_problems(outcome, epsilon: float, delta: float, dataset, lambda_reg: float) -> list[str]:
    problems = []
    if outcome.status not in STATUSES:
        problems.append(f"undocumented status {outcome.status!r}")
    elif outcome.status == "failed_termination":
        problems.append(f"failed_termination: {'; '.join(outcome.warnings)}")
    if not np.all(np.isfinite(outcome.w_final)):
        problems.append("w_final is not finite")
    elif not math.isfinite(outcome.final_loss):
        problems.append(f"final_loss {outcome.final_loss!r} is not finite")
    else:
        exact = exact_loss(dataset, lambda_reg, outcome.w_final)
        if not math.isclose(outcome.final_loss, exact, rel_tol=LOSS_RTOL):
            problems.append(f"final_loss {outcome.final_loss!r} != recomputed {exact!r}")
    return problems + ledger_problems(outcome.accounted_privacy, epsilon, delta)


def fingerprint(outcome) -> str:
    """Digest of everything a solve returns; equal digests mean bit-identical
    traces, iterates and ledgers."""
    h = hashlib.sha256()
    ledger = outcome.accounted_privacy
    ledger_bytes = (ledger.epsilons.tobytes() if isinstance(ledger, RdpCurve)
                    else repr(ledger).encode())
    for part in (outcome.status, outcome.trace, outcome.final_loss, outcome.t_budget,
                 outcome.z_draw, outcome.warnings, outcome.plan):
        h.update(repr(part).encode())
    h.update(np.ascontiguousarray(outcome.w_final).tobytes())
    h.update(ledger_bytes)
    return h.hexdigest()
