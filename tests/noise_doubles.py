"""Test doubles for the noise a run draws.

bounded_noise rejection-samples every gradient and Hessian draw until the
bounded-noise conditions of the descent guarantees hold,

    ||eps|| <= min(c1 eps_g, c2 eps_h^2 / M)   and   ||E|| <= c eps_h,

so tests can exercise those guarantees on real runs.  Each redraw comes
from the run's own stream, as the first draw does, and only the accepted
draw is charged to the run's ledger.
zero_noise sets every noise scale of a run to 0 (the initial loss, the
gradient and Hessian draws and each sweep's sensitivity), so no noise is
drawn; its runs log their releases as noisy runs do.
always_failing_line_search forces every sparse-vector sweep to exhaust its
probes and fall back to gamma_bar, drawing no noise.
recorded_scales records the scale of every draw a run makes, so tests can
check each against its sensitivity and the plan without the golden traces.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np
import pytest

from dpopt import mechanisms
from dpopt.mechanisms import WignerOperator
from dpopt.optimizer import runs, svt

MAX_REJECTION_TRIES = 10_000


@contextmanager
def bounded_noise(model, constants):
    """Within the block, runs draw only noise inside the bounded-noise
    conditions for model and constants."""
    grad_bound = min(constants.c1 * constants.eps_g,
                     constants.c2 / model.M * constants.eps_h ** 2)
    hess_bound = constants.c * constants.eps_h

    class BoundedLedger(runs._Ledger):
        # the ledger's draw is the first try, and a rejected draw is
        # redrawn uncharged: the ledger keeps the draws the run uses
        def gradient_noise(self, d):
            eps = super().gradient_noise(d)
            for _ in range(MAX_REJECTION_TRIES):
                if np.linalg.norm(eps) <= grad_bound:
                    return eps
                eps = runs.gaussian_vector(d, self.grad_scale, self.rng)
            raise RuntimeError("bounded-noise rejection did not accept a gradient "
                               "draw; lower sigma_g relative to the bound")

        def hessian_noise(self, d):
            op = super().hessian_noise(d)
            for _ in range(MAX_REJECTION_TRIES):
                if np.linalg.norm(op.dense, 2) <= hess_bound:
                    return op
                op = runs.WignerOperator(d, self.hess_scale, self.rng.child())
            raise RuntimeError("bounded-noise rejection did not accept a Hessian "
                               "draw; lower sigma_h relative to the bound")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(runs, "_Ledger", BoundedLedger)
        yield


@contextmanager
def zero_noise():
    """Within the block, runs draw no noise: each draw is at scale 0, which
    the mechanisms answer with zeros, leaving the run's stream where it is."""

    class ZeroLedger(runs._Ledger):
        def __init__(self, releases, plan, sens, rng):
            super().__init__(releases, plan, sens, rng)
            self.grad_scale = self.hess_scale = 0.0

        def sweep(self, query, sensitivity, gamma_init, gamma_bar, beta):
            return super().sweep(query, 0.0, gamma_init, gamma_bar, beta)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(runs, "_Ledger", ZeroLedger)
        mp.setattr(runs, "gaussian", lambda scale, rng: mechanisms.gaussian(0.0, rng))
        yield


def always_failing_line_search(query, delta_q, gamma_init, gamma_bar, beta, lam, rng):
    """dp_line_search with every probe rejected: the sweep makes all of its
    i_max probes and returns the fallback gamma_bar."""
    return svt.dp_line_search(lambda gamma: -math.inf, 0.0, gamma_init, gamma_bar,
                              beta, lam, rng)


@contextmanager
def recorded_scales():
    """Within the block, record every draw's scale, one dict per run (each
    phase of a two-phase run is one) in draw order: the initial loss's
    scale "f0", the "gradient" and "wigner" scales, and each sweep's
    (sensitivity, gamma_init, lam) as "sweep"."""
    phases = []
    f0, vector, wigner, search = (runs.gaussian, runs.gaussian_vector,
                                  WignerOperator.__init__, runs.dp_line_search)

    def recorded_f0(scale, rng):
        # the initial loss is each run's first draw
        phases.append({"f0": scale, "gradient": [], "wigner": [], "sweep": []})
        return f0(scale, rng)

    def recorded_vector(d, scale, rng):
        phases[-1]["gradient"].append(scale)
        return vector(d, scale, rng)

    def recorded_wigner(op, d, scale, source):
        phases[-1]["wigner"].append(scale)
        wigner(op, d, scale, source)

    def recorded_search(query, delta_q, gamma_init, gamma_bar, beta, lam, rng):
        phases[-1]["sweep"].append((delta_q, gamma_init, lam))
        return search(query, delta_q, gamma_init, gamma_bar, beta, lam, rng)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(runs, "gaussian", recorded_f0)
        mp.setattr(runs, "gaussian_vector", recorded_vector)
        mp.setattr(WignerOperator, "__init__", recorded_wigner)
        mp.setattr(runs, "dp_line_search", recorded_search)
        yield phases

