"""Test doubles for the noise a run draws.

bounded_noise rejection-samples every gradient and Hessian draw until the
bounded-noise conditions of the descent guarantees hold,

    ||eps|| <= min(c1 eps_g, c2 eps_h^2 / M)   and   ||E|| <= c eps_h,

so tests can exercise those guarantees on real runs.  Each redraw comes
from the run's own stream, as the first draw does, and only the accepted
draw is charged to the run's ledger.
always_failing_line_search forces every sparse-vector sweep to exhaust its
probes and fall back to gamma_bar, drawing no noise.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np
import pytest

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


def always_failing_line_search(query, delta_q, gamma_init, gamma_bar, beta, lam, rng):
    """dp_line_search with every probe rejected: the sweep makes all of its
    i_max probes and returns the fallback gamma_bar."""
    return svt.dp_line_search(lambda gamma: -math.inf, 0.0, gamma_init, gamma_bar,
                              beta, lam, rng)
