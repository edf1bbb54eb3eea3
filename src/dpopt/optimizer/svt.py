"""Private backtracking line search via the sparse-vector technique.

One above-threshold sweep: a Laplace-noised threshold xi ~ Lap(2 lam Dq) is
drawn once, then probes gamma_init, beta*gamma_init, ... are tested with
fresh query noise nu_i ~ Lap(4 lam Dq) until q(gamma) + nu_i >= xi.  The
sweep makes at most i_max = floor(log_beta(gamma_bar / gamma_init)) + 1
probes and falls back to gamma_bar on exhaustion (a fallback, not an error:
the callers choose gamma_bar so the sufficient-decrease query there is
nonnegative).  The whole sweep is (1/lam)-DP regardless of the number of
probes.  Noise is "standard" or "zero", the exact test mode behind the
harness's zero-noise runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from ..mechanisms import SeededRng, laplace


@dataclass(frozen=True)
class LineSearchResult:
    gamma: float
    probes: int
    exhausted: bool


def dp_line_search(query: Callable[[float], float], delta_q: float,
                   gamma_init: float, gamma_bar: float, beta: float, lam: float,
                   rng: SeededRng, noise: str = "standard") -> LineSearchResult:
    """Run one private backtracking sweep and return the accepted step size.

    noise: "standard" draws the Laplace threshold and per-probe noise;
    "zero" answers queries exactly (test mode: the sweep degenerates to
    deterministic backtracking).
    """
    if not (0.0 < beta < 1.0):
        raise ValueError("beta must lie in (0, 1)")
    if not (0.0 < gamma_bar <= gamma_init):
        raise ValueError("need 0 < gamma_bar <= gamma_init")
    if not (lam > 0):
        raise ValueError("lam must be positive")
    if delta_q < 0:
        raise ValueError("delta_q must be nonnegative")
    if noise not in ("standard", "zero"):
        raise ValueError(f"unknown noise mode {noise!r}")

    i_max = int(math.floor(math.log(gamma_bar / gamma_init) / math.log(beta))) + 1
    threshold = laplace(2.0 * lam * delta_q, rng) if noise == "standard" else 0.0
    gamma = gamma_init
    for i in range(i_max):
        nu = laplace(4.0 * lam * delta_q, rng) if noise == "standard" else 0.0
        if query(gamma) + nu >= threshold:
            return LineSearchResult(gamma, i + 1, False)
        gamma *= beta
    return LineSearchResult(gamma_bar, i_max, True)
