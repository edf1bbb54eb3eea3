"""Private second-order solvers and their constant machinery."""

from .constants import (AlgorithmConstants, DerivedConstants, derive_constants,
                        iteration_budget, min_dec_line_search, min_dec_short,
                        min_samples_advisor, probe_count, roots_t1_t2, svt_slack)
from .svt import LineSearchResult, dp_line_search
from .runs import (VARIANTS, Budget, LineSearchBudget, RdpTuneBudget, RunOutcome,
                   ShortStepBudget, StepRecord, Variant, default_phase1_policy,
                   run_line_search, run_minibatch, run_short_step, run_two_phase,
                   run_variant)

__all__ = [
    "AlgorithmConstants", "DerivedConstants", "derive_constants",
    "iteration_budget", "min_dec_line_search", "min_dec_short",
    "min_samples_advisor", "probe_count", "roots_t1_t2", "svt_slack",
    "LineSearchResult", "dp_line_search",
    "VARIANTS", "Budget", "LineSearchBudget", "RdpTuneBudget", "RunOutcome",
    "ShortStepBudget", "StepRecord", "Variant",
    "default_phase1_policy", "run_line_search", "run_minibatch",
    "run_short_step", "run_two_phase", "run_variant",
]
