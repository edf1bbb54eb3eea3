"""Mutation gate for the privacy arithmetic: which one-line slips does tier-1 miss?

Each mutant below is an exact text substitution in src/ whose original text
occurs exactly once there (tests/test_scripts.py checks that, so the list
cannot go stale).  The script copies src/, tests/, scripts/ and
pyproject.toml to a temporary directory, checks that the unmutated copy
passes, then applies one mutant at a time and runs tier-1 on it with
tests/test_golden.py ignored, since a change that regenerates the goldens
would pin a slip rather than catch it, and with the known-red acceptance
criterion 2 deselected.  It prints each mutant's fate and lists the
survivors; the exit status is the number of survivors.

    python scripts/privacy_mutants.py

One mutant takes up to one tier-1 run, about 15 s on a 2-vCPU machine.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# name -> (original text in src/, replacement, what the slip does)
MUTANTS = {
    "M1": ("2.0 / n * gamma_init", "1.0 / n * gamma_init",
           "halves the line-search query sensitivity"),
    "M2": ("Sensitivities(model.B / m,", "Sensitivities(0.5 * model.B / m,",
           "halves the loss-value sensitivity"),
    "M3": ("2.0 * model.B_g / m,", "model.B_g / m,",
           "halves the gradient sensitivity"),
    "M4": ("math.sqrt(4.0 * rho * math.log(1.0 / delta))",
           "math.sqrt(2.0 * rho * math.log(1.0 / delta))",
           "understates the zCDP-to-DP conversion"),
    "M5": ("2.0 * model.B_H * math.sqrt(d) / m", "model.B_H * math.sqrt(d) / m",
           "halves the Hessian sensitivity"),
    "M6": ("self.log = tuple(tally(self.log + self._curvature))", "None",
           "logs no Wigner draw"),
    "M7": ("beta, self.plan.lambda_svt, self.rng)", "beta, 0.5 * self.plan.lambda_svt, self.rng)",
           "halves the lambda of every sweep, still logged at the plan's"),
    "M8": ("sigma = combined_sigma(params[1], params[0])", "sigma = params[1]",
           "charges no Hessian on the RDP curve"),
    "M9": ("sens_batch = sensitivities(model, m, d)", "sens_batch = sensitivities(model, n, d)",
           "scales mini-batch noise to the full-batch sensitivity"),
    "M10": ("z = gaussian(noise_factor * ", "z = gaussian(0.5 * noise_factor * ",
            "halves the initial-loss noise"),
    "M11": ("s), 0, t_budget,\n            t_budget * self.sweeps)",
            "s), 0, t_budget // 2,\n            t_budget // 2 * self.sweeps)",
            "plans zCDP runs for half the iterations"),
    "M12": ("t_budget * self.sweeps)", "0)",
            "plans line searches with no sparse-vector share"),
    "M13": ("(8.0 * s * math.sqrt(2.0 * t_budget", "(4.0 * s * math.sqrt(2.0 * t_budget",
            "doubles the advanced-composition step eps0"),
    "M14": ("laplace(4.0 * lam * delta_q, rng)", "laplace(2.0 * lam * delta_q, rng)",
            "halves the sweep's probe noise"),
    "M15": ("tally(phase1.releases + phase2.releases)", "tally(phase2.releases)",
            "drops phase 1's releases from the joined two-phase log"),
    "M16": ("None, s), 0, t_budget))",
            "None, s), t_budget - t_budget // 2, t_budget // 2))",
            "tunes for a run with a Wigner draw on half its iterations"),
    "M17": ("math.log(2.0) + _J * log_s", "_J * log_s",
            "drops the factor 2 of the j >= 3 terms of the subsampled bound"),
    "M18": ("if j <= a else -math.inf", "if j <= a else 0.0",
            "keeps terms j > alpha in the subsampled bound"),
    "M19": ("return hi", "return lo",
            "calibrates RDP plans to the infeasible end of the bisection"),
    "M20": ("calibrate(ZCdp, (1.0 - self.c_f) * self.rho,", "calibrate(ZCdp, self.rho,",
            "plans zCDP runs on the whole rho, leaving nothing for f0's share"),
    "M21": ("releases=tuple(tally(phase1.releases + r.releases))", "releases=r.releases",
            "joins phase 2's records without phase 1's releases"),
    "M22": ('if subsampled and budget.accounting == "zcdp":', "if False:",
            "runs a zCDP budget on mini-batches, which zCDP cannot amplify"),
}

PYTEST = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
          "--ignore=tests/test_golden.py",
          "--deselect=tests/test_acceptance.py::test_criterion_2_subsampling_amplification",
          # it counts each original text in the copy's src/, which the
          # mutant under test has just replaced; main() checks it up front
          "--deselect=tests/test_scripts.py::test_privacy_mutants_each_match_once_in_src"]


def occurrences(original: str, src: Path = ROOT / "src") -> list[Path]:
    """The files under src that hold original, once per occurrence."""
    return [path for path in sorted(src.rglob("*.py"))
            for _ in range(path.read_text().count(original))]


def tier1_passes(copy: Path) -> bool:
    # no bytecode cache: a mutant of the same length must not reuse a stale one
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run(PYTEST, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                         stderr=subprocess.DEVNULL)
    return run.returncode == 0


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="privacy-mutants-") as tmp:
        copy = Path(tmp)
        for name in ("src", "tests", "scripts"):
            shutil.copytree(ROOT / name, copy / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        if not tier1_passes(copy):
            print("the unmutated copy fails tier-1; no mutant can be judged")
            return len(MUTANTS)
        survivors = []
        for name, (original, replacement, what) in MUTANTS.items():
            paths = occurrences(original, copy / "src")
            if len(paths) != 1:
                raise SystemExit(f"{name}: {original!r} occurs {len(paths)} times in src/")
            text = paths[0].read_text()
            paths[0].write_text(text.replace(original, replacement))
            try:
                killed = not tier1_passes(copy)
            finally:
                paths[0].write_text(text)
            print(f"{name:4} {'killed' if killed else 'SURVIVED'}  {what}", flush=True)
            if not killed:
                survivors.append(name)
        print("survivors:", ", ".join(survivors) or "none")
        return len(survivors)


if __name__ == "__main__":
    raise SystemExit(main())
