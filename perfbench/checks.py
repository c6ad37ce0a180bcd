"""Output checks on the CSVs a workload writes.

The checks test properties the paper's claims guarantee, not artifact
bytes, so that a change that alters Monte Carlo values (a new trial stream,
log-domain risk) still passes when it is correct. Each check returns a list
of problems; an empty list means the output is correct. Comparisons are
written so that a NaN fails them.
"""

import csv
import math

MINIMAX_SLACK = 1e-9
IDENTITY_TOL = 1e-8
CONVERGE_DECAY = 0.1

# baselines the `risk` verdict compares the mirror-descent row against:
# the symmetric rule and the posterior-mean row are descriptive only
_NOT_SMD_COST_BASELINES = ("smd", "ssmd", "risk_neutral")


def _rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def check_minimax(path, n_trials):
    """One row per trial, at least one certified, every certified ratio <= 1 + slack."""
    rows = _rows(path)
    problems = []
    if len(rows) != n_trials:
        problems.append(f"{len(rows)} rows, expected {n_trials}")
    certified = [r for r in rows if r["premise_certified"] == "true"]
    if not certified:
        problems.append("no trial is premise-certified")
    worst = [float(r["ratio"]) for r in certified if not float(r["ratio"]) <= 1.0 + MINIMAX_SLACK]
    if worst:
        problems.append(f"{len(worst)} certified ratios exceed 1 + {MINIMAX_SLACK:g} (max {max(worst)!r})")
    return problems


def check_risk(path, n_estimators):
    """Finite intervals on every row, and `smd` cheapest among the SMD-cost baselines."""
    rows = _rows(path)
    problems = []
    if len(rows) != n_estimators:
        problems.append(f"{len(rows)} rows, expected {n_estimators}")
    for r in rows:
        values = [float(r[k]) for k in ("mc_cost", "ci_low", "ci_high")]
        if not all(math.isfinite(v) for v in values):
            problems.append(f"{r['estimator']}: non-finite cost or interval {values}")
    smd = [float(r["mc_cost"]) for r in rows if r["estimator"] == "smd"]
    baselines = {r["estimator"]: float(r["mc_cost"]) for r in rows
                 if r["estimator"] not in _NOT_SMD_COST_BASELINES}
    if len(smd) != 1:
        problems.append(f"{len(smd)} smd rows, expected 1")
    elif not baselines:
        problems.append("no SMD-cost baseline to compare against")
    else:
        beaten = [name for name, cost in baselines.items() if not smd[0] <= cost]
        if beaten:
            problems.append(f"smd cost {smd[0]!r} is not minimal: beaten by {beaten}")
    return problems


def check_converge(path):
    """Checkpoint errors strictly decrease, and the last is at most 0.1 x the first."""
    errors = [float(r["mean_sq_error"]) for r in _rows(path)]
    problems = []
    if len(errors) < 2:
        return [f"{len(errors)} checkpoints, expected at least 2"]
    if not all(b < a for a, b in zip(errors, errors[1:])):
        problems.append(f"checkpoint errors do not decrease: {errors}")
    if not errors[-1] <= CONVERGE_DECAY * errors[0]:
        problems.append(f"last error {errors[-1]!r} is above {CONVERGE_DECAY} x first {errors[0]!r}")
    return problems


def check_audit(path, n_steps):
    """One row per step, and every local residual at most 1e-8."""
    residuals = [float(r["local_residual"]) for r in _rows(path)]
    problems = []
    if len(residuals) != n_steps:
        problems.append(f"{len(residuals)} rows, expected {n_steps}")
    bad = [v for v in residuals if not v <= IDENTITY_TOL]
    if bad:
        problems.append(f"{len(bad)} local residuals exceed {IDENTITY_TOL:g} (max {max(bad)!r})")
    return problems
