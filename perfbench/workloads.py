"""Workload definitions and the pass that runs one workload through the CLI.

A workload is a list of operations; an operation is one `mirrorkit`
subcommand invocation on a config file the benchmark writes itself, derived
from the shipped `configs/` (which stay untouched). A pass runs every
operation of the workload in order, verdicts included, through
`mirrorkit.cli.main` in the calling process.

This module imports nothing from `mirrorkit` at module level, so that a
fresh-interpreter probe can time that import itself.
"""

import hashlib
import json
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import checks

WORKLOADS = ("minimax_trials", "risk_tournament", "long_horizon")

# The three pairings of MINIMAX_CONFIGS in tests/test_acceptance.py.
MINIMAX_PAIRINGS = (
    dict(potential="squared_l2", loss="quadratic", dim=3, T=15,
         schedule={"kind": "constant", "eta": 0.4}, inputs={"kind": "unit"}, w0=0.0),
    dict(potential="neg_entropy", loss="quadratic", dim=3, T=15,
         schedule={"kind": "constant", "eta": 0.05}, inputs={"kind": "unit"}, w0=1.0),
    dict(potential={"kind": "separable_q", "q": 3.0}, loss="logcosh", dim=2, T=15,
         schedule={"kind": "constant", "eta": 0.1}, inputs={"kind": "unit"}, w0=1.0),
)

# Sizes are scaled so that one warm pass takes about a second on a 2-core
# VM: a run then holds enough passes for a steady median.
MINIMAX_TRIALS = 80
RISK_TRIALS = 10_000
CONVERGE_T = 10_000
CONVERGE_RUNS = 100
AUDIT_T = 2_000


@dataclass
class Op:
    """One subcommand invocation and how to check what it wrote."""

    name: str
    subcommand: str
    config: Path
    out: Path
    artifact: str
    steps: int
    check: object  # callable(csv path) -> list of problems

    def argv(self, seed):
        return [self.subcommand, "--config", str(self.config),
                "--seed", str(seed), "--out", str(self.out)]


def _write_config(path, mapping):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(mapping, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path


def _shipped(root, name, **overrides):
    with open(root / "configs" / f"{name}.json", encoding="utf-8") as fh:
        mapping = json.load(fh)
    mapping.update(overrides)
    return mapping


def build_ops(workload, root, work_dir):
    """Write the workload's configs under `work_dir`; return its operations."""
    cfg_dir = work_dir / "configs"
    ops = []
    if workload == "minimax_trials":
        for k, pairing in enumerate(MINIMAX_PAIRINGS):
            name = f"minimax{k}"
            mapping = dict(pairing, n_trials=MINIMAX_TRIALS, output_dir="out")
            ops.append(Op(
                name, "minimax", _write_config(cfg_dir / f"{name}.json", mapping),
                work_dir / name, "minimax.csv", MINIMAX_TRIALS * pairing["T"],
                lambda path: checks.check_minimax(path, MINIMAX_TRIALS),
            ))
    elif workload == "risk_tournament":
        mapping = _shipped(root, "risk_gaussian", n_trials=RISK_TRIALS)
        # without an "estimators" key the CLI runs its five default estimators
        n_est = len(mapping.get("estimators", ())) or 5
        ops.append(Op(
            "risk_gaussian", "risk", _write_config(cfg_dir / "risk_gaussian.json", mapping),
            work_dir / "risk_gaussian", "risk.csv", RISK_TRIALS * mapping["T"] * n_est,
            lambda path: checks.check_risk(path, n_est),
        ))
    elif workload == "long_horizon":
        mapping = _shipped(root, "converge", T=CONVERGE_T, n_trials=CONVERGE_RUNS)
        recursions = 2 if mapping.get("control_eta") is not None else 1
        ops.append(Op(
            "converge", "converge", _write_config(cfg_dir / "converge.json", mapping),
            work_dir / "converge", "converge.csv", CONVERGE_RUNS * CONVERGE_T * recursions,
            checks.check_converge,
        ))
        mapping = _shipped(root, "audit", T=AUDIT_T)
        ops.append(Op(
            "audit", "audit", _write_config(cfg_dir / "audit.json", mapping),
            work_dir / "audit", "audit.csv", AUDIT_T,
            lambda path: checks.check_audit(path, AUDIT_T),
        ))
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return ops


@dataclass
class PassResult:
    """Wall time of one pass and the outcome of each of its operations."""

    wall_s: float
    attempted: int
    failures: dict  # op name -> list of reasons it failed
    digests: dict  # op name -> sha256 of the CSV it wrote
    slowness: float = None  # speed.calibrate() read next to the pass


def run_pass(ops, seed, main):
    """Run every operation once through `main`, timed; then check outputs.

    Only the invocations are timed. An operation fails on an exception, on a
    non-zero exit code, or when its output check finds a problem.
    """
    codes = {}
    t0 = time.perf_counter()
    for op in ops:
        try:
            codes[op.name] = main(op.argv(seed))
        except Exception:  # a crash is a failed operation, not a crashed benchmark
            codes[op.name] = traceback.format_exc(limit=3).strip().splitlines()[-1]
    wall = time.perf_counter() - t0

    failures, digests = {}, {}
    for op in ops:
        if codes[op.name] != 0:
            failures[op.name] = [f"exit {codes[op.name]}"]
            continue
        path = op.out / op.artifact
        try:
            data = path.read_bytes()
        except OSError as e:
            failures[op.name] = [str(e)]
            continue
        digests[op.name] = hashlib.sha256(data).hexdigest()
        problems = op.check(path)
        if problems:
            failures[op.name] = problems
    return PassResult(wall, len(ops), failures, digests)


def check_determinism(reference, result):
    """Mark as failed each operation whose CSV bytes differ from the
    reference pass, which ran at the same seed."""
    for name, digest in result.digests.items():
        if reference.digests.get(name, digest) != digest:
            result.failures.setdefault(name, []).append(
                "CSV bytes differ from an earlier pass at the same seed")
