"""Command-line driver: parse a config, run one pipeline, emit CSV artifacts.

Each subcommand returns a `Verdict` whose code is the exit code: 0 when the
assertions pass, 2 when a numeric assertion fails. A configuration or runtime
error exits 1 and writes nothing. CSV output is byte-stable: fixed column
order, 17-significant-digit floats, LF endings.
"""

import argparse
import functools
import logging
import sys
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from . import audit as audit_mod
from . import experiments as exp_mod
from .config import parse_config, require
from .datagen import generate_problem, generate_problems, prior_scale
from .descent import iterate
from .errors import ArtifactError, MirrorkitError
from .samplers import (
    STREAM_TRIAL_BASE,
    ExpFamilySpec,
    RngStream,
    ks_two_sample,
    mirror_mean_check,
    sample_noise,
    sample_weight,
)

log = logging.getLogger("mirrorkit")

EXIT_PASS = 0
EXIT_ERROR = 1
EXIT_ASSERTION = 2

# rows formatted in one pass of `_format_rows`: enough to amortize building
# the format string, few enough that a long file is never held as one string
CSV_CHUNK_ROWS = 1024
_BOOL_TEXT = {True: "true", False: "false"}


def _fmt(value):
    if type(value) is float:
        return format(value, ".17g")
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float) or isinstance(value, np.floating):
        return format(float(value), ".17g")
    return str(value)


def _format_rows(rows):
    """The CSV lines of a nonempty list of rows, each value rendered as
    `_fmt` renders it. When every row has the same length and each column
    one type, one %-format string built from those types renders all rows
    at once; otherwise `_fmt` renders value by value."""
    width = len(rows[0])
    values = list(chain.from_iterable(rows))
    types = [set(map(type, values[j::width])) for j in range(width)]
    if set(map(len, rows)) != {width} or any(len(t) != 1 for t in types):
        return "".join(",".join(map(_fmt, row)) + "\n" for row in rows)
    conversions = []
    for j, (kind,) in enumerate(types):
        if kind is bool or kind is np.bool_:
            values[j::width] = map(_BOOL_TEXT.__getitem__, values[j::width])
            conversions.append("%s")
        elif issubclass(kind, (int, np.integer)):
            conversions.append("%d")
        elif issubclass(kind, (float, np.floating)):
            conversions.append("%.17g")
        else:
            conversions.append("%s")
    return (",".join(conversions) + "\n") * len(rows) % tuple(values)


def write_csv(path, header, rows):
    """Write `header` and the list `rows` to `path` as CSV, CSV_CHUNK_ROWS
    rows at a time."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(rows), CSV_CHUNK_ROWS):
            fh.write(_format_rows(rows[start : start + CSV_CHUNK_ROWS]))
    log.info("wrote %s (%d rows)", path, len(rows))


@dataclass
class Verdict:
    """A subcommand's exit code, the reason it failed, and the CSVs it
    writes, as {file name: (header, rows)}."""

    code: int
    reason: str
    artifacts: dict = field(repr=False)


def _verdict(artifacts, *checks):
    """Exit 2 with the reason of the first failing (holds, reason) check, or pass."""
    for holds, reason in checks:
        if not holds:
            return Verdict(EXIT_ASSERTION, reason, artifacts)
    return Verdict(EXIT_PASS, "", artifacts)


def _within(values, bounds):
    """Every value at most its bound; a NaN on either side fails."""
    return bool(np.all(np.asarray(values) <= np.asarray(bounds)))


def _below(values, bounds):
    """Every value below its bound; a NaN on either side fails."""
    return bool(np.all(np.asarray(values) < np.asarray(bounds)))


def _iterate(cfg, problem):
    """The configured algorithm on `problem`'s data: one run, or a batch."""
    return iterate(cfg.build_potential(), cfg.build_loss(), cfg.build_model(), problem.X, problem.Y,
                   cfg.build_schedule(), cfg.w0_vector(), algorithm=cfg.algorithm)


def _cmd_run(cfg):
    traj = _iterate(cfg, generate_problem(cfg))
    header = ["step"] + [f"w{j}" for j in range(cfg.dim)]
    rows = [[i] + list(w) for i, w in enumerate(traj.path)]
    return _verdict({"trajectory.csv": (header, rows)})


def _cmd_audit(cfg):
    require(cfg, "audit")
    problem = generate_problem(cfg)
    traj = _iterate(cfg, problem)
    terms, global_residual = audit_mod.audit_trajectory(traj, problem.w_true, noises=problem.noises)
    # the columns are the record's fields: step, d_psi_prev, d_psi_next,
    # d_loss_bregman, e_term, loss_noise, local_residual
    columns = [c.tolist() for c in vars(terms).values()]
    tol = cfg.tolerances["identity_rtol"]
    worst = terms.local_residual.max()
    log.info("audit: worst local residual %.3e, global residual %.3e", worst, global_residual)
    return _verdict({"audit.csv": (list(vars(terms)), list(zip(*columns)))},
                    (_within([worst, global_residual], tol), f"conservation-law residuals exceed {tol:.1e}"))


def _cmd_minimax(cfg):
    require(cfg, "minimax")
    problems = generate_problems(cfg, cfg.n_trials)
    traj = _iterate(cfg, problems)
    report = audit_mod.energy_gain(traj, problems.w_true, problems.noises)
    certified = report.premise_certified
    ratios = report.ratio[certified]
    nonfinite = np.count_nonzero(~np.isfinite(ratios))
    slack = cfg.tolerances["minimax_slack"]
    log.info("minimax: %d/%d trials premise-certified", certified.sum(), cfg.n_trials)
    rows = list(zip(range(cfg.n_trials), report.numerator.tolist(), report.denominator.tolist(),
                    report.ratio.tolist(), certified.tolist()))
    return _verdict(
        {"minimax.csv": (["trial", "numerator", "denominator", "ratio", "premise_certified"], rows)},
        (certified.any(), "no trial is premise-certified, so the bound was not tested"),
        (nonfinite == 0, f"{nonfinite} certified trials have a non-finite ratio"),
        (_within(ratios, 1.0 + slack), f"a certified ratio exceeds 1 + {slack:g}"),
    )


def _cmd_risk(cfg):
    report = exp_mod.risk_compare(cfg)
    rows = [[e.name, e.mc_cost, e.ci_low, e.ci_high, e.n_trials] for e in report.entries]
    smd = report.entry("smd")
    # the symmetric rule (own cost exponent) is reported descriptively,
    # never asserted against
    baselines = [e for e in report.entries if e.name not in ("smd", "ssmd")]
    costs = [e.mc_cost for e in baselines]
    # np.argmax takes the first NaN, where max() would depend on the order
    worst = baselines[int(np.argmax(costs))]
    return _verdict(
        {"risk.csv": (["estimator", "mc_cost", "ci_low", "ci_high", "n_trials"], rows)},
        (_within(smd.mc_cost, costs), "smd cost is not minimal among the baselines"),
        (_below(smd.ci_high, worst.ci_low), "smd interval overlaps the worst baseline's"),
    )


def _cmd_implicit(cfg):
    reports = exp_mod.implicit_reg_experiment(cfg)
    gap_tol = cfg.tolerances["gap_squared_l2" if cfg.potential["kind"] == "squared_l2" else "gap_general"]
    kkt_tol = cfg.tolerances["kkt_tol"]
    rows = [[f"case{k}", r.gap, r.feasibility, r.kkt_residual] for k, r in enumerate(reports)]
    return _verdict(
        {"implicit.csv": (["case", "gap", "feasibility", "kkt_residual"], rows)},
        (_within([r.gap for r in reports], gap_tol), f"a gap to the oracle exceeds {gap_tol:g}"),
        (_within([r.kkt_residual for r in reports], kkt_tol), f"an oracle KKT residual exceeds {kkt_tol:g}"),
    )


def _cmd_converge(cfg):
    report = exp_mod.msq_convergence(cfg)
    errors = [mse for _, mse in report.checkpoints]
    nonfinite = [t for t, mse in report.checkpoints if not np.isfinite(mse)]
    log.info("converge: checkpoints %s", report.checkpoints)
    plateau = np.inf
    if report.control is not None:
        log.info("converge: constant-rate control %s", report.control)
        plateau = report.control[-1][1]
    return _verdict(
        {"converge.csv": (["checkpoint_T", "mean_sq_error"], report.checkpoints)},
        (not nonfinite, f"mean-square error is not finite at checkpoints {nonfinite}"),
        (_below(errors[1:], errors[:-1]) and _within(errors[-1], 0.1 * errors[0]),
         "mean-square error did not decay by 10x"),
        (report.control is None or np.isfinite(plateau),
         "the constant-rate control is not finite, so the plateau comparison was not tested"),
        (_below(errors[-1], plateau), "the vanishing-rate error is not below the plateau"),
    )


def _cmd_sample_check(cfg):
    p = cfg.build_potential()
    l = cfg.build_loss()
    n = max(cfg.n_trials, 10_000)
    spec = ExpFamilySpec(p, cfg.w0_vector(), prior_scale(cfg))
    report = mirror_mean_check(spec, n, RngStream(cfg.seed, STREAM_TRIAL_BASE))
    rows = [["mirror_mean", p.kind, l.kind, j, est, target, sigma, abs(est - target) <= sigma]
            for j, (est, target, sigma) in enumerate(zip(report.mc_estimate, report.target,
                                                         report.sigma_bound))]
    noise = np.asarray(sample_noise(l, RngStream(cfg.seed, STREAM_TRIAL_BASE + 1), size=n))
    mean = float(noise.mean())
    bound = 3.0 * float(noise.std(ddof=1)) / np.sqrt(n)
    noise_ok = abs(mean) <= bound
    rows.append(["noise_mean", p.kind, l.kind, 0, mean, 0.0, bound, noise_ok])

    tab = np.asarray(sample_weight(spec, RngStream(cfg.seed, STREAM_TRIAL_BASE + 2),
                                   size=n, force_tabulated=True))[:, 0]
    short = np.asarray(sample_weight(spec, RngStream(cfg.seed, STREAM_TRIAL_BASE + 3), size=n))[:, 0]
    ks_stat, ks_pvalue = ks_two_sample(tab, short)
    ks_ok = bool(ks_pvalue > 0.01)
    rows.append(["ks_tabulated_vs_short_circuit", p.kind, l.kind, 0,
                 ks_stat, 0.0, ks_pvalue, ks_ok])
    header = ["check", "potential", "loss", "coordinate", "mc_estimate", "target", "sigma_bound", "pass"]
    return _verdict({"sample_check.csv": (header, rows)},
                    (report.passed, "the mirror mean misses its target by more than 3 sigma"),
                    (noise_ok, "the noise mean misses 0 by more than 3 sigma"),
                    (ks_ok, "the KS p-value of the tabulated against the direct sampler is at most 0.01"))


_HANDLERS = {
    "run": _cmd_run,
    "audit": _cmd_audit,
    "minimax": _cmd_minimax,
    "risk": _cmd_risk,
    "implicit": _cmd_implicit,
    "converge": _cmd_converge,
    "sample-check": _cmd_sample_check,
}
SUBCOMMANDS = tuple(_HANDLERS)


def dispatch(cfg, subcommand):
    """Run one subcommand, write its CSVs and log why it failed, if it did;
    returns its Verdict."""
    if subcommand not in _HANDLERS:
        raise ValueError(f"unknown subcommand {subcommand!r}")
    verdict = _HANDLERS[subcommand](cfg)
    for name, (header, rows) in verdict.artifacts.items():
        path = Path(cfg.output_dir) / name
        try:
            write_csv(path, header, rows)
        except OSError as e:
            raise ArtifactError(f"cannot write {path}: {e.strerror or e}") from e
    if verdict.code != EXIT_PASS:
        log.error("%s: %s", subcommand, verdict.reason)
    return verdict


@functools.cache
def _parser():
    """The command-line parser, built on first use and shared by every
    `main` call in the process; parsing keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="mirrorkit",
        description="Mirror-descent experiments with step-level identity auditing.",
    )
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True, help="path to a JSON config file")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default=None, help="override the config output directory")
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    return parser


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on a usage error, the code reserved for a failed
        # assertion; --help exits 0
        return EXIT_ERROR if e.code else EXIT_PASS

    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        cfg = parse_config(args.config).with_overrides(seed=args.seed, output_dir=args.out)
        return dispatch(cfg, args.subcommand).code
    except MirrorkitError as e:
        log.error("%s: %s", type(e).__name__, e)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
