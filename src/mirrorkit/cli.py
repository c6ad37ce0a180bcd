"""Command-line driver: parse a config, run one pipeline, emit CSV artifacts.

Exit codes: 0 when the subcommand's assertions pass, 2 when a numeric
assertion fails, 1 on configuration or runtime errors. CSV output is
byte-stable: fixed column order, 17-significant-digit floats, LF endings.
"""

import argparse
import logging
import sys
import warnings
from pathlib import Path

import numpy as np

from . import audit as audit_mod
from . import experiments as exp_mod
from .config import estimator_name, parse_config
from .datagen import generate_problem, generate_problems, prior_scale
from .descent import iterate
from .errors import ConfigError, MirrorkitError, StabilityWarning
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


def write_csv(path, header, rows):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(_fmt, row)) + "\n")
    log.info("wrote %s (%d rows)", path, len(rows))


def _out(cfg, name):
    return Path(cfg.output_dir) / name


def _iterate(cfg, problem, check_margin=True):
    """The configured algorithm on `problem`'s data: one run, or a batch."""
    return iterate(cfg.build_potential(), cfg.build_loss(), cfg.build_model(), problem.X, problem.Y,
                   cfg.build_schedule(), cfg.w0_vector(), algorithm=cfg.algorithm, check_margin=check_margin)


def _cmd_run(cfg):
    traj = _iterate(cfg, generate_problem(cfg))
    header = ["step"] + [f"w{j}" for j in range(cfg.dim)]
    rows = [[i] + list(w) for i, w in enumerate(traj.path)]
    write_csv(_out(cfg, "trajectory.csv"), header, rows)
    return EXIT_PASS


def _require_gradient_form(cfg, what):
    # the per-step balance is an identity of the gradient-form update; the
    # symmetric rule follows a different recursion and would flag falsely
    if cfg.algorithm == "ssmd":
        raise ConfigError(f"{what} applies to the smd recursion, not ssmd")


def _cmd_audit(cfg):
    _require_gradient_form(cfg, "the conservation-law audit")
    if cfg.T < 1:
        # with no step audited the residual check would pass vacuously
        raise ConfigError(f"the conservation-law audit needs at least one step, got T={cfg.T}")
    problem = generate_problem(cfg)
    traj = _iterate(cfg, problem)
    terms, global_residual = audit_mod.audit_trajectory(traj, problem.w_true, noises=problem.noises)
    # the columns are the record's fields: step, d_psi_prev, d_psi_next,
    # d_loss_bregman, e_term, loss_noise, local_residual
    columns = [c.tolist() for c in vars(terms).values()]
    write_csv(_out(cfg, "audit.csv"), list(vars(terms)), list(zip(*columns)))
    tol = cfg.tolerances["identity_rtol"]
    worst = terms.local_residual.max()
    log.info("audit: worst local residual %.3e, global residual %.3e", worst, global_residual)
    # written so that a NaN residual fails the verdict
    if not (worst <= tol and global_residual <= tol):
        log.error("conservation-law residuals exceed %.1e", tol)
        return EXIT_ASSERTION
    return EXIT_PASS


def _cmd_minimax(cfg):
    _require_gradient_form(cfg, "the energy-gain ratio")
    if cfg.T < 1:
        # with no step the certificate and the bound would hold vacuously
        raise ConfigError(f"the energy-gain ratio needs at least one step, got T={cfg.T}")
    problems = generate_problems(cfg, cfg.n_trials)
    traj = _iterate(cfg, problems, check_margin=False)
    report = audit_mod.energy_gain(traj, problems.w_true, problems.noises)
    certified = report.premise_certified
    write_csv(_out(cfg, "minimax.csv"),
              ["trial", "numerator", "denominator", "ratio", "premise_certified"],
              list(zip(range(cfg.n_trials), report.numerator.tolist(), report.denominator.tolist(),
                       report.ratio.tolist(), certified.tolist())))
    log.info("minimax: %d/%d trials premise-certified", certified.sum(), cfg.n_trials)
    if not certified.any():
        log.error("minimax: no trial is premise-certified, so the bound was not tested")
        return EXIT_ASSERTION
    nonfinite = np.count_nonzero(certified & ~np.isfinite(report.ratio))
    if nonfinite:
        log.error("minimax: %d certified trials have a non-finite ratio", nonfinite)
    # written so that a NaN ratio fails the verdict
    failed = (certified & ~(report.ratio <= 1.0 + cfg.tolerances["minimax_slack"])).any()
    return EXIT_ASSERTION if failed else EXIT_PASS


def _cmd_risk(cfg):
    names = {estimator_name(spec) for spec in cfg.estimators}
    # the symmetric rule (own cost exponent) is reported descriptively,
    # never asserted against
    baseline_names = names - {"smd", "ssmd"}
    if "smd" not in names:
        raise ConfigError("the risk verdict needs an smd estimator (smd, or scaled_smd with gamma 1)")
    if not baseline_names:
        raise ConfigError("the risk verdict needs a baseline under the smd cost (constant, or "
                          "scaled_smd with gamma != 1); ssmd is descriptive")
    report = exp_mod.risk_compare(cfg)
    rows = [[e.name, e.mc_cost, e.ci_low, e.ci_high, e.n_trials] for e in report.entries]
    write_csv(_out(cfg, "risk.csv"), ["estimator", "mc_cost", "ci_low", "ci_high", "n_trials"], rows)
    smd = report.entry("smd")
    baselines = [e for e in report.entries if e.name in baseline_names]
    # written so that a NaN cost or interval fails the verdict
    if any(not smd.mc_cost <= b.mc_cost for b in baselines):
        log.error("risk: smd cost is not minimal among the baselines")
        return EXIT_ASSERTION
    worst = max(baselines, key=lambda e: e.mc_cost)
    if not smd.ci_high < worst.ci_low:
        log.error("risk: smd interval overlaps the worst baseline's")
        return EXIT_ASSERTION
    return EXIT_PASS


def _cmd_implicit(cfg):
    gap_tol = (
        cfg.tolerances["gap_squared_l2"]
        if cfg.potential["kind"] == "squared_l2"
        else cfg.tolerances["gap_general"]
    )
    kkt_tol = cfg.tolerances["kkt_tol"]
    reports = exp_mod.implicit_reg_experiment(cfg)
    rows = [[f"case{k}", r.gap, r.feasibility, r.kkt_residual] for k, r in enumerate(reports)]
    # written so that a NaN gap or residual fails the verdict
    failed = any(not (r.gap <= gap_tol and r.kkt_residual <= kkt_tol) for r in reports)
    write_csv(_out(cfg, "implicit.csv"), ["case", "gap", "feasibility", "kkt_residual"], rows)
    return EXIT_ASSERTION if failed else EXIT_PASS


def _cmd_converge(cfg):
    report = exp_mod.msq_convergence(cfg, control_eta=cfg.control_eta)
    rows = [[t, mse] for t, mse in report.checkpoints]
    write_csv(_out(cfg, "converge.csv"), ["checkpoint_T", "mean_sq_error"], rows)
    errors = [mse for _, mse in report.checkpoints]
    decreasing = all(b < a for a, b in zip(errors, errors[1:]))
    log.info("converge: checkpoints %s", report.checkpoints)
    if report.control is not None:
        log.info("converge: constant-rate control %s", report.control)
    if not decreasing or errors[-1] > 0.1 * errors[0]:
        log.error("converge: mean-square error did not decay by 10x")
        return EXIT_ASSERTION
    if report.control is not None:
        plateau = report.control[-1][1]
        if not np.isfinite(plateau):
            log.error("converge: the constant-rate control is not finite, "
                      "so the plateau comparison was not tested")
            return EXIT_ASSERTION
        if errors[-1] >= plateau:
            log.error("converge: vanishing-rate error not below the constant-rate plateau")
            return EXIT_ASSERTION
    return EXIT_PASS


def _cmd_sample_check(cfg):
    p = cfg.build_potential()
    l = cfg.build_loss()
    n = max(cfg.n_trials, 10_000)
    spec = ExpFamilySpec(p, cfg.w0_vector(), prior_scale(cfg), grid=cfg.grid_spec())
    report = mirror_mean_check(spec, n, RngStream(cfg.seed, STREAM_TRIAL_BASE))
    rows = []
    ok = report.passed
    for j in range(cfg.dim):
        rows.append([
            "mirror_mean", p.kind, l.kind, j,
            report.mc_estimate[j], report.target[j], report.sigma_bound[j],
            abs(report.mc_estimate[j] - report.target[j]) <= report.sigma_bound[j],
        ])
    noise = np.asarray(sample_noise(l, RngStream(cfg.seed, STREAM_TRIAL_BASE + 1), size=n))
    mean = float(noise.mean())
    bound = 3.0 * float(noise.std(ddof=1)) / np.sqrt(n)
    noise_ok = abs(mean) <= bound
    ok = ok and noise_ok
    rows.append(["noise_mean", p.kind, l.kind, 0, mean, 0.0, bound, noise_ok])

    tab = np.asarray(sample_weight(spec, RngStream(cfg.seed, STREAM_TRIAL_BASE + 2),
                                   size=n, force_tabulated=True))[:, 0]
    short = np.asarray(sample_weight(spec, RngStream(cfg.seed, STREAM_TRIAL_BASE + 3), size=n))[:, 0]
    ks_stat, ks_pvalue = ks_two_sample(tab, short)
    ks_ok = bool(ks_pvalue > 0.01)
    ok = ok and ks_ok
    rows.append(["ks_tabulated_vs_short_circuit", p.kind, l.kind, 0,
                 ks_stat, 0.0, ks_pvalue, ks_ok])
    write_csv(
        _out(cfg, "sample_check.csv"),
        ["check", "potential", "loss", "coordinate", "mc_estimate", "target", "sigma_bound", "pass"],
        rows,
    )
    return EXIT_PASS if ok else EXIT_ASSERTION


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


def dispatch(cfg, subcommand, strict=False):
    """Run one subcommand; returns the process exit code."""
    if subcommand not in _HANDLERS:
        raise ValueError(f"unknown subcommand {subcommand!r}")
    handler = _HANDLERS[subcommand]
    if strict:
        with warnings.catch_warnings():
            warnings.simplefilter("error", StabilityWarning)
            warnings.simplefilter("error", UserWarning)
            return handler(cfg)
    return handler(cfg)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="mirrorkit",
        description="Mirror-descent experiments with step-level identity auditing.",
    )
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True, help="path to a JSON config file")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default=None, help="override the config output directory")
    parser.add_argument("--strict", action="store_true", help="treat warnings as errors")
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    try:
        args = parser.parse_args(argv)
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
        code = dispatch(cfg, args.subcommand, strict=args.strict)
    except MirrorkitError as e:
        log.error("%s: %s", type(e).__name__, e)
        return EXIT_ERROR
    except Warning as e:
        log.error("strict mode: %s", e)
        return EXIT_ERROR
    return code


if __name__ == "__main__":
    sys.exit(main())
