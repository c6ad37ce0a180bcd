"""Command-line driver: parse a config, run one pipeline, emit CSV artifacts.

Each subcommand returns a `Verdict`: its CSVs and the `Check`s its claim
rests on. The exit code is 0 when every check holds and 2 when one fails; a
configuration or runtime error exits 1 and writes nothing. CSV output is
byte-stable: fixed column order, 17-significant-digit floats, LF endings.
"""

import logging
import operator
import os
import sys
from functools import cache
from itertools import chain
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import audit as audit_mod
from . import experiments as exp_mod
from .config import parse_config, require
from .datagen import STREAM_SAMPLE_CHECK, generate_problem, generate_problems, prior_scale
from .descent import iterate
from .errors import ArtifactError, MirrorkitError
from .samplers import (
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
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
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
    rows at a time.

    The rows go to a new file, `.<name>.<pid>.tmp` in the same directory,
    created exclusively; then the old file at `path`, if any, is removed and
    the new one renamed into the free name. No existing file is truncated or
    renamed over, either of which makes ext4 (`auto_da_alloc`) start
    writeback. A write that fails, an interrupt included, keeps the previous
    file and removes the new one. Nothing is fsynced."""
    # os calls on strings: building Path objects cost about as much as the system calls of a short write
    path = os.fspath(path)
    parent, name = os.path.split(path)
    if parent and not os.path.isdir(parent):
        os.makedirs(parent, exist_ok=True)
    tmp = os.path.join(parent, f".{name}.{os.getpid()}.tmp")
    # opened before the try, so that its cleanup removes only a file this call created; a file already
    # at `tmp` is safe to remove: every write removes its own, so a killed process with this pid left it
    try:
        fh = open(tmp, "x", encoding="utf-8", newline="\n")
    except FileExistsError:
        os.unlink(tmp)
        fh = open(tmp, "x", encoding="utf-8", newline="\n")
    try:
        with fh:
            fh.write(",".join(header) + "\n")
            for start in range(0, len(rows), CSV_CHUNK_ROWS):
                fh.write(_format_rows(rows[start : start + CSV_CHUNK_ROWS]))
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass
        os.rename(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:  # re-raise the error that stopped the write, not this one
            pass
        raise
    log.info("wrote %s (%d rows)", path, len(rows))


def _g(value):
    """`value` with 17 significant digits; an array as a bracketed list."""
    value = np.asarray(value, dtype=float)
    text = ", ".join(format(v, ".17g") for v in value.ravel().tolist())
    return text if value.ndim == 0 else f"[{text}]"


_RELATIONS = {"<=": operator.le, "<": operator.lt, ">=": operator.ge, ">": operator.gt}


class Check:
    """One comparison a verdict rests on, `value relation bound`, elementwise
    when either side is an array and decided once, in `holds`; a NaN on
    either side fails it."""

    def __init__(self, name, value, bound, relation):
        self.name = name
        self.value = value
        self.bound = bound
        self.relation = relation
        self.holds = bool(_RELATIONS[relation](np.asarray(value), np.asarray(bound)).all())

    def __str__(self):
        return f"{self.name}: {_g(self.value)} {self.relation} {_g(self.bound)}"


class Verdict(SimpleNamespace):
    """The CSVs a subcommand writes, `artifacts` {file name: (header, rows)}, and the
    `checks` its claim rests on; it exits 2, naming the first that fails, unless all hold."""

    @property
    def code(self):
        return EXIT_PASS if all(c.holds for c in self.checks) else EXIT_ASSERTION

    @property
    def reason(self):
        return next((f"{c} fails" for c in self.checks if not c.holds), "")


def _iterate(cfg, problem):
    """The configured algorithm on `problem`'s data: one run, or a batch."""
    return iterate(cfg.build_potential(), cfg.build_loss(), cfg.build_model(), problem.X, problem.Y,
                   cfg.build_schedule(), cfg.w0_vector(), algorithm=cfg.algorithm)


def _cmd_run(cfg):
    traj = _iterate(cfg, generate_problem(cfg))
    header = ["step"] + [f"w{j}" for j in range(cfg.dim)]
    rows = [[i] + list(w) for i, w in enumerate(traj.path)]
    return Verdict(artifacts={"trajectory.csv": (header, rows)}, checks=[])


# The bounds of the checks below. They are fixed here, not read from the
# config, so that a config cannot set the bound its run is checked against.
IDENTITY_RTOL = 1e-8  # audit: relative residual of the conservation identity
MINIMAX_SLACK = 1e-9  # minimax: the largest certified ratio is <= 1 + MINIMAX_SLACK
GAP_SQUARED_L2 = 1e-6  # implicit: largest gap to the oracle on squared_l2
GAP_GENERAL = 1e-5  # implicit: largest gap to the oracle on any other potential
KKT_TOL = 1e-10  # implicit: largest KKT residual of the oracle


def _cmd_audit(cfg):
    require(cfg, "audit")
    problem = generate_problem(cfg)
    traj = _iterate(cfg, problem)
    terms, global_residual = audit_mod.audit_trajectory(traj, problem.w_true, noises=problem.noises)
    columns = [c.tolist() for c in vars(terms).values()]
    checks = [Check("worst local residual", terms.local_residual.max(), IDENTITY_RTOL, "<="),
              Check("global residual", global_residual, IDENTITY_RTOL, "<=")]
    return Verdict(artifacts={"audit.csv": (list(vars(terms)), list(zip(*columns)))}, checks=checks)


def _cmd_minimax(cfg):
    require(cfg, "minimax")
    problems = generate_problems(cfg, cfg.n_trials)
    traj = _iterate(cfg, problems)
    report = audit_mod.energy_gain(traj, problems.w_true, problems.noises)
    certified = report.premise_certified
    ratios = report.ratio[certified]
    header = ["trial", "numerator", "denominator", "ratio", "premise_certified"]
    rows = list(zip(range(cfg.n_trials), report.numerator.tolist(), report.denominator.tolist(),
                    report.ratio.tolist(), certified.tolist()))
    checks = [Check(f"certified trials of {cfg.n_trials}", np.count_nonzero(certified), 1, ">="),
              Check("non-finite certified ratios", np.count_nonzero(~np.isfinite(ratios)), 0, "<="),
              Check("largest certified ratio", ratios.max(initial=-np.inf), 1.0 + MINIMAX_SLACK, "<=")]
    return Verdict(artifacts={"minimax.csv": (header, rows)}, checks=checks)


def _cmd_risk(cfg):
    report = exp_mod.risk_compare(cfg)
    rows = [[e.name, e.mc_cost, e.ci_low, e.ci_high, e.n_trials, e.ess] for e in report.entries]
    smd = report.entry("smd")
    # ssmd, scored under its own cost exponent, is reported, never compared against
    baselines = [e for e in report.entries if e.name not in ("smd", "ssmd")]
    costs = [e.mc_cost for e in baselines]
    # np.argmax takes the first NaN, where max() would depend on the order
    worst = baselines[int(np.argmax(costs))]
    header = ["estimator", "mc_cost", "ci_low", "ci_high", "n_trials", "ess"]
    checks = [Check("smd mc_cost against the least baseline mc_cost", smd.mc_cost, np.min(costs), "<="),
              Check(f"smd ci_high against the {worst.name} ci_low", smd.ci_high, worst.ci_low, "<")]
    return Verdict(artifacts={"risk.csv": (header, rows)}, checks=checks)


def _cmd_implicit(cfg):
    reports = exp_mod.implicit_reg_experiment(cfg)
    gap_tol = GAP_SQUARED_L2 if cfg.potential["kind"] == "squared_l2" else GAP_GENERAL
    rows = [[f"case{k}", r.gap, r.feasibility, r.kkt_residual, r.steps] for k, r in enumerate(reports)]
    header = ["case", "gap", "feasibility", "kkt_residual", "steps"]
    checks = [Check("largest gap to the oracle", np.max([r.gap for r in reports]), gap_tol, "<="),
              Check("largest oracle KKT residual", np.max([r.kkt_residual for r in reports]), KKT_TOL, "<=")]
    return Verdict(artifacts={"implicit.csv": (header, rows)}, checks=checks)


def _cmd_converge(cfg):
    report = exp_mod.msq_convergence(cfg)
    errors = [mse for _, mse in report.checkpoints]
    nonfinite = [t for t, mse in report.checkpoints if not np.isfinite(mse)]
    checks = [Check(f"non-finite checkpoints {nonfinite}", len(nonfinite), 0, "<="),
              Check("mean-square error against the previous checkpoint's", errors[1:], errors[:-1], "<"),
              Check("last mean-square error against a tenth of the first", errors[-1], 0.1 * errors[0], "<=")]
    header, rows = ["checkpoint_T", "mean_sq_error"], report.checkpoints
    if report.control is not None:
        plateau = report.control[-1][1]
        checks += [Check("constant-rate plateau", plateau, np.inf, "<"),
                   Check("last mean-square error against the plateau", errors[-1], plateau, "<")]
        header = header + ["control_mean_sq_error"]
        rows = [(t, mse, control) for (t, mse), (_, control) in zip(rows, report.control)]
    return Verdict(artifacts={"converge.csv": (header, rows)}, checks=checks)


def _cmd_sample_check(cfg):
    p = cfg.build_potential()
    l = cfg.build_loss()
    n = max(cfg.n_trials, 10_000)
    spec = ExpFamilySpec(p, cfg.w0_vector(), prior_scale(cfg))
    report = mirror_mean_check(spec, n, RngStream(cfg.seed, STREAM_SAMPLE_CHECK))
    rows = [["mirror_mean", p.kind, l.kind, j, est, target, sigma, abs(est - target) <= sigma]
            for j, (est, target, sigma) in enumerate(zip(report.mc_estimate, report.target,
                                                         report.sigma_bound))]
    mirror_check = Check("mirror mean's distance from its target", np.abs(report.mc_estimate - report.target),
                         report.sigma_bound, "<=")
    noise = np.asarray(sample_noise(l, RngStream(cfg.seed, STREAM_SAMPLE_CHECK + 1), size=n))
    mean = float(noise.mean())
    bound = 3.0 * float(noise.std(ddof=1)) / np.sqrt(n)
    noise_check = Check("noise mean's distance from 0", abs(mean), bound, "<=")
    rows.append(["noise_mean", p.kind, l.kind, 0, mean, 0.0, bound, noise_check.holds])
    tab = np.asarray(sample_weight(spec, RngStream(cfg.seed, STREAM_SAMPLE_CHECK + 2),
                                   size=n, force_tabulated=True))[:, 0]
    short = np.asarray(sample_weight(spec, RngStream(cfg.seed, STREAM_SAMPLE_CHECK + 3), size=n))[:, 0]
    ks_stat, ks_pvalue = ks_two_sample(tab, short)
    ks_check = Check("KS p-value of the tabulated against the direct sampler", ks_pvalue, 0.01, ">")
    rows.append(["ks_tabulated_vs_short_circuit", p.kind, l.kind, 0,
                 ks_stat, 0.0, ks_pvalue, ks_check.holds])
    header = ["check", "potential", "loss", "coordinate", "mc_estimate", "target", "sigma_bound", "pass"]
    checks = [mirror_check, noise_check, ks_check]
    return Verdict(artifacts={"sample_check.csv": (header, rows)}, checks=checks)


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
    """Run one subcommand, log its checks, write its CSVs and log why it
    failed, if it did; returns its Verdict."""
    if subcommand not in _HANDLERS:
        raise ValueError(f"unknown subcommand {subcommand!r}")
    verdict = _HANDLERS[subcommand](cfg)
    log.info("%s checks: %s", subcommand,
             "; ".join(f"{c} {'holds' if c.holds else 'fails'}" for c in verdict.checks) or "none")
    for name, (header, rows) in verdict.artifacts.items():
        path = Path(cfg.output_dir) / name
        try:
            write_csv(path, header, rows)
        except OSError as e:
            raise ArtifactError(f"cannot write {path}: {e.strerror or e}") from e
    if verdict.code != EXIT_PASS:
        log.error("%s: %s", subcommand, verdict.reason)
    return verdict


class UsageError(Exception):
    """A command line the CLI refuses; the message says why."""


@cache
def _parser():
    """The argparse parser of the command line, its errors raised as
    UsageError; built on first use, as importing argparse loads gettext and
    locale."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            raise UsageError(message)

    parser = Parser(prog="mirrorkit", description="Mirror-descent experiments with step-level identity auditing.")
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True, help="path to a JSON config file")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default=None, help="override the config output directory")
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    return parser


def _read_plain(argv):
    """The reading of a plain command line, or None for any other line: one
    subcommand, `--config`, and `--seed` and `--out` if given, each followed
    by a value that does not start with "-", a seed an int; `-v`/`--verbose`;
    in any order. `_parser` reads a plain line the same way."""
    args = {"subcommand": None, "config": None, "seed": None, "out": None, "verbose": False}
    tokens = iter(argv)
    for token in tokens:
        if token in ("--config", "--seed", "--out"):
            value = next(tokens, "-")  # a missing value is argparse's to refuse, as a "-" one is
            if value.startswith("-"):
                return None
            if token == "--seed":
                try:
                    value = int(value)  # every repeat, as argparse converts each
                except ValueError:
                    return None
            args[token[2:]] = value
        elif token in ("-v", "--verbose"):
            args["verbose"] = True
        elif token in SUBCOMMANDS and args["subcommand"] is None:
            args["subcommand"] = token
        else:
            return None
    return args if args["subcommand"] is not None and args["config"] is not None else None


def parse_args(argv):
    """The command line `argv` as a dict of subcommand, config, seed, out and
    verbose, or None for --help once argparse has printed the help; a refused
    line raises UsageError with argparse's message.

    A plain line is read without argparse, so that a call on one imports
    neither argparse nor gettext nor locale; argparse reads every other."""
    args = _read_plain(argv)
    if args is not None:
        return args
    try:
        return vars(_parser().parse_args(argv))
    except SystemExit:  # --help; every refusal raises UsageError
        return None


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parse_args(argv)
    except UsageError as e:
        # a usage error exits 1, as a configuration error does: 2 is a failed check
        sys.stderr.write(f"{_parser().format_usage()}mirrorkit: error: {e}\n")
        return EXIT_ERROR
    if args is None:
        return EXIT_PASS

    # basicConfig is a no-op once the root logger has a handler: set the level on every call
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    log.setLevel(logging.DEBUG if args["verbose"] else logging.INFO)
    try:
        cfg = parse_config(args["config"]).with_overrides(seed=args["seed"], output_dir=args["out"])
        return dispatch(cfg, args["subcommand"]).code
    except MirrorkitError as e:
        log.error("%s: %s", type(e).__name__, e)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
