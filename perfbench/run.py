"""The mirrorkit benchmark: certification workloads timed end to end and per module.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a closed batch: one user runs CLI subcommands one after
another and waits for each verdict. A run does one untimed warm-up pass in
its own process, then times warm passes for S seconds (`wall_s`,
`steps_per_s`). Interleaved with them it starts a few fresh interpreters,
each of which times `import mirrorkit.cli` plus `parse_config` (`setup_s`)
and then one pass (`first_pass_s`). Every pass checks every CSV it writes,
and compares its CSV bytes with the warm-up pass at the same seed.

All times are reported in reference seconds (see speed.py): each is scaled
by how fast fixed calibration kernels ran next to it, so that runs made
while the shared CPU is fast or slow compare. Measured seconds are printed
in the summary above the JSON line.

With `--trace 1` the plain phase above takes half of S; then every public
function and method of mirrorkit's modules is wrapped in span recorders and
traced passes run for the other half. The run reports per-module self times
and counts (medians over traced passes) and the tracing overhead.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Run artifacts go to
`perfbench/out/`.
"""

import os
import sys

# Before numpy loads anywhere: measure the default serial path, with BLAS
# pinned to one thread and mirrorkit's own thread pool off.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("MIRRORKIT_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PROBES = 6
MIN_PASSES = 3
PROBE_TIMEOUT_S = 60


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _probe(work_dir, workload, seed, ops):
    """One fresh interpreter: setup and first pass of the workload."""
    cmd = [sys.executable, str(BENCH_DIR / "probe.py"), str(SRC), str(work_dir),
           workload, str(seed)] + [str(op.config) for op in ops]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"probe exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise BenchError(f"probe printed no result: {proc.stdout.strip()[-2000:]}")


def _timed_passes(ops, seed, call_main, seconds, reference, before_pass=None, after_pass=None,
                  min_passes=MIN_PASSES):
    """Warm passes until `seconds` have elapsed (at least `min_passes`).

    Calibrations alternate with passes; a pass is paired with the mean of
    the calibrations on either side of it.
    """
    results = []
    deadline = time.perf_counter() + seconds
    cal_before = speed.calibrate()
    while len(results) < min_passes or time.perf_counter() < deadline:
        if before_pass:
            before_pass()
        result = workloads.run_pass(ops, seed, call_main)
        if after_pass:
            after_pass()
        cal_after = speed.calibrate()
        result.slowness = (cal_before + cal_after) / 2
        cal_before = cal_after
        workloads.check_determinism(reference, result)
        results.append(result)
    return results


def _plain_phase(ops, seed, call_main, seconds, reference, work_dir, workload):
    """Fresh-interpreter probes interleaved with plain warm passes for `seconds`.

    Returns the warm passes, the probe reports with their times in reference
    seconds, and the first pass of each probe as a checked PassResult. A
    probe's times are calibrated by the mean of the calibrations just before
    and just after its interpreter runs.
    """
    passes, probes, fresh = [], [], []
    cal_before = speed.calibrate()
    for _ in range(PROBES):
        p = _probe(work_dir, workload, seed, ops)
        cal_after = speed.calibrate()
        for key in ("import_s", "setup_s", "first_pass_s"):
            p[key] = speed.to_reference(p[key], (cal_before + cal_after) / 2)
        probes.append(p)
        first = workloads.PassResult(p["first_pass_s"], p["attempted"], p["failures"], p["digests"])
        workloads.check_determinism(reference, first)
        fresh.append(first)
        passes += _timed_passes(ops, seed, call_main, seconds / PROBES, reference, min_passes=1)
        cal_before = speed.calibrate()
    return passes, probes, fresh


def _median_reference(results):
    return statistics.median(speed.to_reference(r.wall_s, r.slowness) for r in results)


def _end_to_end(ops, passes, probes):
    wall = _median_reference(passes)
    return {
        "wall_s": (wall, "s"),
        "steps_per_s": (sum(op.steps for op in ops) / wall, "1/s"),
        "first_pass_s": (statistics.median(p["first_pass_s"] for p in probes), "s"),
        "setup_s": (statistics.median(p["setup_s"] for p in probes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _per_layer(ops, seed, call_main, seconds, reference, plain, probes, span_path):
    """Traced passes for `seconds`; `plain` are the untraced passes."""
    import importlib

    import layers

    # by module path: the package namespace rebinds some module names
    # (mirrorkit.bregman is the function there)
    modules = {name: importlib.import_module(f"mirrorkit.{name}") for name in layers.MODULES}
    tracer = layers.LayerTrace(modules)
    raw = []
    tracer.install()
    try:
        traced = _timed_passes(ops, seed, call_main, seconds, reference,
                               before_pass=tracer.begin_pass,
                               after_pass=lambda: raw.append(tracer.pass_metrics()))
    finally:
        tracer.uninstall()
    _write_spans(tracer.recorder, span_path)

    metrics = {}
    for name, (_, unit) in raw[0].items():
        values = [speed.to_reference(m[name][0], r.slowness) if unit == "s" else m[name][0]
                  for m, r in zip(raw, traced)]
        metrics[name] = (statistics.median(values), unit)
    metrics["setup.import_s"] = (statistics.median(p["import_s"] for p in probes), "s")
    metrics["setup.scipy_modules"] = (probes[0]["scipy_modules"], "count")
    metrics["trace.overhead_ratio"] = (_median_reference(traced) / _median_reference(plain), "ratio")
    return metrics, traced


def run(workload, seed, seconds, trace):
    if not (SRC / "mirrorkit" / "cli.py").is_file() or not (ROOT / "configs").is_dir():
        raise BenchError(f"no mirrorkit source under {ROOT}: expected src/mirrorkit and configs/")
    work_dir = BENCH_DIR / "out" / workload
    ops = workloads.build_ops(workload, ROOT, work_dir)

    sys.path.insert(0, str(SRC))
    import mirrorkit.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "mirrorkit":
        raise BenchError(f"imported mirrorkit from {cli.__file__}, not from {SRC}")
    root_log = logging.getLogger()
    handler = logging.FileHandler(work_dir / "mirrorkit.log", mode="w", encoding="utf-8")
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    root_log.addHandler(handler)  # the CLI's basicConfig then leaves logging as is
    root_log.setLevel(logging.INFO)

    def call_main(argv):
        return cli.main(argv)  # looked up per call, so a traced `main` is used

    try:
        reference = workloads.run_pass(ops, seed, call_main)  # warm-up, untimed
        plain_s = seconds / 2 if trace else seconds
        plain, probes, fresh = _plain_phase(ops, seed, call_main, plain_s, reference,
                                            work_dir, workload)
        checked = [reference] + fresh + plain
        if trace:
            metrics, traced = _per_layer(ops, seed, call_main, seconds - plain_s, reference,
                                         plain, probes, work_dir / "spans.npz")
            checked += traced
        else:
            metrics = _end_to_end(ops, plain, probes)
    finally:
        root_log.removeHandler(handler)
        handler.close()

    attempted = sum(r.attempted for r in checked)
    failed = sum(len(r.failures) for r in checked)
    if not trace:
        # the complement of the error rate, which is 0 on a correct program
        metrics["success_rate"] = (1.0 - failed / attempted, "ratio")
    _report(workload, seed, ops, plain, probes, checked, attempted, failed)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def _write_spans(recorder, path):
    """Every span of the traced passes, as numpy arrays: label id, parent
    span index (-1 for none), start and end in seconds (not calibrated)."""
    import numpy as np

    np.savez_compressed(
        path, labels=np.array(recorder.labels), modules=np.array(recorder.label_module),
        label=np.frombuffer(recorder.label, dtype=np.int32),
        parent=np.frombuffer(recorder.parent, dtype=np.int32),
        start=np.frombuffer(recorder.start), end=np.frombuffer(recorder.end))


def _summary(values):
    values = sorted(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return (f"n={len(values)} median {statistics.median(values):.4f} "
            f"quartiles [{q1:.4f}, {q3:.4f}] min {values[0]:.4f} max {values[-1]:.4f}")


def _report(workload, seed, ops, passes, probes, checked, attempted, failed):
    """Human-readable summary of the plain passes and probes on standard
    output, before the JSON line."""
    print(f"workload {workload}, seed {seed}: "
          f"{', '.join(f'{op.subcommand} {op.name}' for op in ops)}; "
          f"{sum(op.steps for op in ops)} recursion steps per pass")
    print(f"  warm pass, measured s:   {_summary([r.wall_s for r in passes])}")
    print(f"  warm pass, reference s:  "
          f"{_summary([speed.to_reference(r.wall_s, r.slowness) for r in passes])}")
    print(f"  slowness:                {_summary([r.slowness for r in passes])}")
    print(f"  fresh setup, reference s:      {_summary([p['setup_s'] for p in probes])}")
    print(f"  fresh first pass, reference s: {_summary([p['first_pass_s'] for p in probes])}")
    print(f"  operations attempted {attempted}, failed {failed}, error_rate {failed / attempted:.6g}")
    for r in checked:
        for name, reasons in r.failures.items():
            print(f"  FAILED {name}: {'; '.join(reasons)}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must be a non-negative 63-bit integer")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, subprocess.SubprocessError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
