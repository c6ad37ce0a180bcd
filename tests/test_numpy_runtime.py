"""The runtime needs numpy only; scipy serves the tests as an independent oracle.

Each numpy form that replaced a scipy call is pinned here to scipy's own
value, three gates keep scipy, dataclasses and argparse off the import path,
and a fourth keeps numpy.ma off the path of a risk run.
"""

import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid
from scipy.special import expit, xlogy
from scipy.stats import ks_2samp, kstwobign

import mirrorkit
from mirrorkit import NegEntropy, SeparableQ, SquaredL2, ks_two_sample
from mirrorkit.descent import _logistic as logistic
from mirrorkit.samplers import (
    _coordinate_bregman,
    _cumulative_trapezoid,
    _prior_table,
    kolmogorov_sf,
)

ROOT = Path(mirrorkit.__file__).resolve().parents[2]


def _samples(rng, n, m, tied):
    if tied:
        return rng.integers(0, 6, n).astype(float), rng.integers(0, 7, m).astype(float)
    return rng.normal(size=n), rng.normal(0.05, 1.0, size=m)


@pytest.mark.parametrize(
    "n,m,tied",
    [(500, 500, False), (2000, 2000, False), (300, 700, False), (997, 1013, False),
     (400, 400, True), (250, 611, True)],
)
def test_ks_statistic_equals_scipy(n, m, tied):
    rng = np.random.default_rng(n + m)
    for _ in range(10):
        a, b = _samples(rng, n, m, tied)
        assert ks_two_sample(a, b)[0] == ks_2samp(a, b).statistic


def test_kolmogorov_sf_equals_kstwobign():
    lam = np.linspace(0.05, 3.0, 2951)
    ours = np.array([kolmogorov_sf(x) for x in lam])
    np.testing.assert_allclose(ours, kstwobign.sf(lam), rtol=1e-12, atol=0.0)
    assert kolmogorov_sf(0.0) == 1.0


@pytest.mark.parametrize("n", [2000, 10_000])
def test_ks_pvalue_close_to_scipy_default(n):
    # scipy's default at these sizes is the exact two-sample p-value; the
    # limiting one differs from it by O(1/n)
    rng = np.random.default_rng(n)
    for _ in range(5):
        a, b = rng.normal(size=n), rng.normal(size=n)
        assert abs(ks_two_sample(a, b)[1] - ks_2samp(a, b).pvalue) <= 1e-3


def test_logistic_matches_expit_without_warnings():
    u = np.linspace(-800.0, 800.0, 160_001)
    # exp(-800) underflows to 0 by nature; overflow, 0/0 and inf/inf must not occur
    with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise", divide="raise"):
        warnings.simplefilter("error")
        ours = logistic(u)
    # below u = -709.78 scipy's exp(-u) overflows and its value flushes to 0,
    # while the sign-split form keeps the subnormal value: hence atol = tiny
    np.testing.assert_allclose(ours, expit(u), rtol=1e-15, atol=np.finfo(float).tiny)
    assert logistic(800.0) == 1.0 and logistic(-800.0) == 0.0
    assert logistic(0.3) == expit(0.3)


@pytest.mark.parametrize("p1", [NegEntropy(1), SeparableQ(3.0, 1), SquaredL2(1)], ids=repr)
def test_trapezoid_cdf_equals_cumulative_trapezoid(p1):
    table = _prior_table(p1, 0.7, 0.2)
    dens = table.pdf * table.normalization
    expected = np.concatenate([[0.0], cumulative_trapezoid(dens, table.xs)])
    assert np.array_equal(_cumulative_trapezoid(dens, table.xs), expected)


def test_neg_entropy_coordinate_divergence():
    c = 0.8
    d, _ = _coordinate_bregman(NegEntropy(1), c)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        assert d(0.0) == c
        xs = np.linspace(0.0, 5.0, 1001)
        ours = d(xs)
    assert ours[0] == c
    np.testing.assert_allclose(ours, xlogy(xs, xs / c) - xs + c, rtol=1e-13, atol=1e-15)


def test_import_loads_neither_scipy_nor_numpy_random():
    """Every stream is a splitmix64 counter row, so the package needs no
    numpy.random generator."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = (
        "import sys, mirrorkit.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' "
        "or m == 'numpy.random' or m.startswith('numpy.random.')))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.split("\n")
    assert out[0] == "[]"


def test_a_cli_call_loads_no_dataclasses_argparse_gettext_or_locale(tmp_path):
    """The CLI reads a plain command line without argparse, its records are
    plain classes and its streams are counter rows: a minimax, a risk and a
    converge run load none of dataclasses, argparse, gettext, locale and
    numpy.random. --help and a usage error, which argparse reads, still exit
    0 and 1."""
    base = {"potential": "squared_l2", "loss": "quadratic", "dim": 2}
    configs = {
        "minimax": dict(base, T=5, n_trials=20, schedule={"kind": "constant", "eta": 0.05}),
        "risk": dict(base, T=5, n_trials=200, w0=0.0, inputs={"kind": "unit"},
                     schedule={"kind": "constant", "eta": 0.05}),
        "converge": dict(base, T=2000, n_trials=20, noise={"kind": "gaussian"},
                         schedule={"kind": "robbins_monro", "c": 0.5}),
    }
    calls = []
    for sub, raw in configs.items():
        cfg = tmp_path / f"{sub}.json"
        cfg.write_text(json.dumps(raw))
        calls.append(f"main([{sub!r}, '--config', {str(cfg)!r}, '--out', {str(tmp_path / sub)!r}])")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = (
        "import sys; from mirrorkit.cli import main; "
        f"codes = [{', '.join(calls)}]; "
        "loaded = sorted(m for m in ('dataclasses', 'argparse', 'gettext', 'locale', 'numpy.random') "
        "if m in sys.modules); "
        "print(*codes, main(['--help']), main(['run']), file=sys.stderr); print(loaded)"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    # risk's smd interval overlaps the constant baseline's at 200 trials: exit 2;
    # converge's last error, 0.0015743, misses a tenth of its first, 0.0012483,
    # at seed 0: exit 2. Over seeds 0-199 this config exits 2 at 9 seeds, and
    # did at 10 with the former PCG64 streams, so seed 0's is chance, not a defect
    assert proc.stderr.splitlines()[-1] == "0 2 2 0 1"
    assert proc.stdout.splitlines()[-1] == "[]"


def test_the_benchmark_argv_form_loads_no_argparse(tmp_path):
    """perfbench calls `main` with `SUB --config P --seed N --out D`; that
    plain line, with -v as well, is read without argparse, gettext or
    locale."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"potential": "squared_l2", "loss": "quadratic", "dim": 2, "T": 3}))
    argv = ["run", "--config", str(cfg), "--seed", "4", "--out", str(tmp_path / "out"), "-v"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = (
        "import sys; from mirrorkit.cli import main; "
        f"code = main({argv!r}); "
        "print(code, sorted(m for m in ('argparse', 'gettext', 'locale') if m in sys.modules))"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines()[-1] == "0 []"
    assert (tmp_path / "out" / "trajectory.csv").is_file()


def test_runtime_dependencies_are_numpy_only():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    name = lambda req: re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower()
    assert [name(r) for r in project["dependencies"]] == ["numpy"]
    assert "scipy" in [name(r) for r in project["optional-dependencies"]["test"]]


def test_risk_run_loads_no_numpy_ma(tmp_path):
    """np.quantile reaches numpy.ma through np.unique; risk takes its
    intervals in closed form, with no quantile, so it never imports numpy.ma."""
    cfg = tmp_path / "risk.json"
    cfg.write_text(json.dumps({
        "potential": "squared_l2", "loss": "quadratic", "dim": 2, "T": 5, "n_trials": 200,
        "w0": 0.0, "inputs": {"kind": "unit"}, "schedule": {"kind": "constant", "eta": 0.05},
    }))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = (
        "import sys; from mirrorkit.cli import main; "
        f"print(main(['risk', '--config', {str(cfg)!r}, '--out', {str(tmp_path)!r}])); "
        "print(sorted(m for m in sys.modules if m == 'numpy.ma' or m.startswith('numpy.ma.')))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.split("\n")
    assert out[0] in ("0", "2")
    assert (tmp_path / "risk.csv").exists()
    assert out[1] == "[]"
