import argparse
import json
import logging
import os
import re
import stat
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from mirrorkit import ConfigError, ParseError, ValidationError, exponent_blowup_probe, parse_config
from mirrorkit.audit import audit_trajectory as _audit_trajectory
from mirrorkit.audit import energy_gain as _energy_gain
from mirrorkit.cli import (
    CSV_CHUNK_ROWS,
    EXIT_ASSERTION,
    EXIT_ERROR,
    EXIT_PASS,
    SUBCOMMANDS,
    Check,
    UsageError,
    _fmt,
    dispatch,
    main,
    parse_args,
    write_csv,
)
from mirrorkit.config import SCHEMA, config_from_mapping, make_config

ROOT = Path(__file__).resolve().parent.parent


def _write(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def test_applied_defaults_are_one_record(caplog):
    with caplog.at_level(logging.DEBUG, logger="mirrorkit"):
        parse_config(ROOT / "configs" / "audit.json")
    assert [r.levelno for r in caplog.records] == [logging.INFO]
    message = caplog.records[0].getMessage()
    assert message.startswith("applied defaults: ")
    names = [item.split(" = ")[0] for item in message.removeprefix("applied defaults: ").split("; ")]
    assert names == [
        "algorithm", "model", "inputs", "inputs.gaussian.scale", "noise", "planted", "planted.auto.support",
        "estimators",
    ]
    assert "estimators = ({'kind': 'smd'}, {'kind': 'constant'}" in message


def test_minimal_config_applies_defaults(tmp_path, caplog):
    path = _write(tmp_path, {"seed": 5})
    with caplog.at_level(logging.INFO, logger="mirrorkit"):
        cfg = parse_config(path)
    assert cfg.seed == 5
    assert cfg.algorithm == "smd"
    assert cfg.schedule == {"kind": "constant", "eta": 0.1}
    echoed = [r.message for r in caplog.records if "applied default" in r.message]
    assert any("algorithm" in m for m in echoed)
    assert any("inputs.gaussian.scale" in m for m in echoed)


def test_zero_eta_rejected(tmp_path):
    path = _write(tmp_path, {"schedule": {"kind": "constant", "eta": 0}})
    with pytest.raises(ValidationError, match="schedule.constant.eta must be > 0"):
        parse_config(path)


def test_unknown_key_rejected(tmp_path):
    path = _write(tmp_path, {"momentum": 0.9})
    with pytest.raises(ParseError, match="momentum"):
        parse_config(path)


def test_nested_unknown_key_rejected(tmp_path):
    path = _write(tmp_path, {"schedule": {"kind": "constant", "eta": 0.1, "warmup": 5}})
    with pytest.raises(ParseError, match="warmup"):
        parse_config(path)


@pytest.mark.parametrize("text, key", [
    ('{"T": 5, "seed": 1, "T": 7}', "T"),
    ('{"schedule": {"kind": "constant", "eta": 0.1, "eta": 5.0}}', "eta"),
    ('{"potential": {"kind": "separable_q", "q": 3.0, "q": 1.5}}', "q"),
])
def test_repeated_key_exits_1_and_writes_nothing(text, key, tmp_path, caplog):
    # json.loads alone keeps the last value, so the run would use the second
    path = tmp_path / "cfg.json"
    path.write_text(text, encoding="utf-8")
    out = tmp_path / "o"
    with caplog.at_level(logging.ERROR, logger="mirrorkit"):
        assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_ERROR
    assert [r.getMessage() for r in caplog.records] == [f"ParseError: repeated key {key!r}"]
    assert not out.exists()


def test_malformed_json_reports_line(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{\n  "dim": 2,\n  oops\n}', encoding="utf-8")
    with pytest.raises(ParseError, match="line 3"):
        parse_config(path)


def test_missing_file():
    with pytest.raises(ParseError):
        parse_config("/nonexistent/cfg.json")


def test_variant_validation():
    with pytest.raises(ValidationError):
        make_config(potential={"kind": "separable_q"})  # missing q
    with pytest.raises(ValidationError):
        make_config(potential={"kind": "separable_q", "q": 1.0})
    with pytest.raises(ValidationError):
        make_config(loss="hinge")
    with pytest.raises(ValidationError):
        make_config(algorithm="sgd")  # SGD is smd with squared_l2, not an algorithm of its own
    with pytest.raises(ValidationError):
        make_config(algorithm="ssmd", model={"kind": "glm", "link": "tanh"})
    with pytest.raises(ValidationError):
        make_config(estimators=[{"kind": "scaled_smd"}])


def test_w0_resolution():
    cfg = make_config(dim=3, w0=2.0)
    np.testing.assert_allclose(cfg.w0_vector(), [2.0, 2.0, 2.0])
    cfg2 = make_config(dim=2, w0=[0.5, 1.5])
    np.testing.assert_allclose(cfg2.w0_vector(), [0.5, 1.5])
    cfg3 = make_config(dim=2, potential="neg_entropy")
    np.testing.assert_allclose(cfg3.w0_vector(), np.exp(-1.0) * np.ones(2))
    with pytest.raises(ValidationError):
        make_config(dim=3, w0=[1.0, 2.0]).w0_vector()


def _fmt_csv(header, rows):
    """The CSV bytes of `rows` rendered one `_fmt` call per value."""
    return (",".join(header) + "\n" + "".join(",".join(map(_fmt, row)) + "\n" for row in rows)).encode()


def test_csv_rendering(tmp_path):
    path = tmp_path / "x.csv"
    write_csv(path, ["a", "b", "c"], [[1, 1.0 / 3.0, True], [2, float("inf"), False]])
    text = path.read_bytes().decode()
    assert text.splitlines()[0] == "a,b,c"
    assert "0.33333333333333331" in text
    assert "true" in text and "false" in text
    assert "\r" not in text
    # numpy scalars render exactly as the Python scalars they hold
    rows = [[7, 1.0 / 3.0, True, float("inf"), -float("inf"), -0.0, 1e-300],
            [-3, 2.5e17, False, 0.1, float("nan"), 5.0, 123456789.0]]
    write_csv(path, list("abcdefg"), rows)
    python_bytes = path.read_bytes()
    write_csv(path, list("abcdefg"),
              [[np.int64(r[0]), np.float64(r[1]), np.bool_(r[2])] + [np.float64(v) for v in r[3:]] for r in rows])
    assert path.read_bytes() == python_bytes
    assert python_bytes.splitlines()[1] == b"7,0.33333333333333331,true,inf,-inf,-0,1e-300"
    # the one-format-string writer renders every file as _fmt does value by value
    nan, inf = float("nan"), float("inf")
    chunk = CSV_CHUNK_ROWS
    cases = {
        "specials": [[nan, inf, -inf, -0.0, 5e-324, 2.5e17, 2**70, -(2**63)],
                     [0.1, 1e308, -1e-300, 0.0, 1.0, -2.5e17, 0, 10**30]],
        "numpy": [[np.int64(-7), np.float64(1 / 3), np.float32(0.1), np.bool_(True), np.uint64(2**64 - 1),
                   np.float64(nan), np.float32(-inf)],
                  [np.int64(2**62), np.float64(-0.0), np.float32(5e-40), np.bool_(False), np.uint64(0),
                   np.float64(5e-324), np.float32(3e38)]],
        "text": [["smd", 1.5, "scaled_smd(0.5)", True], ["constant", 2.0, "50%", False]],
        "type_changes": [[1, 0.5, True, "a"], [2.0, 1, 1, np.float64(0.5)], [np.int64(3), np.float32(2), False, 4]],
        "bool_kinds_mixed": [[True], [np.bool_(False)]],
        "ragged": [[1, 2.0], [3], [4.0, 5, "x"]],
        "ragged_one_type": [[1, 2], [3], [4, 5, 6]],
        "no_rows": [],
        "empty_rows": [[], []],
        "crosses_a_chunk": [[i, i / 7, i % 3 == 0, f"r{i}"] for i in range(2 * chunk + 3)],
        "changes_type_in_the_second_chunk": [[i, i / 7] for i in range(chunk)] + [[0.5, 1], [2, 3.0]],
    }
    for name, rows in cases.items():
        header = [f"c{j}" for j in range(max(map(len, rows), default=0))]
        write_csv(path, header, rows)
        assert path.read_bytes() == _fmt_csv(header, rows), name


@pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
def test_a_rewrite_that_fails_midway_keeps_the_previous_artifact(tmp_path, error):
    """A value whose str() raises in the second chunk stops a rewrite after
    the first chunk is written; the old file stays byte for byte, and no
    temporary file is left beside it."""

    class Unprintable:
        def __str__(self):
            raise error("unprintable")

    path = tmp_path / "x.csv"
    write_csv(path, ["a"], [[1], [2]])
    before = path.read_bytes()
    with pytest.raises(error, match="unprintable"):
        write_csv(path, ["a"], [[i] for i in range(CSV_CHUNK_ROWS)] + [[Unprintable()]])
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def test_a_rewrite_makes_a_new_file_with_a_first_writes_mode_and_bytes(tmp_path):
    header, rows = ["a", "b"], [[1, 0.5], [2, 1.5]]
    first, again = tmp_path / "first" / "x.csv", tmp_path / "again" / "x.csv"
    write_csv(first, header, rows)
    write_csv(again, ["old"], [["row"]])
    # a second name for the old file, through which a write in place would show
    held = tmp_path / "held"
    os.link(again, held)
    write_csv(again, header, rows)
    assert os.stat(again).st_ino != os.stat(held).st_ino
    assert held.read_bytes() == b"old\nrow\n"
    assert again.read_bytes() == first.read_bytes()
    # the mode of a file that open(..., "w") creates, not mkstemp's 0600
    plain = tmp_path / "plain"
    plain.write_text("", encoding="utf-8")
    assert stat.S_IMODE(os.stat(again).st_mode) == stat.S_IMODE(os.stat(plain).st_mode)
    assert list(again.parent.iterdir()) == [again]


def test_a_temporary_file_left_by_a_killed_write_does_not_block_the_next(tmp_path):
    header, rows = ["a", "b"], [[1, 0.5], [2, 1.5]]
    first, artifact = tmp_path / "first" / "x.csv", tmp_path / "again" / "x.csv"
    write_csv(first, header, rows)
    write_csv(artifact, ["old"], [["row"]])
    # what a write killed by SIGKILL leaves, under the name this process's writes use
    stale = artifact.with_name(f".{artifact.name}.{os.getpid()}.tmp")
    stale.write_text("partial\n", encoding="utf-8")
    write_csv(artifact, header, rows)
    assert artifact.read_bytes() == first.read_bytes()
    assert list(artifact.parent.iterdir()) == [artifact]


@pytest.mark.parametrize("name", [p.stem for p in sorted(ROOT.glob("configs/*.json"))])
def test_shipped_artifacts_render_as_per_value_fmt(name, tmp_path):
    """Every CSV a shipped config writes equals its rows rendered value by value."""
    cfg = parse_config(ROOT / "configs" / f"{name}.json").with_overrides(output_dir=str(tmp_path))
    written = 0
    for sub in SUBCOMMANDS:
        try:
            verdict = dispatch(cfg, sub)
        except ConfigError:  # the config is outside this claim's premises
            continue
        for artifact, (header, rows) in verdict.artifacts.items():
            assert (tmp_path / artifact).read_bytes() == _fmt_csv(header, rows), (sub, artifact)
            written += 1
    # as in the CI verdict table: converge.json is refused by four claims, the others by two
    assert written == (3 if name == "converge" else 5)


BASE = {
    "potential": "neg_entropy",
    "loss": "quadratic",
    "dim": 2,
    "T": 15,
    "n_trials": 20,
    "seed": 11,
    "schedule": {"kind": "constant", "eta": 0.05},
}


def _cfg_for(sub, out, seed=11):
    raw = dict(BASE, output_dir=str(out), seed=seed)
    if sub == "risk":
        raw.update(
            potential={"kind": "separable_q", "q": 3.0}, loss="logcosh",
            w0=1.0, inputs={"kind": "unit"}, n_trials=2000, T=20,
            schedule={"kind": "constant", "eta": 0.2},
        )
    elif sub == "implicit":
        raw.update(
            potential="squared_l2", dim=12, T=4, n_trials=2,
            noise={"kind": "none"}, inputs={"kind": "unit"},
            schedule={"kind": "constant", "eta": 0.5},
        )
    elif sub == "converge":
        raw.update(
            potential="squared_l2", dim=2, T=1500, n_trials=15,
            noise={"kind": "gaussian"}, schedule={"kind": "robbins_monro", "c": 1.0},
            control_eta=0.02,
        )
    elif sub == "sample-check":
        raw.update(n_trials=10_000, w0=1.0)
    return make_config(**raw)


ARTIFACTS = {
    "run": "trajectory.csv",
    "audit": "audit.csv",
    "minimax": "minimax.csv",
    "risk": "risk.csv",
    "implicit": "implicit.csv",
    "converge": "converge.csv",
    "sample-check": "sample_check.csv",
}


@pytest.mark.parametrize("sub", sorted(ARTIFACTS))
def test_subcommand_passes_and_reproduces(sub, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert dispatch(_cfg_for(sub, out1), sub).code == EXIT_PASS
    assert dispatch(_cfg_for(sub, out2), sub).code == EXIT_PASS
    f1 = (out1 / ARTIFACTS[sub]).read_bytes()
    f2 = (out2 / ARTIFACTS[sub]).read_bytes()
    assert f1 == f2
    assert len(f1.splitlines()) > 1


def test_different_seed_changes_artifact(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    dispatch(_cfg_for("run", out1), "run")
    dispatch(_cfg_for("run", out2, seed=99), "run")
    assert (out1 / "trajectory.csv").read_bytes() != (out2 / "trajectory.csv").read_bytes()


def test_audit_exit_code_on_forced_failure(tmp_path, monkeypatch):
    from mirrorkit import cli

    monkeypatch.setattr(cli, "IDENTITY_RTOL", 1e-30)  # below roundoff: must fail
    assert dispatch(_cfg_for("audit", tmp_path), "audit").code == EXIT_ASSERTION


def test_dispatch_unknown_subcommand(tmp_path):
    with pytest.raises(ValueError):
        dispatch(_cfg_for("run", tmp_path), "optimize")


def test_main_end_to_end(tmp_path):
    path = _write(tmp_path, dict(BASE, output_dir=str(tmp_path / "o")))
    assert main(["run", "--config", str(path)]) == EXIT_PASS
    assert (tmp_path / "o" / "trajectory.csv").exists()
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o2"), "--seed", "77"]) == EXIT_PASS
    assert (tmp_path / "o2" / "trajectory.csv").exists()


def test_one_process_parses_like_fresh_ones(tmp_path, capsys):
    """Parsing the command line keeps nothing from one main call to the next:
    after --help, a usage error and a seeded run, an unseeded run writes the
    bytes a fresh process writes."""
    config = str(ROOT / "configs" / "audit.json")
    runs = [["run", "--config", config, "--seed", "5"], ["minimax", "--config", config]]
    assert main(["--help"]) == EXIT_PASS
    assert main(["run", "--config", config, "--seed", "abc"]) == EXIT_ERROR
    for k, argv in enumerate(runs):
        assert main(argv + ["--out", str(tmp_path / "same" / str(k))]) == EXIT_PASS
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for k, argv in enumerate(runs):
        subprocess.run([sys.executable, "-m", "mirrorkit.cli", *argv, "--out", str(tmp_path / "fresh" / str(k))],
                       env=env, capture_output=True, check=True)
    for k, artifact in enumerate(["trajectory.csv", "minimax.csv"]):
        fresh = (tmp_path / "fresh" / str(k) / artifact).read_bytes()
        assert (tmp_path / "same" / str(k) / artifact).read_bytes() == fresh


def test_unwritable_output_exits_1_naming_the_path(tmp_path, caplog):
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    out = blocker / "x"
    with caplog.at_level(logging.ERROR, logger="mirrorkit"):
        assert main(["run", "--config", str(ROOT / "configs" / "audit.json"), "--out", str(out)]) == EXIT_ERROR
    errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    assert errors == [f"ArtifactError: cannot write {out / 'trajectory.csv'}: Not a directory"]


def test_an_artifact_path_that_is_a_directory_exits_1_and_is_left_as_it_was(tmp_path, caplog):
    out = tmp_path / "out"
    artifact = out / "trajectory.csv"
    artifact.mkdir(parents=True)
    (artifact / "kept").write_text("kept", encoding="utf-8")
    with caplog.at_level(logging.ERROR, logger="mirrorkit"):
        assert main(["run", "--config", str(ROOT / "configs" / "audit.json"), "--out", str(out)]) == EXIT_ERROR
    errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    assert errors == [f"ArtifactError: cannot write {artifact}: Is a directory"]
    assert list(out.iterdir()) == [artifact]
    assert list(artifact.iterdir()) == [artifact / "kept"]
    assert (artifact / "kept").read_text(encoding="utf-8") == "kept"


def test_main_error_exit(tmp_path):
    path = _write(tmp_path, {"momentum": 1})
    assert main(["run", "--config", str(path)]) == 1


def test_a_failing_premise_is_certified_by_the_claim_not_the_run(tmp_path, capsys):
    # eta far beyond the stability bound breaks the convexity premise at
    # every step; run and audit record the recursion and warn nothing
    payload = dict(BASE, schedule={"kind": "constant", "eta": 25.0}, potential="squared_l2")
    path = _write(tmp_path, payload)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "run")]) == EXIT_PASS
        # audit's verdict is its residuals'; no premise refuses it and no warning stops it.
        # The iterates reach 1.8e20 by T 15, and the right-hand terms of the global
        # balance cancel far above 1 + |lhs|; scaled by their magnitudes, it holds
        assert main(["audit", "--config", str(path), "--out", str(tmp_path / "audit")]) == EXIT_PASS
    assert len((tmp_path / "audit" / "audit.csv").read_text().splitlines()) == 1 + BASE["T"]
    assert main(["run", "--config", str(path), "--strict"]) == EXIT_ERROR
    assert "unrecognized arguments: --strict" in capsys.readouterr().err
    # minimax certifies the premise per trial, and none holds it
    assert main(["minimax", "--config", str(path), "--out", str(tmp_path / "minimax")]) == EXIT_ASSERTION
    rows = (tmp_path / "minimax" / "minimax.csv").read_text().splitlines()[1:]
    assert len(rows) == BASE["n_trials"] and all(row.endswith(",false") for row in rows)


def test_audit_csv_header_is_the_audit_records_fields_in_order(tmp_path):
    from mirrorkit import Linear, Quadratic, SquaredL2, local_identity

    header = "step,d_psi_prev,d_psi_next,d_loss_bregman,e_term,loss_noise,local_residual"
    path = _write(tmp_path, BASE)
    assert main(["audit", "--config", str(path), "--out", str(tmp_path / "audit")]) == EXIT_PASS
    assert (tmp_path / "audit" / "audit.csv").read_text().splitlines()[0] == header
    w, x = np.array([0.4, -0.2]), np.array([1.0, 2.0])
    rec = local_identity(SquaredL2(2), Quadratic(), Linear(), w, w, w + 0.1, x, 0.3, 0.05, step=7)
    assert list(vars(rec)) == header.split(",") and rec.step == 7


def _assert_refused(sub, mapping, reason, tmp_path, caplog):
    """`sub` on `mapping` exits 1 with `reason` and makes no output directory."""
    path = _write(tmp_path, dict(mapping, output_dir=str(tmp_path / "o")))
    with caplog.at_level(logging.ERROR, logger="mirrorkit"):
        assert main([sub, "--config", str(path)]) == EXIT_ERROR
    assert any(r.message.startswith("ConfigError") and reason in r.message for r in caplog.records)
    assert not (tmp_path / "o").exists()


def test_audit_rejects_symmetric_rule(tmp_path, caplog):
    for sub in ("audit", "minimax"):
        _assert_refused(sub, dict(BASE, algorithm="ssmd"), f"{sub} applies to the smd recursion, not ssmd",
                        tmp_path, caplog)


def _shipped(name, **overrides):
    mapping = json.loads((ROOT / "configs" / f"{name}.json").read_text(encoding="utf-8"))
    return dict(mapping, **overrides)


@pytest.mark.parametrize("sub, mapping, reason", [
    ("converge", _shipped("converge", T=1000, n_trials=20, algorithm="ssmd"),
     "converge applies to the smd recursion, not ssmd"),
    ("converge", _shipped("converge", T=1000, n_trials=20, model={"kind": "glm"}),
     "converge is defined for the linear model, not glm"),
    ("implicit", _shipped("implicit_l2", algorithm="ssmd"), "implicit applies to the smd recursion, not ssmd"),
    ("audit", _shipped("converge"), "audit requires a constant learning rate, got schedule kind 'robbins_monro'"),
    ("minimax", _shipped("converge"), "minimax requires a constant learning rate, got schedule kind 'robbins_monro'"),
    ("risk", _shipped("implicit_l2"), "risk needs the exponential-family model's noise (noise kind 'model'), not 'none'"),
    ("risk", _shipped("risk_gaussian", noise={"kind": "gaussian", "sigma2": 1.0}),
     "risk needs the exponential-family model's noise (noise kind 'model'), not 'gaussian'"),
], ids=["converge_ssmd", "converge_glm", "implicit_ssmd", "audit_vanishing_rate", "minimax_vanishing_rate",
        "risk_noiseless", "risk_gaussian_noise"])
def test_claims_refuse_configs_outside_their_premises(sub, mapping, reason, tmp_path, caplog):
    # each of these would otherwise certify a run other than the one asked for,
    # or fail only after computing it
    _assert_refused(sub, mapping, reason, tmp_path, caplog)


def test_converge_input_kind_reaches_the_checkpoints():
    # converge draws its inputs with make_inputs, so each kind gives its own
    # error curve; the shipped config names the basis sweep it certifies
    from mirrorkit.experiments import msq_convergence

    curves = {kind: msq_convergence(config_from_mapping(_shipped("converge", T=1000, n_trials=20,
                                                                 inputs={"kind": kind}))).checkpoints
              for kind in ("gaussian", "unit", "basis_then_gaussian")}
    assert len({tuple(c) for c in curves.values()}) == 3
    assert curves["basis_then_gaussian"] == msq_convergence(
        config_from_mapping(_shipped("converge", T=1000, n_trials=20))).checkpoints


@pytest.mark.parametrize("sub", ["audit", "minimax"])
def test_constant_rate_claims_fail_before_iterating(sub, tmp_path, caplog, monkeypatch):
    from mirrorkit import cli

    def iterate(*args, **kwargs):
        raise AssertionError("iterated a config outside the claim's premises")

    monkeypatch.setattr(cli, "iterate", iterate)
    _assert_refused(sub, _shipped("converge"), "requires a constant learning rate", tmp_path, caplog)


@pytest.mark.parametrize("overrides, reason", [
    ({"model": {"kind": "glm"}}, "blowup-probe is defined for the linear model, not glm"),
    ({"schedule": {"kind": "robbins_monro", "c": 1.0}},
     "blowup-probe requires a constant learning rate, got schedule kind 'robbins_monro'"),
    ({"noise": {"kind": "none"}},
     "blowup-probe needs the exponential-family model's noise (noise kind 'model'), not 'none'"),
    ({"noise": {"kind": "uniform"}},
     "blowup-probe needs the exponential-family model's noise (noise kind 'model'), not 'uniform'"),
], ids=["glm", "vanishing_rate", "noiseless", "uniform_noise"])
def test_blowup_probe_refuses_configs_outside_its_premises(overrides, reason):
    with pytest.raises(ConfigError, match=re.escape(reason)):
        exponent_blowup_probe(make_config(n_trials=10, **overrides), checkpoints=(10,))


def test_minimax_fails_closed_when_no_trial_is_certified(tmp_path, caplog):
    # eta 1.5 on gaussian inputs breaks the convexity premise on every trial
    cfg = make_config(
        potential="squared_l2", loss="quadratic", dim=3, T=30, n_trials=50, seed=0,
        schedule={"kind": "constant", "eta": 1.5}, inputs={"kind": "gaussian"},
        output_dir=str(tmp_path),
    )
    with caplog.at_level(logging.INFO, logger="mirrorkit"):
        assert dispatch(cfg, "minimax").code == EXIT_ASSERTION
    assert any("certified trials of 50: 0 >= 1 fails" in r.message for r in caplog.records)
    assert any(r.levelno == logging.ERROR for r in caplog.records)


def test_minimax_fails_on_a_nan_ratio(tmp_path, caplog):
    # noise of variance 1e308 overflows the energies: a NaN ratio on a
    # certified trial must fail the bound, not compare false and pass
    cfg = make_config(
        potential="squared_l2", loss="quadratic", dim=2, T=10, n_trials=20, w0=0.0,
        schedule={"kind": "constant", "eta": 0.5}, inputs={"kind": "unit"},
        noise={"kind": "gaussian", "sigma2": 1e308}, output_dir=str(tmp_path),
    )
    with caplog.at_level(logging.INFO, logger="mirrorkit"):
        assert dispatch(cfg, "minimax").code == EXIT_ASSERTION
    rows = (tmp_path / "minimax.csv").read_text().splitlines()[1:]
    assert any(row.endswith(",nan,true") for row in rows)
    assert any(r.levelno == logging.ERROR and "non-finite certified ratios: " in r.message
               and r.message.endswith(" <= 0 fails") for r in caplog.records)


def test_nan_ratio_raises_no_runtime_warning(tmp_path):
    # the log line above names the non-finite ratio; numpy's overflow and
    # invalid-value warnings from the energies would only repeat it
    cfg = make_config(
        potential="squared_l2", loss="quadratic", dim=2, T=10, n_trials=20, w0=0.0,
        schedule={"kind": "constant", "eta": 0.5}, inputs={"kind": "unit"},
        noise={"kind": "gaussian", "sigma2": 1e308}, output_dir=str(tmp_path),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert dispatch(cfg, "minimax").code == EXIT_ASSERTION


def _with_nan_local_residual(traj, w, noises=None):
    terms, global_residual = _audit_trajectory(traj, w, noises)
    terms.local_residual[-1] = np.nan
    return terms, global_residual


def _with_nan_global_residual(traj, w, noises=None):
    return _audit_trajectory(traj, w, noises)[0], float("nan")


def _implicit_reports(gap, kkt_residual):
    from mirrorkit.experiments import ImplicitRegReport

    return lambda cfg: [ImplicitRegReport(w_smd=np.zeros(2), w_oracle=np.zeros(2), gap=gap, feasibility=0.0,
                                          kkt_residual=kkt_residual, steps=1)]


def _risk_report(smd_ci_high=1.1, second_baseline_cost=3.0):
    from mirrorkit.experiments import EstimatorCost, RiskReport

    report = RiskReport(entries=[
        EstimatorCost(name="smd", mc_cost=1.0, ci_low=0.9, ci_high=smd_ci_high, n_trials=10),
        EstimatorCost(name="constant", mc_cost=2.0, ci_low=1.8, ci_high=2.2, n_trials=10),
        EstimatorCost(name="scaled_smd(2)", mc_cost=second_baseline_cost, ci_low=2.8, ci_high=3.2,
                      n_trials=10),
    ])
    return lambda cfg: report


def _energy_gain_with(certified, last_ratio=None):
    def fake(traj, w, noises=None):
        report = _energy_gain(traj, w, noises)
        report.premise_certified[:] = certified
        if last_ratio is not None:
            report.ratio[-1] = last_ratio
        return report

    return fake


def _msq_report(errors, control=None):
    """Errors 1.0 and then `errors` at checkpoints 100, 1000, ...; a control
    that ends on `control`."""
    from mirrorkit.experiments import MsqReport

    checkpoints = list(zip([100, 1000, 10_000], [1.0, *errors]))
    return lambda cfg: MsqReport(checkpoints=checkpoints,
                                 control=None if control is None else [(100, 1.0), (1000, control)])


def _mirror_mean_report(spec, n, rng):
    from mirrorkit.samplers import MirrorMeanReport

    return MirrorMeanReport(mc_estimate=np.array([np.nan]), target=np.array([0.0]),
                            sigma_bound=np.array([0.1]), passed=False)


NAN = float("nan")


# one case per check of every subcommand, each failing that check first; the
# reason names the check, its value and its bound
@pytest.mark.parametrize("sub, target, name, fake, reason", [
    ("audit", "audit", "audit_trajectory", _with_nan_local_residual,
     "worst local residual: nan <= 1e-08 fails"),
    ("audit", "audit", "audit_trajectory", _with_nan_global_residual,
     "global residual: nan <= 1e-08 fails"),
    ("minimax", "audit", "energy_gain", _energy_gain_with(False),
     "certified trials of 20: 0 >= 1 fails"),
    ("minimax", "audit", "energy_gain", _energy_gain_with(True, NAN),
     "non-finite certified ratios: 1 <= 0 fails"),
    ("minimax", "audit", "energy_gain", _energy_gain_with(True, 2.0),
     "largest certified ratio: 2 <= 1.0000000010000001 fails"),
    ("risk", "experiments", "risk_compare", _risk_report(second_baseline_cost=NAN),
     "smd mc_cost against the least baseline mc_cost: 1 <= nan fails"),
    ("risk", "experiments", "risk_compare", _risk_report(smd_ci_high=NAN),
     "smd ci_high against the scaled_smd(2) ci_low: nan < 2.7999999999999998 fails"),
    ("implicit", "experiments", "implicit_reg_experiment", _implicit_reports(NAN, 0.0),
     "largest gap to the oracle: nan <= 9.9999999999999995e-07 fails"),
    ("implicit", "experiments", "implicit_reg_experiment", _implicit_reports(0.0, NAN),
     "largest oracle KKT residual: nan <= 1e-10 fails"),
    ("converge", "experiments", "msq_convergence", _msq_report([NAN]),
     "non-finite checkpoints [1000]: 1 <= 0 fails"),
    ("converge", "experiments", "msq_convergence", _msq_report([2.0, 0.05]),
     "mean-square error against the previous checkpoint's: [2, 0.050000000000000003] < [1, 2] fails"),
    ("converge", "experiments", "msq_convergence", _msq_report([0.5]),
     "last mean-square error against a tenth of the first: 0.5 <= 0.10000000000000001 fails"),
    ("converge", "experiments", "msq_convergence", _msq_report([0.05], control=NAN),
     "constant-rate plateau: nan < inf fails"),
    ("converge", "experiments", "msq_convergence", _msq_report([0.05], control=0.01),
     "last mean-square error against the plateau: 0.050000000000000003 < 0.01 fails"),
    ("sample-check", "cli", "mirror_mean_check", _mirror_mean_report,
     "mirror mean's distance from its target: [nan] <= [0.10000000000000001] fails"),
    ("sample-check", "cli", "sample_noise", lambda l, rng, size: np.full(size, NAN),
     "noise mean's distance from 0: nan <= nan fails"),
    ("sample-check", "cli", "ks_two_sample", lambda a, b: (NAN, NAN),
     "KS p-value of the tabulated against the direct sampler: nan > 0.01 fails"),
], ids=["audit_local_residual", "audit_global_residual", "minimax_none_certified", "minimax_nan_ratio",
        "minimax_ratio_bound", "risk_later_baseline_cost", "risk_smd_ci_high", "implicit_gap",
        "implicit_kkt_residual", "converge_last_checkpoint", "converge_rise", "converge_decay",
        "converge_control", "converge_plateau", "sample_check_mirror_mean", "sample_check_noise_mean",
        "sample_check_ks"])
def test_a_nan_fails_every_verdict(sub, target, name, fake, reason, tmp_path, monkeypatch, caplog):
    from mirrorkit import audit, cli, experiments

    monkeypatch.setattr({"audit": audit, "experiments": experiments, "cli": cli}[target], name, fake)
    with caplog.at_level(logging.ERROR, logger="mirrorkit"):
        verdict = dispatch(_cfg_for(sub, tmp_path), sub)
    assert verdict.code == EXIT_ASSERTION
    assert verdict.reason == reason
    assert [r.message for r in caplog.records] == [f"{sub}: {reason}"]


@pytest.mark.parametrize("relation", ["<=", "<", ">=", ">"])
def test_a_nan_on_either_side_fails_a_check(relation):
    bound = 2.0 if relation.startswith("<") else 0.0
    assert Check("c", [1.0, 1.0], bound, relation).holds
    assert not Check("c", [1.0, NAN], bound, relation).holds
    assert not Check("c", 1.0, NAN, relation).holds


@pytest.mark.parametrize("field", ["mc_cost", "ci_low"])
def test_risk_verdict_fails_on_nan(field, tmp_path, monkeypatch):
    from mirrorkit import experiments
    from mirrorkit.experiments import EstimatorCost, RiskReport

    baseline = dict(name="constant", mc_cost=2.0, ci_low=1.8, ci_high=2.2, n_trials=10)
    baseline[field] = float("nan")
    report = RiskReport(
        entries=[EstimatorCost(name="smd", mc_cost=1.0, ci_low=0.9, ci_high=1.1, n_trials=10),
                 EstimatorCost(**baseline)],
    )
    monkeypatch.setattr(experiments, "risk_compare", lambda cfg: report)
    assert dispatch(_cfg_for("risk", tmp_path), "risk").code == EXIT_ASSERTION


BAD_CONFIGS = {
    "T_string": ({"T": "abc"}, ValidationError),
    "seed_string": ({"seed": "x"}, ValidationError),
    "grid_number": ({"grid": 3}, ParseError),
    "w0_strings": ({"w0": ["a", "b"]}, ValidationError),
    "w0_wrong_length": ({"dim": 3, "w0": [1.0, 2.0]}, ValidationError),
    "dim_fraction": ({"dim": 2.7}, ValidationError),
    "T_fraction": ({"T": 2.5}, ValidationError),
    "dim_bool": ({"dim": True}, ValidationError),
    "control_eta_past_double_range": ({"control_eta": 10**400}, ValidationError),
    "model_noise_sigma2": ({"noise": {"kind": "model", "sigma2": 1.0}}, ParseError),
    "gaussian_planted_support": ({"planted": {"kind": "gaussian", "support": 3}}, ParseError),
    "check_margin_removed": ({"check_margin": False}, ParseError),
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_bad_value_is_a_config_error(case, tmp_path, caplog):
    raw, error = BAD_CONFIGS[case]
    with pytest.raises(error):
        config_from_mapping(raw)
    path = _write(tmp_path, dict(raw, output_dir=str(tmp_path / "o")))
    with caplog.at_level(logging.ERROR, logger="mirrorkit"):
        assert main(["run", "--config", str(path)]) == EXIT_ERROR
    assert any(r.message.startswith(error.__name__) for r in caplog.records)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("raw", [{"tolerances": {"identity_rtol": 1.0}}, {"tolerances": 5}, {"delta_pe": 0.1}],
                         ids=["tolerances", "tolerances_number", "delta_pe"])
def test_a_config_sets_no_bound(raw, tmp_path, caplog):
    # each bound is a constant next to the check or premise that reads it
    path = _write(tmp_path, dict(raw, output_dir=str(tmp_path / "o")))
    with caplog.at_level(logging.ERROR, logger="mirrorkit"):
        assert main(["audit", "--config", str(path)]) == EXIT_ERROR
    assert [r.getMessage() for r in caplog.records] == [f"ParseError: unknown key {next(iter(raw))!r} in config"]
    assert not (tmp_path / "o").exists()


def test_integral_float_counts_as_integer():
    cfg = make_config(T=1e4, n_trials=1e3)
    assert (cfg.T, cfg.n_trials) == (10_000, 1000)
    assert isinstance(cfg.T, int)


@pytest.mark.parametrize("seed", ["-3", str(2**64)])
def test_seed_override_is_checked_like_the_file(seed, tmp_path, caplog):
    path = _write(tmp_path, dict(BASE, output_dir=str(tmp_path / "o")))
    with caplog.at_level(logging.ERROR, logger="mirrorkit"):
        assert main(["run", "--config", str(path), "--seed", seed]) == EXIT_ERROR
    assert any(r.message.startswith("ValidationError: seed") for r in caplog.records)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("name", [p.stem for p in sorted(ROOT.glob("configs/*.json"))] + ["make_config"])
def test_resolved_config_round_trips(name, caplog):
    cfg = make_config() if name == "make_config" else parse_config(ROOT / "configs" / f"{name}.json")
    resolved = vars(cfg)
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="mirrorkit"):
        assert config_from_mapping(resolved) == cfg
        assert config_from_mapping(json.loads(json.dumps(resolved, sort_keys=True))) == cfg
    assert not [r for r in caplog.records if "applied default" in r.message]


def test_a_replaced_copy_leaves_its_original_and_equals_the_parsed_mapping():
    raw = json.loads((ROOT / "configs" / "risk_gaussian.json").read_text(encoding="utf-8"))
    cfg = parse_config(ROOT / "configs" / "risk_gaussian.json")
    fields = dict(vars(cfg))
    copy = cfg.replace(n_trials=60, seed=7, estimators=[{"kind": "smd"}, {"kind": "constant"}])
    assert vars(cfg) == fields and cfg == config_from_mapping(raw)
    assert copy == config_from_mapping(dict(raw, n_trials=60, seed=7, estimators=["smd", "constant"]))
    assert copy != cfg and copy.replace(**fields) == cfg


def test_replace_refuses_a_name_that_is_not_a_config_key():
    cfg = parse_config(ROOT / "configs" / "audit.json")
    with pytest.raises(TypeError, match=r"not config keys: n_trail, sed$"):
        cfg.replace(n_trials=5, sed=1, n_trail=5)
    assert cfg == parse_config(ROOT / "configs" / "audit.json")


def test_readme_config_table_lists_every_key():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Config keys\n", 1)[1].split("\n## ", 1)[0]
    keys = {name.split(".")[0] for name in re.findall(r"^\| `([^`]+)` \|", section, re.M)}
    assert keys == set(SCHEMA)


def test_risk_needs_at_least_one_step(tmp_path, caplog):
    path = _write(tmp_path, {"T": 0, "n_trials": 10, "output_dir": str(tmp_path / "o")})
    with caplog.at_level(logging.ERROR, logger="mirrorkit"):
        assert main(["risk", "--config", str(path)]) == EXIT_ERROR
    assert any(r.message.startswith("ConfigError") for r in caplog.records)
    with pytest.raises(ConfigError, match="T=0"):
        exponent_blowup_probe(make_config(n_trials=10), checkpoints=(0,))


def test_risk_needs_two_trials(tmp_path, caplog):
    # one trial has no spread, so every interval would collapse to its point
    # and the interval separation would pass on a single draw
    mapping = json.loads((ROOT / "configs" / "risk_gaussian.json").read_text(encoding="utf-8"))
    mapping["output_dir"] = str(tmp_path / "o")
    path = _write(tmp_path, dict(mapping, n_trials=1))
    with caplog.at_level(logging.ERROR, logger="mirrorkit"):
        assert main(["risk", "--config", str(path)]) == EXIT_ERROR
    assert any(r.message.startswith("ConfigError") and "n_trials=1" in r.message
               for r in caplog.records)
    assert not (tmp_path / "o").exists()
    path = _write(tmp_path, dict(mapping, n_trials=2))
    assert main(["risk", "--config", str(path)]) != EXIT_ERROR
    assert (tmp_path / "o" / "risk.csv").exists()


def test_risk_off_the_convexity_premise_is_refused_as_a_risk_premise(tmp_path, caplog):
    # eta 1.5 on unit inputs breaks eta |x|^2 <= 1 at every probe; the refusal
    # names its claim, as the premises of `require` do
    path = _write(tmp_path, _shipped("risk_gaussian", schedule={"kind": "constant", "eta": 1.5},
                                     output_dir=str(tmp_path / "o")))
    with caplog.at_level(logging.INFO, logger="mirrorkit"):
        assert main(["risk", "--config", str(path)]) == EXIT_ERROR
    assert caplog.records[-1].getMessage().startswith("ConfigError: risk convexity premise fails at ")
    assert not (tmp_path / "o").exists()


RISK_SMALL = dict(potential="squared_l2", loss="quadratic", dim=2, T=5, n_trials=50, seed=3,
                  inputs={"kind": "unit"}, schedule={"kind": "constant", "eta": 0.05})


@pytest.mark.parametrize("estimators, missing", [
    (["constant", "ssmd"], "needs an smd estimator"),
    (["smd", "ssmd"], "needs a baseline"),
    (["scaled_smd", "ssmd"], "needs a baseline"),
    (["ssmd"], "needs an smd estimator"),
], ids=["no_smd", "no_baseline", "descriptive_only", "ssmd_only"])
def test_risk_verdict_needs_smd_and_a_baseline(estimators, missing, tmp_path, caplog):
    # without either the run would exit 0 having compared nothing
    specs = [{"kind": k, "gamma": 1.0} if k == "scaled_smd" else {"kind": k} for k in estimators]
    path = _write(tmp_path, dict(RISK_SMALL, estimators=specs, output_dir=str(tmp_path / "o")))
    with caplog.at_level(logging.ERROR, logger="mirrorkit"):
        assert main(["risk", "--config", str(path)]) == EXIT_ERROR
    assert any(r.message.startswith("ConfigError") and missing in r.message for r in caplog.records)
    assert not (tmp_path / "o").exists()


def test_risk_scaled_smd_with_gamma_one_is_smd(tmp_path):
    specs = [{"kind": "scaled_smd", "gamma": 1.0}, {"kind": "constant"}]
    path = _write(tmp_path, dict(RISK_SMALL, estimators=specs, output_dir=str(tmp_path / "o")))
    assert main(["risk", "--config", str(path)]) != EXIT_ERROR
    rows = (tmp_path / "o" / "risk.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in rows[1:]] == ["smd", "constant"]


def test_risk_reports_each_estimators_effective_sample_size(tmp_path):
    path = _write(tmp_path, dict(RISK_SMALL, output_dir=str(tmp_path / "o")))
    assert main(["risk", "--config", str(path)]) != EXIT_ERROR
    header, *rows = [line.split(",") for line in (tmp_path / "o" / "risk.csv").read_text().splitlines()]
    assert header == ["estimator", "mc_cost", "ci_low", "ci_high", "n_trials", "ess"]
    assert all(1.0 <= float(row[5]) <= RISK_SMALL["n_trials"] for row in rows)


@pytest.mark.parametrize("specs, name", [
    ([{"kind": "smd"}, {"kind": "constant"}, {"kind": "constant"}], "constant"),
    ([{"kind": "smd"}, {"kind": "scaled_smd", "gamma": 1.0}, {"kind": "constant"}], "smd"),
], ids=["repeated_kind", "scaled_smd_gamma_one"])
def test_risk_rejects_estimators_that_share_a_report_name(specs, name, tmp_path, caplog):
    # each would run twice and write two rows of one name, of which the
    # verdict reads only the first
    path = _write(tmp_path, dict(RISK_SMALL, estimators=specs, output_dir=str(tmp_path / "o")))
    with caplog.at_level(logging.ERROR, logger="mirrorkit"):
        assert main(["risk", "--config", str(path)]) == EXIT_ERROR
    assert any(r.message.startswith("ValidationError") and f"repeats the estimator {name!r}" in r.message
               for r in caplog.records)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("T", [50, 100])
def test_converge_needs_two_checkpoints(T, tmp_path, caplog):
    # up to T 100 the only checkpoint is T itself, and a decay check would
    # compare the error with itself
    mapping = json.loads((ROOT / "configs" / "converge.json").read_text(encoding="utf-8"))
    mapping.update(T=T, n_trials=10, output_dir=str(tmp_path / "o"))
    path = _write(tmp_path, mapping)
    with caplog.at_level(logging.ERROR, logger="mirrorkit"):
        assert main(["converge", "--config", str(path)]) == EXIT_ERROR
    assert any(r.message.startswith("ConfigError") and "at least two checkpoints" in r.message
               for r in caplog.records)
    assert not (tmp_path / "o").exists()
    path = _write(tmp_path, dict(mapping, T=101))
    assert main(["converge", "--config", str(path)]) != EXIT_ERROR
    assert len((tmp_path / "o" / "converge.csv").read_text().splitlines()) == 3


def test_converge_writes_its_control_curve(tmp_path):
    # with control_eta set, each checkpoint also carries the constant-rate
    # control's error, which no check but the plateau reads
    mapping = json.loads((ROOT / "configs" / "converge.json").read_text(encoding="utf-8"))
    path = _write(tmp_path, dict(mapping, output_dir=str(tmp_path / "o")))
    assert main(["converge", "--config", str(path)]) == EXIT_PASS
    header, *rows = [line.split(",") for line in (tmp_path / "o" / "converge.csv").read_text().splitlines()]
    assert header == ["checkpoint_T", "mean_sq_error", "control_mean_sq_error"]
    assert [int(t) for t, *_ in rows] == [100, 1000, 10_000]
    assert [round(float(c), 4) for *_, c in rows[:2]] == [0.6246, 0.0195]
    del mapping["control_eta"]
    path = _write(tmp_path, dict(mapping, output_dir=str(tmp_path / "p")))
    assert main(["converge", "--config", str(path)]) == EXIT_PASS
    without = [line.split(",") for line in (tmp_path / "p" / "converge.csv").read_text().splitlines()]
    assert without == [header[:2]] + [row[:2] for row in rows]


def test_implicit_writes_each_cases_steps(tmp_path):
    path = _write(tmp_path, _shipped("implicit_l2", output_dir=str(tmp_path / "o")))
    assert main(["implicit", "--config", str(path)]) == EXIT_PASS
    header, *rows = [line.split(",") for line in (tmp_path / "o" / "implicit.csv").read_text().splitlines()]
    assert header == ["case", "gap", "feasibility", "kkt_residual", "steps"]
    assert [case for case, *_ in rows] == [f"case{k}" for k in range(5)]
    assert all(int(steps) >= 1 for *_, steps in rows)


def test_implicit_logs_no_record_per_case(tmp_path, caplog):
    # the cases are the rows of implicit.csv; the log has the defaults, the
    # checks and the wrote record, as every subcommand's has
    path = _write(tmp_path, _shipped("implicit_l2", output_dir=str(tmp_path / "o")))
    with caplog.at_level(logging.DEBUG, logger="mirrorkit"):
        assert main(["implicit", "--config", str(path)]) == EXIT_PASS
    messages = [r.getMessage() for r in caplog.records]
    assert not [m for m in messages if "case" in m]
    assert len([m for m in messages if m.startswith("implicit checks: ")]) == 1


def test_converge_fails_closed_when_the_control_diverges(tmp_path, caplog):
    # eta 5 makes the constant-rate control overflow to NaN; a NaN plateau
    # must not let the vanishing-rate run pass untested
    mapping = json.loads((ROOT / "configs" / "converge.json").read_text(encoding="utf-8"))
    mapping.update(T=2000, n_trials=10, control_eta=5.0, output_dir=str(tmp_path / "o"))
    path = _write(tmp_path, mapping)
    with caplog.at_level(logging.INFO, logger="mirrorkit"), np.errstate(all="ignore"):
        assert main(["converge", "--config", str(path)]) == EXIT_ASSERTION
    assert any(r.levelno == logging.ERROR and "constant-rate plateau: " in r.message
               and r.message.endswith(" < inf fails") for r in caplog.records)


def test_converge_names_its_non_finite_checkpoints(tmp_path):
    # on plain Gaussian rows the 1/i rates overflow the exponential mirror
    # map; the verdict says so, and numpy's overflow warnings stay inside
    cfg = make_config(
        potential="neg_entropy", loss="quadratic", dim=4, T=300, n_trials=100, seed=7,
        planted={"kind": "positive"}, schedule={"kind": "robbins_monro", "c": 1.0},
        noise={"kind": "gaussian", "sigma2": 1.0}, output_dir=str(tmp_path),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        verdict = dispatch(cfg, "converge")
    assert verdict.code == EXIT_ASSERTION
    assert verdict.reason == "non-finite checkpoints [100, 300]: 2 <= 0 fails"


@pytest.mark.parametrize("sub", ["audit", "implicit", "minimax"])
def test_verdicts_need_at_least_one_step(sub, tmp_path, caplog):
    path = _write(tmp_path, {"T": 0, "n_trials": 10, "output_dir": str(tmp_path / "o")})
    with caplog.at_level(logging.ERROR, logger="mirrorkit"):
        assert main([sub, "--config", str(path)]) == EXIT_ERROR
    assert any(r.message.startswith("ConfigError") and "at least one step" in r.message
               for r in caplog.records)
    assert not (tmp_path / "o").exists()
    # a path of w_0 alone asserts nothing, so `run` still writes it
    assert main(["run", "--config", str(path)]) == EXIT_PASS
    assert len((tmp_path / "o" / "trajectory.csv").read_text().splitlines()) == 2


@pytest.mark.parametrize("sub", ["run", "audit", "minimax"])
def test_a_diverging_recursion_names_its_step(sub, tmp_path, caplog):
    # eta 2 on unit rows overflows the q = 1.5 mirror map; the domain check
    # names the step, and numpy's overflow warnings stay inside
    path = _write(tmp_path, {
        "potential": {"kind": "separable_q", "q": 1.5}, "schedule": {"kind": "constant", "eta": 2.0},
        "inputs": "unit", "dim": 2, "T": 20, "seed": 916, "output_dir": str(tmp_path / "o"),
    })
    with warnings.catch_warnings(), caplog.at_level(logging.ERROR, logger="mirrorkit"):
        warnings.simplefilter("error", RuntimeWarning)
        assert main([sub, "--config", str(path)]) == EXIT_ERROR
    [message] = [r.getMessage() for r in caplog.records]
    assert re.fullmatch(r"DomainError: step \d+: non-finite coordinate", message)
    assert not (tmp_path / "o").exists()


def test_implicit_rejects_noisy_data(tmp_path, caplog):
    # the noise is the config's to choose; implicit refuses noisy data
    # rather than quietly running on noiseless outputs
    mapping = json.loads((ROOT / "configs" / "implicit_l2.json").read_text(encoding="utf-8"))
    mapping.update(noise={"kind": "gaussian", "sigma2": 1.0}, output_dir=str(tmp_path / "o"))
    path = _write(tmp_path, mapping)
    with caplog.at_level(logging.ERROR, logger="mirrorkit"):
        assert main(["implicit", "--config", str(path)]) == EXIT_ERROR
    assert any(r.message.startswith("ConfigError") and "requires noiseless data" in r.message
               for r in caplog.records)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv, code", [
    (["run", "--config", "cfg.json", "--seed", "abc"], EXIT_ERROR),
    (["optimize", "--config", "cfg.json"], EXIT_ERROR),
    (["run"], EXIT_ERROR),
    (["--help"], EXIT_PASS),
])
def test_usage_errors_exit_1_and_help_exits_0(argv, code, capsys):
    assert main(argv) == code


def _reference_parser():
    """The argparse parser the CLI was built on: `parse_args` must read every
    command line as it does, and refuse what it refuses with its message."""
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


ARGV_CASES = [
    # options before and after the subcommand, and --opt=value
    ["run", "--config", "c.json"],
    ["--config", "c.json", "--seed", "7", "minimax"],
    ["--out", "o", "risk", "--config", "c.json", "-v"],
    ["--config=c.json", "audit", "--seed=7", "--out=o", "--verbose"],
    ["sample-check", "--config=", "--out=-o"],
    # unique prefixes and repeated options: the last value wins
    ["converge", "--conf", "c.json", "--se", "3", "--o", "o", "--verb"],
    ["implicit", "--c=c.json", "--s=3"],
    ["run", "--config", "a.json", "--seed", "1", "--config", "b.json", "--seed", "2", "-v", "-v"],
    # a negative number and a token with a space are values
    ["run", "--config", "c.json", "--seed", "-3"],
    ["run", "--config", "c.json", "--out", "-my out"],
    ["run", "--config", "c.json", "-vv"],
    # help wherever it comes, unless a refusal comes before it
    ["-h"],
    ["run", "-h"],
    ["run", "--config", "c.json", "--strict", "-h"],
    ["--seed", "abc", "--help"],
    ["--he", "optimize"],
    ["optimize", "-h"],
    ["run", "--config", "c.json", "-vh"],
    # refusals
    ["run", "extra", "--config", "c.json"],
    ["run", "--config", "c.json", "--strict"],
    ["run", "--config", "c.json", "-x", "extra"],
    ["optimize", "--config", "c.json"],
    ["run", "--config", "c.json", "--seed", "abc"],
    ["run", "--config", "c.json", "--seed", "1.5"],
    ["run", "--config"],
    ["run", "--config", "--seed", "3"],
    ["run", "--config", "c.json", "--out", "-x"],
    ["run"],
    ["--config", "c.json"],
    [],
    ["run", "--config", "c.json", "--verbose=1"],
    ["run", "--config", "c.json", "-vx"],
    # plain lines, read without argparse: a subcommand name as a value, an
    # empty value, and seeds that int() reads
    ["minimax", "--config", "c.json", "--seed", "7", "--out", "o", "-v"],
    ["--out", "run", "minimax", "--config", "c.json"],
    ["--config", "run", "run"],
    ["run", "--config", ""],
    ["run", "--config", "c.json", "--seed", "+5"],
    ["run", "--config", "c.json", "--seed", " 6"],
    ["run", "--config", "c.json", "--seed", "3_0"],
    ["run", "--config", "c.json", "--seed", "0012"],
    # lines a plain reader must leave to argparse
    ["--out", "run", "--config", "c.json"],
    ["run", "--config", "c.json", "run"],
    ["run", "audit", "--config", "c.json"],
    ["run", "--config", "c.json", "--seed"],
    ["--out", "-x", "run", "--config", "c.json"],
    ["run", "--config", "c.json", "--seed", "3_"],
]


@pytest.mark.parametrize("argv", ARGV_CASES, ids=lambda argv: " ".join(argv) or "(empty)")
def test_parse_args_reads_a_command_line_as_argparse_does(argv, capsys):
    try:
        expected = vars(_reference_parser().parse_args(argv))
    except SystemExit as e:
        # --help exits 0; a usage error exits 2, its message after "error: "
        expected = None if e.code == 0 else capsys.readouterr().err.split("error: ", 1)[1].rstrip("\n")
    try:
        got = parse_args(list(argv))
    except UsageError as e:
        got = str(e)
    assert got == expected


def test_help_and_a_usage_error_print_what_argparse_prints(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage to the terminal
    reference = _reference_parser()
    with pytest.raises(SystemExit):
        reference.parse_args(["--help"])
    expected_help = capsys.readouterr().out
    with pytest.raises(SystemExit):
        reference.parse_args(["run", "--strict"])
    expected_error = capsys.readouterr().err
    assert main(["--help"]) == EXIT_PASS
    assert capsys.readouterr() == (expected_help, "")
    assert main(["run", "--strict"]) == EXIT_ERROR
    assert capsys.readouterr() == ("", expected_error)


def test_verbose_applies_to_every_call_in_a_process(tmp_path, monkeypatch, caplog):
    # logging.basicConfig configures only the first call of a process, so
    # `main` sets the level of the package's logger on every call; the
    # sampler tables are rebuilt per call, each logging one DEBUG line
    from mirrorkit import samplers

    argv = ["sample-check", "--config", str(ROOT / "configs" / "risk_logcosh_q3.json"), "--out", str(tmp_path)]
    debug_lines = []
    for flags in ([], ["-v"], []):
        monkeypatch.setattr(samplers, "_PRIOR_TABLES", {})
        monkeypatch.setattr(samplers, "_NOISE_TABLES", {})
        caplog.clear()
        assert main(argv + flags) == EXIT_PASS
        debug_lines.append(sum(r.levelno == logging.DEBUG for r in caplog.records))
    assert debug_lines[0] == debug_lines[2] == 0 < debug_lines[1]


def test_a_run_logs_its_checks_in_one_record(tmp_path, caplog):
    # the applied defaults, every check with its value, bound and outcome,
    # and the CSV written: three records
    argv = ["audit", "--config", str(ROOT / "configs" / "audit.json"), "--out", str(tmp_path)]
    with caplog.at_level(logging.INFO, logger="mirrorkit"):
        assert main(argv) == EXIT_PASS
    messages = [r.getMessage() for r in caplog.records]
    assert len(messages) == 3
    assert messages[0].startswith("applied defaults: ")
    assert re.fullmatch(r"audit checks: worst local residual: \S+ <= 1e-08 holds; "
                        r"global residual: \S+ <= 1e-08 holds", messages[1])
    assert messages[2].startswith("wrote ")
