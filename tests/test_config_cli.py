import json
import logging

import numpy as np
import pytest

from mirrorkit import ParseError, ValidationError, parse_config
from mirrorkit.cli import EXIT_ASSERTION, EXIT_PASS, dispatch, main, write_csv
from mirrorkit.config import make_config


def _write(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def test_minimal_config_applies_defaults(tmp_path, caplog):
    path = _write(tmp_path, {"seed": 5})
    with caplog.at_level(logging.INFO, logger="mirrorkit"):
        cfg = parse_config(path)
    assert cfg.seed == 5
    assert cfg.algorithm == "smd"
    assert cfg.schedule == {"kind": "constant", "eta": 0.1}
    echoed = [r.message for r in caplog.records if "applied default" in r.message]
    assert any("algorithm" in m for m in echoed)
    assert any("tolerances.identity_rtol" in m for m in echoed)


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
        make_config(algorithm="sgd", potential="neg_entropy")
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


def test_csv_rendering(tmp_path):
    path = tmp_path / "x.csv"
    write_csv(path, ["a", "b", "c"], [[1, 1.0 / 3.0, True], [2, float("inf"), False]])
    text = path.read_bytes().decode()
    assert text.splitlines()[0] == "a,b,c"
    assert "0.33333333333333331" in text
    assert "true" in text and "false" in text
    assert "\r" not in text


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
    assert dispatch(_cfg_for(sub, out1), sub) == EXIT_PASS
    assert dispatch(_cfg_for(sub, out2), sub) == EXIT_PASS
    f1 = (out1 / ARTIFACTS[sub]).read_bytes()
    f2 = (out2 / ARTIFACTS[sub]).read_bytes()
    assert f1 == f2
    assert len(f1.splitlines()) > 1


def test_different_seed_changes_artifact(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    dispatch(_cfg_for("run", out1), "run")
    dispatch(_cfg_for("run", out2, seed=99), "run")
    assert (out1 / "trajectory.csv").read_bytes() != (out2 / "trajectory.csv").read_bytes()


def test_audit_exit_code_on_forced_failure(tmp_path):
    cfg = _cfg_for("audit", tmp_path)
    cfg.tolerances["identity_rtol"] = 1e-30  # below roundoff: must fail
    assert dispatch(cfg, "audit") == EXIT_ASSERTION


def test_dispatch_unknown_subcommand(tmp_path):
    with pytest.raises(ValueError):
        dispatch(_cfg_for("run", tmp_path), "optimize")


def test_main_end_to_end(tmp_path):
    path = _write(tmp_path, dict(BASE, output_dir=str(tmp_path / "o")))
    assert main(["run", "--config", str(path)]) == EXIT_PASS
    assert (tmp_path / "o" / "trajectory.csv").exists()
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o2"), "--seed", "77"]) == EXIT_PASS
    assert (tmp_path / "o2" / "trajectory.csv").exists()


def test_main_error_exit(tmp_path):
    path = _write(tmp_path, {"momentum": 1})
    assert main(["run", "--config", str(path)]) == 1


def test_main_strict_turns_warning_into_error(tmp_path):
    from mirrorkit import StabilityWarning

    # eta far beyond the stability bound trips the margin warning
    payload = dict(BASE, schedule={"kind": "constant", "eta": 25.0},
                   potential="squared_l2", output_dir=str(tmp_path / "o"))
    path = _write(tmp_path, payload)
    with pytest.warns(StabilityWarning):
        assert main(["run", "--config", str(path)]) == EXIT_PASS
    assert main(["run", "--config", str(path), "--strict"]) == 1


def test_audit_rejects_symmetric_rule(tmp_path):
    cfg = make_config(**dict(BASE, algorithm="ssmd", output_dir=str(tmp_path)))
    from mirrorkit import ConfigError

    with pytest.raises(ConfigError):
        dispatch(cfg, "audit")
    with pytest.raises(ConfigError):
        dispatch(cfg, "minimax")


def test_grid_override_reaches_sampler(tmp_path):
    from mirrorkit import GridError, risk_compare

    cfg = make_config(
        potential={"kind": "separable_q", "q": 3.0}, loss="logcosh", dim=2, T=5,
        n_trials=50, w0=1.0, inputs={"kind": "unit"},
        schedule={"kind": "constant", "eta": 0.1},
        grid={"half_width": 1.0, "points": 64, "auto_expand": False},
    )
    with pytest.raises(GridError):
        risk_compare(cfg)


def test_minimax_fails_closed_when_no_trial_is_certified(tmp_path, caplog):
    # eta 1.5 on gaussian inputs breaks the convexity premise on every trial
    cfg = make_config(
        potential="squared_l2", loss="quadratic", dim=3, T=30, n_trials=50, seed=0,
        schedule={"kind": "constant", "eta": 1.5}, inputs={"kind": "gaussian"},
        output_dir=str(tmp_path),
    )
    with caplog.at_level(logging.INFO, logger="mirrorkit"):
        assert dispatch(cfg, "minimax") == EXIT_ASSERTION
    assert any("0/50 trials premise-certified" in r.message for r in caplog.records)
    assert any(r.levelno == logging.ERROR for r in caplog.records)


@pytest.mark.parametrize("field", ["mc_cost", "ci_low"])
def test_risk_verdict_fails_on_nan(field, tmp_path, monkeypatch):
    from mirrorkit import experiments
    from mirrorkit.experiments import EstimatorCost, RiskReport, SMDCost

    baseline = dict(name="constant", mc_cost=2.0, ci_low=1.8, ci_high=2.2, n_trials=10)
    baseline[field] = float("nan")
    report = RiskReport(
        entries=[EstimatorCost("smd", 1.0, 0.9, 1.1, 10), EstimatorCost(**baseline)],
        exponent_mode=SMDCost(),
    )
    monkeypatch.setattr(experiments, "risk_compare", lambda cfg, warn_only=False: report)
    assert dispatch(_cfg_for("risk", tmp_path), "risk") == EXIT_ASSERTION
