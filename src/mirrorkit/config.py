"""Experiment configuration: strict JSON parsing with echoed defaults.

Unknown keys are rejected outright; a typo that silently fell back to a
default would invalidate a scientific run. Every default that does get
applied is echoed to the log.
"""

import json
import logging
from dataclasses import asdict, dataclass, replace

import numpy as np

from .descent import Constant, GeneralizedLinear, Linear, RobbinsMonro
from .errors import ParseError, ValidationError
from .losses import make_loss
from .potentials import NegEntropy, SeparableQ, SquaredL2
from .samplers import GridSpec

log = logging.getLogger("mirrorkit")

DEFAULT_TOLERANCES = {
    "identity_rtol": 1e-8,
    "cosines_rtol": 1e-9,
    "minimax_slack": 1e-9,
    "feasibility": 1e-9,
    "gap_squared_l2": 1e-6,
    "gap_general": 1e-5,
    "kkt_tol": 1e-10,
    "step_cap": 1_000_000,
}

DEFAULT_ESTIMATORS = (
    {"kind": "smd"},
    {"kind": "constant"},
    {"kind": "scaled_smd", "gamma": 0.5},
    {"kind": "scaled_smd", "gamma": 2.0},
    {"kind": "ssmd"},
)


@dataclass
class ExperimentConfig:
    """A validated, fully defaulted description of one run."""

    algorithm: str
    potential: dict
    loss: str
    model: str
    glm_link: str | None
    schedule: dict
    dim: int
    T: int
    n_trials: int
    seed: int
    delta_pe: float
    w0: object
    inputs: dict
    noise: dict
    planted: dict
    estimators: list
    tolerances: dict
    grid: dict
    check_margin: bool
    control_eta: float | None
    output_dir: str

    def build_potential(self):
        kind = self.potential["kind"]
        if kind == "squared_l2":
            return SquaredL2(self.dim)
        if kind == "neg_entropy":
            return NegEntropy(self.dim)
        return SeparableQ(self.potential["q"], self.dim)

    def build_loss(self):
        return make_loss(self.loss)

    def build_model(self):
        if self.model == "linear":
            return Linear()
        return GeneralizedLinear(self.glm_link)

    def build_schedule(self):
        if self.schedule["kind"] == "constant":
            return Constant(self.schedule["eta"])
        return RobbinsMonro(self.schedule["c"])

    def grid_spec(self):
        g = self.grid
        return GridSpec(g["half_width"], g["points"], g["auto_expand"])

    def w0_vector(self):
        """Explicit start, or the potential's minimizer when unspecified."""
        if self.w0 is None:
            return self.build_potential().argmin_point()
        if np.isscalar(self.w0):
            return np.full(self.dim, float(self.w0))
        v = np.asarray(self.w0, dtype=float)
        if v.shape != (self.dim,):
            raise ValidationError(f"w0 must be a scalar or a list of length dim={self.dim}")
        return v

    def with_overrides(self, seed=None, output_dir=None):
        cfg = self
        if seed is not None:
            cfg = replace(cfg, seed=int(seed))
        if output_dir is not None:
            cfg = replace(cfg, output_dir=str(output_dir))
        return cfg


def _reject_unknown(mapping, allowed, path):
    for key in mapping:
        if key not in allowed:
            raise ParseError(f"unknown key {key!r} in {path}")


def _positive(value, path, kind=float, strict=True):
    try:
        value = kind(value)
    except (TypeError, ValueError):
        raise ValidationError(f"{path} must be a number")
    if strict and not value > 0:
        raise ValidationError(f"{path} must be > 0")
    if not strict and value < 0:
        raise ValidationError(f"{path} must be >= 0")
    return value


def _variant(raw, path, allowed_kinds):
    """Normalize "name" or {"kind": "name", ...} into a dict with "kind"."""
    if isinstance(raw, str):
        raw = {"kind": raw}
    if not isinstance(raw, dict) or "kind" not in raw:
        raise ValidationError(f"{path} must be a name or an object with a 'kind'")
    if raw["kind"] not in allowed_kinds:
        raise ValidationError(
            f"{path}.kind must be one of {sorted(allowed_kinds)}, got {raw['kind']!r}"
        )
    return dict(raw)


def _default(mapping, key, value, path):
    if key in mapping and mapping[key] is not None:
        return mapping[key]
    log.info("applied default %s = %r", f"{path}.{key}" if path else key, value)
    return value


def config_from_mapping(raw):
    """Build a validated ExperimentConfig from a parsed JSON mapping."""
    if not isinstance(raw, dict):
        raise ParseError("top-level config must be a JSON object")
    allowed = {
        "algorithm", "potential", "loss", "model", "schedule", "dim", "T",
        "n_trials", "seed", "delta_pe", "w0", "inputs", "noise", "planted",
        "estimators", "tolerances", "grid", "check_margin", "control_eta",
        "output_dir",
    }
    _reject_unknown(raw, allowed, "config")

    algorithm = _default(raw, "algorithm", "smd", "")
    if algorithm not in ("smd", "ssmd", "sgd"):
        raise ValidationError(f"algorithm must be smd, ssmd, or sgd, got {algorithm!r}")

    potential = _variant(
        _default(raw, "potential", "squared_l2", ""),
        "potential",
        {"squared_l2", "neg_entropy", "separable_q"},
    )
    if potential["kind"] == "separable_q":
        _reject_unknown(potential, {"kind", "q"}, "potential")
        if "q" not in potential:
            raise ValidationError("potential.separable_q requires a 'q' parameter")
        potential["q"] = _positive(potential["q"], "potential.q")
        if not potential["q"] > 1.0:
            raise ValidationError("potential.q must be > 1")
    else:
        _reject_unknown(potential, {"kind"}, "potential")

    loss = _default(raw, "loss", "quadratic", "")
    if loss not in ("quadratic", "quartic", "logcosh"):
        raise ValidationError(f"loss must be quadratic, quartic, or logcosh, got {loss!r}")

    model_raw = _variant(_default(raw, "model", "linear", ""), "model", {"linear", "glm"})
    glm_link = None
    if model_raw["kind"] == "glm":
        _reject_unknown(model_raw, {"kind", "link"}, "model")
        glm_link = model_raw.get("link", "tanh")
        if glm_link not in ("tanh", "softplus"):
            raise ValidationError(f"model.glm.link must be tanh or softplus, got {glm_link!r}")
    else:
        _reject_unknown(model_raw, {"kind"}, "model")
    model = model_raw["kind"]

    schedule = _variant(
        _default(raw, "schedule", {"kind": "constant", "eta": 0.1}, ""),
        "schedule",
        {"constant", "robbins_monro"},
    )
    if schedule["kind"] == "constant":
        _reject_unknown(schedule, {"kind", "eta"}, "schedule")
        eta = schedule.get("eta")
        if eta is None:
            raise ValidationError("schedule.constant requires 'eta'")
        try:
            eta = float(eta)
        except (TypeError, ValueError):
            raise ValidationError("schedule.constant.eta must be a number")
        if not eta > 0:
            raise ValidationError("schedule.constant.eta must be > 0")
        schedule["eta"] = eta
    else:
        _reject_unknown(schedule, {"kind", "c"}, "schedule")
        if "c" not in schedule:
            raise ValidationError("schedule.robbins_monro requires 'c'")
        schedule["c"] = _positive(schedule["c"], "schedule.robbins_monro.c")

    dim = _positive(_default(raw, "dim", 2, ""), "dim", int)
    T = int(_default(raw, "T", 50, ""))
    if T < 0:
        raise ValidationError("T must be >= 0")
    n_trials = _positive(_default(raw, "n_trials", 1000, ""), "n_trials", int)
    seed = int(_default(raw, "seed", 0, ""))
    if not 0 <= seed < 2**64:
        raise ValidationError("seed must fit in an unsigned 64-bit integer")
    delta_pe = _positive(_default(raw, "delta_pe", 0.1, ""), "delta_pe")

    w0 = raw.get("w0")
    if w0 is not None and not (np.isscalar(w0) or isinstance(w0, list)):
        raise ValidationError("w0 must be a number or a list of numbers")

    inputs = _variant(
        _default(raw, "inputs", {"kind": "gaussian"}, ""),
        "inputs",
        {"gaussian", "unit", "basis_then_gaussian"},
    )
    _reject_unknown(inputs, {"kind", "scale"}, "inputs")
    inputs["scale"] = _positive(
        _default(inputs, "scale", 1.0, "inputs"), "inputs.scale"
    )

    noise = _variant(
        _default(raw, "noise", {"kind": "model"}, ""),
        "noise",
        {"model", "gaussian", "uniform", "rademacher", "none"},
    )
    _reject_unknown(noise, {"kind", "sigma2"}, "noise")
    noise["sigma2"] = _positive(
        _default(noise, "sigma2", 1.0, "noise"), "noise.sigma2"
    )

    planted = _variant(
        _default(raw, "planted", {"kind": "auto"}, ""),
        "planted",
        {"auto", "gaussian", "positive", "sparse"},
    )
    _reject_unknown(planted, {"kind", "support"}, "planted")
    planted["support"] = _positive(
        _default(planted, "support", 3, "planted"), "planted.support", int
    )

    estimators = raw.get("estimators")
    if estimators is None:
        estimators = [dict(e) for e in DEFAULT_ESTIMATORS]
        log.info("applied default estimators = %r", [e["kind"] for e in estimators])
    else:
        if not isinstance(estimators, list) or not estimators:
            raise ValidationError("estimators must be a nonempty list")
        normalized = []
        for i, e in enumerate(estimators):
            e = _variant(e, f"estimators[{i}]", {"smd", "ssmd", "constant", "scaled_smd", "risk_neutral"})
            if e["kind"] == "scaled_smd":
                _reject_unknown(e, {"kind", "gamma"}, f"estimators[{i}]")
                if "gamma" not in e:
                    raise ValidationError(f"estimators[{i}].scaled_smd requires 'gamma'")
                e["gamma"] = _positive(e["gamma"], f"estimators[{i}].gamma")
            else:
                _reject_unknown(e, {"kind"}, f"estimators[{i}]")
            normalized.append(e)
        estimators = normalized

    tolerances = dict(DEFAULT_TOLERANCES)
    raw_tol = raw.get("tolerances") or {}
    _reject_unknown(raw_tol, set(DEFAULT_TOLERANCES), "tolerances")
    for key, value in raw_tol.items():
        tolerances[key] = _positive(value, f"tolerances.{key}", int if key == "step_cap" else float)
    for key in DEFAULT_TOLERANCES:
        if key not in raw_tol:
            log.info("applied default tolerances.%s = %r", key, tolerances[key])

    grid = asdict(GridSpec())
    raw_grid = raw.get("grid") or {}
    _reject_unknown(raw_grid, set(grid), "grid")
    if "half_width" in raw_grid:
        grid["half_width"] = _positive(raw_grid["half_width"], "grid.half_width")
    if "points" in raw_grid:
        grid["points"] = _positive(raw_grid["points"], "grid.points", int)
    if "auto_expand" in raw_grid:
        grid["auto_expand"] = bool(raw_grid["auto_expand"])

    check_margin = bool(_default(raw, "check_margin", True, ""))
    control_eta = raw.get("control_eta")
    if control_eta is not None:
        control_eta = _positive(control_eta, "control_eta")
    output_dir = str(_default(raw, "output_dir", "out", ""))

    if algorithm == "sgd" and potential["kind"] != "squared_l2":
        raise ValidationError("algorithm sgd requires potential squared_l2")
    if algorithm == "ssmd" and model != "linear":
        raise ValidationError("algorithm ssmd requires the linear model")

    return ExperimentConfig(
        algorithm=algorithm,
        potential=potential,
        loss=loss,
        model=model,
        glm_link=glm_link,
        schedule=schedule,
        dim=dim,
        T=T,
        n_trials=n_trials,
        seed=seed,
        delta_pe=delta_pe,
        w0=w0,
        inputs=inputs,
        noise=noise,
        planted=planted,
        estimators=estimators,
        tolerances=tolerances,
        grid=grid,
        check_margin=check_margin,
        control_eta=control_eta,
        output_dir=output_dir,
    )


def make_config(**kwargs):
    """Programmatic configs go through the same validation as files."""
    return config_from_mapping(kwargs)


def parse_config(path):
    """Load, validate, and default-fill a JSON config file."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ParseError(f"cannot read config {path}: {e}")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON in {path} at line {e.lineno}, column {e.colno}: {e.msg}")
    return config_from_mapping(raw)
