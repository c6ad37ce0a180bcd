"""Experiment configuration: one declarative schema, strict JSON parsing,
echoed defaults.

`SCHEMA` has one row per key a config may set: its default and the one check
its value must pass. A variant block ("potential", "schedule", ...) lists
each kind's parameters as rows too, only for the kinds that read them.
The bounds the verdicts are checked against are not config keys: each is a
named constant next to the check or premise that reads it, so a config
cannot set the bound it is checked against. Unknown and repeated keys are
rejected outright; a typo that silently fell back to a default or
replaced a value would invalidate a scientific run. The defaults that do get
applied are echoed to the log in one record. The resolved config re-parses
to itself: `config_from_mapping(vars(cfg)) == cfg`, and so does a copy made
by `cfg.replace(...)` with valid values.

`PREMISES` has one row per premise of the paper's claims, and `require`
refuses a config outside a claim's premises before anything is computed.
"""

import json
import logging
import math
import numbers
from types import SimpleNamespace

import numpy as np

from .descent import Constant, GeneralizedLinear, Linear, RobbinsMonro
from .errors import ConfigError, ParseError, ValidationError
from .losses import make_loss
from .potentials import NegEntropy, SeparableQ, SquaredL2

log = logging.getLogger("mirrorkit")


class ExperimentConfig(SimpleNamespace):
    """A validated, fully defaulted description of one run. Two configs are
    equal when every field is; `vars(cfg)` is the config as a mapping."""

    def replace(self, **changes):
        """A copy with `changes` to its fields, whose names must be config
        keys and whose values are not checked; the original is left as it is."""
        if unknown := sorted(changes.keys() - SCHEMA.keys()):
            raise TypeError(f"replace() got names that are not config keys: {', '.join(unknown)}")
        return ExperimentConfig(**{**vars(self), **changes})

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
        if self.model["kind"] == "linear":
            return Linear()
        return GeneralizedLinear(self.model["link"])

    def build_schedule(self):
        if self.schedule["kind"] == "constant":
            return Constant(self.schedule["eta"])
        return RobbinsMonro(self.schedule["c"])

    def w0_vector(self):
        """Explicit start, or the potential's minimizer when unspecified."""
        if self.w0 is None:
            return self.build_potential().argmin_point()
        return np.full(self.dim, self.w0, dtype=float)

    def with_overrides(self, seed=None, output_dir=None):
        """A copy with the command-line overrides, checked like the file."""
        given = {"seed": seed, "output_dir": output_dir}
        return self.replace(**{k: SCHEMA[k][1](v, k, []) for k, v in given.items() if v is not None})


# One check per value type: each takes (value, path, applied) and returns the
# normalized value, or raises ValidationError naming the path. A check that
# resolves nested rows appends the defaults it applies to the list `applied`.


def _number(above=None):
    """A finite number, > `above` when given."""

    def check(value, path, applied):
        try:
            finite = not isinstance(value, bool) and math.isfinite(value)
        except (TypeError, OverflowError):  # not a number, or an integer past the double range
            finite = False
        if not finite:
            raise ValidationError(f"{path} must be a finite number, got {value!r}")
        if above is not None and not value > above:
            raise ValidationError(f"{path} must be > {above:g}")
        return float(value)

    return check


def _integer(low, high=None):
    """An integer in [low, high); an integral float such as JSON 1e4 counts."""

    def check(value, path, applied):
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValidationError(f"{path} must be an integer, got {value!r}")
        if value < low:
            raise ValidationError(f"{path} must be >= {low}")
        if high is not None and value >= high:
            raise ValidationError(f"{path} must be < {high}")
        return int(value)

    return check


def _text(value, path, applied):
    if not isinstance(value, str):
        raise ValidationError(f"{path} must be a string, got {value!r}")
    return value


def _choice(*options):
    def check(value, path, applied):
        if not isinstance(value, str) or value not in options:
            raise ValidationError(f"{path} must be one of {list(options)}, got {value!r}")
        return value

    return check


def _variant(kinds):
    """A kind name, or an object with a "kind" and that kind's parameters;
    `kinds` maps each kind to the rows of its parameters."""

    def check(value, path, applied):
        if isinstance(value, str):
            value = {"kind": value}
        if not isinstance(value, dict) or "kind" not in value:
            raise ValidationError(f"{path} must be a name or an object with a 'kind'")
        kind = _choice(*kinds)(value["kind"], f"{path}.kind", applied)
        params = {k: v for k, v in value.items() if k != "kind"}
        return {"kind": kind, **_resolve(kinds[kind], params, f"{path}.{kind}", applied)}

    return check


def _start(value, path, applied):
    """One number for every coordinate, or a list of numbers."""
    if isinstance(value, list):
        return [FINITE(v, f"{path}[{i}]", applied) for i, v in enumerate(value)]
    return FINITE(value, path, applied)


def estimator_name(spec):
    """The report name of a config-level estimator; scaled_smd with gamma 1 is smd."""
    if spec["kind"] == "scaled_smd" and spec.get("gamma", 1.0) != 1.0:
        return f"scaled_smd({spec['gamma']:g})"
    return "smd" if spec["kind"] == "scaled_smd" else spec["kind"]


def _estimators(value, path, applied):
    if not isinstance(value, (list, tuple)) or not value:
        raise ValidationError(f"{path} must be a nonempty list")
    specs = [_ESTIMATOR(e, f"{path}[{i}]", applied) for i, e in enumerate(value)]
    seen = {}
    for i, spec in enumerate(specs):
        name = estimator_name(spec)
        if name in seen:
            # one name would run twice and write two rows that report it
            raise ValidationError(f"{path}[{i}] repeats the estimator {name!r} of {path}[{seen[name]}]")
        seen[name] = i
    return specs


REQUIRED = object()  # row default of a parameter that must be given
FINITE = _number()
POSITIVE = _number(above=0.0)

_ESTIMATOR = _variant({
    "smd": {},
    "ssmd": {},
    "constant": {},
    "scaled_smd": {"gamma": (REQUIRED, POSITIVE)},
})

SCHEMA = {
    "algorithm": ("smd", _choice("smd", "ssmd")),
    "potential": ("squared_l2", _variant({
        "squared_l2": {},
        "neg_entropy": {},
        "separable_q": {"q": (REQUIRED, _number(above=1.0))},
    })),
    "loss": ("quadratic", _choice("quadratic", "quartic", "logcosh")),
    "model": ("linear", _variant({
        "linear": {},
        "glm": {"link": ("tanh", _choice("tanh", "softplus"))},
    })),
    "schedule": ({"kind": "constant", "eta": 0.1}, _variant({
        "constant": {"eta": (REQUIRED, POSITIVE)},
        "robbins_monro": {"c": (REQUIRED, POSITIVE)},
    })),
    "dim": (2, _integer(1)),
    "T": (50, _integer(0)),
    "n_trials": (1000, _integer(1)),
    "seed": (0, _integer(0, 2**64)),
    "w0": (None, _start),
    "inputs": ({"kind": "gaussian"}, _variant(dict.fromkeys(
        ("gaussian", "unit", "basis_then_gaussian"), {"scale": (1.0, POSITIVE)},
    ))),
    # "model" noise has the loss's density exp(-l(v)), with no variance
    "noise": ({"kind": "model"}, _variant({
        "model": {},
        **dict.fromkeys(("gaussian", "uniform", "rademacher"), {"sigma2": (1.0, POSITIVE)}),
        "none": {},
    })),
    # "auto" is sparse for separable_q with q < 2
    "planted": ({"kind": "auto"}, _variant({
        "auto": {"support": (3, _integer(1))},
        "gaussian": {},
        "positive": {},
        "sparse": {"support": (3, _integer(1))},
    })),
    "estimators": (
        ({"kind": "smd"}, {"kind": "constant"}, {"kind": "scaled_smd", "gamma": 0.5},
         {"kind": "scaled_smd", "gamma": 2.0}, {"kind": "ssmd"}),
        _estimators,
    ),
    "control_eta": (None, POSITIVE),
    "output_dir": ("out", _text),
}


# One row per premise of the paper's claims: (the claims it binds, holds(cfg),
# the reason a config outside it is refused, formatted with the config's
# fields). A claim is a subcommand, or the blow-up probe.
PREMISES = (
    # these claims are about the gradient-form update: the audit would flag
    # the symmetric rule falsely, and implicit and converge run smd anyway
    (("audit", "minimax", "implicit", "converge"), lambda c: c.algorithm == "smd",
     "applies to the smd recursion, not {algorithm}"),
    (("risk", "implicit", "converge", "blowup-probe"), lambda c: c.model["kind"] == "linear",
     "is defined for the linear model, not {model[kind]}"),
    (("risk",), lambda c: "smd" in map(estimator_name, c.estimators),
     "needs an smd estimator (smd, or scaled_smd with gamma 1)"),
    # the symmetric rule is scored under its own cost, so it is no baseline
    (("risk",), lambda c: bool(set(map(estimator_name, c.estimators)) - {"smd", "ssmd"}),
     "needs a baseline under the smd cost (constant, or scaled_smd with gamma != 1); ssmd is descriptive"),
    # one trial has no spread: its interval would collapse to its point
    (("risk",), lambda c: c.n_trials >= 2, "needs at least 2 trials, got n_trials={n_trials}"),
    # with no step the residuals, the certificate and the bounds hold vacuously
    (("audit", "minimax", "risk", "implicit"), lambda c: c.T >= 1,
     "needs at least one step, got T={T}"),
    (("audit", "minimax", "risk", "implicit", "blowup-probe"), lambda c: c.schedule["kind"] == "constant",
     "requires a constant learning rate, got schedule kind {schedule[kind]!r}"),
    # any other kind would draw a planted weight or white noise, outside the theorem
    (("risk", "blowup-probe"), lambda c: c.noise["kind"] == "model",
     "needs the exponential-family model's noise (noise kind 'model'), not {noise[kind]!r}"),
    (("implicit",), lambda c: c.noise["kind"] == "none", "requires noiseless data (noise kind 'none')"),
    (("implicit",), lambda c: c.T < c.dim, "needs an underdetermined system (T={T} rows < dim={dim})"),
    (("converge",), lambda c: c.schedule["kind"] != "constant", "requires a vanishing-step schedule"),
    (("converge",), lambda c: c.noise["kind"] in ("gaussian", "uniform", "rademacher"),
     "uses white noise (gaussian/uniform/rademacher)"),
    # the checkpoints are 100, 1000, 10 000 and T; a decay from one
    # checkpoint would compare the error with itself
    (("converge",), lambda c: c.T > 100, "needs at least two checkpoints, so T > 100; got T={T}"),
)


def require(cfg, claim):
    """Refuse `cfg` for `claim` with the reason of the first premise it fails."""
    for claims, holds, reason in PREMISES:
        if claim in claims and not holds(cfg):
            raise ConfigError(f"{claim} {reason.format(**vars(cfg))}")


def _resolve(rows, mapping, path, applied):
    """Check `mapping` against `rows`. An absent or null key takes its row's
    default, and None stays None. Each default applied other than None is
    appended to `applied` as "name = default"."""
    for key in mapping:
        if key not in rows:
            raise ParseError(f"unknown key {key!r} in {path or 'config'}")
    resolved = {}
    for key, (default, check) in rows.items():
        name = f"{path}.{key}" if path else key
        value = mapping.get(key)
        if value is None:
            if default is REQUIRED:
                raise ValidationError(f"{name} is required")
            if default is not None:
                applied.append(f"{name} = {default!r}")
            value = default
        resolved[key] = None if value is None else check(value, name, applied)
    return resolved


def config_from_mapping(raw):
    """Build a validated ExperimentConfig from a parsed JSON mapping; log
    the defaults it applied in one record."""
    if not isinstance(raw, dict):
        raise ParseError("top-level config must be a JSON object")
    applied = []
    cfg = ExperimentConfig(**_resolve(SCHEMA, raw, "", applied))
    if applied:
        log.info("applied defaults: %s", "; ".join(applied))
    if cfg.algorithm == "ssmd" and cfg.model["kind"] != "linear":
        raise ValidationError("algorithm ssmd requires the linear model")
    if isinstance(cfg.w0, list) and len(cfg.w0) != cfg.dim:
        raise ValidationError(f"w0 must be a number or a list of length dim={cfg.dim}")
    return cfg


def make_config(**kwargs):
    """Programmatic configs go through the same validation as files."""
    return config_from_mapping(kwargs)


def _unique_keys(pairs):
    """One JSON object as a dict; a repeated key, which `json.loads` would
    resolve to its last value, raises ParseError."""
    mapping = {}
    for key, value in pairs:
        if key in mapping:
            raise ParseError(f"repeated key {key!r}")
        mapping[key] = value
    return mapping


def parse_config(path):
    """Load, validate, and default-fill a JSON config file."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ParseError(f"cannot read config {path}: {e}")
    try:
        raw = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON in {path} at line {e.lineno}, column {e.colno}: {e.msg}")
    return config_from_mapping(raw)
