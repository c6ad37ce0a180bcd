"""Deterministic generation of inputs, planted weights, and noise streams.

Stream indices are fixed so that every subcommand and experiment derives
the same data from the same seed:

    0  inputs            3  margin probes
    1  planted weight    4  bootstrap resampling
    2  noise stream      1000+t  per-trial streams
"""

from dataclasses import dataclass, replace

import numpy as np

from .descent import DataPoint, NoiseSpec
from .potentials import NegEntropy
from .samplers import ExpFamilySpec, RngStream, sample_noise, sample_weight, sample_white_noise

STREAM_INPUTS = 0
STREAM_WEIGHT = 1
STREAM_NOISE = 2
STREAM_PROBE = 3
STREAM_BOOTSTRAP = 4
STREAM_TRIAL_BASE = 1000


def gaussian_inputs(dim, count, rng, unit=False, scale=1.0):
    """Rows of i.i.d. standard normal inputs, optionally normalized."""
    xs = []
    for _ in range(count):
        x = np.asarray(rng.normal(dim))
        if unit:
            norm = np.linalg.norm(x)
            if norm < 1e-12:
                x = np.zeros(dim)
                x[0] = 1.0
                norm = 1.0
            x = x / norm
        xs.append(scale * x)
    return xs


def basis_then_gaussian(dim, count, rng, scale=1.0):
    """A deterministic sweep of the standard basis, then Gaussian inputs.

    The prefix makes the accumulated Gram matrix hit any excitation level
    delta <= scale^2 after exactly dim steps.
    """
    prefix = [scale * np.eye(dim)[j] for j in range(min(dim, count))]
    return prefix + gaussian_inputs(dim, count - len(prefix), rng, scale=scale)


def make_inputs(cfg, count=None):
    rng = RngStream(cfg.seed, STREAM_INPUTS)
    count = cfg.T if count is None else count
    kind = cfg.inputs["kind"]
    scale = cfg.inputs["scale"]
    if kind == "gaussian":
        return gaussian_inputs(cfg.dim, count, rng, scale=scale)
    if kind == "unit":
        return gaussian_inputs(cfg.dim, count, rng, unit=True, scale=scale)
    return basis_then_gaussian(cfg.dim, count, rng, scale=scale)


def planted_weight(cfg, potential, rng):
    """A fixed ground-truth weight compatible with the potential's domain."""
    kind = cfg.planted["kind"]
    if kind == "auto":
        if isinstance(potential, NegEntropy):
            kind = "positive"
        elif potential.kind == "separable_q" and potential.q < 2.0:
            kind = "sparse"
        else:
            kind = "gaussian"
    z = np.asarray(rng.normal(cfg.dim))
    if kind == "gaussian":
        return z
    if kind == "positive":
        return np.abs(z) + 0.5
    support = min(cfg.planted["support"], cfg.dim)
    w = np.zeros(cfg.dim)
    idx = np.argsort(-np.abs(z))[:support]
    w[idx] = np.sign(z[idx]) * (1.0 + np.abs(z[idx]))
    return w


@dataclass
class Problem:
    """One generated estimation problem: truth, stream, and observations."""

    w_true: np.ndarray
    inputs: list
    noises: np.ndarray
    data: list
    prior: ExpFamilySpec | None


def _reseeded(cfg, trial):
    """A distinct but reproducible seed for one trial or case."""
    return replace(cfg, seed=(cfg.seed + 0x9E3779B9 * (trial + 1)) % 2**63)


def prior_scale(cfg):
    """Scale of the weight prior: the (initial) learning rate."""
    return cfg.build_schedule().rate(1)


def generate_problem(cfg):
    """Draw (w_true, noises) per the configured generative model and
    assemble y_i = f(x_i, w_true) + v_i."""
    p = cfg.build_potential()
    l = cfg.build_loss()
    m = cfg.build_model()
    inputs = make_inputs(cfg)
    rng_w = RngStream(cfg.seed, STREAM_WEIGHT)
    rng_v = RngStream(cfg.seed, STREAM_NOISE)
    prior = None
    kind = cfg.noise["kind"]
    if kind == "model":
        prior = ExpFamilySpec(p, cfg.w0_vector(), prior_scale(cfg), grid=cfg.grid_spec())
        w_true = sample_weight(prior, rng_w)
        noises = np.asarray(sample_noise(l, rng_v, size=cfg.T))
    else:
        w_true = planted_weight(cfg, p, rng_w)
        if kind == "none":
            noises = np.zeros(cfg.T)
        else:
            spec = NoiseSpec(variance=cfg.noise["sigma2"], kind=kind)
            noises = np.asarray(sample_white_noise(spec, rng_v, size=cfg.T))
    data = [
        DataPoint(x, m.predict(x, w_true) + v) for x, v in zip(inputs, noises)
    ]
    return Problem(w_true=w_true, inputs=inputs, noises=noises, data=data, prior=prior)
