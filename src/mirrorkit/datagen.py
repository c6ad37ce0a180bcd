"""Deterministic generation of inputs, planted weights, and noise streams.

Stream indices are fixed so that every subcommand and experiment derives
the same data from the same seed:

    0  inputs            3  margin probes
    1  planted weight    4  bootstrap resampling
    2  noise stream      1000+t  per-trial streams
"""

from dataclasses import dataclass, replace

import numpy as np

from .potentials import NegEntropy
from .samplers import ExpFamilySpec, NoiseSpec, RngStream, sample_noise, sample_weight, sample_white_noise

STREAM_INPUTS = 0
STREAM_WEIGHT = 1
STREAM_NOISE = 2
STREAM_PROBE = 3
STREAM_BOOTSTRAP = 4
STREAM_TRIAL_BASE = 1000


def gaussian_inputs(dim, count, rng, unit=False, scale=1.0):
    """A (count, dim) array of i.i.d. standard normal rows, optionally
    normalized; row r is the r-th of `count` successive `rng.normal(dim)`."""
    X = rng.normal_rows(count, dim)
    if unit:
        # np.vecdot takes each row's dot product as np.dot does, so a row's
        # norm is bit for bit np.linalg.norm of that row
        norm = np.sqrt(np.vecdot(X, X))[:, None]
        zero = norm[:, 0] < 1e-12
        X[zero], norm[zero] = np.eye(dim)[0], 1.0
        X = X / norm
    return scale * X


def basis_then_gaussian(dim, count, rng, scale=1.0):
    """A deterministic sweep of the standard basis, then Gaussian inputs.

    The prefix makes the accumulated Gram matrix hit any excitation level
    delta <= scale^2 after exactly dim steps.
    """
    prefix = scale * np.eye(dim)[: min(dim, count)]
    return np.concatenate([prefix, gaussian_inputs(dim, count - len(prefix), rng, scale=scale)])


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
    """One generated estimation problem: truth, inputs X (T, dim), outputs
    Y (T,) and noise stream; a batch of trials adds a leading axis to each."""

    w_true: np.ndarray
    X: np.ndarray
    Y: np.ndarray
    noises: np.ndarray


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
    X = make_inputs(cfg)
    rng_w = RngStream(cfg.seed, STREAM_WEIGHT)
    rng_v = RngStream(cfg.seed, STREAM_NOISE)
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
    # per-row dot products, each exactly np.dot(x, w_true), as in gaussian_inputs
    Y = m.g(np.vecdot(X, w_true)) + noises
    return Problem(w_true=w_true, X=X, Y=Y, noises=noises)


def generate_problems(cfg, n):
    """`generate_problem(_reseeded(cfg, t))` for t < n, stacked on a leading axis."""
    problems = [vars(generate_problem(_reseeded(cfg, t))).values() for t in range(n)]
    return Problem(*(np.stack(a) for a in zip(*problems)))
