"""Deterministic generation of inputs, planted weights, and noise streams.

Stream indices are fixed so that every subcommand and experiment derives
the same data from the same seed:

    0  inputs shared by the trials of risk, the blow-up probe and converge
    1  converge's planted weight
    2-5  sample-check's mirror-mean, noise, tabulated and direct draws
    1000+t  trial t

Each is a splitmix64 counter row of `samplers.trial_uniforms(seed, n, k)`,
which an `RngStream` reads in order. Trial t's draws are row t, split
across draws by `trial_draws` and laid out per subcommand as

    risk, blow-up probe   [weight | noises]
    converge (run t)      [noises], read by step windows
    minimax               [inputs | weight | noises]
    run, audit            trial 0 of minimax
    implicit (case t)     [inputs | planted]

`risk` and the blow-up probe read the rows a block of trials at a time
(`trial_draws(..., first=a)`, `experiments.TRIAL_BLOCK` rows on the map
path), and `converge` reads each chunk of steps from its own columns of the
rows (`samplers.white_noise_window`); the layout is that of the whole row.
Each transform below is a (k, values) pair, as in the samplers: k uniforms
per draw, and `values` maps a (rows, k) block to one draw per row.
"""

from types import SimpleNamespace

import numpy as np

from .potentials import NegEntropy
from .samplers import (
    ExpFamilySpec,
    RngStream,
    box_muller,
    noise_draw,
    one_draw,
    trial_uniforms,
    weight_draw,
    white_noise_draw,
)

STREAM_INPUTS = 0
STREAM_WEIGHT = 1
STREAM_SAMPLE_CHECK = 2  # and 3, 4 and 5


def unit_rows(X):
    """Each row of X (..., dim) scaled to norm one; a row of norm below
    1e-12 becomes the first basis vector."""
    # np.vecdot takes each row's dot product as np.dot does, so a row's
    # norm is bit for bit np.linalg.norm of that row
    norm = np.sqrt(np.vecdot(X, X))[..., None]
    zero = norm[..., 0] < 1e-12
    if zero.any():
        X[zero], norm[zero] = np.eye(X.shape[-1])[0], 1.0
    return X / norm


def input_draw(dim, count, kind="gaussian", scale=1.0):
    """(k, values): `count` input rows of the named kind take k uniforms, and
    `values` maps a (rows, k) block of them to (rows, count, dim) inputs.
    Gaussian rows are one Box-Muller draw each, in order; "unit" normalizes
    them, and "basis_then_gaussian" first sweeps the standard basis, so
    that the accumulated Gram matrix hits any excitation level
    delta <= scale^2 after exactly dim steps."""
    basis = min(dim, count) if kind == "basis_then_gaussian" else 0
    width = dim + dim % 2

    def values(U):
        X = box_muller(U.reshape(-1, width), dim).reshape(len(U), count - basis, dim)
        if kind == "unit":
            X = unit_rows(X)
        X = scale * X
        if basis:
            prefix = np.broadcast_to(scale * np.eye(dim)[:basis], (len(U), basis, dim))
            X = np.concatenate([prefix, X], axis=1)
        return X

    return (count - basis) * width, values


def gaussian_inputs(dim, count, rng, unit=False, scale=1.0):
    """A (count, dim) array of i.i.d. standard normal rows, optionally
    normalized; row r is the r-th of `count` successive `rng.normal(dim)`."""
    return one_draw(input_draw(dim, count, "unit" if unit else "gaussian", scale), rng)


def make_inputs(cfg, count=None):
    draw = input_draw(cfg.dim, cfg.T if count is None else count, cfg.inputs["kind"], cfg.inputs["scale"])
    return one_draw(draw, RngStream(cfg.seed, STREAM_INPUTS))


def planted_draw(cfg, potential):
    """(k, values): a fixed ground-truth weight compatible with the
    potential's domain takes k uniforms, and `values` maps a (rows, k)
    block of them to (rows, dim) weights, one normal draw per row. A sparse
    weight is nonzero only at the `support` normals largest in magnitude."""
    kind = cfg.planted["kind"]
    if kind == "auto":
        if isinstance(potential, NegEntropy):
            kind = "positive"
        elif potential.kind == "separable_q" and potential.q < 2.0:
            kind = "sparse"
        else:
            kind = "gaussian"
    dim = cfg.dim

    def values(U):
        z = box_muller(U, dim)
        if kind == "gaussian":
            return z
        if kind == "positive":
            return np.abs(z) + 0.5
        idx = np.argsort(-np.abs(z), axis=-1)[:, : cfg.planted["support"]]
        top = np.take_along_axis(z, idx, axis=-1)
        w = np.zeros_like(z)
        np.put_along_axis(w, idx, np.sign(top) * (1.0 + np.abs(top)), axis=-1)
        return w

    return dim + dim % 2, values


def planted_weight(cfg, potential, rng):
    """A fixed ground-truth weight compatible with the potential's domain."""
    return one_draw(planted_draw(cfg, potential), rng)


class Problem(SimpleNamespace):
    """One generated estimation problem: truth w_true, inputs X (T, dim),
    outputs Y (T,) and noises; a batch of trials adds a leading axis to each."""


def prior_scale(cfg):
    """Scale of the weight prior: the (initial) learning rate."""
    return float(cfg.build_schedule().rates(1)[0])


def trial_draws(seed, n, draws, first=0):
    """The values of each (k, values) draw for trials first .. first+n-1:
    the row of trial t in `trial_uniforms` holds its uniforms of every draw,
    in order."""
    U = trial_uniforms(seed, n, sum(k for k, _ in draws), first=first)
    out, a = [], 0
    for k, values in draws:
        out.append(values(U[:, a : a + k]))
        a += k
    return out


def problem_draws(cfg):
    """The (k, values) draws of a problem's weight and noises: the weight
    from the exponential-family prior and the noises from the loss under
    the "model" noise kind, else a planted weight and white noise."""
    p = cfg.build_potential()
    kind = cfg.noise["kind"]
    if kind == "model":
        prior = ExpFamilySpec(p, cfg.w0_vector(), prior_scale(cfg))
        return weight_draw(prior), noise_draw(cfg.build_loss(), cfg.T)
    if kind == "none":
        noise = 0, lambda U: np.zeros((len(U), cfg.T))
    else:
        noise = white_noise_draw(kind, cfg.noise["sigma2"], cfg.T)
    return planted_draw(cfg, p), noise


def _assemble(cfg, X, w_true, noises):
    """The problem y_i = f(x_i, w_true) + v_i, one or a batch."""
    # per-row dot products, each exactly np.dot(x, w_true), as in unit_rows
    Y = cfg.build_model().g(np.vecdot(X, w_true[..., None, :])) + noises
    return Problem(w_true=w_true, X=X, Y=Y, noises=noises)


def generate_problem(cfg):
    """Trial 0 of `generate_problems`, without the trial axis."""
    return Problem(**{name: a[0] for name, a in vars(generate_problems(cfg, 1)).items()})


def generate_problems(cfg, n):
    """The problems of trials 0 .. n-1 on a leading axis: trial t's inputs,
    weight and noises, in that order, from row t of `trial_uniforms`."""
    inputs = input_draw(cfg.dim, cfg.T, cfg.inputs["kind"], cfg.inputs["scale"])
    return _assemble(cfg, *trial_draws(cfg.seed, n, [inputs, *problem_draws(cfg)]))
