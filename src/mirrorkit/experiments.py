"""Desk-scale experiments: risk-sensitive comparison, implicit regularization
against independent oracles, and mean-square convergence under vanishing steps.

Monte Carlo trial t draws from row t of one counter-based block of
uniforms, so its draws are independent of execution order and of the trial
count, bit for bit. Its results are too, up to roundoff: on the
linear-quadratic map path of `risk` an exponent goes through a matrix
product whose summation order follows the row count of its trial block
(up to 1.9e-15 relative with 1-row blocks).
"""

import logging
import warnings
from itertools import chain, cycle, repeat
from types import SimpleNamespace

import numpy as np

from .config import estimator_name, require
from .datagen import (
    STREAM_WEIGHT,
    generate_problems,
    make_inputs,
    planted_weight,
    problem_draws,
    trial_draws,
)
from .descent import (
    Constant,
    Linear,
    _rowdot,
    mirror_steps,
    persistent_excitation,
    premise_holds,
    smd_shift,
    ssmd_shift,
)
from .errors import ConfigError, ConvergenceError, RankError, StepCapError
from .losses import Quadratic
from .potentials import SquaredL2
from .samplers import BLOCK_VALUES, RngStream, white_noise_window

log = logging.getLogger("mirrorkit")

BOOTSTRAP_RESAMPLES = 2000
# the standard normal's 0.975 quantile, NormalDist().inv_cdf(0.975), written
# out so that no statistics import is paid for it
Z_975 = 1.9599639845400536
# The linear-quadratic convergence runs jump this many steps per block map;
# it divides 100, so every fixed checkpoint (100, 1000, 10 000) ends a block.
# Longer blocks mean fewer Python-level block steps and reversed steps per
# map, but the output chunks are whole blocks of at most BLOCK_VALUES
# values, so past 50 they shrink (150 steps at K 50, 100 at K 100, for 100
# runs) and the noise windows cost more. `msq_convergence` on converge.json
# (T 10^4, 100 runs and the control; one BLAS thread, a 2-core VM, best of
# 50 with the four K interleaved, in two rounds) took 25.9-26.3 ms at K 10,
# 22.5-22.7 at K 25, 21.9-22.1 at K 50 and 22.8-23.0 at K 100.
MAP_STEPS = 50
# `risk` and the blow-up probe read the linear-quadratic exponents off each
# estimator's full prediction map up to this many steps, and step through
# the recursion beyond it. The map costs n_trials * T^2 work and a T x T
# matrix, the recursion n_trials * T * dim in T Python steps. For one smd
# estimator on 2000 trials, one TRIAL_BLOCK (dim 4, one BLAS thread, a
# 2-core VM, best of 5 in 2-3 rounds), the recursion against the map took
# 26-33 against 13-16 ms at T 300, 62-78 against 31-46 at T 500, 87-119
# against 58-80 at T 700, 123-147 against 110-112 at T 850 and 126-158
# against 110-138 at T 1000: the crossover is near T 1000, and 700 keeps a
# margin below it.
MAP_T = 700
# The map path of `risk` and the blow-up probe draws, predicts and scores
# this many trials at a time, so a block's uniforms, outputs and residuals
# stay in cache (at T 20 a block's 24 uniforms a trial take 384 KiB) while
# its products stay large. `risk_compare` on risk_gaussian (10^4 trials,
# T 20, 3 distinct maps; one BLAS thread, a 2-core VM, best of 64 in 8
# rounds) took 11.0 ms at 682 rows, 10.8 at 1365, 10.1 at 2048, 9.6 at
# 2500 (within the noise of 2048), 11.7 at 4096 and 13.9 in one block of
# 10^4. It counts rows, not values, so that a long horizon still gets
# thousands of trials a block (at T 3000 a trial takes 3004 uniforms).
TRIAL_BLOCK = 2048


# ---------------------------------------------------------------------------
# exponential-cost criteria


class SMDCost:
    """Exponent sum_i D_l(y_i - x_i^T w, y_i - z_i)."""


class SSMDCost:
    """Exponent sum_i D_l(x_i^T w, z_i)."""


class ScaledQuadratic(SimpleNamespace):
    """Exponent alpha * sum_i (x_i^T w - z_i)^2; alpha = 1/2 matches the
    quadratic-loss SMD cost."""


def _mode_increment(mode, l, y, xw_true, z):
    if isinstance(mode, SMDCost):
        return l.bregman(y - xw_true, y - z)
    if isinstance(mode, SSMDCost):
        return l.bregman(xw_true, z)
    return mode.alpha * np.square(xw_true - z)


# ---------------------------------------------------------------------------
# causal estimators (batched across trials)


def estimator_predictions(spec, p, l, eta, X, Y, w0):
    """(name, predictions) of one config-level estimator on a batch of trials.

    `Y` holds each trial's outputs, shape (n_trials, T), for the shared inputs
    `X`; `predictions` yields one (n_trials,) column per step. Causality is
    structural: prediction i is taken from the state after steps 1 .. i-1,
    before y_i is used.
    """
    kind, name = spec["kind"], estimator_name(spec)
    if kind == "constant":
        # the no-update baseline z_i = x_i^T w_0
        return name, (np.full(len(Y), float(w0 @ x)) for x in X)
    if kind == "ssmd":
        shift = ssmd_shift(l)
    elif kind in ("smd", "scaled_smd"):
        eta = eta * spec.get("gamma", 1.0)
        shift = smd_shift(l, Linear())
    else:
        raise ConfigError(f"unknown estimator kind {kind!r}")
    # mirror-descent predictions z_i = x_i^T w_{i-1}
    W0 = np.tile(np.asarray(w0, dtype=float), (len(Y), 1))
    steps = mirror_steps(p, W0, X, Y.T, repeat(eta), shift)
    return name, (W @ x for x, W in zip(X, chain([W0], steps)))


def prediction_map(spec, p, l, eta, X, w0):
    """(name, c, K) of one config-level estimator whose predictions are
    affine in the outputs, z = c + K y, as every estimator's are with the
    squared-L2 potential, the quadratic loss and the linear model. `c` (T,)
    holds the predictions from all-zero outputs and `K` (T, T), strictly
    lower triangular by causality, how prediction i moves with output j.
    Both come from one `estimator_predictions` call on the T + 1 output
    trials [0; I_T]: `c` is trial 0's predictions, and row j of K^T is trial
    j's minus `c`. A batch of trials with outputs Y (n_trials, T) is then
    predicted as c + Y K^T. `risk` and the blow-up probe take their
    linear-quadratic exponents from it up to MAP_T = 700 steps, below the
    crossover near T 1000 that MAP_T's comment measures; the map is T x T,
    and its product with the outputs costs n_trials * T^2."""
    T = len(X)
    name, predictions = estimator_predictions(spec, p, l, eta, X, np.eye(T + 1, T, -1), w0)
    Z = np.reshape(list(predictions), (T, T + 1))
    return name, Z[:, 0], Z[:, 1:] - Z[:, :1]


# ---------------------------------------------------------------------------
# risk-sensitive comparison


class EstimatorCost(SimpleNamespace):
    """One estimator's name, mc_cost and ci_low .. ci_high over n_trials, its
    cost mode, and the per-trial costs with their effective sample size ess."""

    mode = SMDCost()
    costs = None
    ess = float("nan")


class RiskReport(SimpleNamespace):
    """The EstimatorCost `entries` of one comparison."""

    def entry(self, name):
        return {e.name: e for e in self.entries}[name]


def bootstrap_basic_ci(values, rng, n_resamples=BOOTSTRAP_RESAMPLES, level=0.95):
    """Basic (reverse-percentile) bootstrap interval for the mean of `values`
    (n,), or one per row of a stack (E, n) of paired samples. All rows share
    the resampling indices, drawn by `rng.integers` (from numpy's `default_rng`)
    in blocks of at most BLOCK_VALUES values. A resample mean is the mean of
    the values it gathers from its own row, so a row's interval depends on
    that row alone, and a resample that drew an overflowed value has mean inf."""
    values = np.asarray(values, dtype=float)
    if values.ndim > 2:
        raise ValueError(f"values must be (n,) or (E, n), got shape {values.shape}")
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie in (0, 1), got {level}")
    if n_resamples < 1:
        raise ValueError(f"n_resamples must be at least 1, got {n_resamples}")
    rows = np.atleast_2d(values)
    n = rows.shape[1]
    if n < 2:
        raise ValueError(f"a bootstrap interval needs at least 2 values, got {n}")
    means = np.empty((len(rows), n_resamples))
    block = max(1, BLOCK_VALUES // n)
    alpha = (1.0 - level) / 2.0
    with np.errstate(over="ignore", invalid="ignore"):
        for done in range(0, n_resamples, block):
            idx = rng.integers(0, n, (min(block, n_resamples - done), n))
            for row, row_means in zip(rows, means):
                row_means[done : done + len(idx)] = row[idx].mean(axis=1)
        lo, hi = 2.0 * rows.mean(axis=1) - np.quantile(means, [1.0 - alpha, alpha], axis=1)
    cis = [(float(a), float(b)) for a, b in zip(lo, hi)]
    return cis if values.ndim == 2 else cis[0]


def closed_form_basic_ci(values):
    """The 95% basic bootstrap interval for the mean of `values` (n,), or one
    per row of a stack (E, n), to second order and without resampling.

    The bootstrap resamples the empirical distribution, whose mean m,
    variance m2 and skewness gamma = m3 / m2^(3/2) have moments divided by n.
    Its resample means have standard error se = sqrt(m2 / n), and the
    Cornish-Fisher expansion puts their q-quantile at
    m + se (z_q + gamma (z_q^2 - 1) / (6 sqrt(n))) (Hall, *The Bootstrap and
    Edgeworth Expansion*, 1992). The reverse-percentile interval
    [2m - q_0.975, 2m - q_0.025] is then [m - se (z + k), m + se (z - k)],
    k = gamma (z^2 - 1) / (6 sqrt(n)). An empirical |gamma| is below
    sqrt(n), so |k| < z and the interval always holds m. The moments are
    taken of the deviations scaled by their largest, so they never overflow;
    a row with a non-finite value gets a NaN interval, as the bootstrap's
    2m - q is NaN there."""
    values = np.asarray(values, dtype=float)
    if values.ndim > 2:
        raise ValueError(f"values must be (n,) or (E, n), got shape {values.shape}")
    rows = np.atleast_2d(values)
    n = rows.shape[1]
    if n < 2:
        raise ValueError(f"values must hold at least 2 values per row, got {n}")
    with np.errstate(over="ignore", invalid="ignore"):
        m = rows.mean(axis=1)
        d = rows - m[:, None]
        scale = np.abs(d).max(axis=1)
        u = d / np.where(scale > 0.0, scale, 1.0)[:, None]
        m2, m3 = np.mean(u * u, axis=1), np.mean(u * u * u, axis=1)
        gamma = np.where(m2 > 0.0, m3 / m2**1.5, 0.0)
        se = scale * np.sqrt(m2 / n)
        k = gamma * (Z_975**2 - 1.0) / (6.0 * np.sqrt(n))
        lo, hi = m - se * (Z_975 + k), m + se * (Z_975 - k)
    finite = np.isfinite(rows).all(axis=1)
    cis = [(float(a), float(b)) if ok else (np.nan, np.nan) for a, b, ok in zip(lo, hi, finite)]
    return cis if values.ndim == 2 else cis[0]


def effective_sample_size(S):
    """Kong's effective sample size (sum e^S)^2 / sum e^(2S) of the weights
    e^S, from e^(S - max S), which stays finite where e^S overflows."""
    with np.errstate(invalid="ignore"):
        w = np.exp(S - S.max())
    return float(w.sum() ** 2 / np.dot(w, w))


def certify_margin(p, l, eta, X, probe_ws):
    """Check the convexity premise at each weight of `probe_ws`, at every
    input row of `X`; returns why it fails, or "" when it holds."""
    W = p.check_domain(np.repeat(probe_ws, len(X), axis=0))
    Xp = np.tile(X, (len(probe_ws), 1))
    # zero-residual observations maximize the loss curvature for the
    # quadratic and log-cosh losses, making the probe conservative there
    holds = premise_holds(p, l, Linear(), eta, W, Xp, _rowdot(Xp, W))
    failing = int(np.count_nonzero(~holds))
    return f"convexity premise fails at {failing} of {holds.size} probes for eta={eta}" if failing else ""


def _risk_trials(cfg, T):
    """The shared setup of the risk comparison and the blow-up probe: the
    constant rate, T inputs, why the convexity premise fails at them ("" when
    it holds), the prior center, and `trials(a, b)`, which draws trials
    a .. b-1 and gives their clean outputs XW and noisy outputs Y, both
    (b - a, T). Trial t's weight and noises are those of `problem_draws`,
    from row t of the trial uniforms; the premise is probed at the prior
    center and the weights of trials 0-3, which are the leading columns of
    their rows; on squared-L2 with the quadratic loss the rule, eta |x_i|^2 <= 1, reads no weight."""
    p = cfg.build_potential()
    l = cfg.build_loss()
    eta = cfg.schedule["eta"]
    X = make_inputs(cfg, count=T)
    w0 = cfg.w0_vector()
    draws = problem_draws(cfg.replace(T=T))
    (W_first,) = trial_draws(cfg.seed, min(4, cfg.n_trials), draws[:1])
    margin = certify_margin(p, l, eta, X, np.vstack([w0, W_first]))

    def trials(a, b):
        W, V = trial_draws(cfg.seed, b - a, draws, first=a)
        XW = W @ X.T
        return XW, XW + V

    return p, l, eta, X, margin, w0, trials


def _exponents_at(marks, mode, l, XW, Y, predictions):
    """Every trial's cost exponent after t steps, one row per t in the
    sorted `marks`; the exponent is accumulated step by step as the
    predictions arrive, from 0 after no step."""
    rows = {t: j for j, t in enumerate(marks)}
    out = np.zeros((len(marks), len(Y)))
    S = np.zeros(len(Y))
    with np.errstate(over="ignore"):
        for t, z in enumerate(predictions, 1):
            S += _mode_increment(mode, l, Y[:, t - 1], XW[:, t - 1], z)
            if t in rows:
                out[rows[t]] = S
    return out


def _affine_sums(marks, c, K, XW, Y):
    """Every trial's sum_{i <= t} (z_i - x_i^T w)^2, one row per t in the
    sorted `marks`, for the predictions z = c + K y of `prediction_map`; a
    map that ignores the outputs comes as K = None and takes no product.
    Each row of the residuals R = Y K^T + c - XW is summed from mark to
    mark."""
    if K is None:
        R = c - XW
    else:
        R = Y @ K.T
        R += c
        R -= XW
    out = np.empty((len(marks), len(Y)))
    s = 0.0
    for j, (start, t) in enumerate(zip([0] + marks, marks)):
        r = R[:, start:t]
        s = s + np.einsum("ij,ij->i", r, r)
        out[j] = s
    return out


def _estimator_exponents(runs, marks, p, l, eta, X, w0, trials, n):
    """(names, S) of the (spec, mode) `runs`, config-level estimators each
    scored under its mode: S[e, j] holds every trial's exponent of run e
    after marks[j] steps, `marks` sorted, on trials 0 .. n-1 of the
    `trials` of `_risk_trials`. With the squared-L2 potential and the
    quadratic loss, up to MAP_T steps, each distinct `prediction_map` is
    built once, and the trials are drawn TRIAL_BLOCK at a time and each
    map's squared residuals summed on them by `_affine_sums`. Otherwise
    each estimator's predictions are stepped through on all trials at once
    and its exponents accumulated by `_exponents_at`: the recursion costs
    a Python step per step and block, not memory traffic, so more blocks
    would only cost more steps."""
    S = np.empty((len(runs), len(marks), n))
    if isinstance(p, SquaredL2) and isinstance(l, Quadratic) and len(X) <= MAP_T:
        names, maps, which = [], [], []
        for spec, _ in runs:
            name, c, K = prediction_map(spec, p, l, eta, X, w0)
            same = [d for d, (c2, K2) in enumerate(maps) if np.array_equal(c, c2) and np.array_equal(K, K2)]
            if not same:
                maps.append((c, K))
            names.append(name)
            which.append(same[0] if same else len(maps) - 1)
        maps = [(c, K if K.any() else None) for c, K in maps]
        sums = np.empty((len(maps), len(marks), n))
        with np.errstate(over="ignore"):
            for a in range(0, n, TRIAL_BLOCK):
                XW, Y = trials(a, min(a + TRIAL_BLOCK, n))
                for (c, K), out in zip(maps, sums):
                    out[:, a : a + len(Y)] = _affine_sums(marks, c, K, XW, Y)
            # both Bregman costs of the quadratic loss are (x^T w - z)^2 / 2
            for (_, mode), d, out in zip(runs, which, S):
                np.multiply(mode.alpha if isinstance(mode, ScaledQuadratic) else 0.5, sums[d], out=out)
        return names, S
    XW, Y = trials(0, n)
    for (spec, mode), out in zip(runs, S):
        _, predictions = estimator_predictions(spec, p, l, eta, X, Y, w0)
        out[:] = _exponents_at(marks, mode, l, XW, Y, predictions)
    return [estimator_name(spec) for spec, _ in runs], S


def risk_compare(cfg):
    """Monte Carlo exponential costs of the configured causal estimators.

    Weights and noises follow the exponential-family generative model; the
    symmetric-update estimator is scored under its own cost exponent and is
    reported descriptively alongside the rest. In the linear-quadratic case
    (the squared-L2 potential and the quadratic loss) up to MAP_T = 700
    steps, below the crossover that MAP_T's comment measures, the trials are
    drawn, predicted and scored TRIAL_BLOCK at a time, and their exponents
    read off the estimators' affine `prediction_map`s, one matrix product
    per distinct map and block (none for a map that ignores the outputs);
    every other case, and every longer horizon, draws all trials at once
    and steps each estimator through `mirror_steps`.
    """
    require(cfg, "risk")
    p, l, eta, X, margin, w0, trials = _risk_trials(cfg, cfg.T)
    if margin:
        raise ConfigError(f"risk {margin}")
    runs = [(spec, SSMDCost() if spec["kind"] == "ssmd" else SMDCost()) for spec in cfg.estimators]
    names, S = _estimator_exponents(runs, [cfg.T], p, l, eta, X, w0, trials, cfg.n_trials)
    S = S[:, 0]
    with np.errstate(over="ignore"):
        costs = np.exp(S)
    cis = closed_form_basic_ci(costs)
    entries = [EstimatorCost(name=name, mc_cost=float(c.mean()), ci_low=lo, ci_high=hi, n_trials=cfg.n_trials,
                             mode=mode, costs=c, ess=effective_sample_size(s))
               for name, (_, mode), c, s, (lo, hi) in zip(names, runs, costs, S, cis)]
    return RiskReport(entries=entries)


def exponent_blowup_probe(cfg, checkpoints=(10, 20, 30, 40, 50)):
    """Running-max trial cost of the scaled-quadratic exponent at alpha = 1,
    twice the 1/2 that matches Gaussian noise, as T grows.

    A diagnostic, not a sharp test: an infinite expectation cannot be
    confirmed by finite Monte Carlo, so the output is the blow-up curve of
    the worst observed trial cost at each horizon, and a failing convexity
    premise is only warned about.
    """
    require(cfg, "blowup-probe")
    if not all(isinstance(t, (int, np.integer)) and not isinstance(t, bool) and t >= 0 for t in checkpoints):
        raise ConfigError(f"the blow-up probe's checkpoints must be integers >= 0, got {list(checkpoints)}")
    T = max(checkpoints, default=0)
    if T < 1:
        raise ConfigError(f"the blow-up probe needs at least one step, got T={T}")
    p, l, eta, X, margin, w0, trials = _risk_trials(cfg, T)
    if margin:
        warnings.warn(margin)
    marks = sorted(set(checkpoints))
    _, S = _estimator_exponents([({"kind": "smd"}, ScaledQuadratic(alpha=1.0))], marks,
                                p, l, eta, X, w0, trials, cfg.n_trials)
    with np.errstate(over="ignore"):
        costs = np.exp(S[0])
    return [(t, float(c.max()), float(c.mean())) for t, c in zip(marks, costs)]


# ---------------------------------------------------------------------------
# implicit regularization


class OracleSolution(SimpleNamespace):
    """Feasible minimizer w_star of the start-anchored divergence over
    X w = y, with its kkt_residual and constraint_residual."""


def _grad_inv_deriv(p, w):
    with np.errstate(divide="ignore"):
        h = p.hessian_diag(w)
    return np.divide(1.0, h, out=np.zeros_like(h), where=np.isfinite(h) & (h > 0.0))


_ORACLE_TOL = 1e-11
_ORACLE_MAX_ITER = 200


def implicit_reg_oracle(X, y, p, w0):
    """Solve min_w D_psi(w, w0) subject to X w = y.

    The stationarity condition grad psi(w) = grad psi(w0) + X^T lam holds by
    construction once w is parameterized through the inverse mirror map, so
    Newton's method runs on the remaining feasibility equations in lam (with
    Levenberg damping for the nearly singular exponents q < 2). SquaredL2
    short-circuits to the pseudoinverse solution.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    n, m = X.shape
    if np.linalg.matrix_rank(X) < n:
        raise RankError(f"X has row rank < {n}")
    w0 = p.check_domain(np.asarray(w0, dtype=float))
    u0 = p.grad(w0)
    gram = X @ X.T
    lam = np.linalg.solve(gram, y - X @ w0)

    if isinstance(p, SquaredL2):
        w = w0 + X.T @ lam
    else:
        w = p.grad_inv(u0 + X.T @ lam)
        gn = float(np.max(np.abs(X @ w - y)))
        for _ in range(_ORACLE_MAX_ITER):
            if gn <= _ORACLE_TOL:
                break
            G = X @ w - y
            J = (X * _grad_inv_deriv(p, w)) @ X.T
            mu = 0.0
            accepted = False
            while not accepted:
                try:
                    step = np.linalg.solve(J + mu * np.eye(n), G)
                except np.linalg.LinAlgError:
                    step = None
                if step is not None:
                    t = 1.0
                    for _ in range(60):
                        lam_new = lam - t * step
                        w_new = p.grad_inv(u0 + X.T @ lam_new)
                        gn_new = float(np.max(np.abs(X @ w_new - y)))
                        if gn_new < gn:
                            lam, w, gn = lam_new, w_new, gn_new
                            accepted = True
                            break
                        t *= 0.5
                if not accepted:
                    mu = max(mu * 100.0, 1e-10 * (np.trace(J) / n + 1.0))
                    if mu > 1e20:
                        raise ConvergenceError(
                            f"oracle Newton stalled at feasibility residual {gn:.3e}"
                        )
        else:
            raise ConvergenceError(
                f"oracle Newton did not reach {_ORACLE_TOL} in {_ORACLE_MAX_ITER} iterations "
                f"(residual {gn:.3e})"
            )

    kkt_residual = float(np.max(np.abs(p.grad(w) - u0 - X.T @ lam)))
    constraint_residual = float(np.max(np.abs(X @ w - y)))
    return OracleSolution(w_star=w, kkt_residual=kkt_residual, constraint_residual=constraint_residual)


class _MirrorStateProbe:
    """The potential `p` as `mirror_steps` uses it, keeping in `u` the
    mirror state it last mapped back to an iterate. That state, with the row
    phase, is all the recursion carries; the iterate alone does not fix it
    where grad_inv is many-to-one in floating point (exp, or a root)."""

    def __init__(self, p):
        self.grad = p.grad
        self._grad_inv = p.grad_inv
        self.u = None

    def grad_inv(self, u):
        self.u = u
        return self._grad_inv(u)


def run_interpolating_descent(p, l, X, y, w0, eta, feas_tol, step_cap):
    """Cycle the rows of (X, y) in order with mirror steps until X w = y
    within feas_tol (the limit point does not depend on the order, only the
    path does). Returns (w, steps, feasibility, progress log); progress is
    sampled at geometrically spaced steps so even a capped run stays
    diagnosable.

    A run whose mirror state at a sweep boundary (row phase 0) equals, bit
    for bit, its state at an earlier boundary repeats its path from there
    on, so it never reaches feas_tol: it raises StepCapError at once instead
    of at the cap. Brent's method finds the repeat: each boundary state is
    compared with one anchor, moved to the current boundary after 1, 2, 4,
    ... sweeps, so a cycle entered after m steps with period L is caught
    within about 2 * max(m, L) + L steps. The feasibility, a function of
    the state, is compared first.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    w = p.check_domain(np.asarray(w0, dtype=float)).copy()
    probe = _MirrorStateProbe(p)
    ws = mirror_steps(probe, w, cycle(X), cycle(y), repeat(eta), smd_shift(l, Linear()))
    progress = []
    next_log = 1
    steps = 0
    feas = float(np.max(np.abs(X @ w - y)))
    anchor, anchor_feas, power, sweeps = None, None, 1, 0
    while feas >= feas_tol:
        if steps >= step_cap:
            raise StepCapError(
                f"feasibility {feas:.3e} after {steps} steps (cap {step_cap}); "
                f"progress log: {progress[-5:]}",
                steps=steps,
                residual=feas,
            )
        if not np.isfinite(feas) or feas > 1e12:
            raise ConvergenceError(
                f"interpolating descent diverged (feasibility {feas:.3e} at step {steps}); "
                "eta exceeds the stability range for these inputs"
            )
        w = next(ws)
        steps += 1
        boundary = steps % len(X) == 0
        if steps == next_log or boundary:
            feas = float(np.max(np.abs(X @ w - y)))
            if steps == next_log:
                progress.append((steps, feas))
                next_log *= 2
        if boundary:
            sweeps += 1
            if feas == anchor_feas and np.array_equal(probe.u, anchor):
                raise StepCapError(
                    f"feasibility {feas:.3e} after {steps} steps, where the descent repeats itself "
                    f"with period {sweeps * len(X)} steps, so it never falls below {feas_tol:g}",
                    steps=steps,
                    residual=feas,
                )
            if sweeps == power:
                anchor, anchor_feas, power, sweeps = probe.u, feas, 2 * power, 0
    return w, steps, feas, progress


class ImplicitRegReport(SimpleNamespace):
    """One case's limit w_smd, the oracle's w_oracle, their gap, the limit's
    feasibility, the oracle's kkt_residual and the descent's steps."""


# the interpolating descent stops once max |X w - y| < FEASIBILITY_TOL, and
# fails with StepCapError after STEP_CAP steps, or once its mirror state cycles
FEASIBILITY_TOL = 1e-9
STEP_CAP = 1_000_000


def implicit_reg_experiment(cfg):
    """Run interpolating mirror descent on noiseless underdetermined systems
    and compare each limit against the constrained-divergence oracle. Case t
    is trial t of `generate_problems`; returns one report per case."""
    require(cfg, "implicit")
    p = cfg.build_potential()
    l = cfg.build_loss()
    problems = generate_problems(cfg, cfg.n_trials)
    w0 = cfg.w0_vector()
    reports = []
    for X, y in zip(problems.X, problems.Y):
        oracle = implicit_reg_oracle(X, y, p, w0)
        w_smd, steps, feas, _ = run_interpolating_descent(
            p, l, X, y, w0, cfg.schedule["eta"], feas_tol=FEASIBILITY_TOL, step_cap=STEP_CAP
        )
        gap = float(np.max(np.abs(w_smd - oracle.w_star)))
        reports.append(ImplicitRegReport(w_smd=w_smd, w_oracle=oracle.w_star, gap=gap, feasibility=feas,
                                         kkt_residual=oracle.kkt_residual, steps=steps))
    return reports


# ---------------------------------------------------------------------------
# mean-square convergence under vanishing steps


class MsqReport(SimpleNamespace):
    """The (T, mean-square error) checkpoints, and the constant-rate control's."""

    control = None


def _msq_runs(p, l, X, chunks, schedules, w0):
    """Every run under each schedule in one recursion: block b of the state
    (len(schedules), n_runs, dim) follows schedules[b] on the outputs, which
    arrive as step-major chunks (steps, n_runs) in step order, each a
    multiple of MAP_STEPS steps long except the last. Returns the
    checkpoints and the state at each. The squared-L2 potential with the
    quadratic loss takes `_lms_blocks`, which jumps MAP_STEPS steps per
    adjoint block map; every other pair steps `mirror_steps`."""
    chunks = iter(chunks)
    first = next(chunks)
    chunks = chain([first], chunks)
    T = len(X)
    W0 = np.tile(np.asarray(w0, dtype=float), (len(schedules), first.shape[1], 1))
    etas = np.stack([s.rates(T) for s in schedules])
    marks = _checkpoints(T)
    shift = smd_shift(l, Linear())
    if isinstance(p, SquaredL2) and isinstance(l, Quadratic):
        return marks, _lms_blocks(p, X, chunks, etas, W0, shift, marks)
    steps = mirror_steps(p, W0, X, chain.from_iterable(chunks), etas.T[..., None], shift)
    return marks, {t: W for t, W in enumerate(steps, 1) if t in marks}


def _lms_maps(p, X, etas, shift):
    """Each block's map (Phi, G) of the LMS recursion in step order, for
    `_lms_blocks`, by reverse-mode (adjoint) accumulation. Step i maps the
    state row w to w A_i + eta_i y_i x_i^T with A_i = I - eta_i x_i x_i^T
    symmetric, so a block of steps 1 .. K has Phi = A_1 .. A_K, and row i of
    G, the response of the block-end state to y_i, is
    eta_i x_i^T A_{i+1} .. A_K. The dim basis trials start at I and run
    `mirror_steps` over the block's steps in reverse order (reversed inputs
    and rates, outputs 0), so each reversed step i maps their state M to
    M A_i: the final state is A_K .. A_1 = Phi^T, and the state before step
    i, A_K .. A_{i+1}, applied to the impulse eta_i x_i is row i of G, read
    as the steps go. The last block is padded with x = 0, eta = 0 steps,
    each an exact identity. Maps are made for a group of blocks at once, at
    most BLOCK_VALUES state values; G holds their MAP_STEPS rows each."""
    K, (T, dim), B = MAP_STEPS, X.shape, len(etas)
    n_blocks = -(-T // K)
    pad = n_blocks * K - T
    Xb = np.pad(X, ((0, pad), (0, 0))).reshape(n_blocks, K, dim)
    Eb = np.pad(etas, ((0, 0), (0, pad))).reshape(B, n_blocks, K)
    group = max(1, BLOCK_VALUES // (B * dim * dim))
    for first in range(0, n_blocks, group):
        blocks = slice(first, first + group)
        # step-major, each block's last step first: x (K, blocks, dim), eta (K, B, blocks)
        x = np.moveaxis(Xb[blocks, ::-1], 1, 0)
        eta = np.moveaxis(Eb[:, blocks, ::-1], -1, 0)
        M = np.broadcast_to(np.eye(dim), (B, x.shape[1], dim, dim))
        G = np.empty((B, x.shape[1], K, dim))
        steps = mirror_steps(p, M, x[:, :, None], repeat(0.0), eta[..., None], shift)
        for j, M_next in enumerate(steps):
            G[:, :, K - 1 - j] = (M @ (eta[j, ..., None] * x[j])[..., None])[..., 0]
            M = M_next
        Phi = M.swapaxes(-1, -2)
        for j in range(x.shape[1]):
            yield Phi[:, j], G[:, j]


def _lms_blocks(p, X, chunks, etas, W0, shift, marks):
    """The states at `marks` of `_msq_runs` for SMD with the squared-L2
    potential and the quadratic loss, the LMS recursion
    w_i = w_{i-1} (I - eta_i x_i x_i^T) + eta_i y_i x_i^T, MAP_STEPS steps
    at a time: a block of steps maps the state S (one row per run) to
    S @ Phi + Y_block^T @ G, with the adjoint maps of `_lms_maps` (the dim
    basis trials run backward through the block) and each block's outputs
    sliced from its chunk, never padded or copied."""
    maps = _lms_maps(p, X, etas, shift)
    S, snaps, t = W0, {}, 0
    for Y in chunks:
        for i in range(0, len(Y), MAP_STEPS):
            y = Y[i : i + MAP_STEPS]
            Phi, G = next(maps)
            S = S @ Phi + y.T @ G[:, : len(y)]
            t += len(y)
            if t in marks:
                snaps[t] = S
    return snaps


def _checkpoints(T):
    """The horizons at which the mean-square error is reported."""
    return sorted({c for c in (100, 1000, 10_000) if c <= T} | {T})


# the least eigenvalue of sum x_i x_i^T at which converge's inputs count as
# persistently exciting
DELTA_PE = 0.1


def msq_convergence(cfg):
    """Mean-square error to the planted weight at geometric checkpoints.

    Requires a vanishing-step schedule and persistently exciting inputs;
    with `control_eta` set, also runs a fixed-rate control on the same noise
    draws so the vanishing-rate run can be compared against the plateau it
    avoids. A run whose mirror map overflows leaves non-finite errors, which
    the verdict names, and no RuntimeWarning.
    """
    require(cfg, "converge")
    schedule = cfg.build_schedule()
    p = cfg.build_potential()
    l = cfg.build_loss()
    T, n_runs = cfg.T, cfg.n_trials
    X = make_inputs(cfg)
    ok, t_found = persistent_excitation(X, DELTA_PE)
    if not ok:
        raise ConfigError(f"inputs are not persistently exciting at delta={DELTA_PE}")
    log.info("persistent excitation reached at T=%d", t_found)
    w_true = planted_weight(cfg, p, RngStream(cfg.seed, STREAM_WEIGHT))
    y_clean = X @ w_true
    # run r's noises are row r of the trial uniforms; the outputs of a chunk
    # of steps (at most BLOCK_VALUES values, whole blocks of MAP_STEPS steps)
    # are made from their own columns just before the recursion reads them,
    # step-major, one row of runs per step
    steps = max(1, BLOCK_VALUES // (MAP_STEPS * n_runs)) * MAP_STEPS
    kind, sigma2 = cfg.noise["kind"], cfg.noise["sigma2"]
    chunks = (white_noise_window(kind, sigma2, T, cfg.seed, n_runs, a, min(a + steps, T)).T
              + y_clean[a : a + steps, None] for a in range(0, T, steps))
    schedules = [schedule] if cfg.control_eta is None else [schedule, Constant(cfg.control_eta)]

    with np.errstate(over="ignore", invalid="ignore"):
        marks, snaps = _msq_runs(p, l, X, chunks, schedules, cfg.w0_vector())
        mse = [[(t, float(np.mean(np.sum((snaps[t][b] - w_true) ** 2, axis=1)))) for t in marks]
               for b in range(len(schedules))]
    return MsqReport(checkpoints=mse[0], control=mse[1] if len(mse) > 1 else None)
