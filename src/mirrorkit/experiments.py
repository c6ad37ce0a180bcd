"""Desk-scale experiments: risk-sensitive comparison, implicit regularization
against independent oracles, and mean-square convergence under vanishing steps.

Monte Carlo trials draw from per-trial random streams, so results are
independent of execution order.
"""

import logging
import warnings
from dataclasses import dataclass, field

import numpy as np

from .datagen import (
    STREAM_BOOTSTRAP,
    STREAM_INPUTS,
    STREAM_PROBE,
    STREAM_TRIAL_BASE,
    STREAM_WEIGHT,
    basis_then_gaussian,
    make_inputs,
    planted_weight,
)
from .descent import (
    DataPoint,
    Linear,
    NoiseSpec,
    convexity_margin,
    mirror_update,
    persistent_excitation,
)
from .errors import ConfigError, ConvergenceError, RankError, StepCapError
from .potentials import SquaredL2
from .samplers import ExpFamilySpec, RngStream, sample_noise, sample_weight, sample_white_noise

log = logging.getLogger("mirrorkit")

KKT_TOL = 1e-10
FEASIBILITY_TOL = 1e-9
STEP_CAP = 1_000_000
BOOTSTRAP_RESAMPLES = 2000


# ---------------------------------------------------------------------------
# exponential-cost criteria


@dataclass(frozen=True)
class SMDCost:
    """Exponent sum_i D_l(y_i - x_i^T w, y_i - z_i)."""

    label = "smd_cost"


@dataclass(frozen=True)
class SSMDCost:
    """Exponent sum_i D_l(x_i^T w, z_i)."""

    label = "ssmd_cost"


@dataclass(frozen=True)
class ScaledQuadratic:
    """Exponent alpha * sum_i (x_i^T w - z_i)^2; alpha = 1/2 matches the
    quadratic-loss SMD cost."""

    alpha: float

    @property
    def label(self):
        return f"scaled_quadratic({self.alpha:g})"


def _mode_increment(mode, l, y, xw_true, z):
    if isinstance(mode, SMDCost):
        return l.bregman(y - xw_true, y - z)
    if isinstance(mode, SSMDCost):
        return l.bregman(xw_true, z)
    return mode.alpha * np.square(xw_true - z)


def risk_cost(predictions, w, data, l, mode=SMDCost()):
    """Single-realization exponential cost of a prediction sequence."""
    if len(predictions) != len(data):
        raise ValueError("predictions and data must have equal length")
    w = np.asarray(w, dtype=float)
    s = 0.0
    for z, d in zip(predictions, data):
        s += float(_mode_increment(mode, l, d.y, float(d.x @ w), float(z)))
    return float(np.exp(s))


# ---------------------------------------------------------------------------
# causal estimators (batched across trials)


class CausalEstimator:
    """Online predictor fed one observation at a time.

    The protocol enforces causality structurally: each round asks for the
    prediction first, then reveals the observation.
    """

    name = "abstract"

    def reset(self, n_trials, w0):
        self._awaiting_observe = False

    def predict(self, x):
        if self._awaiting_observe:
            raise RuntimeError("predict called twice without an observation")
        self._awaiting_observe = True
        return self._predict(x)

    def observe(self, x, y):
        if not self._awaiting_observe:
            raise RuntimeError("observe called before predict")
        self._awaiting_observe = False
        self._observe(x, y)

    def _predict(self, x):
        raise NotImplementedError

    def _observe(self, x, y):
        raise NotImplementedError


class MirrorEstimator(CausalEstimator):
    """Mirror-descent predictions z_i = x_i^T w_{i-1}, optionally with a
    scaled learning rate or the symmetric update rule."""

    def __init__(self, p, l, eta, gamma=1.0, symmetric=False, name=None):
        self.p = p
        self.l = l
        self.eta = eta * gamma
        self.symmetric = symmetric
        if name is None:
            name = "ssmd" if symmetric else ("smd" if gamma == 1.0 else f"scaled_smd({gamma:g})")
        self.name = name

    def reset(self, n_trials, w0):
        super().reset(n_trials, w0)
        self.U = np.tile(self.p.grad(np.asarray(w0, dtype=float)), (n_trials, 1))
        self.W = np.tile(np.asarray(w0, dtype=float), (n_trials, 1))

    def _predict(self, x):
        return self.W @ x

    def _observe(self, x, y):
        pred = self.W @ x
        if self.symmetric:
            coef = self.l.deriv(y) - self.l.deriv(pred)
        else:
            coef = self.l.deriv(y - pred)
        self.U, self.W = mirror_update(self.p, self.U, x, coef, self.eta)


class ConstantEstimator(CausalEstimator):
    """The no-update baseline z_i = x_i^T w_0."""

    name = "constant"

    def reset(self, n_trials, w0):
        super().reset(n_trials, w0)
        self.w0 = np.asarray(w0, dtype=float)
        self.n = n_trials

    def _predict(self, x):
        return np.full(self.n, float(self.w0 @ x))

    def _observe(self, x, y):
        pass


class RiskNeutralEstimator(CausalEstimator):
    """Posterior-mean predictions by grid quadrature (scalar weights only).

    This is the conditional-mean baseline; it is reported descriptively and
    never enters dominance assertions.
    """

    name = "risk_neutral"

    def __init__(self, prior, l):
        if prior.potential.dim != 1:
            raise ConfigError("risk_neutral estimator supports dim=1 only")
        self.prior = prior
        self.l = l

    def reset(self, n_trials, w0):
        super().reset(n_trials, w0)
        table = self.prior.tables()[0]
        self.grid = table.xs
        self.logw = np.tile(np.log(np.maximum(table.pdf, 1e-300)), (n_trials, 1))

    def _predict(self, x):
        w = np.exp(self.logw - self.logw.max(axis=1, keepdims=True))
        mean_w = (w @ self.grid) / w.sum(axis=1)
        return float(x[0]) * mean_w

    def _observe(self, x, y):
        self.logw -= self.l.value(y[:, None] - float(x[0]) * self.grid[None, :])


# ---------------------------------------------------------------------------
# risk-sensitive comparison


@dataclass
class EstimatorCost:
    name: str
    mc_cost: float
    ci_low: float
    ci_high: float
    n_trials: int
    mode: object = SMDCost()
    costs: np.ndarray = field(default=None, repr=False)


@dataclass
class RiskReport:
    entries: list
    exponent_mode: object

    def entry(self, name):
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)


def bootstrap_basic_ci(values, rng, n_resamples=BOOTSTRAP_RESAMPLES, level=0.95):
    """Basic (reverse-percentile) bootstrap interval for the mean."""
    values = np.asarray(values, dtype=float)
    n = values.size
    means = np.empty(n_resamples)
    chunk = max(1, min(n_resamples, int(2e6) // max(n, 1)))
    done = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while done < n_resamples:
            k = min(chunk, n_resamples - done)
            idx = rng.integers(0, n, (k, n))
            means[done : done + k] = values[idx].mean(axis=1)
            done += k
        alpha = (1.0 - level) / 2.0
        lo_q, hi_q = np.quantile(means, [alpha, 1.0 - alpha])
        m = float(values.mean())
        return 2.0 * m - float(hi_q), 2.0 * m - float(lo_q)


def paired_gap_ci(costs_a, costs_b, rng, n_resamples=BOOTSTRAP_RESAMPLES, level=0.95):
    """Basic bootstrap interval for E[cost_a - cost_b] on paired trials."""
    return bootstrap_basic_ci(
        np.asarray(costs_a) - np.asarray(costs_b), rng, n_resamples, level
    )


def _draw_trials(prior, l, T, n_trials, seed):
    dim = prior.potential.dim
    W = np.empty((n_trials, dim))
    V = np.empty((n_trials, T))
    for t in range(n_trials):
        rng = RngStream(seed, STREAM_TRIAL_BASE + t)
        W[t] = sample_weight(prior, rng)
        V[t] = sample_noise(l, rng, size=T)
    return W, V


def build_estimator(spec, p, l, eta, prior):
    """Estimator factory for config-level estimator descriptions."""
    kind = spec["kind"]
    if kind == "smd":
        return MirrorEstimator(p, l, eta)
    if kind == "ssmd":
        return MirrorEstimator(p, l, eta, symmetric=True)
    if kind == "scaled_smd":
        return MirrorEstimator(p, l, eta, gamma=spec["gamma"])
    if kind == "constant":
        return ConstantEstimator()
    if kind == "risk_neutral":
        return RiskNeutralEstimator(prior, l)
    raise ConfigError(f"unknown estimator kind {kind!r}")


def certify_margin(cfg, p, l, eta, inputs, prior, warn_only=False):
    """Probe the convexity premise at the prior center and a few draws."""
    rng = RngStream(cfg.seed, STREAM_PROBE)
    w0 = cfg.w0_vector()
    probe_ws = [w0] + [sample_weight(prior, rng) for _ in range(4)]
    # zero-residual observations maximize the loss curvature for the
    # quadratic and log-cosh losses, making the probe conservative there
    probes = [(w, DataPoint(x, float(x @ w))) for w in probe_ws for x in inputs]
    margin = convexity_margin(p, l, Linear(), eta, probes)
    if margin < 0.0:
        msg = f"convexity margin {margin:.3e} not certified for eta={eta}"
        if warn_only:
            warnings.warn(msg)
        else:
            raise ConfigError(msg + " (pass warn_only=True to continue)")
    return margin


def risk_compare(cfg, warn_only=False):
    """Monte Carlo exponential costs of the configured causal estimators.

    Weights and noises follow the exponential-family generative model; the
    symmetric-update estimator is scored under its own cost exponent and is
    reported descriptively alongside the rest.
    """
    p = cfg.build_potential()
    l = cfg.build_loss()
    if cfg.model != "linear":
        raise ConfigError("risk comparison is defined for the linear model")
    schedule = cfg.build_schedule()
    if schedule.kind != "constant":
        raise ConfigError("risk comparison requires a constant learning rate")
    eta = schedule.eta
    T, n_trials = cfg.T, cfg.n_trials
    inputs = make_inputs(cfg)
    X = np.stack(inputs)
    w0 = cfg.w0_vector()
    prior = ExpFamilySpec(p, w0, eta, grid=cfg.grid_spec())
    certify_margin(cfg, p, l, eta, inputs, prior, warn_only=warn_only)

    W_true, V = _draw_trials(prior, l, T, n_trials, cfg.seed)
    XW = W_true @ X.T
    Y = XW + V

    entries = []
    rng_boot = RngStream(cfg.seed, STREAM_BOOTSTRAP)
    for spec in cfg.estimators:
        est = build_estimator(spec, p, l, eta, prior)
        mode = SSMDCost() if spec["kind"] == "ssmd" else SMDCost()
        est.reset(n_trials, w0)
        S = np.zeros(n_trials)
        with np.errstate(over="ignore"):
            for i in range(T):
                z = est.predict(X[i])
                S += _mode_increment(mode, l, Y[:, i], XW[:, i], z)
                est.observe(X[i], Y[:, i])
            costs = np.exp(S)
        ci_low, ci_high = bootstrap_basic_ci(costs, rng_boot)
        entries.append(
            EstimatorCost(est.name, float(costs.mean()), ci_low, ci_high, n_trials, mode, costs)
        )
        log.info("estimator %-18s mc_cost=%.6f ci=[%.6f, %.6f]", est.name, costs.mean(), ci_low, ci_high)
    return RiskReport(entries=entries, exponent_mode=SMDCost())


def exponent_blowup_probe(cfg, alpha=1.0, checkpoints=(10, 20, 30, 40, 50), warn_only=True):
    """Running-max trial cost of the scaled-quadratic exponent as T grows.

    A diagnostic, not a sharp test: an infinite expectation cannot be
    confirmed by finite Monte Carlo, so the output is the blow-up curve of
    the worst observed trial cost at each horizon.
    """
    p = cfg.build_potential()
    l = cfg.build_loss()
    schedule = cfg.build_schedule()
    if schedule.kind != "constant":
        raise ConfigError("the blow-up probe requires a constant learning rate")
    eta = schedule.eta
    T = max(checkpoints)
    n_trials = cfg.n_trials
    inputs = make_inputs(cfg, count=T)
    X = np.stack(inputs)
    w0 = cfg.w0_vector()
    prior = ExpFamilySpec(p, w0, eta, grid=cfg.grid_spec())
    certify_margin(cfg, p, l, eta, inputs, prior, warn_only=warn_only)

    W_true, V = _draw_trials(prior, l, T, n_trials, cfg.seed)
    XW = W_true @ X.T
    Y = XW + V
    mode = ScaledQuadratic(alpha)

    est = MirrorEstimator(p, l, eta)
    est.reset(n_trials, w0)
    S = np.zeros(n_trials)
    curve = []
    marks = set(checkpoints)
    with np.errstate(over="ignore"):
        for i in range(T):
            z = est.predict(X[i])
            S += _mode_increment(mode, l, Y[:, i], XW[:, i], z)
            est.observe(X[i], Y[:, i])
            if i + 1 in marks:
                costs = np.exp(S)
                curve.append((i + 1, float(costs.max()), float(costs.mean())))
    return curve


# ---------------------------------------------------------------------------
# implicit regularization


@dataclass
class OracleSolution:
    """Feasible minimizer of the start-anchored divergence over X w = y."""

    w_star: np.ndarray
    kkt_residual: float
    constraint_residual: float


def _grad_inv_deriv(p, w):
    with np.errstate(divide="ignore"):
        h = p.hessian_diag(w)
    return np.where(np.isfinite(h) & (h > 0.0), 1.0 / h, 0.0)


def implicit_reg_oracle(X, y, p, w0, max_iter=200, tol=1e-11):
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
        for _ in range(max_iter):
            if gn <= tol:
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
                f"oracle Newton did not reach {tol} in {max_iter} iterations "
                f"(residual {gn:.3e})"
            )

    kkt_residual = float(np.max(np.abs(p.grad(w) - u0 - X.T @ lam)))
    constraint_residual = float(np.max(np.abs(X @ w - y)))
    return OracleSolution(w, kkt_residual, constraint_residual)


def run_interpolating_descent(
    p, l, X, y, w0, eta, feas_tol=FEASIBILITY_TOL, step_cap=STEP_CAP, shuffle_rng=None
):
    """Cycle the rows of (X, y) with mirror steps until X w = y within feas_tol.

    Rows are visited in fixed order by default; passing a shuffle stream
    reshuffles the visiting order each epoch (the limit point does not
    depend on the order, only the path does). Returns (w, steps,
    feasibility, progress log); progress is sampled at geometrically spaced
    steps so even a capped run stays diagnosable.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    n = X.shape[0]
    w = p.check_domain(np.asarray(w0, dtype=float)).copy()
    u = p.grad(w)
    order = np.arange(n)
    progress = []
    next_log = 1
    steps = 0
    feas = float(np.max(np.abs(X @ w - y)))
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
        if steps % n == 0 and shuffle_rng is not None:
            order = np.argsort(shuffle_rng.uniform(n))
        i = order[steps % n]
        u, w = mirror_update(p, u, X[i], l.deriv(y[i] - float(X[i] @ w)), eta)
        steps += 1
        if steps == next_log or steps % n == 0:
            feas = float(np.max(np.abs(X @ w - y)))
            if steps == next_log:
                progress.append((steps, feas))
                next_log *= 2
    return w, steps, feas, progress


@dataclass
class ImplicitRegReport:
    w_smd: np.ndarray
    w_oracle: np.ndarray
    gap: float
    feasibility: float
    kkt_residual: float
    steps: int


def implicit_reg_experiment(cfg):
    """Run interpolating mirror descent on a noiseless underdetermined system
    and compare its limit against the constrained-divergence oracle."""
    p = cfg.build_potential()
    l = cfg.build_loss()
    if cfg.noise["kind"] != "none":
        raise ConfigError("implicit regularization requires noiseless data (noise kind 'none')")
    schedule = cfg.build_schedule()
    if schedule.kind != "constant":
        raise ConfigError("implicit regularization uses a constant learning rate")
    n, m = cfg.T, cfg.dim
    if not n < m:
        raise ConfigError(f"need an underdetermined system (T={n} rows < dim={m})")
    inputs = make_inputs(cfg)
    X = np.stack(inputs)
    w_true = planted_weight(cfg, p, RngStream(cfg.seed, STREAM_WEIGHT))
    y = X @ w_true
    w0 = cfg.w0_vector()
    feas_tol = cfg.tolerances["feasibility"]
    step_cap = cfg.tolerances["step_cap"]
    oracle = implicit_reg_oracle(X, y, p, w0)
    w_smd, steps, feas, _ = run_interpolating_descent(
        p, l, X, y, w0, schedule.eta, feas_tol=feas_tol, step_cap=step_cap
    )
    gap = float(np.max(np.abs(w_smd - oracle.w_star)))
    log.info(
        "implicit reg: gap=%.3e feasibility=%.3e kkt=%.3e steps=%d",
        gap, feas, oracle.kkt_residual, steps,
    )
    return ImplicitRegReport(w_smd, oracle.w_star, gap, feas, oracle.kkt_residual, steps)


# ---------------------------------------------------------------------------
# mean-square convergence under vanishing steps


@dataclass
class MsqReport:
    checkpoints: list
    control: list | None = None


def _msq_runs(p, l, X, y_clean, V, schedule, w0):
    """Vectorized multi-run recursion; returns iterate snapshots at checkpoints."""
    n_runs, T = V.shape
    U = np.tile(p.grad(np.asarray(w0, dtype=float)), (n_runs, 1))
    W = np.tile(np.asarray(w0, dtype=float), (n_runs, 1))
    marks = sorted({c for c in (100, 1000, 10_000) if c <= T} | {T})
    out = {}
    for i in range(T):
        y_i = y_clean[i] + V[:, i]
        U, W = mirror_update(p, U, X[i], l.deriv(y_i - W @ X[i]), schedule.rate(i + 1))
        if i + 1 in marks:
            out[i + 1] = W
    return marks, out


def msq_convergence(cfg, control_eta=None):
    """Mean-square error to the planted weight at geometric checkpoints.

    Requires a vanishing-step schedule and persistently exciting inputs;
    optionally runs a fixed-rate control on the same noise draws so the
    vanishing-rate run can be compared against the plateau it avoids.
    """
    schedule = cfg.build_schedule()
    if schedule.kind == "constant":
        raise ConfigError("mean-square convergence requires a vanishing-step schedule")
    p = cfg.build_potential()
    l = cfg.build_loss()
    if cfg.noise["kind"] not in ("gaussian", "uniform", "rademacher"):
        raise ConfigError("mean-square convergence uses white noise (gaussian/uniform/rademacher)")
    T, n_runs = cfg.T, cfg.n_trials
    inputs = basis_then_gaussian(cfg.dim, T, RngStream(cfg.seed, STREAM_INPUTS), scale=cfg.inputs["scale"])
    data = [DataPoint(x, 0.0) for x in inputs]
    ok, t_found = persistent_excitation(data, cfg.delta_pe)
    if not ok:
        raise ConfigError(f"inputs are not persistently exciting at delta={cfg.delta_pe}")
    log.info("persistent excitation reached at T=%d", t_found)
    w_true = planted_weight(cfg, p, RngStream(cfg.seed, STREAM_WEIGHT))
    X = np.stack(inputs)
    y_clean = X @ w_true
    spec = NoiseSpec(variance=cfg.noise["sigma2"], kind=cfg.noise["kind"])
    V = np.empty((n_runs, T))
    for r in range(n_runs):
        V[r] = sample_white_noise(spec, RngStream(cfg.seed, STREAM_TRIAL_BASE + r), size=T)
    w0 = cfg.w0_vector()

    marks, snaps = _msq_runs(p, l, X, y_clean, V, schedule, w0)
    checkpoints = [
        (t, float(np.mean(np.sum((snaps[t] - w_true) ** 2, axis=1)))) for t in marks
    ]
    control = None
    if control_eta is not None:
        from .descent import Constant

        _, csnaps = _msq_runs(p, l, X, y_clean, V, Constant(control_eta), w0)
        control = [
            (t, float(np.mean(np.sum((csnaps[t] - w_true) ** 2, axis=1)))) for t in marks
        ]
    return MsqReport(checkpoints=checkpoints, control=control)
