"""Iteration engines: mirror steps, symmetric mirror steps, and plain SGD.

Every engine runs one kernel, `mirror_update`: the mirror-domain state
u = grad psi(w) is shifted by eta * coef * x and pulled back through the
inverse mirror map. The state is carried in the mirror domain and never
recomputed from w. SGD is the kernel with the identity mirror map, so with
the squared-L2 potential SMD and SGD agree bit for bit.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from .errors import ConfigError, DomainError, StabilityWarning
from .losses import LossFn
from .potentials import Potential, SeparableQ, SquaredL2

HESSIAN_PROBE_EXCLUSION = 1e-8


@dataclass
class DataPoint:
    """One observation: input vector x and scalar output y."""

    x: np.ndarray
    y: float

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y = float(self.y)
        if not (np.all(np.isfinite(self.x)) and np.isfinite(self.y)):
            raise ValueError("data point has non-finite entries")


class GeneralizedLinear:
    """predict(x, w) = g(x^T w) for a smooth scalar link g."""

    kind = "glm"

    def __init__(self, link):
        if link not in ("tanh", "softplus"):
            raise ValueError(f"unknown link {link!r}")
        self.link = link

    def g(self, u):
        if self.link == "tanh":
            return np.tanh(u)
        return np.logaddexp(0.0, u)

    def g_prime(self, u):
        if self.link == "tanh":
            t = np.tanh(u)
            return 1.0 - t * t
        return expit(u)

    def g_second(self, u):
        if self.link == "tanh":
            t = np.tanh(u)
            return -2.0 * t * (1.0 - t * t)
        s = expit(u)
        return s * (1.0 - s)

    def predict(self, x, w):
        return float(self.g(np.dot(x, w)))

    def jacobian(self, x, w):
        return self.g_prime(np.dot(x, w)) * np.asarray(x, dtype=float)

    def __repr__(self):
        return f"GeneralizedLinear(link={self.link!r})"


class Linear(GeneralizedLinear):
    """predict(x, w) = x^T w: the identity link."""

    kind = "linear"

    def __init__(self):
        self.link = "identity"

    def g(self, u):
        return u

    def g_prime(self, u):
        return 1.0

    def g_second(self, u):
        return 0.0

    def __repr__(self):
        return "Linear()"


@dataclass(frozen=True)
class Constant:
    """Fixed learning rate."""

    eta: float
    kind = "constant"

    def __post_init__(self):
        if not self.eta > 0.0:
            raise ValueError("eta must be > 0")

    def rate(self, i):
        return self.eta


@dataclass(frozen=True)
class RobbinsMonro:
    """rate(i) = c / i: divergent sum, summable squares."""

    c: float
    kind = "robbins_monro"

    def __post_init__(self):
        if not self.c > 0.0:
            raise ValueError("c must be > 0")

    def rate(self, i):
        return self.c / i


@dataclass(frozen=True)
class NoiseSpec:
    """White-noise description for the stochastic-convergence setting."""

    variance: float = 1.0
    kind: str = "gaussian"

    def __post_init__(self):
        if not self.variance > 0.0:
            raise ValueError("variance must be > 0")
        if self.kind not in ("gaussian", "uniform", "rademacher"):
            raise ValueError(f"unknown noise kind {self.kind!r}")


@dataclass
class Trajectory:
    """One run as a (T+1, dim) path (w_0 first), its data as arrays (inputs
    X of shape (T, dim), outputs Y of shape (T,)), and everything needed to
    audit it."""

    path: np.ndarray
    X: np.ndarray
    Y: np.ndarray
    schedule: object
    potential: Potential
    loss: LossFn
    model: object
    algorithm: str = "smd"
    audits: list = field(default_factory=list)

    def __len__(self):
        return len(self.path) - 1

    @property
    def w0(self):
        return self.path[0]

    @property
    def iterates(self):
        """w_1 .. w_T as a (T, dim) array."""
        return self.path[1:]

    @property
    def final(self):
        return self.path[-1]

    def iterate_before(self, i):
        """w_{i-1} for a 1-based step index i."""
        return self.path[i - 1]


def mirror_update(p, U, x, coef, eta):
    """The SMD kernel: grad psi(w) += eta * coef * x, then pull back through p.

    `U` is the mirror state of a batch, shape (n, dim) with one `coef` per
    row, or (dim,) with a scalar `coef`; the input `x` is shared by the
    batch. Returns the new state and weights.
    """
    U = U + np.multiply.outer(eta * coef, x)
    return U, p.grad_inv(U)


def _smd_coef(l, m, x, y, w):
    # J_f(w) = g'(x^T w) x, so the shift is eta * l'(y - g(x^T w)) g'(x^T w) * x
    u = np.dot(x, w)
    return l.deriv(y - m.g(u)) * m.g_prime(u)


def _ssmd_coef(l, x, y, w):
    return l.deriv(y) - l.deriv(np.dot(x, w))


def _step(p, w_prev, x, coef, eta):
    if eta <= 0.0:
        raise ValueError("eta must be > 0")
    w_prev = p.check_domain(np.asarray(w_prev, dtype=float))
    if not np.any(eta * coef * x):
        return w_prev.copy()
    return mirror_update(p, p.grad(w_prev), x, coef, eta)[1]


def smd_step(p, l, m, w_prev, d, eta):
    """One mirror step: shift grad psi(w) by eta * J_f * l'(residual)."""
    return _step(p, w_prev, d.x, _smd_coef(l, m, d.x, d.y, w_prev), eta)


def ssmd_step(p, l, w_prev, d, eta):
    """Symmetric mirror step for linear models: eta * x * (l'(y) - l'(x^T w))."""
    return _step(p, w_prev, d.x, _ssmd_coef(l, d.x, d.y, w_prev), eta)


def genrec_step(p, l, w_prev, d, z, eta):
    """Prediction-driven mirror step: eta * x * l'(y - z) for an arbitrary z."""
    return _step(p, w_prev, d.x, l.deriv(d.y - z), eta)


def _recursion(p, mirror, data, w0, etas, coef):
    """The mirror recursion over `data`, with `coef(i, x, y, w)` the shift of step
    i at the previous iterate w; returns (path, X, Y). The domain is checked on
    entry and once over the whole path, naming the first step that left it."""
    w0 = p.check_domain(np.asarray(w0, dtype=float))
    X = np.array([d.x for d in data], dtype=float).reshape(len(data), w0.size)
    Y = np.array([d.y for d in data], dtype=float)
    path = np.empty((len(Y) + 1, w0.size))
    path[0] = w0
    u = mirror.grad(w0)
    for i in range(len(Y)):
        u, path[i + 1] = mirror_update(mirror, u, X[i], coef(i, X[i], Y[i], path[i]), etas[i])
    try:
        p.check_domain(path)
    except DomainError:
        for i, w in enumerate(path):
            try:
                p.check_domain(w)
            except DomainError as e:
                raise DomainError(f"step {i}: {e}") from e
        raise
    return path, X, Y


def iterate(p, l, m, data, schedule, w0, algorithm="smd", check_margin=True):
    """Run a full trajectory over `data`, recording every iterate.

    `algorithm` is one of "smd", "ssmd" (linear model only), or "sgd"
    (plain gradient update, meaningful with the squared-L2 potential).
    A negative convexity margin at an iterate only warns: the convexity
    premise is sufficient, not necessary, and exploring past it is useful.
    """
    if algorithm not in ("smd", "ssmd", "sgd"):
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if algorithm == "ssmd" and not isinstance(m, Linear):
        raise ConfigError("ssmd is defined for linear models only")
    mirror = SquaredL2(p.dim) if algorithm == "sgd" else p
    etas = np.array([schedule.rate(i) for i in range(1, len(data) + 1)])
    if algorithm == "ssmd":
        coef = lambda i, x, y, w: _ssmd_coef(l, x, y, w)
    else:
        coef = lambda i, x, y, w: _smd_coef(l, m, x, y, w)
    path, X, Y = _recursion(p, mirror, data, w0, etas, coef)
    if check_margin and len(Y):
        holds = premise_holds(p, l, m, etas, path[1:], X, Y)
        if not holds.all():
            warnings.warn(
                f"convexity margin negative at step {int(np.argmin(holds)) + 1}; "
                "the minimax premise is not certified on this run",
                StabilityWarning,
                stacklevel=2,
            )
    return Trajectory(path, X, Y, schedule, p, l, m, algorithm)


def run_general_recursion(p, l, data, z, eta, w0):
    """Trajectory of the prediction-driven recursion for a given z sequence."""
    if len(z) != len(data):
        raise ValueError("z and data must have equal length")
    coef = lambda i, x, y, w: l.deriv(y - z[i])
    path, X, Y = _recursion(p, p, data, w0, [eta] * len(data), coef)
    return Trajectory(path, X, Y, Constant(eta), p, l, Linear(), "genrec")


def run_trajectory(cfg):
    """Generate the configured data stream and run the configured algorithm."""
    from .datagen import generate_problem

    p = cfg.build_potential()
    l = cfg.build_loss()
    m = cfg.build_model()
    schedule = cfg.build_schedule()
    problem = generate_problem(cfg)
    return iterate(
        p,
        l,
        m,
        problem.data,
        schedule,
        cfg.w0_vector(),
        algorithm=cfg.algorithm,
        check_margin=cfg.check_margin,
    )


def _loss_curvature(l, m, u, y):
    """c in hess_w l(y - g(x^T w)) = c * x x^T, at u = x^T w."""
    r = y - m.g(u)
    return l.second_deriv(r) * m.g_prime(u) ** 2 - l.deriv(r) * m.g_second(u)


def _kept(p, w):
    # SeparableQ's Hessian is singular or zero at 0 unless q = 2
    return np.abs(w) >= HESSIAN_PROBE_EXCLUSION if isinstance(p, SeparableQ) else np.ones(np.shape(w), bool)


def premise_holds(p, l, m, eta, W, X, Y):
    """Exact test of hess psi - eta * hess L >= 0 at each probe (rows of W, X, Y).

    The loss Hessian is rank one, c * x x^T, so with D the diagonal of
    hess psi on the kept coordinates the premise holds exactly when
    eta * c * x^T D^{-1} x <= 1. A probe with no kept coordinate passes, as
    in `convexity_margin`. `eta` is a scalar or one rate per probe.
    """
    keep = _kept(p, W)
    D = p.hessian_diag(W)
    s = np.sum(np.divide(np.square(X), D, out=np.zeros_like(D), where=keep), axis=-1)
    c = _loss_curvature(l, m, np.sum(X * W, axis=-1), Y)
    return (eta * c * s <= 1.0) | ~keep.any(axis=-1)


def convexity_margin(p, l, m, eta, probes):
    """Smallest eigenvalue of hess psi - eta * hess L over the probe points.

    A positive value certifies (on the probes) the convexity premise behind
    the minimax and risk-sensitive optimality statements. Near-zero
    coordinates are excluded for SeparableQ, whose Hessian is singular or
    zero there. `premise_holds` gives the same verdict without eigenvalues.
    """
    best = np.inf
    for w, d in probes:
        w = p.check_domain(np.asarray(w, dtype=float))
        keep = _kept(p, w)
        if not np.any(keep):
            continue
        x = d.x[keep]
        c = _loss_curvature(l, m, np.dot(d.x, w), d.y)
        A = np.diag(p.hessian_diag(w)[keep]) - eta * c * np.outer(x, x)
        best = min(best, float(np.linalg.eigvalsh(A)[0]))
    return best


def persistent_excitation(data, delta):
    """Earliest T with lambda_min(sum_{i<=T} x_i x_i^T) >= delta, if any."""
    if delta <= 0.0:
        raise ValueError("delta must be > 0")
    if not data:
        return False, 0
    m = np.asarray(data[0].x).size
    G = np.zeros((m, m))
    for T, d in enumerate(data, start=1):
        x = np.asarray(d.x, dtype=float)
        G += np.outer(x, x)
        if float(np.linalg.eigvalsh(G)[0]) >= delta:
            return True, T
    return False, 0
