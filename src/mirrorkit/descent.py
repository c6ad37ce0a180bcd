"""Iteration engines: mirror steps, symmetric mirror steps, and plain SGD.

Every engine runs one kernel, `mirror_update`: the mirror-domain state
u = grad psi(w) is shifted by eta * coef * x and pulled back through the
inverse mirror map. The multi-step engines iterate one generator of it,
`mirror_steps`, over one start or a batch of trials; the state is carried in
the mirror domain and never recomputed from w. SGD is the kernel with the
identity mirror map, so with the squared-L2 potential SMD and SGD agree bit
for bit.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .datagen import generate_problem
from .errors import ConfigError, DomainError, StabilityWarning
from .losses import LossFn
from .potentials import Potential, SeparableQ, SquaredL2

HESSIAN_PROBE_EXCLUSION = 1e-8


def _logistic(u):
    """1 / (1 + exp(-u)), split on the sign of u so that exp never overflows."""
    e = np.exp(-np.abs(u))
    return np.where(np.asarray(u) >= 0.0, 1.0, e) / (1.0 + e)


class GeneralizedLinear:
    """f(x, w) = g(x^T w) for a smooth scalar link g."""

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
        return _logistic(u)

    def g_second(self, u):
        if self.link == "tanh":
            t = np.tanh(u)
            return -2.0 * t * (1.0 - t * t)
        s = _logistic(u)
        return s * (1.0 - s)

    def __repr__(self):
        return f"GeneralizedLinear(link={self.link!r})"


class Linear(GeneralizedLinear):
    """f(x, w) = x^T w: the identity link."""

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


@dataclass
class Trajectory:
    """One run as a (T+1, dim) path (w_0 first), its data as arrays (inputs
    X (T, dim), outputs Y (T,)), and everything needed to audit it; a batch
    of n runs from one start adds a leading trial axis to each array.
    `problem` is the generated problem when the run made its own data."""

    path: np.ndarray
    X: np.ndarray
    Y: np.ndarray
    schedule: object
    potential: Potential
    loss: LossFn
    model: object
    problem: object = None

    def __len__(self):
        return self.path.shape[-2] - 1

    @property
    def w0(self):
        return self.path[..., 0, :]

    @property
    def iterates(self):
        """w_1 .. w_T as a (T, dim) array, or (n, T, dim) for a batch."""
        return self.path[..., 1:, :]

    @property
    def final(self):
        return self.path[..., -1, :]


def mirror_update(p, U, x, coef, eta):
    """The SMD kernel: grad psi(w) += eta * coef * x, then pull back through p.

    `U` is the mirror state of one start, shape (dim,) with a scalar `coef`,
    or of a batch of any leading shape, (..., dim) with `coef` of shape (...);
    the input `x` is shared (dim,) or one row per trial (..., dim), and `eta`
    broadcasts against `coef`, e.g. one rate per block as (blocks, 1) for a
    state (blocks, n, dim). Returns the new state and weights.
    """
    U = U + np.asarray(eta * coef)[..., None] * x
    return U, p.grad_inv(U)


def _smd_coef(l, m, x, y, w):
    # J_f(w) = g'(x^T w) x, so the shift is eta * l'(y - g(x^T w)) g'(x^T w) * x
    u = np.vecdot(x, w)
    return l.deriv(y - m.g(u)) * m.g_prime(u)


def _ssmd_coef(l, x, y, w):
    return l.deriv(y) - l.deriv(np.vecdot(x, w))


def mirror_steps(mirror, W, X, Y, etas, coef):
    """Yield w_1 .. w_T of the mirror recursion started at W = w_0.

    `W` is one start of shape (dim,) or a batch of any leading shape
    (..., dim). Step i reads the input `X[i]` (shared, or one row per trial),
    the output `Y[i]` (a scalar, or one per trial), the rate `etas[i]` (a
    scalar, or one per block broadcast as in `mirror_update`), and the shift
    `coef(i, x, y, W)` at the previous iterate; all may be any iterables.
    The state U = grad psi(W) is carried and never recomputed from W.
    """
    U = mirror.grad(W)
    for i, (x, y, eta) in enumerate(zip(X, Y, etas)):
        U, W = mirror_update(mirror, U, x, coef(i, x, y, W), eta)
        yield W


def _recursion(p, mirror, X, Y, w0, rate, coef):
    """`mirror_steps` over the observations (X, Y) from w0 at the rates
    rate(1) .. rate(T), recorded; returns (path, X, Y, etas). X (n, T, dim)
    and Y (n, T) run n trials, recorded as an (n, T+1, dim) path. Mis-shaped
    or non-finite observations raise ValueError. The domain is checked on
    entry and once over the whole path, naming the first step that left it."""
    w0 = p.check_domain(np.asarray(w0, dtype=float))
    X, Y = np.asarray(X, dtype=float), np.asarray(Y, dtype=float)
    if Y.ndim not in (1, 2) or X.shape != Y.shape + (w0.size,):
        raise ValueError(f"X must be ([n,] T, {w0.size}) and Y ([n,] T), got {X.shape} and {Y.shape}")
    if not (np.isfinite(X).all() and np.isfinite(Y).all()):
        raise ValueError("observations have non-finite entries")
    etas = np.array([rate(i) for i in range(1, Y.shape[-1] + 1)])
    path = np.empty(Y.shape[:-1] + (len(etas) + 1, w0.size))
    path[..., 0, :] = w0
    steps = mirror_steps(mirror, w0, np.moveaxis(X, -2, 0), np.moveaxis(Y, -1, 0), etas, coef)
    for i, w in enumerate(steps, 1):
        path[..., i, :] = w
    try:
        p.check_domain(path)
    except DomainError:
        for i, w in enumerate(np.moveaxis(path, -2, 0)):
            try:
                p.check_domain(w)
            except DomainError as e:
                raise DomainError(f"step {i}: {e}") from e
        raise
    return path, X, Y, etas


def iterate(p, l, m, X, Y, schedule, w0, algorithm="smd", check_margin=True):
    """Run a full trajectory over the inputs X (T, dim) and outputs Y (T,),
    or n trials from w0 over X (n, T, dim) and Y (n, T), recording every iterate.

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
    if algorithm == "ssmd":
        coef = lambda i, x, y, w: _ssmd_coef(l, x, y, w)
    else:
        coef = lambda i, x, y, w: _smd_coef(l, m, x, y, w)
    path, X, Y, etas = _recursion(p, mirror, X, Y, w0, schedule.rate, coef)
    if check_margin and len(etas):
        holds = premise_holds(p, l, m, etas, path[..., 1:, :], X, Y).reshape(-1, len(etas)).all(axis=0)
        if not holds.all():
            warnings.warn(
                f"convexity margin negative at step {int(np.argmin(holds)) + 1}; "
                "the minimax premise is not certified on this run",
                StabilityWarning,
                stacklevel=2,
            )
    return Trajectory(path, X, Y, schedule, p, l, m)


def run_general_recursion(p, l, X, Y, z, eta, w0):
    """Trajectory of the prediction-driven recursion for a given z sequence."""
    if len(z) != len(Y):
        raise ValueError("z and Y must have equal length")
    coef = lambda i, x, y, w: l.deriv(y - z[i])
    schedule = Constant(eta)
    path, X, Y, _ = _recursion(p, p, X, Y, w0, schedule.rate, coef)
    return Trajectory(path, X, Y, schedule, p, l, Linear())


def run_trajectory(cfg):
    """Generate the configured problem and run the configured algorithm on
    its data; the problem stays on the returned trajectory."""
    problem = generate_problem(cfg)
    traj = iterate(
        cfg.build_potential(),
        cfg.build_loss(),
        cfg.build_model(),
        problem.X,
        problem.Y,
        cfg.build_schedule(),
        cfg.w0_vector(),
        algorithm=cfg.algorithm,
    )
    traj.problem = problem
    return traj


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


def convexity_margin(p, l, m, eta, W, X, Y):
    """Smallest eigenvalue of hess psi - eta * hess L over the probes (rows
    of W, X, Y, as in `premise_holds`).

    A positive value certifies (on the probes) the convexity premise behind
    the minimax and risk-sensitive optimality statements. Near-zero
    coordinates are excluded for SeparableQ, whose Hessian is singular or
    zero there. `premise_holds` gives the same verdict without eigenvalues.
    """
    best = np.inf
    for w, x, y in zip(W, np.asarray(X, dtype=float), Y):
        w = p.check_domain(np.asarray(w, dtype=float))
        keep = _kept(p, w)
        if not np.any(keep):
            continue
        c = _loss_curvature(l, m, np.dot(x, w), y)
        A = np.diag(p.hessian_diag(w)[keep]) - eta * c * np.outer(x[keep], x[keep])
        best = min(best, float(np.linalg.eigvalsh(A)[0]))
    return best


def persistent_excitation(X, delta):
    """Earliest T with lambda_min(sum_{i<=T} x_i x_i^T) >= delta, if any.

    `X` is any iterable of input rows; it is read only up to that T.
    """
    if delta <= 0.0:
        raise ValueError("delta must be > 0")
    G = 0.0
    for T, x in enumerate(X, start=1):
        x = np.asarray(x, dtype=float)
        G = G + np.outer(x, x)
        if float(np.linalg.eigvalsh(G)[0]) >= delta:
            return True, T
    return False, 0
