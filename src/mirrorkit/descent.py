"""Iteration engines: stochastic mirror descent (SMD) and symmetric SMD.

The mirror update exists once, in `mirror_steps`: the mirror-domain state
u = grad psi(w) is shifted by eta * shift(x, y, w) * x and pulled back
through the inverse mirror map, over one start or a batch of trials; the
state is carried in the mirror domain and never recomputed from w. Each
algorithm is one shift rule, `smd_shift` or `ssmd_shift`. SGD is SMD with
the squared-L2 potential, whose mirror map is the identity.
"""

from types import SimpleNamespace

import numpy as np

from .errors import ConfigError, DomainError
from .losses import Quadratic
from .potentials import SeparableQ, SquaredL2

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


class Constant:
    """Fixed learning rate."""

    kind = "constant"

    def __init__(self, eta):
        if not eta > 0.0:
            raise ValueError("eta must be > 0")
        self.eta = eta

    def __repr__(self):
        return f"Constant(eta={self.eta!r})"

    def rates(self, T):
        """eta_1 .. eta_T as a float array."""
        return np.full(T, float(self.eta))


class RobbinsMonro:
    """eta_i = c / i: divergent sum, summable squares."""

    kind = "robbins_monro"

    def __init__(self, c):
        if not c > 0.0:
            raise ValueError("c must be > 0")
        self.c = c

    def __repr__(self):
        return f"RobbinsMonro(c={self.c!r})"

    def rates(self, T):
        """eta_1 .. eta_T as a float array; each c / i is the correctly
        rounded quotient, as in Python."""
        return self.c / np.arange(1, T + 1)


class Trajectory(SimpleNamespace):
    """One run as a (T+1, dim) path (w_0 first), its data as arrays (inputs
    X (T, dim), outputs Y (T,)), and everything needed to audit it: the
    schedule, the Potential, the LossFn and the model. A batch of n runs
    from one start adds a leading trial axis to each array."""

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


def _dot(x, W):
    # a shared input (dim,) takes W.dot(x) on a 1-D or 2-D state, bitwise W @ x there at about half
    # its per-call cost; a 3-D state keeps @, since dot differs from the stacked matmul; per-trial
    # rows take np.vecdot
    if x.ndim > 1:
        return np.vecdot(x, W)
    return W.dot(x) if W.ndim < 3 else W @ x


def smd_shift(l, m):
    """The SMD shift as shift(x, y, W): J_f(w) = g'(x^T w) x, so the step
    moves grad psi(w) by eta * l'(y - g(x^T w)) g'(x^T w) * x.

    The linear model's g(u) = u and g'(u) = 1 are inlined, without their
    per-step calls."""
    if isinstance(m, Linear):
        return lambda x, y, W: l.deriv(y - _dot(x, W))
    def shift(x, y, W):
        u = _dot(x, W)
        return l.deriv(y - m.g(u)) * m.g_prime(u)
    return shift


def ssmd_shift(l):
    """The symmetric SMD shift l'(y) - l'(x^T w) as shift(x, y, W); linear model only."""
    return lambda x, y, W: l.deriv(y) - l.deriv(_dot(x, W))


def mirror_steps(p, W, X, Y, etas, shift):
    """Yield w_1 .. w_T of the mirror recursion
    grad psi(w_i) = grad psi(w_{i-1}) + eta_i * shift(x_i, y_i, w_{i-1}) * x_i
    started at W = w_0.

    `W` is one start (dim,) or a batch of any leading shape (..., dim). Step
    i reads the input `X[i]` (shared (dim,), or one row per trial), the
    output `Y[i]` (a scalar, or one per trial) and the rate `etas[i]` (a
    scalar, or one per block broadcast against the shift, e.g. (blocks, 1)
    for a state (blocks, n, dim)); all may be any iterables. The state
    U = grad psi(W) is carried and never recomputed from W. The coefficient
    c = eta_i * shift(...) multiplies x_i directly when it is 0-d (one
    start; a Python float too) and is lifted to c[..., None] when it has a
    trial axis.
    """
    U = p.grad(W)
    for x, y, eta in zip(X, Y, etas):
        c = eta * shift(x, y, W)
        U = U + (c[..., None] if getattr(c, "ndim", 0) else c) * x
        W = p.grad_inv(U)
        yield W


def _recursion(p, X, Y, w0, schedule, shift, S=None):
    """`mirror_steps` over the observations (X, Y) from w0 at the rates
    schedule.rates(T), recorded; returns (path, X, Y). X (n, T, dim)
    and Y (n, T) run n trials, recorded as an (n, T+1, dim) path. `S`, when
    given, is fed to `shift` in place of Y, one entry per step. Mis-shaped
    or non-finite observations raise ValueError. The domain is checked on
    entry and once over the whole path, naming the first step that left it."""
    w0 = p.check_domain(np.asarray(w0, dtype=float))
    X, Y = np.asarray(X, dtype=float), np.asarray(Y, dtype=float)
    if Y.ndim not in (1, 2) or X.shape != Y.shape + (w0.size,):
        raise ValueError(f"X must be ([n,] T, {w0.size}) and Y ([n,] T), got {X.shape} and {Y.shape}")
    if not (np.isfinite(X).all() and np.isfinite(Y).all()):
        raise ValueError("observations have non-finite entries")
    etas = schedule.rates(Y.shape[-1])
    path = np.empty(Y.shape[:-1] + (len(etas) + 1, w0.size))
    # with at most one trial axis, swapaxes puts the step axis first as moveaxis would, as a view:
    # rows[i] is w_i, and X and Y (or S, of Y's shape) are read step by step
    rows = path.swapaxes(0, -2)
    rows[0] = w0
    steps = mirror_steps(p, w0, X.swapaxes(0, -2), (Y if S is None else S).swapaxes(0, -1), etas, shift)
    # a diverging run overflows to inf and nan quietly: the domain check below names its step
    with np.errstate(over="ignore", invalid="ignore"):
        for i, w in enumerate(steps, 1):
            rows[i] = w
    try:
        p.check_domain(path)
    except DomainError:
        for i, w in enumerate(rows):
            try:
                p.check_domain(w)
            except DomainError as e:
                raise DomainError(f"step {i}: {e}") from e
        raise
    return path, X, Y


def iterate(p, l, m, X, Y, schedule, w0, algorithm="smd"):
    """Run a full trajectory over the inputs X (T, dim) and outputs Y (T,),
    or n trials from w0 over X (n, T, dim) and Y (n, T), recording every iterate.

    `algorithm` is "smd" or "ssmd" (linear model only); SGD is "smd" with
    the squared-L2 potential. The run is recorded, not certified: each claim
    certifies the convexity premise it rests on where it makes the claim.
    """
    if algorithm not in ("smd", "ssmd"):
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if algorithm == "ssmd" and not isinstance(m, Linear):
        raise ConfigError("ssmd is defined for linear models only")
    shift = ssmd_shift(l) if algorithm == "ssmd" else smd_shift(l, m)
    path, X, Y = _recursion(p, X, Y, w0, schedule, shift)
    return Trajectory(path=path, X=X, Y=Y, schedule=schedule, potential=p, loss=l, model=m)


def run_general_recursion(p, l, X, Y, z, eta, w0):
    """Trajectory of the prediction-driven recursion for a given z sequence,
    one prediction per step (shared by every trial of a batch Y (n, T), or
    one row per trial). Its shifts l'(y_i - z_i) do not depend on the
    iterate, so they are data."""
    if np.shape(z)[-1:] != np.shape(Y)[-1:]:
        raise ValueError("z and Y must have equal length")
    schedule = Constant(eta)
    S = l.deriv(np.asarray(Y, dtype=float) - np.asarray(z, dtype=float))
    path, X, Y = _recursion(p, X, Y, w0, schedule, lambda x, s, W: s, S)
    return Trajectory(path=path, X=X, Y=Y, schedule=schedule, potential=p, loss=l, model=Linear())


def _rowdot(a, b):
    """x^T w of each row, as one contraction over the last axis."""
    return np.einsum("...j,...j->...", a, b)


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
    in `convexity_margin`: on `SeparableQ` at w = 0 every coordinate is
    excluded, so the probe passes vacuously. `eta` is one scalar rate.

    With the squared-L2 potential, the quadratic loss and the linear model,
    D = I and c = 1, so the rule is the LMS step bound eta * |x|^2 <= 1,
    held where the residual y - x^T w is finite (a non-finite one makes c
    NaN); it takes no Hessian, and a state holding inf or nan fails it.
    Only `SeparableQ` excludes coordinates, so only it takes the mask of
    kept coordinates.
    """
    if isinstance(p, SquaredL2) and isinstance(l, Quadratic) and isinstance(m, Linear):
        return (eta * _rowdot(X, X) <= 1.0) & np.isfinite(Y - _rowdot(X, W))
    D = p.hessian_diag(W)
    c = _loss_curvature(l, m, _rowdot(X, W), Y)
    if not isinstance(p, SeparableQ):
        # every coordinate is kept: no mask, and no probe passes vacuously
        return eta * c * _rowdot(X, X / D) <= 1.0
    keep = _kept(p, W)
    s = _rowdot(X, np.divide(X, D, out=np.zeros_like(D), where=keep))
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
