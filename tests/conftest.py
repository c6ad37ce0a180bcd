import math

import numpy as np
import pytest

from mirrorkit import LogCosh, NegEntropy, Quadratic, Quartic, SeparableQ, SquaredL2
from mirrorkit.datagen import make_inputs
from mirrorkit.descent import HESSIAN_PROBE_EXCLUSION, mirror_steps
from mirrorkit.experiments import prediction_map
from mirrorkit.samplers import STREAM_TRIAL_BASE, _splitmix64, derive_seed


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "bitwise: a bitwise or sampler check that CI also runs off numpy's AVX512 loops",
    )


def all_potentials(dim):
    return [SquaredL2(dim), NegEntropy(dim), SeparableQ(3.0, dim), SeparableQ(1.5, dim)]


def all_losses():
    return [Quadratic(), Quartic(), LogCosh()]


def einsum_rowdot(a, b):
    return np.einsum("...j,...j->...", a, b)


def rank_one_premise(p, l, m, eta, W, X, Y, rowdot=einsum_rowdot):
    """The general rank-one test of the convexity premise at each probe
    (rows of W, X, Y), as `descent.premise_holds` makes it for every
    (potential, loss, model): with D the diagonal of hess psi on the kept
    coordinates and c = l''(r) g'(u)^2 - l'(r) g''(u) the loss curvature at
    u = x^T w and r = y - g(u), the premise holds where
    eta * c * x^T D^{-1} x <= 1, and a probe with no kept coordinate passes.
    Row dots default to `descent`'s contraction. The reference for the
    closed form of the linear-quadratic case."""
    keep = np.abs(W) >= HESSIAN_PROBE_EXCLUSION if isinstance(p, SeparableQ) else np.ones(np.shape(W), bool)
    D = p.hessian_diag(W)
    s = rowdot(X, np.divide(X, D, out=np.zeros_like(D), where=keep))
    u = rowdot(X, W)
    r = Y - m.g(u)
    c = l.second_deriv(r) * m.g_prime(u) ** 2 - l.deriv(r) * m.g_second(u)
    return (eta * c * s <= 1.0) | ~keep.any(axis=-1)


def random_in_domain(p, rng, low=0.1, high=2.0):
    """A random point strictly inside the potential's domain."""
    w = rng.uniform(low, high, size=p.dim)
    if p.domain == "all_reals":
        w *= rng.choice([-1.0, 1.0], size=p.dim)
    return w


class CounterStream:
    """Trial t's uniforms one at a time in Python integers: the splitmix64
    generator started at derive_seed(seed, 1000 + t), each output x mapped to
    (x >> 11) * 2^-53. Successive draws continue the sequence, as an
    RngStream's do, so the single-stream samplers run on it unchanged."""

    def __init__(self, seed, t):
        self.state = derive_seed(seed, STREAM_TRIAL_BASE + t)

    def uniform(self, size):
        values = []
        for _ in range(math.prod(np.atleast_1d(size))):
            self.state = (self.state + 0x9E3779B97F4A7C15) % 2**64
            values.append((_splitmix64(self.state) >> 11) * 2.0**-53)
        return np.array(values, dtype=float).reshape(size)


def gaussian_log_costs(cfg):
    """{estimator name: log E e^S}, exact, for a risk config on the squared-L2
    potential, the quadratic loss and the linear model, where the prior is
    N(w0, eta I) and the noise N(0, 1). Each estimator is affine in the
    outputs, z = c + K y, as `prediction_map` gives it. With
    xi = (w - w0, v) ~ N(0, Sigma), A = [K X - X, K] and
    b = c + (K X - X) w0, the exponent is S = |A xi + b|^2 / 2, so with
    M = A Sigma A^T
    log E e^S = -log det(I - M) / 2 + b^T (I - M)^-1 b / 2, from one Cholesky
    factor of I - M; it is +inf where I - M is not positive definite."""
    p, l, eta, w0, T = cfg.build_potential(), cfg.build_loss(), cfg.schedule["eta"], cfg.w0_vector(), cfg.T
    X = make_inputs(cfg)
    sigma = np.concatenate([np.full(cfg.dim, eta), np.ones(T)])
    log_costs = {}
    for spec in cfg.estimators:
        name, c, K = prediction_map(spec, p, l, eta, X, w0)
        A = np.hstack([K @ X - X, K])
        b = c + A[:, : cfg.dim] @ w0
        try:
            L = np.linalg.cholesky(np.eye(T) - (A * sigma) @ A.T)
        except np.linalg.LinAlgError:
            log_costs[name] = np.inf
            continue
        log_costs[name] = -np.log(np.diag(L)).sum() + 0.5 * np.sum(np.linalg.solve(L, b) ** 2)
    return log_costs


def forward_lms_maps(p, X, etas, shift, K):
    """Every K-step block's map (Phi, G) of the LMS recursion under each of
    the B rate rows `etas`, as arrays (B, n_blocks, dim, dim) and
    (B, n_blocks, K, dim), by forward accumulation: one `mirror_steps` call
    over K + dim trials for every block. The impulse trials start at 0 and read
    y = 1 at their own step and 0 elsewhere, giving the rows of G, and the
    basis trials start at e_k and read 0, giving the rows of Phi. The last
    block is padded with x = 0, eta = 0 steps. The reference for the
    adjoint construction of `experiments._lms_maps`."""
    (T, dim), B = X.shape, len(etas)
    n_blocks = -(-T // K)
    pad = n_blocks * K - T
    x = np.pad(X, ((0, pad), (0, 0))).reshape(n_blocks, K, dim).swapaxes(0, 1)[:, :, None, :]
    eta = np.moveaxis(np.pad(etas, ((0, 0), (0, pad))).reshape(B, n_blocks, K), -1, 0)[..., None]
    starts, outputs = np.eye(K + dim, dim, -K), np.eye(K, K + dim)
    M = np.broadcast_to(starts, (B, n_blocks) + starts.shape)
    for M in mirror_steps(p, M, x, outputs, eta, shift):
        pass
    return M[:, :, K:], M[:, :, :K]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
