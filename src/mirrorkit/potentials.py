"""Strictly convex potentials and the mirror maps they induce.

Every potential here is separable, so gradients, inverse gradients, and
Hessians act coordinatewise and the inverse mirror map has a closed form.
"""

import numpy as np

from .errors import DomainError

ALL_REALS = "all_reals"
POSITIVE_ORTHANT = "positive_orthant"


class Potential:
    """Base class: a strictly convex generator psi with an invertible gradient.

    Subclasses implement the coordinatewise maps; `value` sums them. All
    array-valued methods accept and return numpy arrays (or scalars) and are
    safe for vectorized use.
    """

    kind = "abstract"
    domain = ALL_REALS

    def __init__(self, dim):
        if dim < 1:
            raise ValueError("dim must be a positive integer")
        self.dim = int(dim)

    def check_domain(self, w):
        w = np.asarray(w, dtype=float)
        if w.shape[-1] != self.dim:
            raise DomainError(
                f"expected vectors of length {self.dim}, got shape {w.shape}"
            )
        if not np.isfinite(w).all():
            raise DomainError("non-finite coordinate")
        if self.domain == POSITIVE_ORTHANT and (w <= 0.0).any():
            raise DomainError(f"{self.kind} requires strictly positive coordinates")
        return w

    def value(self, w):
        """psi(w), a scalar."""
        w = self.check_domain(w)
        return float(np.sum(self.elementwise_value(w)))

    def elementwise_value(self, w):
        raise NotImplementedError

    def grad(self, w):
        raise NotImplementedError

    def grad_inv(self, u):
        """Inverse of the mirror map: the unique w with grad(w) = u."""
        raise NotImplementedError

    def hessian_diag(self, w):
        """Diagonal of the (separable) Hessian of psi at w."""
        raise NotImplementedError

    def argmin_point(self):
        """The unconstrained minimizer of psi, used as a canonical start."""
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim})"


class SquaredL2(Potential):
    """psi(w) = ||w||^2 / 2; the mirror map is the identity."""

    kind = "squared_l2"
    domain = ALL_REALS

    def elementwise_value(self, w):
        return 0.5 * np.square(w)

    def grad(self, w):
        w = self.check_domain(w)
        return w.copy()

    def grad_inv(self, u):
        return np.array(u, dtype=float)

    def hessian_diag(self, w):
        w = self.check_domain(w)
        return np.ones_like(w)

    def argmin_point(self):
        return np.zeros(self.dim)


class NegEntropy(Potential):
    """psi(w) = sum_j w_j ln w_j on the open positive orthant.

    The induced Bregman divergence is the (unnormalized) KL divergence, and
    mirror steps become exponentiated-gradient updates. Points with any
    coordinate <= 0 are rejected rather than clamped.
    """

    kind = "neg_entropy"
    domain = POSITIVE_ORTHANT

    def elementwise_value(self, w):
        return w * np.log(w)

    def grad(self, w):
        w = self.check_domain(w)
        return 1.0 + np.log(w)

    def grad_inv(self, u):
        return np.exp(np.asarray(u, dtype=float) - 1.0)

    def hessian_diag(self, w):
        w = self.check_domain(w)
        return 1.0 / w

    def argmin_point(self):
        return np.full(self.dim, np.exp(-1.0))


class SeparableQ(Potential):
    """psi(w) = sum_j |w_j|^q / q for q > 1.

    q -> 1 approaches an L1 geometry (useful as a compressed-sensing
    surrogate); q = 2 recovers SquaredL2. The Hessian (q-1)|w|^(q-2) is
    singular or zero at coordinates equal to 0 when q != 2, so Hessian-based
    probes should exclude near-zero coordinates.
    """

    kind = "separable_q"
    domain = ALL_REALS

    def __init__(self, q, dim):
        super().__init__(dim)
        if not q > 1.0:
            raise ValueError("q must be > 1")
        self.q = float(q)

    def elementwise_value(self, w):
        return np.abs(w) ** self.q / self.q

    def grad(self, w):
        w = self.check_domain(w)
        return np.sign(w) * np.abs(w) ** (self.q - 1.0)

    def grad_inv(self, u):
        u = np.asarray(u, dtype=float)
        return np.sign(u) * np.abs(u) ** (1.0 / (self.q - 1.0))

    def hessian_diag(self, w):
        w = self.check_domain(w)
        with np.errstate(divide="ignore"):
            return (self.q - 1.0) * np.abs(w) ** (self.q - 2.0)

    def argmin_point(self):
        return np.zeros(self.dim)

    def __repr__(self):
        return f"SeparableQ(q={self.q}, dim={self.dim})"
