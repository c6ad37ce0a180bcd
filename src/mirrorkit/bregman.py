"""Bregman divergences and the two-potential completion-of-squares solver."""

from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError
from .potentials import POSITIVE_ORTHANT, SeparableQ, SquaredL2


class BregmanValue(NamedTuple):
    """A nonnegative divergence plus a flag that both arguments were feasible."""

    value: float
    first_arg_ok: bool = True

    def __float__(self):
        return float(self.value)


def bregman(p, w, w_ref):
    """D_psi(w, w_ref) = psi(w) - psi(w_ref) - grad psi(w_ref)^T (w - w_ref), per row."""
    w = p.check_domain(np.asarray(w, dtype=float))
    w_ref = p.check_domain(np.asarray(w_ref, dtype=float))
    terms = p.elementwise_value(w) - p.elementwise_value(w_ref) - p.grad(w_ref) * (w - w_ref)
    return BregmanValue(np.sum(terms, axis=-1), True)


def loss_bregman(l, a, b):
    """Scalar Bregman divergence of a loss: l(a) - l(b) - l'(b)(a - b)."""
    return BregmanValue(float(l.bregman(float(a), float(b))), True)


def law_of_cosines_residual(p, w, w_prime, w_dprime):
    """Absolute defect of the three-point Bregman expansion.

    D(w, w') equals D(w, w'') + D(w'', w') minus the cross term
    (grad psi(w') - grad psi(w''))^T (w - w''); the return value is the
    absolute difference of the two sides and should sit at roundoff level.
    """
    w = np.asarray(w, dtype=float)
    w_dprime = np.asarray(w_dprime, dtype=float)
    lhs = bregman(p, w, w_prime).value
    rhs = bregman(p, w, w_dprime).value + bregman(p, w_dprime, w_prime).value
    cross = float((p.grad(w_prime) - p.grad(w_dprime)) @ (w - w_dprime))
    return abs(lhs - rhs + cross)


_NEWTON_TOL = 1e-10
_NEWTON_MAX_ITER = 100
_NEWTON_MAX_HALVINGS = 30


def _in_domain_scalar(p, x):
    return x > 0.0 if p.domain == POSITIVE_ORTHANT else np.isfinite(x)


def _newton_1d(g, h, x0, in_domain):
    """Damped Newton for a strictly increasing scalar equation g(x) = 0."""
    x = x0
    gx = g(x)
    for _ in range(_NEWTON_MAX_ITER):
        if abs(gx) <= _NEWTON_TOL:
            return x
        hx = h(x)
        if not np.isfinite(hx) or hx <= 1e-300:
            hx = 1.0
        step = gx / hx
        t = 1.0
        for _ in range(_NEWTON_MAX_HALVINGS):
            cand = x - t * step
            if in_domain(cand):
                gc = g(cand)
                if abs(gc) < abs(gx):
                    x, gx = cand, gc
                    break
            t *= 0.5
        else:
            raise ConvergenceError("Newton step halving stalled")
    raise ConvergenceError(f"Newton did not reach |g| <= {_NEWTON_TOL} in {_NEWTON_MAX_ITER} iterations")


def complete_squares(p1, p2, w1, w2, x0=None):
    """Solve grad(psi1 + psi2)(w*) = grad psi1(w1) + grad psi2(w2) for w*.

    Closed form when both potentials are SquaredL2 or both are SeparableQ
    with the same exponent; otherwise a damped coordinatewise Newton (the
    potentials are separable, so the system decouples). The solution is
    certified to satisfy the gradient equation within 1e-10 in max-norm.
    """
    if p1.dim != p2.dim:
        raise ValueError("potentials must share a dimension")
    w1 = p1.check_domain(np.asarray(w1, dtype=float))
    w2 = p2.check_domain(np.asarray(w2, dtype=float))
    rhs = p1.grad(w1) + p2.grad(w2)

    if isinstance(p1, SquaredL2) and isinstance(p2, SquaredL2):
        w_star = 0.5 * rhs
    elif (
        isinstance(p1, SeparableQ)
        and isinstance(p2, SeparableQ)
        and p1.q == p2.q
    ):
        w_star = np.sign(rhs) * (0.5 * np.abs(rhs)) ** (1.0 / (p1.q - 1.0))
    else:
        positive = POSITIVE_ORTHANT in (p1.domain, p2.domain)
        if x0 is None:
            x0 = w1.copy()
        else:
            x0 = np.asarray(x0, dtype=float).copy()
        if positive:
            x0 = np.where(x0 > 0.0, x0, 1.0)
        w_star = np.empty_like(x0)
        for j in range(p1.dim):
            g1, g2 = _coord_grad(p1, j), _coord_grad(p2, j)
            h1, h2 = _coord_hess(p1, j), _coord_hess(p2, j)
            target = rhs[j]
            w_star[j] = _newton_1d(
                lambda x: g1(x) + g2(x) - target,
                lambda x: h1(x) + h2(x),
                x0[j],
                lambda x: _in_domain_scalar(p1, x) and _in_domain_scalar(p2, x),
            )

    resid = np.max(np.abs(p1.grad(w_star) + p2.grad(w_star) - rhs))
    if resid > _NEWTON_TOL:
        raise ConvergenceError(f"completion-of-squares residual {resid:.3e} exceeds {_NEWTON_TOL}")
    return w_star


def _coord_grad(p, j):
    def g(x):
        w = np.full(p.dim, _safe_fill(p))
        w[j] = x
        return p.grad(w)[j]

    return g


def _coord_hess(p, j):
    def h(x):
        w = np.full(p.dim, _safe_fill(p))
        w[j] = x
        return p.hessian_diag(w)[j]

    return h


def _safe_fill(p):
    return 1.0 if p.domain == POSITIVE_ORTHANT else 0.0
