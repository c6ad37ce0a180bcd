"""Bregman divergences and the two-potential completion-of-squares solver."""

import numpy as np

from .errors import ConvergenceError
from .potentials import POSITIVE_ORTHANT, SeparableQ, SquaredL2


def bregman(p, w, w_ref):
    """D_psi(w, w_ref) = psi(w) - psi(w_ref) - grad psi(w_ref)^T (w - w_ref), per row."""
    w = p.check_domain(w)
    g = p.grad(w_ref)  # checks w_ref's domain
    w_ref = np.asarray(w_ref, dtype=float)
    terms = p.elementwise_value(w) - p.elementwise_value(w_ref) - g * (w - w_ref)
    return terms.sum(axis=-1)


def law_of_cosines_residual(p, w, w_prime, w_dprime):
    """Absolute defect of the three-point Bregman expansion.

    D(w, w') equals D(w, w'') + D(w'', w') minus the cross term
    (grad psi(w') - grad psi(w''))^T (w - w''); the return value is the
    absolute difference of the two sides and should sit at roundoff level.
    """
    w = np.asarray(w, dtype=float)
    w_dprime = np.asarray(w_dprime, dtype=float)
    lhs = bregman(p, w, w_prime)
    rhs = bregman(p, w, w_dprime) + bregman(p, w_dprime, w_prime)
    cross = float((p.grad(w_prime) - p.grad(w_dprime)) @ (w - w_dprime))
    return abs(lhs - rhs + cross)


_NEWTON_TOL = 1e-10
_NEWTON_MAX_ITER = 100
_NEWTON_MAX_HALVINGS = 30


def _newton(p1, p2, rhs, x):
    """Damped Newton on the separable equation g(x) = grad(psi1 + psi2)(x) - rhs = 0,
    every coordinate at once. A coordinate stops once |g| <= 1e-10; each step
    is halved until the point is finite, in the domain, and |g| decreases."""
    positive = POSITIVE_ORTHANT in (p1.domain, p2.domain)
    if positive:
        x = np.where(x > 0.0, x, 1.0)
    g = lambda x: p1.grad(x) + p2.grad(x) - rhs
    gx = g(x)
    for _ in range(_NEWTON_MAX_ITER):
        active = ~(np.abs(gx) <= _NEWTON_TOL)
        if not active.any():
            return x
        h = p1.hessian_diag(x) + p2.hessian_diag(x)
        step = gx / np.where(np.isfinite(h) & (h > 1e-300), h, 1.0)
        t = 1.0
        for _ in range(_NEWTON_MAX_HALVINGS):
            cand = x - t * step
            ok = np.isfinite(cand) & ((cand > 0.0) if positive else True)
            gc = g(np.where(ok, cand, x))
            ok &= active & (np.abs(gc) < np.abs(gx))
            x, gx = np.where(ok, cand, x), np.where(ok, gc, gx)
            active &= ~ok
            if not active.any():
                break
            t *= 0.5
        else:
            raise ConvergenceError("Newton step halving stalled")
    raise ConvergenceError(f"Newton did not reach |g| <= {_NEWTON_TOL} in {_NEWTON_MAX_ITER} iterations")


def complete_squares(p1, p2, w1, w2, x0=None):
    """Solve grad(psi1 + psi2)(w*) = grad psi1(w1) + grad psi2(w2) for w*.

    Closed form when both potentials are SquaredL2 or both are SeparableQ
    with the same exponent; otherwise one damped Newton over all coordinates
    (the potentials are separable, so the system decouples). The solution is
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
        w_star = _newton(p1, p2, rhs, np.array(w1 if x0 is None else x0, dtype=float))

    resid = np.max(np.abs(p1.grad(w_star) + p2.grad(w_star) - rhs))
    if resid > _NEWTON_TOL:
        raise ConvergenceError(f"completion-of-squares residual {resid:.3e} exceeds {_NEWTON_TOL}")
    return w_star

