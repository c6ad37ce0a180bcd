"""Step-level and trajectory-level certification of the mirror-descent identities.

Every function here evaluates both sides of an exact algebraic identity and
returns the defect, normalized by 1 + |LHS| so that tolerances stay
meaningful across learning-rate sweeps. A residual at roundoff level
certifies the implementation; anything larger indicates a broken update
rule or a mismatched argument. Per-step terms are computed once, as arrays
over the step axis.
"""

from dataclasses import dataclass

import numpy as np

from .bregman import bregman
from .descent import Linear, premise_holds

IDENTITY_RTOL = 1e-8
MINIMAX_SLACK = 1e-9
DENOMINATOR_FLOOR = 1e-14


@dataclass
class AuditRecord:
    """All terms of the per-step balance around one update."""

    step: int
    d_psi_prev: float
    d_psi_next: float
    d_loss_bregman: float
    e_term: float
    loss_noise: float
    local_residual: float


@dataclass
class MinimaxReport:
    """Energy-gain ratio of one trajectory against a reference weight."""

    numerator: float
    denominator: float
    ratio: float
    premise_certified: bool


def _rowdot(a, b):
    return np.sum(a * b, axis=-1)


def _loss_map_bregman(l, m, X, Y, A, B):
    """D_{L_i}(a_i, b_i) of L_i(w) = l(y_i - f(x_i, w)), one value per row."""
    ub = _rowdot(X, B)
    rb = Y - m.g(ub)
    return (
        l.value(Y - m.g(_rowdot(X, A)))
        - l.value(rb)
        + l.deriv(rb) * m.g_prime(ub) * _rowdot(X, A - B)
    )


def loss_map_bregman(l, m, d, w, w_ref):
    """Bregman divergence of w -> l(y - f(x, w)), which need not be convex."""
    w, w_ref = np.asarray(w, dtype=float), np.asarray(w_ref, dtype=float)
    return float(_loss_map_bregman(l, m, d.x, d.y, w, w_ref))


def _step_terms(p, l, m, X, Y, path, w, eta):
    """The per-step balance of every step of `path`, as an AuditRecord of arrays."""
    prev, nxt = path[:-1], path[1:]
    loss_noise = l.value(Y - m.g(_rowdot(X, w)))
    d_psi_prev = bregman(p, w, prev).value
    d_psi_next = bregman(p, w, nxt).value
    d_lb = _loss_map_bregman(l, m, X, Y, w, prev)
    e_term = (
        bregman(p, nxt, prev).value
        - eta * _loss_map_bregman(l, m, X, Y, nxt, prev)
        + eta * l.value(Y - m.g(_rowdot(X, nxt)))
    )
    lhs = d_psi_prev + eta * loss_noise
    rhs = d_psi_next + eta * d_lb + e_term
    residual = np.abs(lhs - rhs) / (1.0 + np.abs(lhs))
    steps = np.arange(1, len(Y) + 1)
    return AuditRecord(steps, d_psi_prev, d_psi_next, d_lb, e_term, loss_noise, residual)


def _records(terms):
    """Split an AuditRecord of per-step arrays into one record per step."""
    return [AuditRecord(*row) for row in zip(*vars(terms).values())]


def local_identity(p, l, m, w, w_prev, w_next, d, eta, step=0):
    """Per-step balance: divergence to the reference plus scaled noise loss
    equals the post-step divergence, the loss Bregman term, and the step's
    own nonnegative energy term."""
    path = np.stack([np.asarray(w_prev, dtype=float), np.asarray(w_next, dtype=float)])
    w = np.asarray(w, dtype=float)
    (rec,) = _records(_step_terms(p, l, m, d.x[None, :], np.array([d.y]), path, w, eta))
    rec.step = step
    return rec


def _require_constant(traj):
    if traj.schedule.kind != "constant":
        from .errors import ScheduleError

        raise ScheduleError(
            "the conservation law and minimax ratio hold for a fixed learning rate; "
            f"got schedule kind {traj.schedule.kind!r}"
        )
    return traj.schedule.eta


def _noises_for(traj, w, noises):
    if noises is not None:
        return np.asarray(noises, dtype=float)
    return traj.Y - traj.model.g(_rowdot(traj.X, w))


def _audit(traj, w, noises):
    """Per-step terms and the telescoped global residual of a trajectory.

    The global balance takes its noise losses from `noises`, so it stays an
    independent check on the summed per-step terms.
    """
    p, l, eta = traj.potential, traj.loss, _require_constant(traj)
    w = np.asarray(w, dtype=float)
    terms = _step_terms(p, l, traj.model, traj.X, traj.Y, traj.path, w, eta)
    lhs = bregman(p, w, traj.w0).value + eta * np.sum(l.value(_noises_for(traj, w, noises)))
    rhs = bregman(p, w, traj.final).value + eta * np.sum(terms.d_loss_bregman) + np.sum(terms.e_term)
    return terms, float(abs(lhs - rhs) / (1.0 + abs(lhs)))


def global_identity(traj, w, noises=None):
    """Telescoped balance over the whole trajectory (fixed learning rate).

    `noises` defaults to y_i - f(x_i, w), the only values for which the
    identity is exact.
    """
    return _audit(traj, w, noises)[1]


def audit_trajectory(traj, w, noises=None):
    """Fill traj.audits with per-step records; return the global residual."""
    terms, residual = _audit(traj, w, noises)
    traj.audits = _records(terms)
    return residual


def minimax_ratio(traj, w, noises=None, certify=True):
    """Energy-gain ratio; at most 1 whenever the convexity premise holds.

    numerator := D_psi(w, w_T) + eta * sum_i D_{L_i}(w, w_{i-1})
    denominator := D_psi(w, w_0) + eta * sum_i l(v_i)

    `certify=False` skips the convexity certificate (useful in bulk
    achievability sweeps where only the ratio matters); the report then
    carries premise_certified=False. The certificate probes the premise at
    w_{i-1} and w_i for every step i.
    """
    from .errors import DegenerateError

    p, l, m = traj.potential, traj.loss, traj.model
    eta = _require_constant(traj)
    w = np.asarray(w, dtype=float)
    X, Y = traj.X, traj.Y
    v = _noises_for(traj, w, noises)
    prev = traj.path[:-1]
    numerator = bregman(p, w, traj.final).value + eta * np.sum(_loss_map_bregman(l, m, X, Y, w, prev))
    denominator = bregman(p, w, traj.w0).value + eta * np.sum(l.value(v))
    if denominator < DENOMINATOR_FLOOR:
        raise DegenerateError(
            "denominator vanishes: reference equals the start and all noises are zero"
        )
    certified = False
    if certify and len(Y):
        probes = np.concatenate([prev, traj.iterates])
        certified = bool(premise_holds(p, l, m, eta, probes, np.tile(X, (2, 1)), np.tile(Y, 2)).all())
    return MinimaxReport(float(numerator), float(denominator), float(numerator / denominator), certified)


def exponent_identity_residual(p, l, w, traj, z):
    """Telescoped exponent identity for the prediction-driven recursion.

    For iterates generated by the recursion grad psi(w_i) = grad psi(w_{i-1})
    + eta x_i l'(y_i - z_i) with an arbitrary prediction sequence z, the
    divergence-plus-loss exponent written at the start equals the same
    exponent written at the end plus per-step correction terms.
    """
    if not isinstance(traj.model, Linear):
        raise ValueError("the exponent identity is stated for linear models")
    eta = _require_constant(traj)
    w = np.asarray(w, dtype=float)
    z = np.asarray(z, dtype=float)
    X, Y = traj.X, traj.Y
    r_w = Y - _rowdot(X, w)
    r_i = Y - _rowdot(X, traj.iterates)

    lhs = -bregman(p, w, traj.w0).value / eta
    lhs -= np.sum(l.value(r_w))
    lhs += np.sum(l.bregman(r_w, Y - z))

    rhs = -bregman(p, w, traj.final).value / eta
    rhs -= np.sum(
        bregman(p, traj.iterates, traj.path[:-1]).value / eta
        + l.value(r_i)
        - l.bregman(r_i, Y - z)
    )
    return float(abs(lhs - rhs) / (1.0 + abs(lhs)))


def step_exponent_residual(p, l, w_i, w_prev, d, z, eta):
    """Single-step form of the exponent identity (the recursive-minimization step).

    For a step of the prediction-driven recursion,
    l(y - x^T w_i) - D_l(y - x^T w_i, y - z) equals
    l(y - x^T w_{i-1}) - D_l(y - x^T w_{i-1}, y - z) minus the symmetrized
    step divergence (grad psi(w_i) - grad psi(w_{i-1}))^T (w_i - w_{i-1}) / eta,
    which is D_psi(w_i, w_{i-1}) + D_psi(w_{i-1}, w_i) scaled by 1/eta.
    """
    w_i = np.asarray(w_i, dtype=float)
    w_prev = np.asarray(w_prev, dtype=float)
    x = np.asarray(d.x, dtype=float)
    pred_i = float(x @ w_i)
    pred_prev = float(x @ w_prev)
    lhs = float(l.value(d.y - pred_i)) - float(l.bregman(d.y - pred_i, d.y - z))
    rhs = (
        float(l.value(d.y - pred_prev))
        - float(l.bregman(d.y - pred_prev, d.y - z))
        - float((p.grad(w_i) - p.grad(w_prev)) @ (w_i - w_prev)) / eta
    )
    return abs(lhs - rhs) / (1.0 + abs(lhs))
