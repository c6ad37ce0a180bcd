"""Step-level and trajectory-level certification of the mirror-descent identities.

Every function here evaluates both sides of an exact algebraic identity and
returns the defect, normalized by 1 + |LHS| (the telescoped global balance
adds its right-hand terms' magnitudes) so that tolerances stay meaningful
across learning-rate sweeps. A residual at roundoff level certifies the
implementation; anything larger indicates a broken update rule or a
mismatched argument. Per-step terms are computed once, as arrays over steps.
"""

from types import SimpleNamespace

import numpy as np

from .bregman import bregman
from .descent import Linear, _rowdot, premise_holds
from .errors import DegenerateError, ScheduleError

DENOMINATOR_FLOOR = 1e-14


class AuditRecord(SimpleNamespace):
    """All terms of the per-step balance around one update, or one array per
    term over the steps of a trajectory; `vars` lists them in the order that
    `_step_terms` passes them, which is audit.csv's header."""


class MinimaxReport(SimpleNamespace):
    """Energy-gain ratio against a reference weight, of one run or per run of
    a batch: numerator, denominator, ratio and premise_certified."""


def loss_map_bregman(l, m, X, Y, A, B):
    """D_{L_i}(a_i, b_i) of L_i(w) = l(y_i - f(x_i, w)), one value per row;
    this Bregman divergence of the loss map need not be nonnegative."""
    ub = _rowdot(X, B)
    rb = Y - m.g(ub)
    return (
        l.value(Y - m.g(_rowdot(X, A)))
        - l.value(rb)
        + l.deriv(rb) * m.g_prime(ub) * _rowdot(X, A - B)
    )


def _step_terms(p, l, m, X, Y, path, w, eta):
    """The per-step balance of every step of `path`, as an AuditRecord of arrays."""
    prev, nxt = path[:-1], path[1:]
    loss_noise = l.value(Y - m.g(_rowdot(X, w)))
    d_psi_prev = bregman(p, w, prev)
    d_psi_next = bregman(p, w, nxt)
    d_lb = loss_map_bregman(l, m, X, Y, w, prev)
    e_term = (
        bregman(p, nxt, prev)
        - eta * loss_map_bregman(l, m, X, Y, nxt, prev)
        + eta * l.value(Y - m.g(_rowdot(X, nxt)))
    )
    lhs = d_psi_prev + eta * loss_noise
    rhs = d_psi_next + eta * d_lb + e_term
    residual = np.abs(lhs - rhs) / (1.0 + np.abs(lhs))
    steps = np.arange(1, len(Y) + 1)
    return AuditRecord(step=steps, d_psi_prev=d_psi_prev, d_psi_next=d_psi_next, d_loss_bregman=d_lb,
                       e_term=e_term, loss_noise=loss_noise, local_residual=residual)


def local_identity(p, l, m, w, w_prev, w_next, x, y, eta, step=0):
    """Per-step balance: divergence to the reference plus scaled noise loss
    equals the post-step divergence, the loss Bregman term, and the step's
    own nonnegative energy term."""
    path = np.stack([np.asarray(w_prev, dtype=float), np.asarray(w_next, dtype=float)])
    w = np.asarray(w, dtype=float)
    X = np.asarray(x, dtype=float)[None, :]
    terms = vars(_step_terms(p, l, m, X, np.array([y], dtype=float), path, w, eta))
    return AuditRecord(**{name: float(t[0]) for name, t in terms.items()} | {"step": step})


def _require_constant(traj):
    if traj.schedule.kind != "constant":
        raise ScheduleError(
            "the conservation law and minimax ratio hold for a fixed learning rate; "
            f"got schedule kind {traj.schedule.kind!r}"
        )
    return traj.schedule.eta


def _noises_for(traj, w, noises):
    if noises is not None:
        return np.asarray(noises, dtype=float)
    return traj.Y - traj.model.g(_rowdot(traj.X, w[..., None, :]))


def audit_trajectory(traj, w, noises=None):
    """The per-step terms of a trajectory, as an AuditRecord of arrays over
    its steps, and the telescoped global residual.

    The global balance takes its noise losses from `noises`, so it stays an
    independent check on the summed per-step terms. Its defect is scaled by
    1 + |LHS| plus the right-hand terms' magnitudes, so that on a diverging
    run the rounding of large, cancelling terms fails no identity that holds.
    """
    p, l, eta = traj.potential, traj.loss, _require_constant(traj)
    w = np.asarray(w, dtype=float)
    terms = _step_terms(p, l, traj.model, traj.X, traj.Y, traj.path, w, eta)
    lhs = bregman(p, w, traj.w0) + eta * np.sum(l.value(_noises_for(traj, w, noises)))
    d_psi_final = bregman(p, w, traj.final)
    rhs = d_psi_final + eta * np.sum(terms.d_loss_bregman) + np.sum(terms.e_term)
    scale = 1.0 + abs(lhs) + d_psi_final + np.sum(np.abs(eta * terms.d_loss_bregman) + np.abs(terms.e_term))
    return terms, float(abs(lhs - rhs) / scale)


def energy_gain(traj, w, noises=None):
    """Energy-gain ratio; at most 1 whenever the convexity premise holds.

    numerator := D_psi(w, w_T) + eta * sum_i D_{L_i}(w, w_{i-1})
    denominator := D_psi(w, w_0) + eta * sum_i l(v_i)

    `traj` is one run or a batch, with `w` (dim,) or (n, dim) and `noises`
    (T,) or (n, T) to match; sums run along the step axis. The certificate
    probes the premise at w_{i-1} and w_i for every step i, so a run with no
    step is never certified.
    """
    p, l, m = traj.potential, traj.loss, traj.model
    eta = _require_constant(traj)
    w = np.asarray(w, dtype=float)
    X, Y = traj.X, traj.Y
    v = _noises_for(traj, w, noises)
    prev = traj.path[..., :-1, :]
    # huge noises overflow the energies to inf and the ratio to NaN; the
    # caller reports a non-finite ratio, so numpy's warnings would only repeat it
    with np.errstate(all="ignore"):
        d_loss = loss_map_bregman(l, m, X, Y, w[..., None, :], prev)
        # D_psi(w, w_T) and D_psi(w, w_0) of each run in one call, on a pair axis before the last
        d_psi = bregman(p, w[..., None, :], traj.path.take([-1, 0], axis=-2))
        numerator = d_psi[..., 0] + eta * d_loss.sum(axis=-1)
        denominator = d_psi[..., 1] + eta * l.value(v).sum(axis=-1)
        ratio = numerator / denominator
    if (denominator < DENOMINATOR_FLOOR).any():
        raise DegenerateError(
            "denominator vanishes: reference equals the start and all noises are zero"
        )
    holds = premise_holds(p, l, m, eta, prev, X, Y) & premise_holds(p, l, m, eta, traj.iterates, X, Y)
    certified = holds.all(axis=-1) & (len(traj) > 0)
    return MinimaxReport(numerator=numerator, denominator=denominator, ratio=ratio,
                         premise_certified=certified)


def minimax_ratio(traj, w, noises=None):
    """`energy_gain` of one trajectory, as floats. Nothing in the package calls
    it; the benchmark's layer trace (perfbench/layers.py) counts its calls."""
    r = energy_gain(traj, w, noises)
    return MinimaxReport(numerator=float(r.numerator), denominator=float(r.denominator), ratio=float(r.ratio),
                         premise_certified=bool(r.premise_certified))


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

    lhs = -bregman(p, w, traj.w0) / eta
    lhs -= np.sum(l.value(r_w))
    lhs += np.sum(l.bregman(r_w, Y - z))

    rhs = -bregman(p, w, traj.final) / eta
    rhs -= np.sum(
        bregman(p, traj.iterates, traj.path[:-1]) / eta
        + l.value(r_i)
        - l.bregman(r_i, Y - z)
    )
    return float(abs(lhs - rhs) / (1.0 + abs(lhs)))


def step_exponent_residual(p, l, w_i, w_prev, x, y, z, eta):
    """Single-step form of the exponent identity (the recursive-minimization step).

    For a step of the prediction-driven recursion,
    l(y - x^T w_i) - D_l(y - x^T w_i, y - z) equals
    l(y - x^T w_{i-1}) - D_l(y - x^T w_{i-1}, y - z) minus the symmetrized
    step divergence (grad psi(w_i) - grad psi(w_{i-1}))^T (w_i - w_{i-1}) / eta,
    which is D_psi(w_i, w_{i-1}) + D_psi(w_{i-1}, w_i) scaled by 1/eta.
    """
    w_i = np.asarray(w_i, dtype=float)
    w_prev = np.asarray(w_prev, dtype=float)
    x = np.asarray(x, dtype=float)
    pred_i = float(x @ w_i)
    pred_prev = float(x @ w_prev)
    lhs = float(l.value(y - pred_i)) - float(l.bregman(y - pred_i, y - z))
    rhs = (
        float(l.value(y - pred_prev))
        - float(l.bregman(y - pred_prev, y - z))
        - float((p.grad(w_i) - p.grad(w_prev)) @ (w_i - w_prev)) / eta
    )
    return abs(lhs - rhs) / (1.0 + abs(lhs))
