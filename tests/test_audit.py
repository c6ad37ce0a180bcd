from pathlib import Path

import numpy as np
import pytest
import sympy

from mirrorkit import (
    Constant,
    DegenerateError,
    GeneralizedLinear,
    Linear,
    LogCosh,
    NegEntropy,
    Quadratic,
    RobbinsMonro,
    ScheduleError,
    SquaredL2,
    audit_trajectory,
    energy_gain,
    exponent_identity_residual,
    iterate,
    local_identity,
    run_general_recursion,
    step_exponent_residual,
)
from mirrorkit.audit import loss_map_bregman, minimax_ratio
from mirrorkit.bregman import bregman
from mirrorkit.config import make_config
from mirrorkit.datagen import gaussian_inputs, generate_problems
from mirrorkit.samplers import RngStream

from conftest import all_losses, all_potentials, random_in_domain, rank_one_premise
from test_acceptance import MINIMAX_CONFIGS

ETA = 0.05


def _eta_for(l):
    # the cubic loss derivative compounds fast; keep those runs well inside
    # the stable range so the audited trajectories stay finite
    return 0.01 if l.kind == "quartic" else ETA


def _make_problem(p, m, rng, T=25, noise=0.1, dim=None):
    dim = dim or p.dim
    stream = RngStream(hash(p.kind) % 1000 + dim, 0)
    X = gaussian_inputs(dim, T, stream, unit=True)
    w_true = random_in_domain(p, rng)
    noises = noise * rng.standard_normal(T)
    return w_true, noises, X, m.g(X @ w_true) + noises


@pytest.mark.parametrize("model_kind", ["linear", "glm"])
def test_local_identity_residuals(model_kind, rng):
    m = Linear() if model_kind == "linear" else GeneralizedLinear("tanh")
    for p in all_potentials(3):
        for l in all_losses():
            w_ref, _, X, Y = _make_problem(p, m, rng)
            eta = _eta_for(l)
            traj = iterate(p, l, m, X, Y, Constant(eta), random_in_domain(p, rng))
            for i, (x, y) in enumerate(zip(X, Y), 1):
                rec = local_identity(
                    p, l, m, w_ref, traj.path[i - 1], traj.iterates[i - 1], x, y, eta, step=i
                )
                assert rec.local_residual <= 1e-9


def test_local_identity_reference_at_start(rng):
    p, l, m = SquaredL2(2), Quadratic(), Linear()
    w0 = np.array([0.4, -0.2])
    x = np.array([1.0, 2.0])
    w1 = np.array(w0)  # zero residual keeps the iterate fixed
    rec = local_identity(p, l, m, w0, w0, w1, x, float(x @ w0), ETA)
    assert rec.local_residual <= 1e-9
    assert rec.loss_noise == 0.0


def test_quadratic_loss_bregman_is_squared_prediction_error(rng):
    p, l, m = SquaredL2(3), Quadratic(), Linear()
    w_ref, _, X, Y = _make_problem(p, m, rng, T=10)
    traj = iterate(p, l, m, X, Y, Constant(ETA), np.zeros(3))
    for i, (x, y) in enumerate(zip(X, Y), 1):
        w_prev = traj.path[i - 1]
        expected = 0.5 * float(x @ (w_ref - w_prev)) ** 2
        assert loss_map_bregman(l, m, x, y, w_ref, w_prev) == pytest.approx(expected, abs=1e-12)


def test_global_identity_random_trajectories(rng):
    for p in all_potentials(4):
        for l in all_losses():
            m = Linear()
            w_ref, noises, X, Y = _make_problem(p, m, rng, T=50, dim=4)
            eta = _eta_for(l)
            traj = iterate(p, l, m, X, Y, Constant(eta), random_in_domain(p, rng))
            assert audit_trajectory(traj, w_ref, noises)[1] <= 1e-8


def test_global_identity_empty_trajectory(rng):
    p = SquaredL2(2)
    traj = iterate(p, Quadratic(), Linear(), np.empty((0, 2)), [], Constant(ETA), np.zeros(2))
    assert audit_trajectory(traj, np.array([1.0, 2.0]), [])[1] == 0.0


def test_global_equals_telescoped_locals(rng):
    p, l, m = NegEntropy(3), Quadratic(), Linear()
    w_ref, noises, X, Y = _make_problem(p, m, rng, T=30)
    traj = iterate(p, l, m, X, Y, Constant(ETA), np.ones(3))
    terms, global_residual = audit_trajectory(traj, w_ref, noises)
    assert global_residual <= 1e-8
    assert len(terms.step) == 30
    # summing the recorded local terms reproduces the global balance
    from mirrorkit.bregman import bregman

    lhs = bregman(p, w_ref, traj.w0) + ETA * sum(terms.loss_noise)
    rhs = (
        bregman(p, w_ref, traj.final)
        + ETA * sum(terms.d_loss_bregman)
        + sum(terms.e_term)
    )
    assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))


@pytest.mark.parametrize("model_kind", ["linear", "tanh"])
def test_audit_rows_equal_local_identity(model_kind, rng):
    m = Linear() if model_kind == "linear" else GeneralizedLinear("tanh")
    for p in all_potentials(3)[:3]:
        for l in all_losses():
            w_ref, noises, X, Y = _make_problem(p, m, rng, T=12)
            eta = _eta_for(l)
            traj = iterate(p, l, m, X, Y, Constant(eta), random_in_domain(p, rng))
            terms, _ = audit_trajectory(traj, w_ref, noises)
            for i, (x, y) in enumerate(zip(X, Y), 1):
                rec = local_identity(
                    p, l, m, w_ref, traj.path[i - 1], traj.iterates[i - 1], x, y, eta, step=i
                )
                for name, value in vars(rec).items():
                    assert getattr(terms, name)[i - 1] == value, (p.kind, l.kind, i, name)


def test_global_identity_requires_constant_schedule(rng):
    p, l, m = SquaredL2(2), Quadratic(), Linear()
    w_ref, noises, X, Y = _make_problem(p, m, rng, T=5)
    traj = iterate(p, l, m, X, Y, RobbinsMonro(1.0), np.zeros(2))
    with pytest.raises(ScheduleError):
        audit_trajectory(traj, w_ref, noises)[1]


def test_e_term_nonnegative_under_certified_margin(rng):
    from mirrorkit import convexity_margin

    p, l, m = SquaredL2(3), Quadratic(), Linear()
    w_ref, noises, X, Y = _make_problem(p, m, rng, T=40)
    traj = iterate(p, l, m, X, Y, Constant(0.02), np.zeros(3))
    terms, _ = audit_trajectory(traj, w_ref, noises)
    for i, e_term in enumerate(terms.e_term, 1):
        margins = convexity_margin(
            p, l, m, 0.02, traj.path[i - 1 : i + 1], X[[i - 1, i - 1]], Y[[i - 1, i - 1]]
        )
        if margins >= 0:
            assert e_term >= -1e-12


def test_minimax_ratio_bounded_on_certified_runs(rng):
    p, l, m = SquaredL2(3), Quadratic(), Linear()
    for trial in range(200):
        stream = RngStream(900 + trial, 0)
        X = gaussian_inputs(3, 15, stream, unit=True)
        w_true = rng.standard_normal(3)
        noises = 0.3 * rng.standard_normal(15)
        traj = iterate(p, l, m, X, X @ w_true + noises, Constant(0.5), np.zeros(3))
        rep = energy_gain(traj, w_true, noises)
        assert rep.premise_certified
        assert rep.ratio <= 1.0 + 1e-9
        assert rep.denominator > 0


def test_minimax_ratio_approaches_one_for_small_eta(rng):
    # oracle: the global balance says ratio = 1 - sum(E_i) / denominator,
    # and E_i -> 0 with the step size on noiseless consistent data
    p, l, m = SquaredL2(3), Quadratic(), Linear()
    stream = RngStream(77, 0)
    X = gaussian_inputs(3, 30, stream, unit=True)
    w_true = np.array([0.8, -0.5, 0.3])
    ratios = {}
    for eta in (0.5, 0.02, 0.002):
        traj = iterate(p, l, m, X, X @ w_true, Constant(eta), np.zeros(3))
        rep = energy_gain(traj, w_true, np.zeros(30))
        ratios[eta] = rep.ratio
        assert rep.ratio <= 1.0
    assert ratios[0.002] >= 0.95


def test_minimax_quadratic_matches_filter_energy_form(rng):
    # with the quadratic pairing the numerator terms are squared prediction
    # errors, so assemble the ratio independently from raw trajectories
    p, l, m = SquaredL2(2), Quadratic(), Linear()
    stream = RngStream(13, 0)
    X = gaussian_inputs(2, 12, stream, unit=True)
    w_true = np.array([0.6, -1.1])
    noises = 0.25 * rng.standard_normal(12)
    traj = iterate(p, l, m, X, X @ w_true + noises, Constant(0.4), np.zeros(2))
    rep = energy_gain(traj, w_true, noises)
    num = 0.5 * np.sum((w_true - traj.final) ** 2)
    num += 0.4 * sum(
        0.5 * float(x @ (w_true - traj.path[i - 1])) ** 2
        for i, x in enumerate(X, 1)
    )
    den = 0.5 * np.sum(w_true**2) + 0.4 * np.sum(0.5 * noises**2)
    assert rep.ratio == pytest.approx(num / den, rel=1e-12)


def test_minimax_degenerate_denominator(rng):
    p, l, m = SquaredL2(2), Quadratic(), Linear()
    w0 = np.array([0.3, 0.4])
    X = gaussian_inputs(2, 5, RngStream(1, 0))
    traj = iterate(p, l, m, X, X @ w0, Constant(0.1), w0)
    with pytest.raises(DegenerateError):
        energy_gain(traj, w0, np.zeros(5))


BATCH_PAIRINGS = MINIMAX_CONFIGS + [
    dict(potential="squared_l2", loss="quadratic", dim=3, T=12, model={"kind": "glm", "link": "tanh"},
         schedule={"kind": "constant", "eta": 0.3}, inputs={"kind": "unit"}, w0=0.0),
    # SGD: SMD with the squared-L2 potential
    dict(potential="squared_l2", loss="logcosh", dim=2, T=10,
         schedule={"kind": "constant", "eta": 0.1}, w0=0.0),
]


@pytest.mark.parametrize("base", BATCH_PAIRINGS, ids=["l2", "neg_entropy", "q3_logcosh", "glm_tanh", "sgd"])
def test_batch_equals_per_trial_bit_for_bit(base):
    cfg = make_config(seed=31, **base)
    p, l, m, schedule = cfg.build_potential(), cfg.build_loss(), cfg.build_model(), cfg.build_schedule()

    def run(X, Y):
        return iterate(p, l, m, X, Y, schedule, cfg.w0_vector(), algorithm=cfg.algorithm)

    n, k = 40, 13
    batch = generate_problems(cfg, n)
    traj = run(batch.X, batch.Y)
    rep = energy_gain(traj, batch.w_true, batch.noises)
    assert traj.path.shape == (n, cfg.T + 1, cfg.dim) and rep.ratio.shape == (n,)
    for t in range(n):
        # trial t's problem run on its own gives the batch's row t
        single = run(batch.X[t], batch.Y[t])
        assert np.array_equal(traj.path[t], single.path)
        r = energy_gain(single, batch.w_true[t], batch.noises[t])
        assert rep.numerator[t] == r.numerator and rep.denominator[t] == r.denominator
        assert rep.ratio[t] == r.ratio and rep.premise_certified[t] == r.premise_certified
    head = generate_problems(cfg, k)
    head_rep = energy_gain(run(head.X, head.Y), head.w_true, head.noises)
    for name, value in vars(head).items():
        assert np.array_equal(value, getattr(batch, name)[:k]), name
    for name, value in vars(head_rep).items():
        assert np.array_equal(value, getattr(rep, name)[:k]), name


def test_energy_gain_certifies_nothing_without_a_step():
    p, l, m = SquaredL2(2), Quadratic(), Linear()
    w = np.array([0.5, -0.2])
    single = iterate(p, l, m, np.zeros((0, 2)), np.zeros(0), Constant(0.1), np.zeros(2))
    batch = iterate(p, l, m, np.zeros((3, 0, 2)), np.zeros((3, 0)), Constant(0.1), np.zeros(2))
    rep = energy_gain(single, w, np.zeros(0))
    assert rep.ratio == 1.0 and not rep.premise_certified
    assert not minimax_ratio(single, w, np.zeros(0)).premise_certified
    rep = energy_gain(batch, np.tile(w, (3, 1)), np.zeros((3, 0)))
    assert rep.premise_certified.shape == (3,) and not rep.premise_certified.any()
    assert (rep.ratio == 1.0).all()


def _summed_rowdot(a, b):
    return np.sum(a * b, axis=-1)


def _concatenated_energy_gain(traj, w, noises):
    """(numerator, denominator, ratio, premise_certified) as `energy_gain`
    computed them with concatenated probes: w_{i-1} and w_i stacked along
    the step axis against two copies of X and Y, the general rank-one
    premise test on every pair, and row dots as np.sum(a * b, axis=-1)."""
    p, l, m, eta = traj.potential, traj.loss, traj.model, traj.schedule.eta
    X, Y, prev = traj.X, traj.Y, traj.path[..., :-1, :]
    w = np.asarray(w, dtype=float)
    A = w[..., None, :]
    ub = _summed_rowdot(X, prev)
    rb = Y - m.g(ub)
    d_loss = (l.value(Y - m.g(_summed_rowdot(X, A))) - l.value(rb)
              + l.deriv(rb) * m.g_prime(ub) * _summed_rowdot(X, A - prev))
    numerator = bregman(p, w, traj.final) + eta * np.sum(d_loss, axis=-1)
    denominator = bregman(p, w, traj.w0) + eta * np.sum(l.value(noises), axis=-1)
    probes = np.concatenate([prev, traj.iterates], axis=-2)
    XX, YY = np.concatenate([X, X], axis=-2), np.concatenate([Y, Y], axis=-1)
    holds = rank_one_premise(p, l, m, eta, probes, XX, YY, rowdot=_summed_rowdot)
    certified = holds.all(axis=-1) & (len(traj) > 0)
    return numerator, denominator, numerator / denominator, certified


def test_energy_gain_equals_the_concatenated_probe_formulation(rng):
    """One run and a batch of every potential, loss and model: the shared-X
    probes and the contracted row dots certify the same trials, and the
    energies agree at roundoff."""
    n, T, dim = 6, 12, 3
    certified = []
    for p in all_potentials(dim):
        for l in all_losses():
            for m in (Linear(), GeneralizedLinear("tanh"), GeneralizedLinear("softplus")):
                w0 = random_in_domain(p, rng)
                W = np.array([random_in_domain(p, rng) for _ in range(n)])
                X = np.stack([gaussian_inputs(dim, T, RngStream(40 + t, 0), unit=True) for t in range(n)])
                V = 0.1 * rng.standard_normal((n, T))
                Y = m.g(np.einsum("ntj,nj->nt", X, W)) + V
                # large enough rates that some trials leave the premise
                eta = 0.02 if l.kind == "quartic" else 0.6
                batch = iterate(p, l, m, X, Y, Constant(eta), w0)
                single = iterate(p, l, m, X[0], Y[0], Constant(eta), w0)
                for traj, w, v in ((single, W[0], V[0]), (batch, W, V)):
                    rep = energy_gain(traj, w, v)
                    numerator, denominator, ratio, holds = _concatenated_energy_gain(traj, w, v)
                    assert np.array_equal(rep.premise_certified, holds), (p, l, m)
                    np.testing.assert_allclose(rep.numerator, numerator, rtol=1e-12)
                    np.testing.assert_allclose(rep.denominator, denominator, rtol=1e-12)
                    np.testing.assert_allclose(rep.ratio, ratio, rtol=1e-12)
                certified.extend(rep.premise_certified)
    assert 0 < sum(certified) < len(certified)


@pytest.mark.bitwise
def test_energy_gain_energies_equal_two_bregman_calls_bitwise(rng):
    """D_psi(w, w_T) and D_psi(w, w_0) come from one `bregman` call on the
    pair (w_T, w_0) of each run; numerator and denominator equal those made
    with one call each, bit for bit, for one run and for a batch."""
    n, T, dim = 5, 9, 3
    for p in all_potentials(dim):
        for l in all_losses():
            for m in (Linear(), GeneralizedLinear("tanh")):
                w0 = random_in_domain(p, rng)
                W = np.array([random_in_domain(p, rng) for _ in range(n)])
                X = rng.normal(size=(n, T, dim)) / np.sqrt(dim)
                V = 0.1 * rng.standard_normal((n, T))
                Y = m.g(np.einsum("ntj,nj->nt", X, W)) + V
                eta = _eta_for(l)
                batch = iterate(p, l, m, X, Y, Constant(eta), w0)
                single = iterate(p, l, m, X[0], Y[0], Constant(eta), w0)
                for traj, w, v in ((single, W[0], V[0]), (batch, W, V)):
                    rep = energy_gain(traj, w, v)
                    d_loss = loss_map_bregman(l, m, traj.X, traj.Y, w[..., None, :], traj.path[..., :-1, :])
                    numerator = bregman(p, w, traj.final) + eta * np.sum(d_loss, axis=-1)
                    denominator = bregman(p, w, traj.w0) + eta * np.sum(l.value(v), axis=-1)
                    assert np.shape(rep.numerator) == np.shape(numerator) == v.shape[:-1]
                    assert np.array_equal(rep.numerator, numerator), (p, l, m)
                    assert np.array_equal(rep.denominator, denominator), (p, l, m)
                    assert np.array_equal(rep.ratio, numerator / denominator), (p, l, m)


def test_exponent_identity_random_z(rng):
    for p in all_potentials(3):
        for l in all_losses():
            m = Linear()
            w_ref, _, X, Y = _make_problem(p, m, rng, T=20)
            eta = _eta_for(l)
            z = rng.standard_normal(20)
            traj = run_general_recursion(p, l, X, Y, z, eta, random_in_domain(p, rng))
            assert exponent_identity_residual(p, l, w_ref, traj, z) <= 1e-8
            for i in (1, 10, 20):
                r = step_exponent_residual(
                    p, l, traj.iterates[i - 1], traj.path[i - 1], X[i - 1], Y[i - 1], z[i - 1], eta
                )
                assert r <= 1e-9


def test_recursion_with_own_predictions_is_mirror_descent(rng):
    p, l, m = NegEntropy(3), Quadratic(), Linear()
    w_ref, _, X, Y = _make_problem(p, m, rng, T=15)
    smd = iterate(p, l, m, X, Y, Constant(ETA), np.ones(3))
    z = [float(x @ smd.path[i - 1]) for i, x in enumerate(X, 1)]
    gen = run_general_recursion(p, l, X, Y, z, ETA, np.ones(3))
    for a, b in zip(smd.iterates, gen.iterates):
        assert np.array_equal(a, b)


def test_recursion_runs_a_batch_of_trials_on_one_z(rng):
    """z is checked against the step count: each trial of a (2, 5) batch
    equals its own single-trial run bit for bit."""
    p, l = NegEntropy(3), LogCosh()
    X, Y, z = rng.standard_normal((2, 5, 3)), rng.standard_normal((2, 5)), rng.standard_normal(5)
    batch = run_general_recursion(p, l, X, Y, z, ETA, np.ones(3))
    for t in range(2):
        assert np.array_equal(batch.path[t], run_general_recursion(p, l, X[t], Y[t], z, ETA, np.ones(3)).path)
    with pytest.raises(ValueError, match="z and Y must have equal length"):
        run_general_recursion(p, l, X, Y, z[:4], ETA, np.ones(3))


def test_step_exponent_self_prediction_drops_term(rng):
    p, l = SquaredL2(2), Quadratic()
    w_prev = rng.standard_normal(2)
    x, y = rng.standard_normal(2), float(rng.standard_normal())
    z = float(x @ w_prev)
    w_i = run_general_recursion(p, l, x[None], np.array([y]), [z], ETA, w_prev).final
    assert float(l.bregman(y - float(x @ w_prev), y - z)) == 0.0
    assert step_exponent_residual(p, l, w_i, w_prev, x, y, z, ETA) <= 1e-12


def test_step_exponent_fixed_point(rng):
    p, l = NegEntropy(2), Quadratic()
    w_prev = np.abs(rng.standard_normal(2)) + 0.5
    x, y = rng.standard_normal(2), 1.3
    z = y  # l'(y - z) = 0 shifts the mirror state by exactly zero
    w_i = run_general_recursion(p, l, x[None], np.array([y]), [z], ETA, w_prev).final
    assert np.array_equal(w_i, p.grad_inv(p.grad(w_prev)))
    assert step_exponent_residual(p, l, w_i, w_prev, x, y, z, ETA) <= 1e-12


def test_exponent_identity_scalar_symbolic_oracle():
    """T=1, quadratic loss and potential: expand both sides symbolically."""
    w, w0, x, y, z, eta = sympy.symbols("w w0 x y z eta", real=True, positive=False)
    w1 = w0 + eta * x * (y - z)
    lhs = (
        -((w - w0) ** 2) / (2 * eta)
        - (y - x * w) ** 2 / 2
        + ((y - x * w) - (y - z)) ** 2 / 2
    )
    rhs = (
        -((w - w1) ** 2) / (2 * eta)
        - (w1 - w0) ** 2 / (2 * eta)
        - (y - x * w1) ** 2 / 2
        + ((y - x * w1) - (y - z)) ** 2 / 2
    )
    assert sympy.simplify(sympy.expand(lhs - rhs)) == 0

    subs = {w: 0.7, w0: -0.2, x: 1.3, y: 0.9, z: 0.4, eta: 0.05}
    p, l = SquaredL2(1), Quadratic()
    traj = run_general_recursion(p, l, [[float(subs[x])]], [float(subs[y])], [float(subs[z])],
                                 float(subs[eta]), np.array([float(subs[w0])]))
    got = exponent_identity_residual(p, l, np.array([float(subs[w])]), traj, [float(subs[z])])
    lhs_num = float(lhs.subs(subs))
    rhs_num = float(rhs.subs(subs))
    assert got == pytest.approx(abs(lhs_num - rhs_num) / (1 + abs(lhs_num)), abs=1e-12)
    assert got <= 1e-12


def test_local_identity_softplus_link(rng):
    m = GeneralizedLinear("softplus")
    p, l = SquaredL2(3), Quadratic()
    w_ref, _, X, Y = _make_problem(p, m, rng, T=15)
    traj = iterate(p, l, m, X, Y, Constant(0.05), rng.standard_normal(3))
    for i, (x, y) in enumerate(zip(X, Y), 1):
        rec = local_identity(
            p, l, m, w_ref, traj.path[i - 1], traj.iterates[i - 1], x, y, 0.05, step=i
        )
        assert rec.local_residual <= 1e-9


def test_audit_fails_a_nudged_iterate():
    # a 1e-5 relative nudge of w_25 breaks the identity at steps 25 and 26
    # and in the telescoped balance, each well above the tolerance
    from mirrorkit.cli import IDENTITY_RTOL, _iterate, generate_problem
    from mirrorkit.config import parse_config

    cfg = parse_config(Path(__file__).resolve().parent.parent / "configs" / "audit.json")
    problem = generate_problem(cfg)
    traj = _iterate(cfg, problem)
    traj.path[25] *= 1 + 1e-5
    terms, global_residual = audit_trajectory(traj, problem.w_true, noises=problem.noises)
    assert terms.local_residual.max() > IDENTITY_RTOL
    assert global_residual > IDENTITY_RTOL
