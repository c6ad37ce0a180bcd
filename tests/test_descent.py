import numpy as np
import pytest

from mirrorkit import (
    ConfigError,
    Constant,
    DataPoint,
    DomainError,
    GeneralizedLinear,
    Linear,
    LogCosh,
    NegEntropy,
    Quadratic,
    Quartic,
    RobbinsMonro,
    SeparableQ,
    SquaredL2,
    StabilityWarning,
    convexity_margin,
    iterate,
    persistent_excitation,
    smd_step,
    ssmd_step,
)
from mirrorkit.config import make_config
from mirrorkit.descent import premise_holds, run_trajectory
from mirrorkit.datagen import gaussian_inputs
from mirrorkit.samplers import RngStream

from conftest import all_losses, all_potentials, random_in_domain


def test_smd_step_is_lms_for_quadratic_l2():
    w = smd_step(
        SquaredL2(2), Quadratic(), Linear(),
        np.zeros(2), DataPoint(np.array([1.0, 1.0]), 1.0), 0.1,
    )
    np.testing.assert_allclose(w, [0.1, 0.1])


def test_smd_step_exponentiated_gradient():
    w = smd_step(
        NegEntropy(2), Quadratic(), Linear(),
        np.array([1.0, 1.0]), DataPoint(np.array([1.0, 0.0]), 2.0), 0.5,
    )
    np.testing.assert_allclose(w, [np.exp(0.5), 1.0], rtol=1e-12)


def test_smd_fixed_point_is_exact(rng):
    for p in all_potentials(3):
        for l in all_losses():
            w = random_in_domain(p, rng)
            x = np.asarray(rng.normal(size=3))
            d = DataPoint(x, float(x @ w))
            out = smd_step(p, l, Linear(), w, d, 0.3)
            assert np.array_equal(out, w)


def test_ssmd_examples():
    np.testing.assert_allclose(
        ssmd_step(SquaredL2(1), Quadratic(), np.zeros(1), DataPoint(np.array([1.0]), 1.0), 0.1),
        [0.1],
    )
    np.testing.assert_allclose(
        ssmd_step(SquaredL2(1), Quartic(), np.ones(1), DataPoint(np.array([1.0]), 1.0), 0.1),
        [1.0],
    )
    np.testing.assert_allclose(
        ssmd_step(SquaredL2(1), Quartic(), np.zeros(1), DataPoint(np.array([1.0]), 2.0), 0.1),
        [0.8],
    )


def test_ssmd_equals_smd_for_quadratic(rng):
    for p in all_potentials(3):
        for _ in range(30):
            w = random_in_domain(p, rng)
            x = np.asarray(rng.normal(size=3))
            d = DataPoint(x, float(rng.normal()))
            a = smd_step(p, Quadratic(), Linear(), w, d, 0.2)
            b = ssmd_step(p, Quadratic(), w, d, 0.2)
            assert np.max(np.abs(a - b)) < 1e-12


def test_mirror_domain_additivity(rng):
    stream = RngStream(3, 0)
    for p in all_potentials(3):
        l = Quadratic()
        xs = gaussian_inputs(3, 25, stream)
        w_true = random_in_domain(p, rng)
        data = [DataPoint(x, float(x @ w_true) + 0.1 * rng.normal()) for x in xs]
        traj = iterate(p, l, Linear(), data, Constant(0.05), random_in_domain(p, rng), check_margin=False)
        for i, d in enumerate(data, 1):
            w_prev = traj.iterate_before(i)
            w_next = traj.iterates[i - 1]
            lhs = p.grad(w_next) - p.grad(w_prev)
            rhs = 0.05 * d.x * l.deriv(d.y - float(d.x @ w_prev))
            assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_sgd_equivalence_bitwise(rng):
    stream = RngStream(11, 0)
    xs = gaussian_inputs(4, 100, stream)
    w_true = np.asarray(rng.normal(size=4))
    data = [DataPoint(x, float(x @ w_true) + 0.2 * rng.normal()) for x in xs]
    p, l = SquaredL2(4), Quadratic()
    w0 = np.asarray(rng.normal(size=4))
    smd = iterate(p, l, Linear(), data, Constant(0.05), w0, algorithm="smd", check_margin=False)
    sgd = iterate(p, l, Linear(), data, Constant(0.05), w0, algorithm="sgd", check_margin=False)
    for a, b in zip(smd.iterates, sgd.iterates):
        assert np.array_equal(a, b)


def test_positive_orthant_preserved(rng):
    stream = RngStream(5, 0)
    p = NegEntropy(3)
    xs = gaussian_inputs(3, 200, stream)
    w_true = np.abs(rng.normal(size=3)) + 0.3
    data = [DataPoint(x, float(x @ w_true) + 0.3 * rng.normal()) for x in xs]
    traj = iterate(p, Quadratic(), Linear(), data, Constant(0.05), np.ones(3), check_margin=False)
    for w in traj.iterates:
        assert np.all(w > 0)


def test_empty_stream_echoes_start():
    cfg = make_config(T=0, dim=2, seed=1)
    traj = run_trajectory(cfg)
    assert len(traj.iterates) == 0
    np.testing.assert_allclose(traj.final, cfg.w0_vector())


def test_noiseless_consistent_data_interpolates():
    cfg = make_config(
        potential="squared_l2", loss="quadratic", dim=3, T=400,
        schedule={"kind": "constant", "eta": 0.2}, noise={"kind": "none"},
        inputs={"kind": "unit"}, seed=2,
    )
    traj = run_trajectory(cfg)
    from mirrorkit.datagen import generate_problem

    problem = generate_problem(cfg)
    residuals = [abs(d.y - float(d.x @ traj.final)) for d in problem.data]
    assert max(residuals) < 1e-6


def test_domain_error_reports_step_index():
    p = NegEntropy(1)
    data = [DataPoint(np.array([1.0]), -50.0)]
    # a huge negative mirror shift underflows exp to exactly 0, leaving the domain
    with pytest.raises(DomainError, match="step 1"):
        iterate(p, Quadratic(), Linear(), data, Constant(50.0), np.array([1e-3]), check_margin=False)


def test_stability_warning_emitted():
    data = [DataPoint(np.array([2.0]), 1.0)]
    with pytest.warns(StabilityWarning):
        iterate(SquaredL2(1), Quadratic(), Linear(), data, Constant(1.0), np.zeros(1))


def test_ssmd_requires_linear():
    with pytest.raises(ConfigError):
        iterate(
            SquaredL2(1), Quadratic(), GeneralizedLinear("tanh"),
            [DataPoint(np.array([1.0]), 0.5)], Constant(0.1), np.zeros(1),
            algorithm="ssmd",
        )


def test_glm_jacobian_matches_finite_differences(rng):
    h = 1e-6
    for link in ("tanh", "softplus"):
        m = GeneralizedLinear(link)
        for _ in range(20):
            w = np.asarray(rng.normal(size=3))
            x = np.asarray(rng.normal(size=3))
            jac = m.jacobian(x, w)
            for j in range(3):
                e = np.zeros(3)
                e[j] = h
                fd = (m.predict(x, w + e) - m.predict(x, w - e)) / (2 * h)
                assert fd == pytest.approx(jac[j], rel=1e-6, abs=1e-8)


def test_convexity_margin_lms_bound(rng):
    x = np.asarray(rng.normal(size=3))
    d = DataPoint(x, 0.7)
    w = np.zeros(3)
    for eta in (0.05, 0.2):
        margin = convexity_margin(SquaredL2(3), Quadratic(), Linear(), eta, [(w, d)])
        assert margin == pytest.approx(1.0 - eta * float(x @ x), abs=1e-10)
    eta_star = 1.0 / float(x @ x)
    assert abs(convexity_margin(SquaredL2(3), Quadratic(), Linear(), eta_star, [(w, d)])) < 1e-10


def test_convexity_margin_entropy_small_eta(rng):
    w = np.abs(rng.normal(size=3)) + 0.2
    x = np.abs(rng.normal(size=3)) + 0.1
    margin = convexity_margin(NegEntropy(3), Quadratic(), Linear(), 1e-9, [(w, DataPoint(x, 0.0))])
    assert margin == pytest.approx(1.0 / np.max(w), rel=1e-6)


def _finite_difference_margin(p, l, m, eta, w, d, h=1e-5):
    """Oracle: eigvalsh of hess psi - eta * a central-difference loss Hessian."""
    grad = lambda v: -m.jacobian(d.x, v) * l.deriv(d.y - m.predict(d.x, v))
    H = np.column_stack([(grad(w + h * e) - grad(w - h * e)) / (2.0 * h) for e in np.eye(w.size)])
    keep = np.abs(w) >= 1e-8
    A = np.diag(p.hessian_diag(w)[keep]) - eta * 0.5 * (H + H.T)[np.ix_(keep, keep)]
    return float(np.linalg.eigvalsh(A)[0])


def test_rank_one_certificate_matches_finite_difference_oracle(rng):
    potentials = [SquaredL2(3), NegEntropy(3), SeparableQ(1.5, 3), SeparableQ(3.0, 3)]
    models = [Linear(), GeneralizedLinear("tanh"), GeneralizedLinear("softplus")]
    verdicts = []
    for p in potentials:
        for l in (Quadratic(), Quartic(), LogCosh()):
            for m in models:
                for _ in range(10):
                    w = random_in_domain(p, rng)
                    d = DataPoint(rng.normal(size=3), float(rng.normal()))
                    eta = 10.0 ** rng.uniform(-2.0, 1.0)
                    oracle = _finite_difference_margin(p, l, m, eta, w, d)
                    if abs(oracle) < 1e-6:
                        continue
                    holds = premise_holds(p, l, m, eta, w[None, :], d.x[None, :], np.array([d.y]))
                    assert bool(holds[0]) == (oracle >= 0.0), (p, l, m, eta, oracle)
                    margin = convexity_margin(p, l, m, eta, [(w, d)])
                    assert margin == pytest.approx(oracle, rel=1e-6, abs=1e-6)
                    verdicts.append(bool(holds[0]))
    assert len(verdicts) > 300 and 0 < sum(verdicts) < len(verdicts)


def test_persistent_excitation_basis():
    m = 4
    data = [DataPoint(np.eye(m)[j % m], 0.0) for j in range(3 * m)]
    assert persistent_excitation(data, 1.0) == (True, m)


def test_persistent_excitation_rank_deficient():
    data = [DataPoint(np.array([1.0, 0.0]), 0.0)] * 10
    assert persistent_excitation(data, 0.01) == (False, 0)


def test_persistent_excitation_gaussian_matches_eig_oracle():
    stream = RngStream(17, 0)
    xs = gaussian_inputs(5, 60, stream)
    data = [DataPoint(x, 0.0) for x in xs]
    ok, T = persistent_excitation(data, 0.1)
    assert ok
    # independent oracle: cumulative Gram eigenvalues
    G = np.zeros((5, 5))
    oracle_T = 0
    for i, x in enumerate(xs, 1):
        G += np.outer(x, x)
        if np.linalg.eigvalsh(G)[0] >= 0.1:
            oracle_T = i
            break
    assert T == oracle_T and T >= 5


def test_robbins_monro_partial_sums():
    s = RobbinsMonro(2.0)
    harmonic = sum(s.rate(i) for i in range(1, 10_001))
    harmonic_smaller = sum(s.rate(i) for i in range(1, 1_001))
    assert harmonic > harmonic_smaller + 2.0 * np.log(10.0) * 0.99
    squares = sum(s.rate(i) ** 2 for i in range(1, 100_001))
    assert squares < 4.0 * np.pi**2 / 6.0 + 1e-6


def test_schedules_validate():
    with pytest.raises(ValueError):
        Constant(0.0)
    with pytest.raises(ValueError):
        RobbinsMonro(-1.0)
    assert Constant(0.3).rate(7) == 0.3
    assert RobbinsMonro(2.0).rate(4) == 0.5
