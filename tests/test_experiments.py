import numpy as np
import pytest

from mirrorkit import (
    ConfigError,
    DataPoint,
    Linear,
    NegEntropy,
    Quadratic,
    RankError,
    SMDCost,
    SSMDCost,
    ScaledQuadratic,
    SeparableQ,
    SquaredL2,
    StepCapError,
    exponent_blowup_probe,
    implicit_reg_experiment,
    implicit_reg_oracle,
    iterate,
    msq_convergence,
    risk_compare,
    risk_cost,
    run_interpolating_descent,
)
from mirrorkit.config import make_config
from mirrorkit.experiments import (
    ConstantEstimator,
    MirrorEstimator,
    RiskNeutralEstimator,
    bootstrap_basic_ci,
    paired_gap_ci,
)
from mirrorkit.samplers import ExpFamilySpec, RngStream, sample_noise, sample_weight


def _data(rng, dim, T):
    xs = [rng.standard_normal(dim) for _ in range(T)]
    return [DataPoint(x, float(rng.standard_normal())) for x in xs]


def test_risk_cost_clairvoyant_is_one(rng):
    l = Quadratic()
    data = _data(rng, 2, 6)
    w = rng.standard_normal(2)
    preds = [float(d.x @ w) for d in data]
    assert risk_cost(preds, w, data, l) == pytest.approx(1.0)


def test_risk_cost_empty_is_one():
    assert risk_cost([], np.zeros(2), [], Quadratic()) == 1.0


def test_risk_cost_unit_gap_quadratic():
    d = DataPoint(np.array([1.0]), 0.3)
    w = np.array([1.0])
    # prediction one unit away from x^T w gives exp(1/2)
    assert risk_cost([0.0], w, [d], Quadratic()) == pytest.approx(np.exp(0.5))


def test_risk_cost_modes(rng):
    l = Quadratic()
    d = DataPoint(np.array([1.0]), 0.0)
    w = np.array([2.0])
    z = [0.5]
    smd = risk_cost(z, w, [d], l, SMDCost())
    ssmd = risk_cost(z, w, [d], l, SSMDCost())
    scaled = risk_cost(z, w, [d], l, ScaledQuadratic(0.5))
    assert smd == pytest.approx(np.exp(0.5 * 1.5**2))
    assert ssmd == pytest.approx(smd)  # quadratic bregman depends on the gap only
    assert scaled == pytest.approx(smd)


def test_estimator_protocol_enforced():
    est = ConstantEstimator()
    est.reset(3, np.zeros(2))
    x = np.array([1.0, 0.0])
    with pytest.raises(RuntimeError):
        est.observe(x, np.zeros(3))
    est.predict(x)
    with pytest.raises(RuntimeError):
        est.predict(x)
    est.observe(x, np.zeros(3))


def test_estimator_causality_black_box():
    """Changing y_i must not change z_i, only later predictions."""
    p, l = SquaredL2(2), Quadratic()
    X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    Y1 = np.array([[0.5, -0.2, 0.9]])
    Y2 = Y1.copy()
    Y2[0, 1] = 5.0  # future observation differs at step 2
    zs = []
    for Y in (Y1, Y2):
        est = MirrorEstimator(p, l, 0.3)
        est.reset(1, np.zeros(2))
        z_seq = []
        for i in range(3):
            z_seq.append(float(est.predict(X[i])[0]))
            est.observe(X[i], Y[:, i])
        zs.append(z_seq)
    assert zs[0][0] == zs[1][0]
    assert zs[0][1] == zs[1][1]
    assert zs[0][2] != zs[1][2]


def _gaussian_cfg(**over):
    base = dict(
        potential="squared_l2", loss="quadratic", dim=4, T=20, n_trials=2000,
        schedule={"kind": "constant", "eta": 0.05}, inputs={"kind": "unit"},
        w0=0.0, seed=123,
    )
    base.update(over)
    return make_config(**base)


def test_risk_compare_gaussian_dominance():
    rep = risk_compare(_gaussian_cfg())
    smd = rep.entry("smd")
    assert smd.mc_cost >= 1.0 - 0.05  # exponent of nonnegative terms
    for e in rep.entries:
        if e.name != "smd" and isinstance(e.mode, SMDCost):
            assert smd.mc_cost <= e.mc_cost
    # quadratic loss derivative is affine, so the symmetric rule coincides
    ssmd = rep.entry("ssmd")
    assert ssmd.mc_cost == pytest.approx(smd.mc_cost, rel=1e-12)
    assert all(e.n_trials == 2000 for e in rep.entries)
    assert all(e.ci_low <= e.mc_cost <= e.ci_high for e in rep.entries)


def test_risk_compare_margin_gate():
    bad = _gaussian_cfg(schedule={"kind": "constant", "eta": 1.5})
    with pytest.raises(ConfigError):
        risk_compare(bad)
    with pytest.warns(UserWarning):
        risk_compare(bad.with_overrides(), warn_only=True)


def test_risk_compare_is_deterministic():
    a = risk_compare(_gaussian_cfg(n_trials=500))
    b = risk_compare(_gaussian_cfg(n_trials=500))
    for ea, eb in zip(a.entries, b.entries):
        assert ea.mc_cost == eb.mc_cost
        assert (ea.ci_low, ea.ci_high) == (eb.ci_low, eb.ci_high)


def test_risk_neutral_estimator_beats_nothing_fancy():
    """Scalar posterior-mean baseline runs and produces finite costs."""
    cfg = _gaussian_cfg(
        dim=1, n_trials=200, T=10,
        estimators=[{"kind": "smd"}, {"kind": "risk_neutral"}],
    )
    rep = risk_compare(cfg)
    rn = rep.entry("risk_neutral")
    assert np.isfinite(rn.mc_cost) and rn.mc_cost >= 0.9


def test_risk_neutral_requires_scalar():
    prior = ExpFamilySpec(SquaredL2(2), np.zeros(2), 0.1)
    with pytest.raises(ConfigError):
        RiskNeutralEstimator(prior, Quadratic())


def test_bootstrap_ci_brackets_mean():
    rng = RngStream(5, 0)
    values = 1.0 + np.asarray(rng.normal(4000)) * 0.1
    lo, hi = bootstrap_basic_ci(values, RngStream(5, 1))
    assert lo < float(values.mean()) < hi
    assert hi - lo < 0.02
    gap_lo, gap_hi = paired_gap_ci(values, values + 0.05, RngStream(5, 2))
    assert gap_hi < 0.0  # a is uniformly smaller


def test_exponent_probe_grows():
    cfg = _gaussian_cfg(T=50, n_trials=2000)
    curve = exponent_blowup_probe(cfg, alpha=1.0, checkpoints=(10, 30, 50))
    assert [t for t, _, _ in curve] == [10, 30, 50]
    assert curve[-1][1] > 10.0 * curve[0][1]


def test_oracle_minimum_norm_examples():
    sol = implicit_reg_oracle(np.array([[1.0, 1.0]]), [1.0], SquaredL2(2), np.zeros(2))
    np.testing.assert_allclose(sol.w_star, [0.5, 0.5], atol=1e-12)
    sol2 = implicit_reg_oracle(np.array([[1.0, 2.0]]), [1.0], SquaredL2(2), np.zeros(2))
    np.testing.assert_allclose(sol2.w_star, [0.2, 0.4], atol=1e-12)
    assert sol2.kkt_residual <= 1e-10 and sol2.constraint_residual <= 1e-10


def test_oracle_max_entropy_symmetry():
    sol = implicit_reg_oracle(
        np.array([[1.0, 1.0]]), [1.0], NegEntropy(2), np.array([0.7, 0.7])
    )
    np.testing.assert_allclose(sol.w_star, [0.5, 0.5], atol=1e-9)
    assert sol.kkt_residual <= 1e-10


def test_oracle_rank_error():
    X = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    with pytest.raises(RankError):
        implicit_reg_oracle(X, [1.0, 2.0], SquaredL2(3), np.zeros(3))


def test_oracle_sparse_exponent(rng):
    X = rng.standard_normal((4, 12))
    w_plant = np.zeros(12)
    w_plant[[2, 7]] = [1.5, -2.0]
    y = X @ w_plant
    p = SeparableQ(1.5, 12)
    sol = implicit_reg_oracle(X, y, p, np.zeros(12))
    assert sol.kkt_residual <= 1e-10
    assert sol.constraint_residual <= 1e-10


def test_interpolating_descent_step_cap():
    X = np.array([[1.0, 0.0], [0.0, 1.0]])
    y = np.array([1.0, 1.0])
    with pytest.raises(StepCapError) as exc:
        run_interpolating_descent(
            SquaredL2(2), Quadratic(), X, y, np.zeros(2), 1e-6, step_cap=10
        )
    assert exc.value.steps == 10
    assert exc.value.residual > 0


def test_implicit_reg_experiment_squared_l2():
    cfg = make_config(
        potential="squared_l2", loss="quadratic", dim=20, T=5, n_trials=1,
        schedule={"kind": "constant", "eta": 0.5}, noise={"kind": "none"},
        inputs={"kind": "unit"}, seed=3,
    )
    rep = implicit_reg_experiment(cfg)
    assert rep.gap <= 1e-6
    assert rep.feasibility <= 1e-9
    assert rep.kkt_residual <= 1e-10


def test_implicit_reg_needs_underdetermined():
    cfg = make_config(dim=3, T=10, noise={"kind": "none"})
    with pytest.raises(ConfigError):
        implicit_reg_experiment(cfg)


def test_msq_requires_vanishing_schedule():
    cfg = make_config(schedule={"kind": "constant", "eta": 0.1}, noise={"kind": "gaussian"})
    with pytest.raises(ConfigError):
        msq_convergence(cfg)


def test_msq_decreases_and_beats_control():
    cfg = make_config(
        potential="squared_l2", loss="quadratic", dim=3, T=2000, n_trials=40,
        schedule={"kind": "robbins_monro", "c": 1.0}, noise={"kind": "gaussian"},
        seed=7,
    )
    rep = msq_convergence(cfg, control_eta=0.02)
    errs = [e for _, e in rep.checkpoints]
    assert errs[-1] < errs[0]
    assert rep.control[-1][1] > errs[-1]


def test_msq_vectorized_matches_engine():
    """One noise realization pushed through the batched runner and the
    per-step engine must give the same trajectory."""
    from mirrorkit.experiments import _msq_runs
    from mirrorkit.descent import RobbinsMonro

    p, l = NegEntropy(3), Quadratic()
    rng = RngStream(21, 0)
    X = np.stack([np.asarray(rng.normal(3)) for _ in range(120)])
    w_true = np.array([0.9, 1.4, 0.6])
    v = np.asarray(rng.normal(120))
    schedule = RobbinsMonro(0.5)
    marks, snaps = _msq_runs(p, l, X, X @ w_true, v[None, :], schedule, np.ones(3))
    data = [DataPoint(x, float(x @ w_true) + n) for x, n in zip(X, v)]
    traj = iterate(p, l, Linear(), data, schedule, np.ones(3), check_margin=False)
    np.testing.assert_allclose(snaps[120][0], traj.iterates[-1], rtol=1e-12, atol=1e-14)


def test_engines_share_one_mirror_update_bitwise():
    """iterate, the batched convergence runner and the risk estimator run the
    same mirror update, so one trajectory fed to each comes out bit for bit
    identical."""
    from mirrorkit import Constant
    from mirrorkit.experiments import _msq_runs

    from conftest import all_losses, all_potentials

    rng = RngStream(21, 0)
    X = np.stack([np.asarray(rng.normal(3)) for _ in range(120)])
    Y = X @ np.array([0.9, 1.4, 0.6]) + 0.3 * np.asarray(rng.normal(120))
    data = [DataPoint(x, y) for x, y in zip(X, Y)]
    w0 = np.ones(3)
    for p in all_potentials(3):
        for l in all_losses():
            traj = iterate(p, l, Linear(), data, Constant(0.02), w0, check_margin=False)
            marks, snaps = _msq_runs(p, l, X, Y, np.zeros((1, 120)), Constant(0.02), w0)
            for t in marks:
                assert np.array_equal(snaps[t][0], traj.iterates[t - 1])
            est = MirrorEstimator(p, l, 0.02)
            est.reset(1, w0)
            for i, (x, y) in enumerate(zip(X, Y)):
                est.predict(x)
                est.observe(x, np.array([y]))
                assert np.array_equal(est.W[0], traj.iterates[i])


def test_shuffled_epochs_reach_same_limit():
    """Epoch shuffling changes the path but not the interpolating limit."""
    rng = np.random.default_rng(31)
    X = rng.standard_normal((4, 12))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    w_plant = rng.standard_normal(12)
    y = X @ w_plant
    p, l = SquaredL2(12), Quadratic()
    w_fixed, *_ = run_interpolating_descent(p, l, X, y, np.zeros(12), 0.5)
    w_shuf, *_ = run_interpolating_descent(
        p, l, X, y, np.zeros(12), 0.5, shuffle_rng=RngStream(8, 0)
    )
    assert np.max(np.abs(w_fixed - w_shuf)) < 1e-7


def test_risk_dominance_paired_bootstrap():
    """Mean cost gap smd minus competitor stays nonpositive at 95% confidence."""
    rep = risk_compare(_gaussian_cfg(n_trials=4000))
    smd = rep.entry("smd")
    for e in rep.entries:
        if e.name in ("constant", "scaled_smd(0.5)", "scaled_smd(2)"):
            _, hi = paired_gap_ci(smd.costs, e.costs, RngStream(99, 3))
            assert hi <= 0.0, (e.name, hi)


def test_risk_pipeline_against_quadrature_oracle():
    """Scalar Gaussian case: the Monte Carlo pipeline must agree with an
    independent Gauss-Hermite quadrature of the exponential cost, and both
    with the closed forms the Gaussian setting admits."""
    eta, w0, x1, x2 = 0.2, 0.3, 1.0, 0.7

    def smd_cost(w, v1):
        w1 = w0 + eta * x1 * (x1 * w + v1 - x1 * w0)
        return np.exp(0.5 * ((x1 * (w - w0)) ** 2 + (x2 * (w - w1)) ** 2))

    def const_cost(w, v1):
        return np.exp(0.5 * ((x1 * (w - w0)) ** 2 + (x2 * (w - w0)) ** 2))

    nodes, weights = np.polynomial.hermite.hermgauss(80)
    T1, T2 = np.meshgrid(nodes, nodes, indexing="ij")
    wg = np.outer(weights, weights) / np.pi
    W = w0 + np.sqrt(2 * eta) * T1
    V = np.sqrt(2) * T2
    quad_smd = float(np.sum(wg * smd_cost(W, V)))
    quad_const = float(np.sum(wg * const_cost(W, V)))

    # closed forms: per-step factors for the optimal predictions, a single
    # chi-square moment generating function for the frozen baseline
    closed_smd = ((1 - eta * x1**2) * (1 - eta * x2**2)) ** -0.5
    closed_const = (1 - eta * (x1**2 + x2**2)) ** -0.5
    assert quad_smd == pytest.approx(closed_smd, rel=1e-12)
    assert quad_const == pytest.approx(closed_const, rel=1e-12)

    n = 100_000
    prior = ExpFamilySpec(SquaredL2(1), [w0], eta)
    l = Quadratic()
    Wmc = sample_weight(prior, RngStream(77, 0), size=n)[:, 0]
    V1 = sample_noise(l, RngStream(77, 1), size=n)
    V2 = sample_noise(l, RngStream(77, 2), size=n)
    X = [np.array([x1]), np.array([x2])]
    XW = np.stack([x1 * Wmc, x2 * Wmc], axis=1)
    Y = XW + np.stack([V1, V2], axis=1)
    for est, target in [
        (MirrorEstimator(SquaredL2(1), l, eta), quad_smd),
        (ConstantEstimator(), quad_const),
    ]:
        est.reset(n, np.array([w0]))
        S = np.zeros(n)
        for i in range(2):
            z = est.predict(X[i])
            S += l.bregman(Y[:, i] - XW[:, i], Y[:, i] - z)
            est.observe(X[i], Y[:, i])
        costs = np.exp(S)
        band = 4.0 * costs.std(ddof=1) / np.sqrt(n)
        assert abs(costs.mean() - target) <= band
