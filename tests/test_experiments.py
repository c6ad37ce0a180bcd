import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from mirrorkit import (
    ConfigError,
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
    ValidationError,
    exponent_blowup_probe,
    implicit_reg_experiment,
    implicit_reg_oracle,
    iterate,
    msq_convergence,
    risk_compare,
    run_interpolating_descent,
)
from mirrorkit.cli import EXIT_ASSERTION, dispatch
from mirrorkit.config import make_config, parse_config
from mirrorkit.datagen import generate_problems, make_inputs, problem_draws, trial_draws
from mirrorkit.experiments import (
    BOOTSTRAP_RESAMPLES,
    FEASIBILITY_TOL,
    MAP_STEPS,
    MAP_T,
    STEP_CAP,
    _estimator_exponents,
    _exponents_at,
    _risk_trials,
    bootstrap_basic_ci,
    certify_margin,
    closed_form_basic_ci,
    effective_sample_size,
    estimator_predictions,
    prediction_map,
)
from mirrorkit.losses import LogCosh, Quartic
from mirrorkit.samplers import (
    ExpFamilySpec,
    RngStream,
    sample_noise,
    sample_weight,
    trial_uniforms,
    weight_draw,
)

from conftest import CounterStream, forward_lms_maps, gaussian_log_costs

RISK_GAUSSIAN = Path(__file__).resolve().parent.parent / "configs" / "risk_gaussian.json"
RISK_LOGCOSH_Q3 = RISK_GAUSSIAN.with_name("risk_logcosh_q3.json")


def risk_cost(predictions, w, X, Y, l, mode=SMDCost()):
    """One trial's exponential cost of a prediction sequence on the inputs
    X (T, dim) and outputs Y (T,), through the risk comparison's accumulator."""
    T = len(Y)
    xw, Y = (np.asarray(X, dtype=float) @ w)[None, :], np.asarray(Y, dtype=float)[None, :]
    exponents = _exponents_at([T], mode, l, xw, Y, (np.array([z]) for z in predictions))
    return float(np.exp(exponents[0, 0]))


def test_risk_cost_clairvoyant_is_one(rng):
    l = Quadratic()
    X, Y = rng.standard_normal((6, 2)), rng.standard_normal(6)
    w = rng.standard_normal(2)
    assert risk_cost(X @ w, w, X, Y, l) == pytest.approx(1.0)


def test_risk_cost_empty_is_one():
    assert risk_cost([], np.zeros(2), np.empty((0, 2)), [], Quadratic()) == 1.0


def test_risk_cost_unit_gap_quadratic():
    X, Y = np.array([[1.0]]), [0.3]
    w = np.array([1.0])
    # prediction one unit away from x^T w gives exp(1/2)
    assert risk_cost([0.0], w, X, Y, Quadratic()) == pytest.approx(np.exp(0.5))


def test_risk_cost_modes(rng):
    l = Quadratic()
    X, Y = np.array([[1.0]]), [0.0]
    w = np.array([2.0])
    z = [0.5]
    smd = risk_cost(z, w, X, Y, l, SMDCost())
    ssmd = risk_cost(z, w, X, Y, l, SSMDCost())
    scaled = risk_cost(z, w, X, Y, l, ScaledQuadratic(alpha=0.5))
    assert smd == pytest.approx(np.exp(0.5 * 1.5**2))
    assert ssmd == pytest.approx(smd)  # quadratic bregman depends on the gap only
    assert scaled == pytest.approx(smd)


def test_estimator_causality_black_box():
    """Changing y_i must not change z_i, only later predictions."""
    p, l = SquaredL2(2), Quadratic()
    X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    Y1 = np.array([[0.5, -0.2, 0.9]])
    Y2 = Y1.copy()
    Y2[0, 1] = 5.0  # future observation differs at step 2
    zs = []
    for Y in (Y1, Y2):
        _, predictions = estimator_predictions({"kind": "smd"}, p, l, 0.3, X, Y, np.zeros(2))
        zs.append([float(z[0]) for z in predictions])
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
    with pytest.raises(ConfigError, match="convexity premise fails"):
        risk_compare(bad)
    # the blow-up probe is a diagnostic: it only warns
    with pytest.warns(UserWarning, match="convexity premise fails"):
        exponent_blowup_probe(bad, checkpoints=(10,))


@pytest.mark.parametrize("over", [
    {},
    dict(potential={"kind": "separable_q", "q": 3.0}, loss="logcosh", w0=1.0,
         schedule={"kind": "constant", "eta": 0.2}),
], ids=["squared_l2", "separable_q3_logcosh"])
def test_risk_probes_the_premise_at_the_prior_center_and_the_first_trials(over, monkeypatch):
    from mirrorkit import descent, experiments

    seen = []

    def recording(p, l, model, eta, W, X, z):
        seen.append(W.copy())
        return descent.premise_holds(p, l, model, eta, W, X, z)

    monkeypatch.setattr(experiments, "premise_holds", recording)
    cfg = _gaussian_cfg(n_trials=50, **over)
    risk_compare(cfg)
    # trials 0-3 draw their weights first, from the leading columns of their rows
    w0 = cfg.w0_vector()
    k, weights = weight_draw(ExpFamilySpec(cfg.build_potential(), w0, cfg.schedule["eta"]))
    probes = np.vstack([w0, weights(trial_uniforms(cfg.seed, 4, k))])
    assert len(seen) == 1
    assert np.array_equal(seen[0], np.repeat(probes, cfg.T, axis=0))


def test_lms_premise_of_risk_does_not_depend_on_the_probed_weights():
    """On the squared-L2 potential with the quadratic loss the premise is
    eta * |x_i|^2 <= 1 at every weight, so probing one more weight, far from
    the prior center, changes no verdict: it holds at risk_gaussian's rate,
    and at a rate it fails it fails at the same inputs."""
    cfg = parse_config(RISK_GAUSSIAN)
    p, l, X, w0 = cfg.build_potential(), cfg.build_loss(), make_inputs(cfg, count=cfg.T), cfg.w0_vector()
    one, two = w0[None], np.vstack([w0, w0 + 1e3])
    eta = cfg.schedule["eta"]
    assert certify_margin(p, l, eta, X, one) == certify_margin(p, l, eta, X, two) == ""
    T = len(X)
    assert certify_margin(p, l, 1.5, X, one) == f"convexity premise fails at {T} of {T} probes for eta=1.5"
    assert certify_margin(p, l, 1.5, X, two) == f"convexity premise fails at {2 * T} of {2 * T} probes for eta=1.5"


def test_risk_compare_is_deterministic():
    a = risk_compare(_gaussian_cfg(n_trials=500))
    b = risk_compare(_gaussian_cfg(n_trials=500))
    for ea, eb in zip(a.entries, b.entries):
        assert ea.mc_cost == eb.mc_cost
        assert (ea.ci_low, ea.ci_high) == (eb.ci_low, eb.ci_high)


def test_risk_costs_do_not_depend_on_the_trial_count():
    """Trial t's cost is the same bits however many trials run, although
    the trials are drawn, predicted and scored in one block whose row count
    is the trial count."""
    full = risk_compare(_gaussian_cfg(n_trials=2000)).entries
    for n in (2, 5, 820):
        for a, b in zip(full, risk_compare(_gaussian_cfg(n_trials=n)).entries):
            assert np.array_equal(a.costs[:n], b.costs), (n, a.name)


def _risk_outputs(cfg, out):
    """The bytes of the `risk.csv` that `cfg` writes to `out`, and its
    blow-up curve at the default checkpoints."""
    dispatch(cfg.replace(output_dir=str(out)), "risk")
    return (out / "risk.csv").read_bytes(), exponent_blowup_probe(cfg)


@pytest.mark.parametrize("cfg, same, close", [
    (parse_config(RISK_GAUSSIAN), (3001, 10_000), (1,)),
    (parse_config(RISK_LOGCOSH_Q3).replace(n_trials=60), (1, 7, 60), ()),
], ids=["risk_gaussian", "risk_logcosh_q3"])
@pytest.mark.bitwise
def test_risk_outputs_do_not_depend_on_the_trial_block(cfg, same, close, tmp_path, monkeypatch):
    """`risk.csv` and the blow-up curve are the same bits for every
    TRIAL_BLOCK in `same`. On the map path (risk_gaussian, 10^4 trials)
    those are blocks that leave a ragged last one (3 of 3001 rows and one
    of 997) and one block of all trials. The stepped path (risk_logcosh_q3,
    60 trials) draws all trials at once, so there no block size moves a
    bit. With one trial a block the map path agrees to roundoff only:
    numpy takes a 1-row matrix product through BLAS's matrix-vector kernel,
    which sums in another order than the matrix-matrix one (1.9e-15
    relative here)."""
    from mirrorkit import experiments

    default = _risk_outputs(cfg, tmp_path / "default")
    for block in same:
        monkeypatch.setattr(experiments, "TRIAL_BLOCK", block)
        assert _risk_outputs(cfg, tmp_path / str(block)) == default, block
    for block in close:
        monkeypatch.setattr(experiments, "TRIAL_BLOCK", block)
        csv, curve = _risk_outputs(cfg, tmp_path / str(block))
        rows = [np.loadtxt(text.splitlines()[1:], delimiter=",", usecols=(1, 2, 3, 4, 5))
                for text in (csv.decode(), default[0].decode())]
        np.testing.assert_allclose(*rows, rtol=1e-13, atol=0)
        np.testing.assert_allclose(curve, default[1], rtol=1e-13, atol=0)


def test_risk_neutral_requires_scalar():
    # the posterior-mean estimator is no longer a config-level kind
    with pytest.raises(ValidationError, match="risk_neutral"):
        _gaussian_cfg(estimators=[{"kind": "smd"}, {"kind": "risk_neutral"}])


@pytest.mark.parametrize("spec, name", [
    ({"kind": "smd"}, "smd"),
    ({"kind": "scaled_smd", "gamma": 1.0}, "smd"),
    ({"kind": "scaled_smd", "gamma": 0.3}, "scaled_smd(0.3)"),
    ({"kind": "ssmd"}, "ssmd"),
    ({"kind": "constant"}, "constant"),
])
def test_estimator_names(spec, name):
    X, Y = np.eye(2), np.zeros((3, 2))
    assert estimator_predictions(spec, SquaredL2(2), Quadratic(), 0.1, X, Y, np.zeros(2))[0] == name


def _scored(spec):
    """The cost `risk` scores an estimator under."""
    return SSMDCost() if spec["kind"] == "ssmd" else SMDCost()


def _sequential_exponents(spec, mode, marks, p, l, eta, X, w0, XW, Y):
    _, predictions = estimator_predictions(spec, p, l, eta, X, Y, w0)
    return _exponents_at(marks, mode, l, XW, Y, predictions)


def _all_trials(cfg, T):
    """`_risk_trials` with every trial's clean and noisy outputs (XW, Y),
    each (n_trials, T), drawn at once."""
    p, l, eta, X, margin, w0, trials = _risk_trials(cfg, T)
    return p, l, eta, X, margin, w0, *trials(0, cfg.n_trials)


def _slices(XW, Y):
    """The `trials(a, b)` of `_risk_trials` for the given outputs."""
    return lambda a, b: (XW[a:b], Y[a:b])


def _random_lq_config(rng, T, n_trials):
    """A random risk config on the squared-L2 potential and the quadratic
    loss, with a non-zero prior center and the five default estimators."""
    dim = int(rng.integers(1, 6))
    inputs = {"kind": "unit"} if rng.random() < 0.5 else {"kind": "gaussian", "scale": 0.3}
    return make_config(potential="squared_l2", loss="quadratic", dim=dim, T=T, n_trials=n_trials,
                       schedule={"kind": "constant", "eta": float(rng.uniform(0.02, 0.4))},
                       inputs=inputs, w0=rng.uniform(-1.0, 1.0, dim).tolist(),
                       seed=int(rng.integers(2**32)))


@pytest.mark.parametrize("T", [1, 2, 20, MAP_T])
@pytest.mark.bitwise
def test_map_exponents_equal_the_sequential_ones(T):
    """In the linear-quadratic case each estimator's exponents come from its
    prediction map; they equal the stepped recursion's for every estimator
    kind, under its own cost and under the blow-up probe's alpha-1 cost at
    several marks. The tolerance is absolute as well as relative: the
    sequential form ((y - xw) - (y - z))^2 cancels through y, so an exponent
    near 0 carries an error of about 1e-13 relative to its terms. Scored
    together, the estimators share their equal maps (ssmd's is smd's, and
    `scaled_smd(1)`'s too), and ssmd gets the bits it gets alone."""
    rng = np.random.default_rng(T)
    marks = sorted({0, 1, (T + 1) // 2, T})
    for _ in range(5):
        cfg = _random_lq_config(rng, T, n_trials=16 if T == MAP_T else 64)
        cfg = cfg.replace(estimators=[*cfg.estimators, {"kind": "scaled_smd", "gamma": 1.0}])
        p, l, eta, X, _, w0, XW, Y = _all_trials(cfg, T)
        assert not np.array_equal(w0, np.zeros(cfg.dim))
        # the map predicts what the recursion does, on the trials' outputs
        _, c, K = prediction_map({"kind": "smd"}, p, l, eta, X, w0)
        _, predictions = estimator_predictions({"kind": "smd"}, p, l, eta, X, Y, w0)
        np.testing.assert_allclose(c + Y @ K.T, np.reshape(list(predictions), (T, -1)).T,
                                   rtol=1e-12, atol=1e-12)
        trials = _slices(XW, Y)
        runs = [(spec, _scored(spec)) for spec in cfg.estimators]
        _, together = _estimator_exponents(runs, [T], p, l, eta, X, w0, trials, len(Y))
        for (spec, mode), S in zip(runs, together):
            expected = _sequential_exponents(spec, mode, [T], p, l, eta, X, w0, XW, Y)
            np.testing.assert_allclose(S, expected, rtol=1e-12, atol=1e-12, err_msg=f"{spec} {mode}")
        ssmd = [spec["kind"] for spec, _ in runs].index("ssmd")
        _, alone = _estimator_exponents([runs[ssmd]], [T], p, l, eta, X, w0, trials, len(Y))
        assert np.array_equal(alone[0], together[ssmd])
        probe = ({"kind": "smd"}, ScaledQuadratic(alpha=1.0))
        _, (S,) = _estimator_exponents([probe], marks, p, l, eta, X, w0, trials, len(Y))
        expected = _sequential_exponents(*probe, marks, p, l, eta, X, w0, XW, Y)
        np.testing.assert_allclose(S, expected, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("cfg", [
    parse_config(RISK_LOGCOSH_Q3).replace(n_trials=64),
    _gaussian_cfg(T=MAP_T + 1, n_trials=16),
], ids=["risk_logcosh_q3", "squared_l2_past_MAP_T"])
def test_other_pairs_and_longer_horizons_keep_the_sequential_exponents(cfg):
    p, l, eta, X, _, w0, XW, Y = _all_trials(cfg, cfg.T)
    runs = [(spec, _scored(spec), [cfg.T]) for spec in cfg.estimators]
    runs.append(({"kind": "smd"}, ScaledQuadratic(alpha=1.0), [10, cfg.T]))
    for spec, mode, at in runs:
        _, S = _estimator_exponents([(spec, mode)], at, p, l, eta, X, w0, _slices(XW, Y), len(Y))
        expected = _sequential_exponents(spec, mode, at, p, l, eta, X, w0, XW, Y)
        assert np.array_equal(S[0], expected), (spec, mode)


def test_bootstrap_ci_brackets_mean():
    rng = RngStream(5, 0)
    values = 1.0 + np.asarray(rng.normal(4000)) * 0.1
    lo, hi = bootstrap_basic_ci(values, np.random.default_rng(1))
    assert lo < float(values.mean()) < hi
    assert hi - lo < 0.02
    gap_lo, gap_hi = bootstrap_basic_ci(values - (values + 0.05), np.random.default_rng(2))
    assert gap_hi < 0.0  # a is uniformly smaller


def test_stacked_bootstrap_shares_indices_row_by_row():
    rng = np.random.default_rng(3)
    a = np.exp(rng.standard_normal(3000))  # 3000 values: 400 blocks of 5 resamples
    b = a + 0.25
    cis = bootstrap_basic_ci(np.stack([a, b, a]), np.random.default_rng(4))
    assert len(cis) == 3
    assert cis[0] == bootstrap_basic_ci(a, np.random.default_rng(4))
    assert cis[2] == cis[0]
    # paired: resampled on the same trials, a shifted row's interval shifts
    # by exactly the offset, up to roundoff
    np.testing.assert_allclose(cis[1], np.add(cis[0], 0.25), rtol=0, atol=1e-12)
    # a resample mean gathers values of its own row only: the resamples
    # that drew the overflowed value have mean inf, and row 0 does not move
    b[7] = np.inf
    overflowed = bootstrap_basic_ci(np.stack([a, b]), np.random.default_rng(4))
    assert overflowed[0] == cis[0]
    assert overflowed[1][1] == np.inf


@pytest.mark.parametrize("draw, n_resamples", [
    (lambda rng: rng.standard_normal(3001), 200),
    (lambda rng: rng.lognormal(0.0, 3.0, 3001), 200),
    (lambda rng: 1.0 + rng.pareto(0.7, 3001), 200),
    (lambda rng: rng.standard_normal(3), BOOTSTRAP_RESAMPLES),
    (lambda rng: rng.lognormal(0.0, 1.0, 5000), 200),
    (lambda rng: rng.standard_normal(40_000), 50),
], ids=["normal", "lognormal", "pareto", "three", "5000 values", "40000 values"])
def test_bootstrap_intervals_do_not_depend_on_the_block(monkeypatch, draw, n_resamples):
    """The intervals are the same bits with the default blocks, one resample
    per block, seven, and all resamples in one block: the blocks split one
    stream of index draws, and a resample's mean reads its own indices
    only. 40 000 values are above BLOCK_VALUES, one resample per block by
    default."""
    from mirrorkit import experiments

    x = draw(np.random.default_rng(0))
    cis = [bootstrap_basic_ci(x, np.random.default_rng(4), n_resamples)]
    for block_values in (x.size, 7 * x.size, n_resamples * x.size):
        monkeypatch.setattr(experiments, "BLOCK_VALUES", block_values)
        cis.append(bootstrap_basic_ci(x, np.random.default_rng(4), n_resamples))
    assert cis[1:] == cis[:-1], cis


@pytest.mark.parametrize("bad", [[np.inf], [-np.inf], [np.nan], [np.inf, -np.inf]],
                         ids=["inf", "-inf", "nan", "both infs"])
def test_bootstrap_non_finite_row_leaves_the_other_rows_alone(bad):
    """A row with a non-finite value leaves each other row's interval bit
    for bit as that row gives it alone, and gets its own interval as alone.
    A resample that drew inf has mean inf, so the interval is infinite on
    that side; a NaN, or both infinities, make a NaN interval."""
    x = np.random.default_rng(0).standard_normal(3001)
    y = x.copy()
    y[[7, 2000][: len(bad)]] = bad
    cis = bootstrap_basic_ci(np.stack([x, y, x + 1.0]), np.random.default_rng(4))
    assert cis[0] == bootstrap_basic_ci(x, np.random.default_rng(4))
    assert cis[2] == bootstrap_basic_ci(x + 1.0, np.random.default_rng(4))
    assert np.array_equal(cis[1], bootstrap_basic_ci(y, np.random.default_rng(4)), equal_nan=True)
    if len(bad) == 1 and np.isinf(bad[0]):
        assert (cis[1][1] if bad[0] > 0 else cis[1][0]) == bad[0]
    else:
        assert np.isnan(cis[1]).all()


def test_bootstrap_peak_memory_is_two_index_blocks():
    """The index block and the values it gathers each hold at most
    BLOCK_VALUES = 2**14 values (128 KiB); with the means a (5, 10**4)
    bootstrap's traced peak is 0.24 MiB, under 6 MiB, where one block of
    all 2000 resamples would take about 300 MiB."""
    costs = np.exp(np.random.default_rng(1).standard_normal((5, 10**4)))
    tracemalloc.start()
    try:
        bootstrap_basic_ci(costs, np.random.default_rng(4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 2**20


def test_converge_peak_memory_is_a_few_chunks():
    """converge makes each chunk of outputs (at most BLOCK_VALUES values)
    just before the recursion reads it, so at T 10**4 with 100 runs and a
    control its traced peak stays under 3 MiB, where the whole (T, n_runs)
    output matrix took 9.3 MiB."""
    cfg = make_config(
        potential="squared_l2", loss="quadratic", dim=4, T=10_000, n_trials=100,
        schedule={"kind": "robbins_monro", "c": 1.0}, noise={"kind": "gaussian", "sigma2": 1.0},
        inputs={"kind": "basis_then_gaussian"}, seed=7, control_eta=0.01,
    )
    tracemalloc.start()
    try:
        msq_convergence(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 2**20


def test_risk_peak_memory_is_a_few_trial_blocks():
    """`risk` draws, predicts and scores TRIAL_BLOCK trials at a time, so on
    risk_gaussian (10^4 trials, T 20, 5 estimators) its traced peak stays
    under 4 MiB: 2.47 MiB, where the whole (n_trials, T) uniforms, weights,
    noises and outputs took 5.26 MiB."""
    cfg = parse_config(RISK_GAUSSIAN)
    tracemalloc.start()
    try:
        risk_compare(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


@pytest.mark.parametrize("values", [[1.0], np.ones((3, 1)), []])
def test_bootstrap_needs_two_values(values):
    with pytest.raises(ValueError, match="at least 2 values"):
        bootstrap_basic_ci(values, np.random.default_rng(4))


@pytest.mark.parametrize("values, kwargs, name", [
    ([1.0, 2.0, 3.0, 4.0], {"level": -0.5}, "level"),
    ([1.0, 2.0, 3.0, 4.0], {"level": 1.5}, "level"),
    ([1.0, 2.0, 3.0, 4.0], {"level": 0.0}, "level"),
    ([1.0, 2.0, 3.0, 4.0], {"level": 1.0}, "level"),
    ([1.0, 2.0, 3.0, 4.0], {"level": float("nan")}, "level"),
    ([1.0, 2.0, 3.0, 4.0], {"n_resamples": 0}, "n_resamples"),
    (np.ones((2, 2, 4)), {}, "values"),
], ids=["level -0.5", "level 1.5", "level 0", "level 1", "level nan", "no resamples", "3-D values"])
def test_bootstrap_rejects_arguments_that_make_no_interval(values, kwargs, name):
    with pytest.raises(ValueError, match=name):
        bootstrap_basic_ci(values, np.random.default_rng(4), **kwargs)


def test_gaussian_oracle_reproduces_the_exact_costs():
    """The exact E e^S of each estimator on risk_gaussian, to 5 digits."""
    exact = {name: np.exp(v) for name, v in gaussian_log_costs(parse_config(RISK_GAUSSIAN)).items()}
    assert {name: round(float(v), 5) for name, v in exact.items()} == {
        "smd": 1.67018, "constant": 1.80303, "scaled_smd(0.5)": 1.69959, "scaled_smd(2)": 1.76808,
        "ssmd": 1.67018}


def test_closed_form_intervals_cover_the_exact_costs():
    """On risk_gaussian at T 20 with 2000 trials, each estimator scored under
    the SMD cost has its exact cost inside its 95% interval on at least 0.9
    of 200 seeds (0.95-0.97 here; the bootstrap read 0.945-0.965). A seed
    moves the inputs too, so the exact costs are taken per seed."""
    base = parse_config(RISK_GAUSSIAN).replace(n_trials=2000)
    covered = {}
    for seed in range(200):
        cfg = base.replace(seed=seed)
        exact = gaussian_log_costs(cfg)
        for e in risk_compare(cfg).entries:
            if isinstance(e.mode, SMDCost):
                covered.setdefault(e.name, []).append(e.ci_low <= np.exp(exact[e.name]) <= e.ci_high)
    coverage = {name: np.mean(c) for name, c in covered.items()}
    assert set(coverage) == {"smd", "constant", "scaled_smd(0.5)", "scaled_smd(2)"}
    assert min(coverage.values()) >= 0.9, coverage


def test_closed_form_ci_agrees_with_the_bootstrap():
    """At 10^4 trials on risk_gaussian each closed-form endpoint lies within
    a tenth of the bootstrap's half-width of the bootstrap's endpoint (at
    most 0.037 here). The 2000 resamples alone move a 2.5% quantile by about
    0.03 of the half-width, one standard error."""
    cfg = parse_config(RISK_GAUSSIAN)
    entries = risk_compare(cfg).entries
    boot = bootstrap_basic_ci(np.stack([e.costs for e in entries]), np.random.default_rng(cfg.seed))
    for e, (lo, hi) in zip(entries, boot):
        half = (hi - lo) / 2.0
        assert abs(e.ci_low - lo) <= 0.1 * half and abs(e.ci_high - hi) <= 0.1 * half, (e.name, lo, hi)


@pytest.mark.parametrize("draw", [
    lambda rng: rng.standard_normal(3001),
    lambda rng: rng.lognormal(0.0, 3.0, 3001),
    lambda rng: 1.0 + rng.pareto(0.7, 3001),
    lambda rng: np.exp(rng.standard_normal(200) * 300.0),
    lambda rng: np.r_[np.zeros(199), 1.0],
    lambda rng: -np.r_[np.zeros(199), 1.0],
    lambda rng: np.r_[np.zeros(2), 1e300],
    lambda rng: rng.standard_normal(2),
    lambda rng: np.full(50, 2.5),
], ids=["normal", "lognormal", "pareto", "overflowing_moments", "one_outlier", "one_negative_outlier",
        "huge_outlier", "two", "constant"])
def test_closed_form_ci_brackets_the_mean(draw):
    """The skewness term is below z in size (the empirical skewness is below
    sqrt(n)), so the interval holds the mean however skewed the values, and
    its moments never overflow: one outlier among zeros is the most skewed
    sample there is."""
    x = draw(np.random.default_rng(0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lo, hi = closed_form_basic_ci(x)
    assert np.isfinite([lo, hi]).all()
    assert lo <= float(x.mean()) <= hi
    assert closed_form_basic_ci(np.stack([x, x]))[1] == (lo, hi)


@pytest.mark.parametrize("values", [np.ones((2, 2, 4)), [1.0], np.ones((3, 1)), []],
                         ids=["3-D", "one value", "one per row", "empty"])
def test_closed_form_ci_rejects_values_that_make_no_interval(values):
    with pytest.raises(ValueError, match="values"):
        closed_form_basic_ci(values)


def test_an_infinite_cost_gives_a_nan_interval_and_a_failing_verdict(tmp_path, monkeypatch):
    """A row with an overflowed cost gets a NaN interval, as the bootstrap's
    2m - q is NaN there, and leaves the other rows alone. Through `risk`, a
    constant-baseline trial whose exponent is about 5000, so that its cost
    overflows to inf, fails the verdict closed, with no RuntimeWarning. The
    overflow is put into that trial's exponent, which both the map and the
    stepped path hand to `risk` in the stack `_estimator_exponents` returns."""
    x = np.exp(np.random.default_rng(1).standard_normal(500))
    y = x.copy()
    y[3] = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cis = closed_form_basic_ci(np.stack([x, y]))
    assert cis[0] == closed_form_basic_ci(x)
    assert np.isnan(cis[1]).all()

    from mirrorkit import experiments

    def overflowing(*args):
        names, S = _estimator_exponents(*args)
        S[names.index("constant"), :, 0] += 5000.0
        return names, S

    monkeypatch.setattr(experiments, "_estimator_exponents", overflowing)
    cfg = parse_config(RISK_GAUSSIAN).replace(n_trials=500, output_dir=str(tmp_path))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        verdict = dispatch(cfg, "risk")
    constant = experiments.risk_compare(cfg).entry("constant")
    assert constant.mc_cost == np.inf and np.isnan([constant.ci_low, constant.ci_high]).all()
    assert constant.ess == pytest.approx(1.0)
    assert verdict.code == EXIT_ASSERTION
    assert verdict.reason.startswith("smd ci_high against the constant ci_low: ")
    assert verdict.reason.endswith(" < nan fails")


def test_effective_sample_size_stays_finite_where_the_weights_overflow():
    """Kong's (sum e^S)^2 / sum e^(2S): n for equal weights, and the same
    value from exponents shifted past what e^S can hold."""
    S = np.random.default_rng(2).standard_normal(1000)
    w = np.exp(S)
    assert effective_sample_size(S) == pytest.approx(w.sum() ** 2 / np.sum(w * w), rel=1e-12)
    assert effective_sample_size(S + 1000.0) == pytest.approx(effective_sample_size(S), rel=1e-12)
    assert effective_sample_size(np.zeros(7)) == 7.0
    assert effective_sample_size(np.array([800.0, 800.0, 0.0])) == 2.0


@pytest.mark.parametrize("kind", ["squared_l2", "neg_entropy", "separable_q"])
@pytest.mark.parametrize("loss", [Quadratic(), Quartic(), LogCosh()], ids=lambda l: l.kind)
@pytest.mark.parametrize("dim, T", [(1, 7), (2, 4), (3, 20), (4, 5)])
def test_batched_trial_draws_equal_per_trial_draws(kind, loss, dim, T):
    potential = {"kind": "separable_q", "q": 3.0} if kind == "separable_q" else kind
    # a distinct prior centre per coordinate, so each coordinate has its own table
    cfg = make_config(potential=potential, loss=loss.kind, dim=dim, T=T,
                      w0=np.linspace(0.5, 1.5, dim).tolist(),
                      schedule={"kind": "constant", "eta": 0.1})
    prior = ExpFamilySpec(cfg.build_potential(), np.linspace(0.5, 1.5, dim), 0.1)
    W, V = trial_draws(17, 30, problem_draws(cfg))
    assert W.shape == (30, dim) and V.shape == (30, T)
    # trial t is the weight and then the noises drawn from its own counter
    # stream, the same draws a single-stream sampler makes from it
    for t in range(30):
        rng = CounterStream(17, t)
        assert np.array_equal(W[t], sample_weight(prior, rng))
        assert np.array_equal(V[t], sample_noise(loss, rng, size=T))
    # a trial depends only on (seed, t), not on how many trials are drawn
    W5, V5 = trial_draws(17, 5, problem_draws(cfg))
    assert np.array_equal(W5, W[:5]) and np.array_equal(V5, V[:5])


def test_exponent_probe_grows():
    cfg = _gaussian_cfg(T=50, n_trials=2000)
    curve = exponent_blowup_probe(cfg, checkpoints=(10, 30, 50))
    assert [t for t, _, _ in curve] == [10, 30, 50]
    assert curve[-1][1] > 10.0 * curve[0][1]


@pytest.mark.parametrize("cfg", [
    parse_config(RISK_GAUSSIAN).replace(n_trials=50),
    parse_config(RISK_LOGCOSH_Q3).replace(n_trials=50),
], ids=["risk_gaussian", "risk_logcosh_q3"])
@pytest.mark.parametrize("checkpoints", [(-5, 10), (10, 2.5), (10.0,), (True, 10), ()],
                         ids=["negative", "fractional", "float", "bool", "none"])
def test_blowup_probe_refuses_checkpoints_that_are_not_step_counts(cfg, checkpoints):
    """A checkpoint is a step count, an integer >= 0. A negative one read a
    slice from the end on the map path (-5 summed 5 steps) and was dropped
    on the stepped path; both paths now refuse it, and every other
    non-integer, before any trial is drawn."""
    with pytest.raises(ConfigError, match="checkpoints must be integers >= 0|at least one step"):
        exponent_blowup_probe(cfg, checkpoints=checkpoints)
    assert [t for t, _, _ in exponent_blowup_probe(cfg, checkpoints=(0, np.int64(10)))] == [0, 10]


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


def test_oracle_q_above_two_divides_by_no_zero_curvature():
    # hess psi of q = 3 vanishes at the untouched coordinates 0, where the
    # Newton step's d grad_inv is taken as 0 without dividing by it
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        sol = implicit_reg_oracle([[1.0, 0.0, 0.0]], [4.0], SeparableQ(3.0, 3), np.zeros(3))
    np.testing.assert_allclose(sol.w_star, [4.0, 0.0, 0.0], atol=1e-10)
    assert sol.kkt_residual <= 1e-10


def test_interpolating_descent_step_cap():
    X = np.array([[1.0, 0.0], [0.0, 1.0]])
    y = np.array([1.0, 1.0])
    with pytest.raises(StepCapError) as exc:
        run_interpolating_descent(
            SquaredL2(2), Quadratic(), X, y, np.zeros(2), 1e-6, feas_tol=1e-9, step_cap=10
        )
    assert exc.value.steps == 10
    assert exc.value.residual > 0


@pytest.mark.parametrize("y,period", [(-0.024975119306399472, 4), (-0.016508656252444073, 2),
                                      (0.002274870723734314, 2)])
def test_interpolating_descent_refuses_a_cycle_at_once(y, period):
    """Cases 23, 70 and 224 of implicit on separable_q q 3, dim 3, T 1,
    basis_then_gaussian inputs, noise none and seed 733: from step 612, 35
    and 14 the mirror state repeats bit for bit with period 4, 2 and 2 (its
    maps are a square and a square root, correctly rounded on every CPU).
    Each is refused within a few thousand steps, not at the 10^6-step cap."""
    with pytest.raises(StepCapError, match=f"repeats itself with period {period} steps") as exc:
        run_interpolating_descent(SeparableQ(3.0, 3), Quadratic(), [[1.0, 0.0, 0.0]], [y], np.zeros(3), 0.1,
                                  feas_tol=FEASIBILITY_TOL, step_cap=STEP_CAP)
    assert exc.value.steps <= 4096
    assert exc.value.residual > 0.02


def test_implicit_reg_experiment_squared_l2():
    cfg = make_config(
        potential="squared_l2", loss="quadratic", dim=20, T=5, n_trials=1,
        schedule={"kind": "constant", "eta": 0.5}, noise={"kind": "none"},
        inputs={"kind": "unit"}, seed=3,
    )
    [rep] = implicit_reg_experiment(cfg)
    assert rep.gap <= 1e-6
    assert rep.feasibility <= 1e-9
    assert rep.kkt_residual <= 1e-10


def test_implicit_cases_are_trials():
    """Case t is trial t of `generate_problems`, whatever the case count."""
    cfg = make_config(
        potential="neg_entropy", loss="quadratic", dim=8, T=3, n_trials=5,
        schedule={"kind": "constant", "eta": 0.2}, noise={"kind": "none"},
        inputs={"kind": "unit"}, seed=17,
    )
    five = implicit_reg_experiment(cfg)
    two = implicit_reg_experiment(cfg.replace(n_trials=2))
    problems = generate_problems(cfg, 5)
    assert len(five) == 5 and len(two) == 2
    p, w0 = cfg.build_potential(), cfg.w0_vector()
    for t, (a, b) in enumerate(zip(five, two)):
        assert np.array_equal(a.w_smd, b.w_smd) and np.array_equal(a.w_oracle, b.w_oracle)
        assert (a.gap, a.feasibility, a.kkt_residual, a.steps) == (b.gap, b.feasibility, b.kkt_residual, b.steps)
        # the noiseless system of trial t
        X, y = problems.X[t], problems.Y[t]
        np.testing.assert_allclose(y, X @ problems.w_true[t], rtol=1e-14, atol=1e-15)
        assert np.array_equal(a.w_oracle, implicit_reg_oracle(X, y, p, w0).w_star)


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
        seed=7, control_eta=0.02,
    )
    rep = msq_convergence(cfg)
    errs = [e for _, e in rep.checkpoints]
    assert errs[-1] < errs[0]
    assert rep.control[-1][1] > errs[-1]


@pytest.mark.parametrize("potential", ["squared_l2", "neg_entropy"])
@pytest.mark.parametrize("noise", ["gaussian", "uniform", "rademacher"])
@pytest.mark.bitwise
def test_msq_checkpoints_do_not_depend_on_the_chunk_size(potential, noise, monkeypatch):
    """The outputs reach the recursion in chunks of at most BLOCK_VALUES
    values; one chunk of all 1007 steps, chunks of four blocks of MAP_STEPS
    steps and chunks of one block (with the block maps made in groups of
    16 blocks, and of one) give the same checkpoints bit for bit, on the
    block maps and on the sequential path."""
    from mirrorkit import experiments

    cfg = make_config(
        potential=potential, loss="quadratic", dim=3, T=1007, n_trials=7,
        schedule={"kind": "robbins_monro", "c": 1.0}, noise={"kind": noise, "sigma2": 0.5},
        inputs={"kind": "basis_then_gaussian"}, seed=13, control_eta=0.02,
    )
    reports = []
    for block_values in (experiments.BLOCK_VALUES, 4 * MAP_STEPS * cfg.n_trials, 300, 1):
        monkeypatch.setattr(experiments, "BLOCK_VALUES", block_values)
        rep = msq_convergence(cfg)
        reports.append((rep.checkpoints, rep.control))
    assert [t for t, _ in reports[0][0]] == [100, 1000, 1007]
    assert reports[0] == reports[1] == reports[2] == reports[3]


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
    marks, snaps = _msq_runs(p, l, X, [(X @ w_true + v)[:, None]], [schedule], np.ones(3))
    traj = iterate(p, l, Linear(), X, X @ w_true + v, schedule, np.ones(3))
    np.testing.assert_allclose(snaps[120][0, 0], traj.iterates[-1], rtol=1e-12, atol=1e-14)


def test_engines_share_one_mirror_update_bitwise():
    """Every engine steps `mirror_steps` with the one SMD shift, so on one
    trajectory each gives the same iterates bit for bit: iterate, the batched
    convergence runner, the smd estimator (through its predictions), the
    prediction-driven recursion fed those predictions, and interpolating
    descent, whose trajectory is its rows cycled. (Batches of two or more
    trials take W @ x through BLAS, which can differ from the one-row dot
    product in the last bit.) The one exception is the convergence runner
    on the squared-L2 potential with the quadratic loss: it chains block
    maps of the LMS recursion, each built by running the dim basis trials
    backward through its steps (adjoint accumulation), which sums the same
    terms in another order, so there it matches to rtol 1e-12, not
    bitwise."""
    from mirrorkit import Constant, run_general_recursion
    from mirrorkit.experiments import _msq_runs

    from conftest import all_losses, all_potentials

    rng = RngStream(21, 0)
    rows = np.stack([np.asarray(rng.normal(3)) for _ in range(2)])
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    y = rows @ np.array([0.9, 1.4, 0.6])
    w0, eta = np.ones(3), 0.3
    for p in all_potentials(3):
        for l in all_losses():
            # the quartic's cubic shift crawls near feasibility, so it stops sooner
            tol = 5e-2 if isinstance(l, Quartic) else 1e-9
            w, steps, *_ = run_interpolating_descent(p, l, rows, y, w0, eta, feas_tol=tol, step_cap=1_000_000)
            assert steps > 2 * len(rows)
            X, Y = rows[np.arange(steps) % len(rows)], y[np.arange(steps) % len(rows)]
            traj = iterate(p, l, Linear(), X, Y, Constant(eta), w0)
            assert np.array_equal(traj.final, w)
            marks, snaps = _msq_runs(p, l, X, [Y[:, None]], [Constant(eta)], w0)
            for t in marks:
                if isinstance(p, SquaredL2) and isinstance(l, Quadratic):
                    np.testing.assert_allclose(snaps[t][0, 0], traj.iterates[t - 1], rtol=1e-12, atol=0)
                else:
                    assert np.array_equal(snaps[t][0, 0], traj.iterates[t - 1])
            _, predictions = estimator_predictions({"kind": "smd"}, p, l, eta, X, Y[None, :], w0)
            z = np.concatenate(list(predictions))
            assert np.array_equal(z, [x @ w for x, w in zip(X, traj.path)])
            gen = run_general_recursion(p, l, X, Y, z, eta, w0)
            assert np.array_equal(gen.path, traj.path)


@pytest.mark.bitwise
def test_msq_blocks_match_one_schedule_runs_bitwise():
    """Each block of a three-schedule run is the one-schedule run of its
    schedule, bit for bit, on the sequential path and on the block maps of
    the squared-L2 potential with the quadratic loss: the blocks share the
    outputs and never mix. The Constant(5.0) control overflows on five
    pairs (and on the block maps grows past 1e90 in these 150 steps), and
    some SeparableQ(1.5) runs diverge under the quartic loss; their NaNs
    must match too, and the control's overflow must leave the vanishing-rate
    block finite wherever its own run is."""
    from mirrorkit import Constant
    from mirrorkit.descent import RobbinsMonro
    from mirrorkit.experiments import _msq_runs

    from conftest import all_losses, all_potentials

    rng = RngStream(22, 0)
    X = np.stack([np.asarray(rng.normal(3)) for _ in range(150)])
    Y = (X @ np.array([0.9, 1.4, 0.6]))[:, None] + 0.3 * np.asarray(rng.normal((150, 5)))
    w0 = np.ones(3)
    schedules = [RobbinsMonro(0.5), Constant(0.02), Constant(5.0)]
    overflows = 0
    for p in all_potentials(3):
        for l in all_losses():
            with np.errstate(over="ignore", invalid="ignore"):
                marks, snaps = _msq_runs(p, l, X, [Y], schedules, w0)
                alones = [_msq_runs(p, l, X, [Y], [s], w0)[1] for s in schedules]
            for b, alone in enumerate(alones):
                for t in marks:
                    assert snaps[t].shape == (3, 5, 3)
                    assert np.array_equal(snaps[t][b], alone[t][0], equal_nan=True)
            vanishing, control = snaps[150][0], snaps[150][2]
            if not np.isfinite(control).all():
                overflows += 1
                assert np.isfinite(vanishing).all() or not np.isfinite(alones[0][150]).all()
            if isinstance(p, SquaredL2) and isinstance(l, Quadratic):
                assert np.abs(control).max() > 1e90 and np.isfinite(vanishing).all()
    assert overflows == 5


@pytest.mark.parametrize("T", sorted({
    1, 9, 10, 11, MAP_STEPS - 1, MAP_STEPS, MAP_STEPS + 1, 2 * MAP_STEPS + 1, 1007}))
@pytest.mark.parametrize("n_runs", [1, 4])
@pytest.mark.parametrize("n_schedules", [1, 2])
@pytest.mark.bitwise
def test_msq_block_maps_match_the_sequential_recursion(T, n_schedules, n_runs):
    """On the squared-L2 potential with the quadratic loss, `_msq_runs`
    chains block maps of the LMS recursion. At every checkpoint each
    schedule's block must match a batch `iterate` run (one input row per
    trial) on the same outputs from a non-zero start. The horizons follow
    the block length K = MAP_STEPS: shorter than a block (1, K - 1, and
    9 to 11), on a block end (K), and with a padded last block (K + 1,
    2K + 1 and 1007)."""
    from mirrorkit.descent import Constant, RobbinsMonro
    from mirrorkit.experiments import _msq_runs

    rng = RngStream(23, T)
    X = np.asarray(rng.normal((T, 3)))
    Y = (X @ np.array([0.9, 1.4, 0.6]))[:, None] + 0.3 * np.asarray(rng.normal((T, n_runs)))
    w0 = np.array([0.5, -1.0, 2.0])
    schedules = [RobbinsMonro(0.5), Constant(0.05)][:n_schedules]
    p, l = SquaredL2(3), Quadratic()
    marks, snaps = _msq_runs(p, l, X, [Y], schedules, w0)
    assert marks == sorted({c for c in (100, 1000) if c <= T} | {T})
    rows = np.broadcast_to(X, (n_runs, T, 3))
    for b, schedule in enumerate(schedules):
        traj = iterate(p, l, Linear(), rows, Y.T, schedule, w0)
        for t in marks:
            assert snaps[t].shape == (n_schedules, n_runs, 3)
            np.testing.assert_allclose(snaps[t][b], traj.path[:, t], rtol=1e-12, atol=0)


@pytest.mark.parametrize("block_values", [None, 36])
@pytest.mark.parametrize("T", [MAP_STEPS - 1, 2 * MAP_STEPS, 4 * MAP_STEPS + 7])
@pytest.mark.bitwise
def test_lms_maps_match_the_forward_construction(T, block_values, monkeypatch):
    """`_lms_maps` runs the dim basis trials backward through each block;
    each block's (Phi, G) must match the forward construction (K impulse
    and dim basis trials run forward through `mirror_steps`) at rtol 1e-12,
    on random inputs under two schedules: for one padded block, on block
    ends, and with a padded last block. BLOCK_VALUES 36 makes groups of two
    blocks (two schedules, dim 3), so the maps also cross group ends."""
    from mirrorkit import experiments
    from mirrorkit.descent import Constant, RobbinsMonro, smd_shift

    if block_values is not None:
        monkeypatch.setattr(experiments, "BLOCK_VALUES", block_values)
    rng = RngStream(24, T)
    X = np.asarray(rng.normal((T, 3)))
    etas = np.stack([RobbinsMonro(0.5).rates(T), Constant(0.05).rates(T)])
    p, shift = SquaredL2(3), smd_shift(Quadratic(), Linear())
    Phi, G = forward_lms_maps(p, X, etas, shift, MAP_STEPS)
    maps = list(experiments._lms_maps(p, X, etas, shift))
    assert len(maps) == Phi.shape[1] == -(-T // MAP_STEPS)
    for j, (phi, g) in enumerate(maps):
        np.testing.assert_allclose(phi, Phi[:, j], rtol=1e-12, atol=0)
        np.testing.assert_allclose(g, G[:, j], rtol=1e-12, atol=0)


def test_shuffled_epochs_reach_same_limit():
    """Epoch shuffling changes the path but not the interpolating limit."""
    rng = np.random.default_rng(31)
    X = rng.standard_normal((4, 12))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    w_plant = rng.standard_normal(12)
    y = X @ w_plant
    p, l = SquaredL2(12), Quadratic()
    w_fixed, *_ = run_interpolating_descent(p, l, X, y, np.zeros(12), 0.5, 1e-9, 1_000_000)
    order = rng.permutation(len(X))
    w_shuf, *_ = run_interpolating_descent(p, l, X[order], y[order], np.zeros(12), 0.5, 1e-9, 1_000_000)
    assert np.max(np.abs(w_fixed - w_shuf)) < 1e-7


def test_risk_dominance_paired_bootstrap():
    """Mean cost gap smd minus competitor stays nonpositive at 95% confidence."""
    rep = risk_compare(_gaussian_cfg(n_trials=4000))
    smd = rep.entry("smd")
    for e in rep.entries:
        if e.name in ("constant", "scaled_smd(0.5)", "scaled_smd(2)"):
            _, hi = bootstrap_basic_ci(smd.costs - e.costs, np.random.default_rng(3))
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
    X = np.array([[x1], [x2]])
    XW = np.stack([x1 * Wmc, x2 * Wmc], axis=1)
    Y = XW + np.stack([V1, V2], axis=1)
    for kind, target in [("smd", quad_smd), ("constant", quad_const)]:
        _, predictions = estimator_predictions(
            {"kind": kind}, SquaredL2(1), l, eta, X, Y, np.array([w0])
        )
        S = np.zeros(n)
        for i, z in enumerate(predictions):
            S += l.bregman(Y[:, i] - XW[:, i], Y[:, i] - z)
        costs = np.exp(S)
        band = 4.0 * costs.std(ddof=1) / np.sqrt(n)
        assert abs(costs.mean() - target) <= band
