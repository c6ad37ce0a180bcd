import numpy as np
import pytest

from mirrorkit.config import make_config
from mirrorkit.datagen import (
    gaussian_inputs,
    generate_problem,
    generate_problems,
    input_draw,
    planted_weight,
    prior_scale,
    unit_rows,
)
from mirrorkit.samplers import (
    ExpFamilySpec,
    RngStream,
    box_muller,
    one_draw,
    sample_noise,
    sample_weight,
    sample_white_noise,
)

from conftest import CounterStream

# CI re-runs this module off numpy's AVX512 loops
pytestmark = pytest.mark.bitwise


def _per_row(dim, count, rng, unit=False, scale=1.0, basis=0):
    """Reference: the first `basis` rows sweep the standard basis, then one
    rng.normal(dim) draw per row, each normalized on its own."""
    rows = [np.eye(dim)[j] for j in range(basis)]
    for _ in range(count - basis):
        x = rng.normal(dim)
        rows.append(x / np.linalg.norm(x) if unit else x)
    return scale * np.array(rows).reshape(count, dim)


@pytest.mark.parametrize("dim", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("count", [0, 1, 15, 200])
def test_inputs_match_per_row_draws_bit_for_bit(dim, count):
    for seed in range(5):
        for unit in (False, True):
            got = gaussian_inputs(dim, count, RngStream(seed, 0), unit=unit, scale=1.5)
            ref = _per_row(dim, count, RngStream(seed, 0), unit=unit, scale=1.5)
            assert got.shape == (count, dim) and np.array_equal(got, ref)
        got = one_draw(input_draw(dim, count, "basis_then_gaussian", 1.5), RngStream(seed, 0))
        ref = _per_row(dim, count, RngStream(seed, 0), scale=1.5, basis=min(dim, count))
        assert got.shape == (count, dim) and np.array_equal(got, ref)


def test_unit_rows_have_norm_one_and_a_zero_row_falls_back_to_e0():
    X = gaussian_inputs(5, 2000, RngStream(3, 0), unit=True)
    assert np.max(np.abs(np.linalg.norm(X, axis=1) - 1.0)) <= 1e-15
    rows = np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 4.0], [1e-13, -1e-13, 0.0]])
    expected = [[1.0, 0.0, 0.0], [0.6, 0.0, 0.8], [1.0, 0.0, 0.0]]
    np.testing.assert_array_equal(unit_rows(rows.copy()), expected)
    # a batch of trials normalizes each trial's rows alike
    np.testing.assert_array_equal(unit_rows(np.stack([rows, rows[::-1]])), [expected, expected[::-1]])


@pytest.mark.parametrize("dim, count", [(1, 4), (2, 7), (3, 5), (6, 3)])
def test_single_stream_entry_points_keep_their_draws(dim, count):
    """On an RngStream, the inputs, planted weights and white noises are the
    Box-Muller (or direct) transforms of the stream's uniforms, drawn in one
    call each, as they always were."""
    width = dim + dim % 2
    for seed in range(3):
        rows = box_muller(RngStream(seed, 0).uniform((count, width)), dim)
        assert np.array_equal(gaussian_inputs(dim, count, RngStream(seed, 0), scale=2.0), 2.0 * rows)
        unit = np.array([r / np.linalg.norm(r) for r in rows]).reshape(count, dim)
        assert np.array_equal(gaussian_inputs(dim, count, RngStream(seed, 0), unit=True), unit)

        z = box_muller(RngStream(seed, 1).uniform((1, width)), dim)[0]
        support = min(2, dim)
        idx = np.argsort(-np.abs(z))[:support]
        sparse = np.zeros(dim)
        sparse[idx] = np.sign(z[idx]) * (1.0 + np.abs(z[idx]))
        for kind, expected in [("gaussian", z), ("positive", np.abs(z) + 0.5), ("sparse", sparse)]:
            planted = {"kind": kind, "support": 2} if kind == "sparse" else {"kind": kind}
            cfg = make_config(dim=dim, planted=planted)
            got = planted_weight(cfg, cfg.build_potential(), RngStream(seed, 1))
            assert np.array_equal(got, expected), kind

        sd = np.sqrt(2.5)
        u = RngStream(seed, 2).uniform(count)
        expected = {
            "gaussian": sd * box_muller(RngStream(seed, 2).uniform((1, count + count % 2)), count)[0],
            "uniform": (u - 0.5) * np.sqrt(12.0) * sd,
            "rademacher": np.where(u < 0.5, -sd, sd),
        }
        for kind, values in expected.items():
            got = sample_white_noise(kind, 2.5, RngStream(seed, 2), count)
            assert np.array_equal(got, values), kind


PROBLEM_CONFIGS = {
    "unit_model_l2": dict(inputs={"kind": "unit"}),
    "gaussian_model_entropy_logcosh": dict(potential="neg_entropy", loss="logcosh", w0=1.0,
                                           inputs={"kind": "gaussian", "scale": 0.5}),
    "basis_model_q3_quartic": dict(potential={"kind": "separable_q", "q": 3.0}, loss="quartic",
                                   w0=1.0, inputs={"kind": "basis_then_gaussian"}),
    "unit_none_planted_gaussian": dict(inputs={"kind": "unit"}, noise={"kind": "none"},
                                       planted={"kind": "gaussian"}),
    "gaussian_gaussian_planted_positive": dict(noise={"kind": "gaussian", "sigma2": 0.3},
                                               planted={"kind": "positive"}),
    "basis_uniform_planted_sparse": dict(inputs={"kind": "basis_then_gaussian", "scale": 2.0},
                                         noise={"kind": "uniform"}, planted={"kind": "sparse", "support": 2}),
    "unit_rademacher_entropy_auto": dict(potential="neg_entropy", w0=1.0, inputs={"kind": "unit"},
                                         noise={"kind": "rademacher"}),
    "glm_tanh": dict(model={"kind": "glm", "link": "tanh"}, inputs={"kind": "unit"}),
}


def _trial_problem(cfg, t):
    """Trial t by the single-stream samplers, run in order on its counter
    stream: inputs, then the weight, then the noises."""
    rng = CounterStream(cfg.seed, t)
    kind, scale = cfg.inputs["kind"], cfg.inputs["scale"]
    if kind == "basis_then_gaussian":
        X = one_draw(input_draw(cfg.dim, cfg.T, kind, scale), rng)
    else:
        X = gaussian_inputs(cfg.dim, cfg.T, rng, unit=kind == "unit", scale=scale)
    p, l = cfg.build_potential(), cfg.build_loss()
    if cfg.noise["kind"] == "model":
        prior = ExpFamilySpec(p, cfg.w0_vector(), prior_scale(cfg))
        w = sample_weight(prior, rng)
        v = sample_noise(l, rng, size=cfg.T)
    else:
        w = planted_weight(cfg, p, rng)
        v = np.zeros(cfg.T)
        if cfg.noise["kind"] != "none":
            v = sample_white_noise(cfg.noise["kind"], cfg.noise["sigma2"], rng, cfg.T)
    y = np.array([cfg.build_model().g(np.dot(x, w)) for x in X]) + v
    return {"w_true": w, "X": X, "Y": y, "noises": v}


@pytest.mark.parametrize("overrides", PROBLEM_CONFIGS.values(), ids=PROBLEM_CONFIGS)
def test_generated_trials_depend_only_on_seed_and_index(overrides):
    cfg = make_config(dim=3, T=7, seed=41, schedule={"kind": "constant", "eta": 0.05}, **overrides)
    batch = generate_problems(cfg, 9)
    assert batch.X.shape == (9, 7, 3) and batch.Y.shape == batch.noises.shape == (9, 7)
    head = generate_problems(cfg, 4)
    for name, value in vars(head).items():
        assert np.array_equal(value, getattr(batch, name)[:4]), name
    for t in (0, 3, 8):
        for name, value in _trial_problem(cfg, t).items():
            assert np.array_equal(getattr(batch, name)[t], value), (t, name)
    # each trial has its own inputs, weight and noises
    assert not np.array_equal(batch.X[0], batch.X[1])
    assert not np.array_equal(batch.w_true[0], batch.w_true[1])
    assert cfg.noise["kind"] == "none" or not np.array_equal(batch.noises[0], batch.noises[1])


@pytest.mark.parametrize("inputs", ["gaussian", "unit", "basis_then_gaussian"])
@pytest.mark.parametrize("noise", ["model", "none", "gaussian", "uniform", "rademacher"])
def test_the_single_problem_is_trial_zero(noise, inputs):
    # run and audit check exactly the problem that minimax calls trial 0
    cfg = make_config(potential="neg_entropy", w0=1.0, dim=3, T=7, seed=41,
                      schedule={"kind": "constant", "eta": 0.05},
                      inputs={"kind": inputs}, noise={"kind": noise})
    one, batch = generate_problem(cfg), generate_problems(cfg, 3)
    for name, value in vars(one).items():
        assert value.shape == getattr(batch, name).shape[1:], name
        assert np.array_equal(value, getattr(batch, name)[0]), name
