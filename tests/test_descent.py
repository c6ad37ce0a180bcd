import numpy as np
import pytest

from mirrorkit import (
    ConfigError,
    Constant,
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
    convexity_margin,
    iterate,
    persistent_excitation,
)
from mirrorkit.cli import _iterate
from mirrorkit.config import make_config
from mirrorkit.descent import _dot, mirror_steps, premise_holds, smd_shift
from mirrorkit.datagen import gaussian_inputs, generate_problem, generate_problems
from mirrorkit.samplers import RngStream

from conftest import all_losses, all_potentials, einsum_rowdot, random_in_domain, rank_one_premise


def _one_step(p, l, w, x, y, eta, algorithm="smd"):
    """w_1 of `iterate` run for one step (T = 1) from w on the observation (x, y)."""
    traj = iterate(p, l, Linear(), np.asarray(x)[None], np.array([y]), Constant(eta), w, algorithm=algorithm)
    return traj.final


def test_smd_step_is_lms_for_quadratic_l2():
    w, x, y, eta = np.zeros(2), np.array([1.0, 1.0]), 1.0, 0.1
    out = _one_step(SquaredL2(2), Quadratic(), w, x, y, eta)
    np.testing.assert_allclose(out, w + eta * x * (y - x @ w), rtol=1e-15)
    np.testing.assert_allclose(out, [0.1, 0.1])


def test_smd_step_exponentiated_gradient():
    w, x, y, eta = np.array([1.0, 1.0]), np.array([1.0, 0.0]), 2.0, 0.5
    out = _one_step(NegEntropy(2), Quadratic(), w, x, y, eta)
    np.testing.assert_allclose(out, w * np.exp(eta * x * (y - x @ w)), rtol=1e-12)
    np.testing.assert_allclose(out, [np.exp(0.5), 1.0], rtol=1e-12)


def test_smd_fixed_point_is_exact(rng):
    # a zero residual shifts the mirror state by exactly zero, so the step
    # is the round trip through the mirror map
    for p in all_potentials(3):
        for l in all_losses():
            w = random_in_domain(p, rng)
            x = np.asarray(rng.normal(size=3))
            out = _one_step(p, l, w, x, float(x @ w), 0.3)
            assert np.array_equal(out, p.grad_inv(p.grad(w)))


def test_ssmd_examples():
    # squared-L2 symmetric step: w + eta * x * (l'(y) - l'(x^T w))
    for l, w, y, expected in [
        (Quadratic(), np.zeros(1), 1.0, [0.1]),
        (Quartic(), np.ones(1), 1.0, [1.0]),
        (Quartic(), np.zeros(1), 2.0, [0.8]),
    ]:
        x, eta = np.array([1.0]), 0.1
        out = _one_step(SquaredL2(1), l, w, x, y, eta, algorithm="ssmd")
        np.testing.assert_allclose(out, w + eta * x * (l.deriv(y) - l.deriv(x @ w)), rtol=1e-15)
        np.testing.assert_allclose(out, expected)


def test_ssmd_equals_smd_for_quadratic(rng):
    for p in all_potentials(3):
        for _ in range(30):
            w = random_in_domain(p, rng)
            x = np.asarray(rng.normal(size=3))
            y = float(rng.normal())
            a = _one_step(p, Quadratic(), w, x, y, 0.2)
            b = _one_step(p, Quadratic(), w, x, y, 0.2, algorithm="ssmd")
            assert np.max(np.abs(a - b)) < 1e-12


def test_mirror_domain_additivity(rng):
    stream = RngStream(3, 0)
    for p in all_potentials(3):
        l = Quadratic()
        X = gaussian_inputs(3, 25, stream)
        w_true = random_in_domain(p, rng)
        Y = X @ w_true + 0.1 * rng.normal(size=25)
        traj = iterate(p, l, Linear(), X, Y, Constant(0.05), random_in_domain(p, rng))
        for i, (x, y) in enumerate(zip(X, Y), 1):
            w_prev = traj.path[i - 1]
            w_next = traj.iterates[i - 1]
            lhs = p.grad(w_next) - p.grad(w_prev)
            rhs = 0.05 * x * l.deriv(y - float(x @ w_prev))
            assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_sgd_equivalence_bitwise(rng):
    """SGD is SMD with the squared-L2 potential: iterate on SquaredL2 gives
    the plain gradient steps w += eta * l'(y - x^T w) * x bit for bit."""
    stream = RngStream(11, 0)
    X = gaussian_inputs(4, 100, stream)
    w_true = np.asarray(rng.normal(size=4))
    Y = X @ w_true + 0.2 * rng.normal(size=100)
    w0 = np.asarray(rng.normal(size=4))
    for l in (Quadratic(), LogCosh()):  # the quartic diverges on these inputs
        smd = iterate(SquaredL2(4), l, Linear(), X, Y, Constant(0.05), w0)
        w = w0
        for x, y, w_smd in zip(X, Y, smd.iterates):
            w = w + 0.05 * l.deriv(y - x @ w) * x
            assert np.array_equal(w, w_smd)


def test_positive_orthant_preserved(rng):
    stream = RngStream(5, 0)
    p = NegEntropy(3)
    X = gaussian_inputs(3, 200, stream)
    w_true = np.abs(rng.normal(size=3)) + 0.3
    Y = X @ w_true + 0.3 * rng.normal(size=200)
    traj = iterate(p, Quadratic(), Linear(), X, Y, Constant(0.05), np.ones(3))
    for w in traj.iterates:
        assert np.all(w > 0)


def test_empty_stream_echoes_start():
    cfg = make_config(T=0, dim=2, seed=1)
    traj = _iterate(cfg, generate_problem(cfg))
    assert len(traj.iterates) == 0
    np.testing.assert_allclose(traj.final, cfg.w0_vector())


def test_configured_run_is_iterate_on_its_problem():
    """The CLI's configured run is `iterate` on the problem's own data, one
    run or a batch; a batch's row t is trial t run alone."""
    cfg = make_config(potential="neg_entropy", loss="quadratic", dim=3, T=20, w0=1.0, seed=4,
                      schedule={"kind": "constant", "eta": 0.05})
    problem = generate_problem(cfg)
    traj = _iterate(cfg, problem)
    np.testing.assert_array_equal(traj.X, problem.X)
    np.testing.assert_array_equal(traj.Y, problem.Y)
    expected = iterate(NegEntropy(3), Quadratic(), Linear(), problem.X, problem.Y, Constant(0.05), np.ones(3))
    np.testing.assert_array_equal(traj.path, expected.path)
    problems = generate_problems(cfg, 3)
    batch = _iterate(cfg, problems)
    assert batch.path.shape == (3, 21, 3)
    np.testing.assert_array_equal(batch.Y, problems.Y)


def test_noiseless_consistent_data_interpolates():
    cfg = make_config(
        potential="squared_l2", loss="quadratic", dim=3, T=400,
        schedule={"kind": "constant", "eta": 0.2}, noise={"kind": "none"},
        inputs={"kind": "unit"}, seed=2,
    )
    problem = generate_problem(cfg)
    traj = _iterate(cfg, problem)
    residuals = np.abs(problem.Y - problem.X @ traj.final)
    assert max(residuals) < 1e-6


def test_domain_error_reports_step_index():
    p = NegEntropy(1)
    # a huge negative mirror shift underflows exp to exactly 0, leaving the domain
    with pytest.raises(DomainError, match="step 1"):
        iterate(p, Quadratic(), Linear(), [[1.0]], [-50.0], Constant(50.0), np.array([1e-3]))
    # a batch names the first step at which any trial left: trial 1 leaves
    # at step 3, trial 0 at step 2, and trial 2 stays inside
    X = np.array([[[0.0], [1.0], [0.0]], [[0.0], [0.0], [1.0]], [[0.0], [0.0], [0.0]]])
    with pytest.raises(DomainError, match="step 2"):
        iterate(p, Quadratic(), Linear(), X, np.full((3, 3), -50.0), Constant(50.0), np.array([1e-3]))


@pytest.mark.parametrize("X, Y", [
    ([[np.nan, 1.0], [0.0, 1.0]], [0.5, 0.5]),
    ([[np.inf, 1.0], [0.0, 1.0]], [0.5, 0.5]),
    ([[1.0, 1.0], [0.0, 1.0]], [0.5, np.nan]),
    ([[1.0, 1.0], [0.0, 1.0]], [-np.inf, 0.5]),
    ([[1.0, 1.0], [0.0, 1.0]], [0.5]),
    ([[1.0, 1.0]], [0.5, 0.5]),
    ([[1.0, 1.0, 1.0], [0.0, 1.0, 1.0]], [0.5, 0.5]),
    ([1.0, 1.0], [0.5, 0.5]),
    # batches of trials: mismatched step counts, a 3-D Y, a NaN in one trial
    (np.zeros((2, 3, 2)), np.zeros((2, 4))),
    (np.zeros((1, 2, 3, 2)), np.zeros((1, 2, 3))),
    (np.zeros((2, 3, 2)), [[0.5, 0.5, 0.5], [0.5, np.nan, 0.5]]),
])
def test_iterate_rejects_bad_observations(X, Y):
    with pytest.raises(ValueError):
        iterate(SquaredL2(2), Quadratic(), Linear(), X, Y, Constant(0.1), np.zeros(2))


@pytest.mark.bitwise
def test_mirror_steps_per_trial_rows_equal_row_loop(rng):
    shift = lambda x, y, W: y  # the shift as data, as in the prediction-driven recursion
    for p in all_potentials(3):
        W = np.array([random_in_domain(p, rng) for _ in range(6)])
        X, S = rng.standard_normal((4, 6, 3)), rng.standard_normal((4, 6))
        for x in (X, X[:, 0]):  # one input row per trial, or one shared input
            batch = list(mirror_steps(p, W, x, S, [0.05] * 4, shift))
            for t in range(6):
                alone = mirror_steps(p, W[t], x if x.ndim == 2 else x[:, t], S[:, t], [0.05] * 4, shift)
                for W1, w in zip(batch, alone):
                    assert np.array_equal(W1[t], w)
        # a shared input with a 2-D batch of trials, (2, 3, dim)
        blocks = list(mirror_steps(p, W.reshape(2, 3, 3), X[:, 0], S.reshape(4, 2, 3), [0.05] * 4, shift))
        for t in range(6):
            alone = mirror_steps(p, W[t], X[:, 0], S[:, t], [0.05] * 4, shift)
            for W1, w in zip(blocks, alone):
                assert np.array_equal(W1[t // 3, t % 3], w)


@pytest.mark.bitwise
def test_dot_of_a_shared_input_is_the_matmul_bitwise(rng):
    """`_dot` takes W.dot(x) on 1-D and 2-D states and @ on a 3-D one; each
    equals W @ x bit for bit, where the 3-D dot would not."""
    for _ in range(200):
        dim = int(rng.integers(1, 6))
        x = rng.standard_normal(dim)
        for shape in ((dim,), (int(rng.integers(1, 40)), dim), (int(rng.integers(1, 4)), int(rng.integers(1, 40)), dim)):
            W = rng.standard_normal(shape) * 10.0 ** int(rng.integers(-5, 6))
            assert np.array_equal(_dot(x, W), W @ x), shape


@pytest.mark.bitwise
def test_smd_shift_of_the_quadratic_loss_is_the_residual_plus_zero_bitwise(rng):
    """The quadratic loss's shift on the linear model is r + 0.0 of the
    residual r bit for bit, and a -0.0 residual gives +0.0."""
    shift = smd_shift(Quadratic(), Linear())
    for W in (rng.standard_normal(3), rng.standard_normal((5, 3))):
        x = rng.standard_normal(3)
        for y in (rng.standard_normal(W.shape[:-1]), _dot(x, W), -0.0 * np.ones(W.shape[:-1])):
            for xx in (x, np.zeros(3)):
                got, want = shift(xx, y, W), y - _dot(xx, W) + 0.0
                assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
    got = shift(np.zeros(3), -0.0, np.ones(3))  # -0.0 - 0.0 is -0.0
    assert got == 0.0 and not np.signbit(got)


@pytest.mark.bitwise
def test_mirror_steps_take_a_shift_that_returns_a_python_float(rng):
    """A 0-d coefficient, here a Python float with no `ndim` and no
    `[..., None]`, multiplies x directly, bit for bit as a numpy one."""
    p, l = NegEntropy(3), Quadratic()
    w0 = random_in_domain(p, rng)
    X, Y = rng.standard_normal((20, 3)), rng.standard_normal(20)
    shift = smd_shift(l, Linear())
    floats = list(mirror_steps(p, w0, X, Y.tolist(), [0.05] * 20, lambda x, y, W: float(shift(x, y, W))))
    arrays = list(mirror_steps(p, w0, X, Y, [0.05] * 20, shift))
    assert np.array_equal(floats, arrays)


def test_ssmd_requires_linear():
    with pytest.raises(ConfigError):
        iterate(
            SquaredL2(1), Quadratic(), GeneralizedLinear("tanh"),
            [[1.0]], [0.5], Constant(0.1), np.zeros(1),
            algorithm="ssmd",
        )


def test_glm_jacobian_matches_finite_differences(rng):
    """The Jacobian g'(x^T w) x and the loss curvature rest on g_prime and
    g_second: each matches central differences of the derivative below it."""
    h = 1e-6
    u = 3.0 * np.asarray(rng.normal(size=60))
    for link in ("tanh", "softplus"):
        m = GeneralizedLinear(link)
        for f, df in ((m.g, m.g_prime), (m.g_prime, m.g_second)):
            fd = (f(u + h) - f(u - h)) / (2 * h)
            np.testing.assert_allclose(fd, df(u), rtol=1e-6, atol=1e-8)


def test_convexity_margin_lms_bound(rng):
    x = np.asarray(rng.normal(size=3))
    W, X, Y = np.zeros((1, 3)), x[None, :], [0.7]
    for eta in (0.05, 0.2):
        margin = convexity_margin(SquaredL2(3), Quadratic(), Linear(), eta, W, X, Y)
        assert margin == pytest.approx(1.0 - eta * float(x @ x), abs=1e-10)
    eta_star = 1.0 / float(x @ x)
    assert abs(convexity_margin(SquaredL2(3), Quadratic(), Linear(), eta_star, W, X, Y)) < 1e-10


def test_convexity_margin_entropy_small_eta(rng):
    w = np.abs(rng.normal(size=3)) + 0.2
    x = np.abs(rng.normal(size=3)) + 0.1
    margin = convexity_margin(NegEntropy(3), Quadratic(), Linear(), 1e-9, w[None, :], x[None, :], [0.0])
    assert margin == pytest.approx(1.0 / np.max(w), rel=1e-6)


def _finite_difference_margin(p, l, m, eta, w, x, y, h=1e-5):
    """Oracle: eigvalsh of hess psi - eta * a central-difference loss Hessian."""
    grad = lambda v: -m.g_prime(x @ v) * x * l.deriv(y - m.g(x @ v))
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
                    x, y = rng.normal(size=3), float(rng.normal())
                    eta = 10.0 ** rng.uniform(-2.0, 1.0)
                    oracle = _finite_difference_margin(p, l, m, eta, w, x, y)
                    if abs(oracle) < 1e-6:
                        continue
                    holds = premise_holds(p, l, m, eta, w[None, :], x[None, :], np.array([y]))
                    assert bool(holds[0]) == (oracle >= 0.0), (p, l, m, eta, oracle)
                    margin = convexity_margin(p, l, m, eta, w[None, :], x[None, :], [y])
                    assert margin == pytest.approx(oracle, rel=1e-6, abs=1e-6)
                    verdicts.append(bool(holds[0]))
    assert len(verdicts) > 300 and 0 < sum(verdicts) < len(verdicts)


@pytest.mark.bitwise
def test_lms_premise_in_closed_form_decides_as_the_rank_one_rule_bitwise(rng):
    """On the squared-L2 potential with the quadratic loss and the linear
    model, `premise_holds` decides eta * |x|^2 <= 1 where the residual is
    finite; the general rank-one computation must reach the same decision on
    every probe, at the bound and one float above it too."""
    p, l, m = SquaredL2(3), Quadratic(), Linear()

    def same(eta, W, X, Y):
        holds = premise_holds(p, l, m, eta, W, X, Y)
        assert np.array_equal(holds, rank_one_premise(p, l, m, eta, W, X, Y))
        return holds

    for scale in (0.3, 1.0, 3.0):
        W, Y = rng.normal(size=(2, 500, 3)), rng.normal(size=500)
        # the inputs shared by both probe rows, one row per probe, and a strided view
        wide = scale * rng.normal(size=(2, 500, 5))
        for X in (wide[0, :, :3][None], wide[..., :3].copy(), wide[..., 1:4]):
            for eta in (0.05, 0.2, 1.0):
                assert same(eta, W, X, Y).shape == (2, 500)
            # rates at each of the first rows' own bound, computed as the rule computes |x|^2
            for eta in 1.0 / einsum_rowdot(X, X)[0, :20]:
                same(eta, W, X, Y)
    x = np.array([[2.0, 0.0, 0.0]])
    assert same(0.25, rng.normal(size=(1, 3)), x, np.array([0.7])).all()
    above = np.nextafter(0.25, 1.0)
    assert above * 4.0 == np.nextafter(1.0, 2.0)
    assert not same(above, rng.normal(size=(1, 3)), x, np.array([0.7])).any()
    assert same(0.7, np.zeros((4, 3)), np.zeros((4, 3)), np.zeros(4)).all()
    assert same(1e300, rng.normal(size=(4, 3)), np.zeros((4, 3)), rng.normal(size=4)).all()
    # a finite state whose prediction or residual overflows, and a non-finite output
    with np.errstate(over="ignore", invalid="ignore"):
        W = np.array([[1e300, 0.0, 0.0], [1e308, 1e308, 0.0], [0.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
        X = np.array([[1e10, 0.0, 0.0], [0.5, 0.5, 0.0], [0.0, 0.5, 0.0], [0.0, 0.5, 0.0]])
        Y = np.array([0.0, -1e308, np.inf, np.nan])
        assert not same(0.1, W, X, Y).any()
        # a state holding inf or nan, which the rank-one rule refuses as off the domain
        W = np.array([[np.inf, 0.0, 0.0], [0.0, -np.inf, 1.0], [np.nan, 0.0, 0.0], [0.0, 0.0, np.nan]])
        assert not premise_holds(p, l, m, 0.1, W, np.full((4, 3), 0.5), np.zeros(4)).any()
        with pytest.raises(DomainError):
            rank_one_premise(p, l, m, 0.1, W, np.full((4, 3), 0.5), np.zeros(4))


@pytest.mark.bitwise
def test_unmasked_premise_decides_as_the_masked_rank_one_rule_bitwise(rng):
    """Only `SeparableQ` excludes coordinates, so on every other potential
    `premise_holds` takes no kept-coordinate mask; the masked rank-one rule
    must reach the same decision on every probe: random batches, probes at
    the bound and one float above it, NaN curvature and overflowing residuals."""
    models = (Linear(), GeneralizedLinear("tanh"), GeneralizedLinear("softplus"))
    triples = [(p, l, m) for p in (SquaredL2(3), NegEntropy(3)) for l in all_losses() for m in models
               if not (p.kind == "squared_l2" and l.kind == "quadratic" and m.kind == "linear")]
    assert len(triples) == 17

    def same(p, l, m, eta, W, X, Y):
        holds = premise_holds(p, l, m, eta, W, X, Y)
        assert np.array_equal(holds, rank_one_premise(p, l, m, eta, W, X, Y)), (p, l, m, eta)
        return holds

    decided = []
    for p, l, m in triples:
        W = np.array([[random_in_domain(p, rng) for _ in range(300)] for _ in range(2)])
        Y = rng.normal(size=300)
        for scale in (0.3, 1.0, 3.0):
            X = scale * rng.normal(size=(300, 3))
            for eta in (0.01, 0.1, 1.0):
                decided.extend(same(p, l, m, eta, W, X, Y).ravel())
    assert 0 < sum(decided) < len(decided)
    # eta * c * x^T D^{-1} x exactly 1, and the next rate above it: the linear model at
    # u = 0.25 with c = 1 and D = 1 / w = 4 on the one input coordinate
    w, x = np.array([[0.25, 1.0, 1.0]]), np.array([[1.0, 0.0, 0.0]])
    above = np.nextafter(4.0, 5.0)
    assert above * 0.25 == np.nextafter(1.0, 2.0)
    assert same(NegEntropy(3), Quadratic(), Linear(), 4.0, w, x, np.array([0.7])).all()
    assert not same(NegEntropy(3), Quadratic(), Linear(), above, w, x, np.array([0.7])).any()
    # the tanh link at u = 0 has g' = 1 and g'' = 0, and log-cosh has l''(0) = 1
    w, x = np.zeros((1, 3)), np.array([[2.0, 0.0, 0.0]])
    tanh = GeneralizedLinear("tanh")
    assert same(SquaredL2(3), LogCosh(), tanh, 0.25, w, x, np.zeros(1)).all()
    assert not same(SquaredL2(3), LogCosh(), tanh, np.nextafter(0.25, 1.0), w, x, np.zeros(1)).any()
    with np.errstate(over="ignore", invalid="ignore"):
        # a NaN output makes the curvature NaN, which fails the probe
        for p, l, m in triples:
            W = np.ones((2, 3))
            assert not same(p, l, m, 0.1, W, np.full((2, 3), 0.5), np.array([np.nan, np.nan])).any()
        # finite states and inputs whose prediction or residual overflows
        W = np.array([[1e300, 1.0, 1.0], [1e308, 1e308, 1.0], [1.0, 1.0, 1.0]])
        X = np.array([[1e10, 0.0, 0.0], [0.5, 0.5, 0.0], [0.0, 0.5, 0.0]])
        Y = np.array([0.0, -1e308, np.inf])
        for p, l, m in triples:
            same(p, l, m, 0.1, W, X, Y)


def test_persistent_excitation_basis():
    m = 4
    X = np.eye(m)[np.arange(3 * m) % m]
    assert persistent_excitation(X, 1.0) == (True, m)


def test_persistent_excitation_rank_deficient():
    X = np.tile([1.0, 0.0], (10, 1))
    assert persistent_excitation(X, 0.01) == (False, 0)


def test_persistent_excitation_gaussian_matches_eig_oracle():
    stream = RngStream(17, 0)
    xs = gaussian_inputs(5, 60, stream)
    ok, T = persistent_excitation(xs, 0.1)
    assert ok
    # any iterable of rows works, and is read only up to T
    rest = (x for x in xs)
    assert persistent_excitation(rest, 0.1) == (ok, T)
    assert len(list(rest)) == len(xs) - T
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
    harmonic = s.rates(10_000).sum()
    harmonic_smaller = s.rates(1_000).sum()
    assert harmonic > harmonic_smaller + 2.0 * np.log(10.0) * 0.99
    squares = np.square(s.rates(100_000)).sum()
    assert squares < 4.0 * np.pi**2 / 6.0 + 1e-6


def test_schedules_validate():
    with pytest.raises(ValueError):
        Constant(0.0)
    with pytest.raises(ValueError):
        RobbinsMonro(-1.0)
    assert Constant(0.3).rates(7)[6] == 0.3
    assert RobbinsMonro(2.0).rates(4)[3] == 0.5
