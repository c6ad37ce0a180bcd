import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import ks_2samp, kstest

from mirrorkit import (
    ExpFamilySpec,
    GridError,
    LogCosh,
    NegEntropy,
    Quadratic,
    Quartic,
    RngStream,
    SeparableQ,
    SquaredL2,
    mirror_mean_check,
    sample_noise,
    sample_weight,
    sample_white_noise,
    samplers,
)
from mirrorkit.samplers import (
    STREAM_TRIAL_BASE,
    TabulatedDensity,
    _splitmix64,
    box_muller,
    derive_seed,
    trial_uniforms,
    white_noise_draw,
    white_noise_window,
)

from conftest import CounterStream

# CI re-runs this module off numpy's AVX512 loops
pytestmark = pytest.mark.bitwise

N = 100_000


def test_streams_are_deterministic():
    a = RngStream(123, 4)
    b = RngStream(123, 4)
    assert np.array_equal(a.uniform(100), b.uniform(100))
    assert np.array_equal(RngStream(123, 4).normal(99), RngStream(123, 4).normal(99))


def test_distinct_stream_indices_differ():
    a = RngStream(123, 0).uniform(50)
    b = RngStream(123, 1).uniform(50)
    assert not np.array_equal(a, b)
    assert derive_seed(123, 0) != derive_seed(123, 1)


@pytest.mark.parametrize("seed", [0, 17, 401, 2**64 - 1])
def test_trial_uniforms_are_the_splitmix64_counter_streams(seed):
    """Row t is the splitmix64 sequence started at derive_seed(seed, 1000 + t),
    computed here one Python integer at a time."""
    U = trial_uniforms(seed, 6, 11)
    assert U.shape == (6, 11) and U.dtype == np.float64
    for t in range(6):
        assert np.array_equal(U[t], CounterStream(seed, t).uniform(11))
    assert trial_uniforms(seed, 0, 5).shape == (0, 5)
    assert trial_uniforms(seed, 3, 0).shape == (3, 0)


@pytest.mark.parametrize("block_values", [samplers.BLOCK_VALUES, 4])
@pytest.mark.parametrize("seed", [0, 17, 2**64 - 1])
def test_a_stream_at_the_trial_base_reads_the_trials_row(seed, block_values, monkeypatch):
    """RngStream(seed, STREAM_TRIAL_BASE + t) and trial t are one splitmix64
    row: the same outputs, bit for bit, also when a row is mixed a block of
    4 columns at a time."""
    monkeypatch.setattr(samplers, "BLOCK_VALUES", block_values)
    U = trial_uniforms(seed, 4, 9)
    for t in range(4):
        row = RngStream(seed, STREAM_TRIAL_BASE + t).uniform(9)
        assert np.array_equal(row, U[t])
        assert np.array_equal(row, CounterStream(seed, t).uniform(9))


def test_successive_uniform_calls_continue_one_row():
    """Each call returns the stream's next outputs, so successive calls equal
    one longer call; a named stream below the trials is its splitmix64 row."""
    rng = RngStream(5, 3)
    parts = [rng.uniform(4), rng.uniform((2, 3)), rng.uniform(1), rng.normal(3)]
    assert [p.shape for p in parts] == [(4,), (2, 3), (1,), (3,)]
    whole = RngStream(5, 3).uniform(15)
    assert np.array_equal(np.concatenate([p.ravel() for p in parts[:3]]), whole[:11])
    assert np.array_equal(parts[3], box_muller(whole[None, 11:], 3)[0])
    assert np.array_equal(whole, CounterStream(5, 3 - STREAM_TRIAL_BASE).uniform(15))


def test_every_named_stream_lies_below_the_trial_streams(monkeypatch):
    """The streams that risk, converge and sample-check open are the inputs,
    the planted weight and sample-check's four draws, and none is a trial's."""
    from mirrorkit import cli
    from mirrorkit.config import make_config
    from mirrorkit.datagen import STREAM_INPUTS, STREAM_SAMPLE_CHECK, STREAM_WEIGHT

    opened = set()
    init = RngStream.__init__

    def recording_init(self, seed, stream_index=0):
        opened.add(stream_index)
        init(self, seed, stream_index)

    monkeypatch.setattr(RngStream, "__init__", recording_init)
    cli._HANDLERS["risk"](make_config(T=5, n_trials=50))
    cli._HANDLERS["converge"](make_config(T=200, n_trials=5, noise={"kind": "gaussian"},
                                          schedule={"kind": "robbins_monro", "c": 0.5}))
    cli._HANDLERS["sample-check"](make_config())
    named = {STREAM_INPUTS, STREAM_WEIGHT, *range(STREAM_SAMPLE_CHECK, STREAM_SAMPLE_CHECK + 4)}
    assert opened == named and len(named) == 6
    assert max(named) < STREAM_TRIAL_BASE


def test_splitmix64_on_a_read_only_uint64_array_equals_it_on_python_ints():
    values = [0, 1, 2**63, 2**64 - 1, 0x9E3779B97F4A7C15, 123456789]
    z = np.array(values, dtype=np.uint64)
    z.flags.writeable = False
    out = _splitmix64(z)
    assert out.dtype == np.uint64
    assert out.tolist() == [_splitmix64(v) for v in values]
    assert z.tolist() == values
    # nor is a writeable input written
    w = np.array(values, dtype=np.uint64)
    assert _splitmix64(w).tolist() == out.tolist() and w.tolist() == values


def test_trial_uniforms_rows_depend_only_on_seed_and_trial():
    U = trial_uniforms(5, 40, 30)
    # row t does not depend on n, and the first k' columns not on k
    assert np.array_equal(trial_uniforms(5, 7, 30), U[:7])
    assert np.array_equal(trial_uniforms(5, 40, 12), U[:, :12])
    assert not np.array_equal(trial_uniforms(6, 40, 30), U)
    assert len(np.unique(U)) == U.size
    # and a window of columns is those columns of the full rows
    for column in (1, 17, 29):
        assert np.array_equal(trial_uniforms(5, 40, 30 - column, column=column), U[:, column:])
        assert np.array_equal(trial_uniforms(5, 7, 1, column=column), U[:7, column : column + 1])
    # and rows taken from a first trial on are those rows of the full block,
    # alone, as a tail, and in a window of rows and columns
    for first in (1, 17, 39):
        assert np.array_equal(trial_uniforms(5, 1, 30, first=first), U[first : first + 1])
        assert np.array_equal(trial_uniforms(5, 40 - first, 30, first=first), U[first:])
        assert np.array_equal(trial_uniforms(5, 1, 12, column=7, first=first), U[first : first + 1, 7:19])
    # and several first columns give one contiguous block each from one pass
    halves = trial_uniforms(5, 40, 10, column=(3, 17))
    assert halves.shape == (2, 40, 10) and all(h.flags.c_contiguous for h in halves)
    assert np.array_equal(halves, np.stack([U[:, 3:13], U[:, 17:27]]))


@pytest.mark.parametrize("kind", ["gaussian", "uniform", "rademacher"])
@pytest.mark.parametrize("T", [11, 12, 1001])
def test_white_noise_windows_equal_the_full_draw_bitwise(kind, T, monkeypatch):
    """Steps a .. b-1 of the windowed draw are those columns of the full
    T-step draw on the same trial rows, bit for bit: from step 0, mid-row,
    from an odd step, to the end, and of one step. Six runs fit in one row
    block; at T 1001, 300 runs in blocks of 64 values span many, both in
    the counter pass and in the transform."""
    windows = [(0, T), (0, 4), (0, 5), (4, 8), (3, 8), (3, 6), (5, T), (6, T), (T - 1, T), (7, 8),
               (T // 3, 2 * T // 3 + 1)]
    for runs, block_values in [(6, samplers.BLOCK_VALUES)] + [(300, 64)] * (T == 1001):
        k, values = white_noise_draw(kind, 2.0, T)
        full = values(trial_uniforms(41, runs, k))
        monkeypatch.setattr(samplers, "BLOCK_VALUES", block_values)
        for a, b in windows:
            window = white_noise_window(kind, 2.0, T, 41, runs, a, b)
            assert np.array_equal(window, full[:, a:b]), (runs, a, b)


def test_trial_uniforms_are_uniform_and_warning_free():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the uint64 arithmetic wraps on purpose
        U = trial_uniforms(2024, 1000, 100)
    assert np.all((U >= 0.0) & (U < 1.0))
    # the 53-bit mapping puts every value on the 2^-53 lattice
    assert np.array_equal(U * 2.0**53, np.floor(U * 2.0**53))
    assert kstest(U.ravel(), "uniform").pvalue > 0.01


def test_box_muller_moments():
    z = RngStream(7, 0).normal(N)
    assert abs(z.mean()) < 4 * 3.0 / np.sqrt(N)
    assert abs(z.var() - 1.0) < 0.05


def test_gaussian_weight_short_circuit_moments():
    spec = ExpFamilySpec(SquaredL2(1), [0.0], 1.0)
    draws = sample_weight(spec, RngStream(1, 0), size=N)[:, 0]
    assert abs(draws.mean()) <= 3 * 4e-3
    assert abs(draws.var() - 1.0) <= 0.05
    spec2 = ExpFamilySpec(SquaredL2(2), [1.5, -2.0], 0.25)
    d2 = sample_weight(spec2, RngStream(1, 1), size=N)
    np.testing.assert_allclose(d2.mean(axis=0), [1.5, -2.0], atol=0.02)
    np.testing.assert_allclose(d2.var(axis=0), [0.25, 0.25], rtol=0.05)


def test_tabulated_matches_exact_gaussian_ks():
    spec = ExpFamilySpec(SquaredL2(1), [0.0], 1.0)
    tab = sample_weight(spec, RngStream(2, 0), size=N, force_tabulated=True)[:, 0]
    exact = sample_weight(spec, RngStream(2, 1), size=N)[:, 0]
    critical = 1.628 * np.sqrt(2.0 / N)  # two-sample KS at the 1% level
    assert ks_2samp(tab, exact).statistic < critical


def test_noise_quadratic_short_circuit_and_tabulated_agree():
    tab = sample_noise(Quadratic(), RngStream(3, 0), size=N, force_tabulated=True)
    exact = sample_noise(Quadratic(), RngStream(3, 1), size=N)
    assert abs(np.var(exact) - 1.0) < 0.05
    critical = 1.628 * np.sqrt(2.0 / N)
    assert ks_2samp(tab, exact).statistic < critical


def test_logcosh_noise_symmetric():
    draws = sample_noise(LogCosh(), RngStream(4, 0), size=N)
    band = 3 * draws.std(ddof=1) / np.sqrt(N)
    assert abs(draws.mean()) <= band


def test_quartic_noise_fourth_moment_vs_quadrature():
    # independent oracle: quadrature of the density exp(-v^4/4)
    Z = quad(lambda v: np.exp(-(v**4) / 4.0), -np.inf, np.inf)[0]
    target = quad(lambda v: v**4 * np.exp(-(v**4) / 4.0), -np.inf, np.inf)[0] / Z
    draws = sample_noise(Quartic(), RngStream(5, 0), size=N)
    m4 = np.mean(draws**4)
    band = 3 * np.std(draws**4, ddof=1) / np.sqrt(N)
    assert abs(m4 - target) <= band


def test_cdf_normalization():
    for spec in (
        ExpFamilySpec(NegEntropy(1), [1.0], 0.2),
        ExpFamilySpec(SeparableQ(3.0, 1), [0.5], 0.4),
        ExpFamilySpec(SeparableQ(1.5, 1), [0.0], 1.0),
    ):
        for table in spec.tables():
            assert table.cdf[-1] == pytest.approx(1.0, abs=1e-9)
            assert table.tail_bound < 1e-8


def test_grid_too_narrow_raises():
    # a flat density never decays, so no doubling of the grid bounds its tails
    with pytest.raises(GridError):
        TabulatedDensity(lambda x: 0.0 * x, lambda x: 0.0, 0.0, 1.0, 1.0)


def test_logcosh_grid_requires_expansion():
    # exp(-|v|) tails need |v| ~ 37 for a 1e-16 boundary; default grid of 12
    # scale units only reaches it by doubling
    draws = sample_noise(LogCosh(), RngStream(6, 0), size=1000)
    assert np.max(np.abs(draws)) > 5.0


def test_separable_q4_mirror_mean_at_zero():
    spec = ExpFamilySpec(SeparableQ(4.0, 1), [0.0], 1.0)
    draws = sample_weight(spec, RngStream(7, 0), size=N)[:, 0]
    mirrored = np.sign(draws) * np.abs(draws) ** 3
    band = 3 * mirrored.std(ddof=1) / np.sqrt(N)
    assert abs(mirrored.mean()) <= band


def test_mirror_mean_check_matrix():
    cases = [
        (SquaredL2(2), [0.3, -0.7], 0.5),
        (NegEntropy(2), [1.0, 1.0], 0.1),
        (SeparableQ(3.0, 1), [2.0], 0.5),
        (SeparableQ(1.5, 2), [0.5, 1.5], 0.3),
    ]
    for i, (p, c, s) in enumerate(cases):
        rep = mirror_mean_check(ExpFamilySpec(p, c, s), N, RngStream(11, i))
        assert rep.passed, (p.kind, rep.mc_estimate, rep.target, rep.sigma_bound)
        np.testing.assert_allclose(rep.target, p.grad(np.asarray(c, dtype=float)))


def test_mirror_mean_check_requires_enough_samples():
    spec = ExpFamilySpec(SquaredL2(1), [0.0], 1.0)
    with pytest.raises(ValueError):
        mirror_mean_check(spec, 100, RngStream(0, 0))


def test_white_noise_families():
    for kind in ("gaussian", "uniform", "rademacher"):
        draws = sample_white_noise(kind, 2.0, RngStream(8, 0), size=N)
        assert abs(draws.mean()) < 0.05
        assert draws.var() == pytest.approx(2.0, rel=0.05)
    with pytest.raises(ValueError, match="cauchy"):
        white_noise_draw("cauchy", 1.0, 10)


def test_weight_draw_shapes():
    spec = ExpFamilySpec(NegEntropy(3), [1.0, 1.0, 1.0], 0.2)
    single = sample_weight(spec, RngStream(9, 0))
    assert single.shape == (3,)
    assert np.all(single > 0)
    # tabulated draws take one uniform per value in order, so a single draw
    # is the first row of a batch from the same stream
    for spec in (spec, ExpFamilySpec(SeparableQ(3.0, 2), [1.0, 1.0], 0.1)):
        dim = spec.potential.dim
        batch = sample_weight(spec, RngStream(9, 0), size=10)
        assert batch.shape == (10, dim)
        np.testing.assert_array_equal(batch[0], sample_weight(spec, RngStream(9, 0)))


def test_prior_tables_are_built_once_across_trials(monkeypatch):
    from mirrorkit import samplers
    from mirrorkit.config import make_config
    from mirrorkit.datagen import generate_problem

    cfgs = [
        make_config(potential="neg_entropy", loss="quadratic", dim=3, T=5, w0=[0.5, 1.0, 1.0],
                    schedule={"kind": "constant", "eta": 0.05}),
        make_config(potential={"kind": "separable_q", "q": 3.0}, loss="logcosh", dim=2, T=5,
                    w0=1.0, schedule={"kind": "constant", "eta": 0.1}),
    ]
    trials = [cfg.replace(seed=cfg.seed + 1 + t) for cfg in cfgs for t in range(50)]
    fresh = []
    for cfg in trials:  # every trial with its own tables, as without the memo
        monkeypatch.setattr(samplers, "_PRIOR_TABLES", {})
        fresh.append(generate_problem(cfg).w_true)

    built = []
    init = samplers.TabulatedDensity.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args[2])
        init(self, *args, **kwargs)

    monkeypatch.setattr(samplers, "_PRIOR_TABLES", {})
    monkeypatch.setattr(samplers, "_NOISE_TABLES", {})
    monkeypatch.setattr(samplers.TabulatedDensity, "__init__", counting_init)
    memo = [generate_problem(cfg).w_true for cfg in trials]
    # neg_entropy centers 0.5 and 1.0, separable_q center 1.0, the logcosh noise
    assert len(built) == len(samplers._PRIOR_TABLES) + len(samplers._NOISE_TABLES) == 4
    assert all(np.array_equal(a, b) for a, b in zip(memo, fresh))


def test_normal_is_box_muller_of_the_stream_uniforms():
    for n in (1, 2, 5, 8, 99):
        u = RngStream(4, 2).uniform(n + n % 2)
        assert np.array_equal(RngStream(4, 2).normal(n), box_muller(u[None, :], n)[0])


# angle uniforms where the half-turn reduction changes branch or is exact
EDGE_ANGLES = [0.0, 2.0**-53, 0.25, 0.25 - 2.0**-53, 0.25 + 2.0**-53, 0.5, 0.75, 1.0 - 2.0**-53]


def test_box_muller_is_within_1e_15_r_of_the_exact_transform():
    m = 10_000
    U = trial_uniforms(25, 1, 2 * m)[0]
    radii = np.concatenate([U[:m], U[: len(EDGE_ANGLES)]])
    angles = np.concatenate([U[m:], EDGE_ANGLES])
    z = box_muller(np.concatenate([radii, angles])[None, :], 2 * len(radii))[0].reshape(-1, 2)
    with mpmath.workprec(113):
        for (c, s), ur, a in zip(z, radii, angles):
            r = mpmath.sqrt(-2 * mpmath.log(1 - mpmath.mpf(ur)))
            turn = 2 * mpmath.pi * mpmath.mpf(a)
            assert abs(c - r * mpmath.cos(turn)) <= 1e-15 * r
            assert abs(s - r * mpmath.sin(turn)) <= 1e-15 * r


def test_box_muller_is_exact_at_zero_and_half_a_turn():
    radii = trial_uniforms(26, 1, 4)[0]
    r = np.sqrt(-2.0 * np.log(1.0 - radii))
    z = box_muller(np.concatenate([radii, [0.0, 0.0, 0.5, 0.5]])[None, :], 8)[0].reshape(-1, 2)
    assert np.array_equal(z[:2], np.column_stack([r[:2], np.zeros(2)]))
    assert np.array_equal(z[2:], np.column_stack([-r[2:], np.zeros(2)]))


def whole_array_box_muller(u, n):
    """`box_muller` in one block: the same passes over all rows at once,
    with c and s written through the stride-2 views of the output. The
    reference that the row-blocked transform must equal bit for bit."""
    pairs = (n + 1) // 2
    a = u[:, pairs:]
    z = np.empty((len(u), 2 * pairs))
    c, s = z[:, 0::2], z[:, 1::2]
    h = np.multiply(a, 2.0)
    np.rint(h, out=h)
    t = np.multiply(h, -0.5)
    t += a
    t *= np.pi
    np.tan(t, out=t)
    np.multiply(t, t, out=c)
    h -= 1.0
    h *= h
    h += h
    h -= 1.0
    np.add(c, 1.0, out=s)
    h /= s
    np.add(t, t, out=s)
    s *= h
    np.subtract(1.0, c, out=c)
    c *= h
    np.subtract(1.0, u[:, :pairs], out=t)
    np.log(t, out=t)
    t *= -2.0
    np.sqrt(t, out=t)
    c *= t
    s *= t
    return z[:, :n]


def bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


@pytest.mark.parametrize("block_rows", [1, 7, None], ids=["1-row", "7-rows", "default"])
@pytest.mark.parametrize("rows, n", [(0, 5), (1, 0), (9, 0), (23, 1), (23, 7), (23, 20), (10_000, 4)])
def test_box_muller_row_blocks_do_not_change_bits(rows, n, block_rows, monkeypatch):
    """The normals are the same bits whatever the row blocks: blocks of 1
    row, of 7 rows and of the default BLOCK_VALUES pairs, for odd n, n = 0,
    no rows, and the (10^4, 4) block of a T 10^4, dim 4 input draw, against
    the whole-array transform; the first row holds the edge angles."""
    pairs = (n + 1) // 2
    U = trial_uniforms(28, rows, 2 * pairs)
    if rows:
        U[0, pairs:] = np.resize(EDGE_ANGLES, pairs)
    if block_rows is not None:
        monkeypatch.setattr(samplers, "BLOCK_VALUES", block_rows * pairs)
    z = box_muller(U, n)
    assert z.shape == (rows, n)
    assert np.array_equal(bits(z), bits(whole_array_box_muller(U, n)))


def test_box_muller_peak_memory_is_at_most_2_6_outputs():
    # the row-blocked transform reads 1.04 (its buffers on the whole array
    # read 3.0) and libm's cos and sin 2.5; the same formulas on fresh
    # temporaries read 4.5, and risk's noise block shows it
    U = trial_uniforms(27, 100_000, 20)
    tracemalloc.start()
    try:
        z = box_muller(U, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.6 * z.nbytes


def test_white_noise_window_peak_memory_is_at_most_4_5_outputs():
    # converge's chunk shape, 100 runs of 150 steps, from an odd step: the
    # counter pass (the uniforms, the counters, their mixed copy and a
    # shifted temporary) and the transform (the uniforms, the normals and
    # the kernel's four half-size buffers) each read about 4.1 outputs
    tracemalloc.start()
    try:
        z = white_noise_window("gaussian", 1.0, 10_000, 7, 100, 4951, 5101)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert z.shape == (100, 150)
    assert peak <= 4.5 * z.nbytes
