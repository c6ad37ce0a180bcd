"""Acceptance gate: every optimality and identity claim at its stated tolerance.

Each criterion is one test that prints a single PASS line (visible with
pytest -s) carrying the measured numbers; the assertions pin the same
tolerances the package documents.
"""

import time

import numpy as np
from scipy.stats import ks_2samp

from mirrorkit import (
    Constant,
    ExpFamilySpec,
    GeneralizedLinear,
    Linear,
    LogCosh,
    NegEntropy,
    Quadratic,
    Quartic,
    RngStream,
    SeparableQ,
    SquaredL2,
    audit_trajectory,
    bregman,
    complete_squares,
    energy_gain,
    exponent_blowup_probe,
    exponent_identity_residual,
    implicit_reg_experiment,
    iterate,
    law_of_cosines_residual,
    local_identity,
    mirror_mean_check,
    msq_convergence,
    risk_compare,
    run_general_recursion,
    sample_noise,
    sample_weight,
    step_exponent_residual,
)
from mirrorkit.cli import EXIT_PASS, dispatch
from mirrorkit.config import make_config
from mirrorkit.datagen import gaussian_inputs, generate_problems, make_inputs
from mirrorkit.experiments import SMDCost, prediction_map

IDENTITY_RTOL = 1e-8
MINIMAX_SLACK = 1e-9

POTENTIAL_KINDS = ["squared_l2", "neg_entropy", "separable_q"]
LOSS_KINDS = {"quadratic": Quadratic, "quartic": Quartic, "logcosh": LogCosh}


def _potential(kind, dim):
    if kind == "squared_l2":
        return SquaredL2(dim)
    if kind == "neg_entropy":
        return NegEntropy(dim)
    return SeparableQ(3.0, dim)


def _in_domain(p, rng):
    w = rng.uniform(0.3, 1.5, size=p.dim)
    if p.domain == "all_reals":
        w *= rng.choice([-1.0, 1.0], size=p.dim)
    return w


def _report(criterion, detail, elapsed, budget):
    print(f"ACCEPTANCE {criterion}: PASS ({detail}; {elapsed:.1f}s of {budget}s budget)")
    assert elapsed <= budget


def test_criterion_1_identity_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst = {"local": 0.0, "global": 0.0, "cosines": 0.0, "completion": 0.0,
             "exponent": 0.0, "step_exponent": 0.0}
    combos = 0
    for pk in POTENTIAL_KINDS:
        for lk, lcls in LOSS_KINDS.items():
            for model_kind in ("linear", "glm"):
                dim = int(rng.integers(1, 9))
                T = int(rng.integers(20, 101))
                p = _potential(pk, dim)
                l = lcls()
                m = Linear() if model_kind == "linear" else GeneralizedLinear("tanh")
                eta = 0.01 if lk == "quartic" else 0.05
                stream = RngStream(4000 + combos, 0)
                X = gaussian_inputs(dim, T, stream, unit=True)
                w_ref = _in_domain(p, rng)
                noises = 0.1 * rng.standard_normal(T)
                Y = m.g(X @ w_ref) + noises
                traj = iterate(p, l, m, X, Y, Constant(eta), _in_domain(p, rng))
                for i, (x, y) in enumerate(zip(X, Y), 1):
                    rec = local_identity(
                        p, l, m, w_ref, traj.path[i - 1], traj.iterates[i - 1], x, y, eta, step=i
                    )
                    worst["local"] = max(worst["local"], rec.local_residual)
                worst["global"] = max(worst["global"], audit_trajectory(traj, w_ref, noises)[1])
                if model_kind == "linear":
                    z = rng.standard_normal(T)
                    gen = run_general_recursion(p, l, X, Y, z, eta, _in_domain(p, rng))
                    worst["exponent"] = max(
                        worst["exponent"], exponent_identity_residual(p, l, w_ref, gen, z)
                    )
                    for i in range(1, T + 1, max(1, T // 7)):
                        worst["step_exponent"] = max(
                            worst["step_exponent"],
                            step_exponent_residual(
                                p, l, gen.iterates[i - 1], gen.path[i - 1],
                                X[i - 1], Y[i - 1], z[i - 1], eta,
                            ),
                        )
                combos += 1
        for _ in range(40):
            dim = int(rng.integers(1, 9))
            p = _potential(pk, dim)
            triple = [_in_domain(p, rng) for _ in range(3)]
            worst["cosines"] = max(worst["cosines"], law_of_cosines_residual(p, *triple))
    for pk1 in POTENTIAL_KINDS:
        for pk2 in POTENTIAL_KINDS:
            dim = int(rng.integers(1, 9))
            p1, p2 = _potential(pk1, dim), _potential(pk2, dim)
            for _ in range(10):
                w1, w2 = _in_domain(p1, rng), _in_domain(p2, rng)
                w_star = complete_squares(p1, p2, w1, w2)
                w = rng.uniform(0.3, 1.5, size=dim)
                lhs = bregman(p1, w, w1) + bregman(p2, w, w2)
                rhs = (
                    bregman(p1, w_star, w1) + bregman(p2, w_star, w2)
                    + bregman(p1, w, w_star) + bregman(p2, w, w_star)
                )
                worst["completion"] = max(
                    worst["completion"], abs(lhs - rhs) / (1 + abs(lhs))
                )
    for name, value in worst.items():
        assert value <= IDENTITY_RTOL, (name, value)
    _report(
        1,
        "identity suite over 18 configs, worst residuals "
        + ", ".join(f"{k}={v:.2e}" for k, v in worst.items()),
        time.perf_counter() - t0,
        60,
    )


MINIMAX_CONFIGS = [
    dict(potential="squared_l2", loss="quadratic", dim=3, T=15,
         schedule={"kind": "constant", "eta": 0.4}, inputs={"kind": "unit"}, w0=0.0),
    dict(potential="neg_entropy", loss="quadratic", dim=3, T=15,
         schedule={"kind": "constant", "eta": 0.05}, inputs={"kind": "unit"}, w0=1.0),
    dict(potential={"kind": "separable_q", "q": 3.0}, loss="logcosh", dim=2, T=15,
         schedule={"kind": "constant", "eta": 0.1}, inputs={"kind": "unit"}, w0=1.0),
]


def _energy_gains(cfg, trials):
    """`energy_gain` of trials 0 .. trials-1 of `cfg`, run as one batch."""
    problems = generate_problems(cfg, trials)
    traj = iterate(cfg.build_potential(), cfg.build_loss(), cfg.build_model(), problems.X, problems.Y,
                   cfg.build_schedule(), cfg.w0_vector())
    return energy_gain(traj, problems.w_true, problems.noises)


def test_criterion_2_minimax_optimality():
    t0 = time.perf_counter()
    summaries = []
    for base in MINIMAX_CONFIGS:
        cfg = make_config(seed=22, **base)
        # the first 1000 certified trials of at most 1500 attempts
        rep = _energy_gains(cfg, 1500)
        certified_ratios = rep.ratio[rep.premise_certified][:1000]
        assert len(certified_ratios) == 1000, f"only {len(certified_ratios)} certified trials"
        assert max(certified_ratios) <= 1.0 + MINIMAX_SLACK
        summaries.append(max(certified_ratios))

    # achievability probe: small learning rate, noiseless consistent challenges
    probe_cfg = make_config(
        potential="squared_l2", loss="quadratic", dim=3, T=10,
        schedule={"kind": "constant", "eta": 0.002}, inputs={"kind": "unit"},
        w0=0.0, noise={"kind": "none"}, planted={"kind": "gaussian"}, seed=77,
    )
    ratios = _energy_gains(probe_cfg, 10_000).ratio
    assert (ratios <= 1.0 + MINIMAX_SLACK).all()
    sup_ratio = ratios.max()
    assert sup_ratio >= 0.95
    _report(
        2,
        f"3x1000 certified trials, max ratios {[f'{r:.6f}' for r in summaries]}, "
        f"achievability sup {sup_ratio:.4f}",
        time.perf_counter() - t0,
        120,
    )


def test_criterion_3_implicit_regularization():
    t0 = time.perf_counter()
    cfg = make_config(
        potential="squared_l2", loss="quadratic", dim=20, T=5, n_trials=20,
        schedule={"kind": "constant", "eta": 0.5}, noise={"kind": "none"},
        inputs={"kind": "unit"}, seed=100,
    )
    reps = implicit_reg_experiment(cfg)
    assert len(reps) == 20
    for rep in reps:
        assert rep.feasibility <= 1e-9 and rep.kkt_residual <= 1e-10
    gaps_l2 = [rep.gap for rep in reps]
    assert max(gaps_l2) <= 1e-6

    cfg = make_config(
        potential="neg_entropy", loss="quadratic", dim=20, T=5, n_trials=5,
        schedule={"kind": "constant", "eta": 0.2}, noise={"kind": "none"},
        inputs={"kind": "unit"}, seed=200,
    )
    gaps_ne = [rep.gap for rep in implicit_reg_experiment(cfg)]
    assert len(gaps_ne) == 5 and max(gaps_ne) <= 1e-5

    cfg = make_config(
        potential={"kind": "separable_q", "q": 1.5}, loss="quadratic",
        dim=40, T=10, n_trials=3, planted={"kind": "sparse", "support": 3},
        schedule={"kind": "constant", "eta": 0.1}, noise={"kind": "none"},
        inputs={"kind": "unit"}, seed=300,
    )
    gaps_q = [rep.gap for rep in implicit_reg_experiment(cfg)]
    assert len(gaps_q) == 3 and max(gaps_q) <= 1e-5
    _report(
        3,
        f"gaps: squared_l2 max {max(gaps_l2):.2e} (20 systems), "
        f"neg_entropy max {max(gaps_ne):.2e}, q=1.5 max {max(gaps_q):.2e}",
        time.perf_counter() - t0,
        300,
    )


RISK_CONFIGS = {
    "gaussian": dict(
        potential="squared_l2", loss="quadratic", dim=4,
        schedule={"kind": "constant", "eta": 0.05}, w0=0.0,
    ),
    "separable_q3_logcosh": dict(
        potential={"kind": "separable_q", "q": 3.0}, loss="logcosh", dim=2,
        schedule={"kind": "constant", "eta": 0.1}, w0=1.0,
    ),
}


def test_criterion_4_risk_sensitive_optimality():
    t0 = time.perf_counter()
    details = []
    for name, base in RISK_CONFIGS.items():
        cfg = make_config(T=20, n_trials=10_000, inputs={"kind": "unit"}, seed=123, **base)
        rep = risk_compare(cfg)
        smd = rep.entry("smd")
        baselines = [e for e in rep.entries
                     if e.name != "smd" and isinstance(e.mode, SMDCost)]
        assert {e.name for e in baselines} >= {"constant", "scaled_smd(0.5)", "scaled_smd(2)"}
        for b in baselines:
            assert smd.mc_cost <= b.mc_cost, (name, b.name)
        worst = max(baselines, key=lambda e: e.mc_cost)
        assert smd.ci_high < worst.ci_low, (
            f"{name}: smd ci_high {smd.ci_high:.4f} overlaps worst "
            f"({worst.name}) ci_low {worst.ci_low:.4f}"
        )
        details.append(f"{name}: smd {smd.mc_cost:.4f} < worst {worst.mc_cost:.4f} ({worst.name})")
    _report(4, "; ".join(details), time.perf_counter() - t0, 600)


def test_criterion_5_exponent_bound_probe():
    t0 = time.perf_counter()
    cfg = make_config(
        T=50, n_trials=10_000, inputs={"kind": "unit"}, seed=123,
        **RISK_CONFIGS["gaussian"],
    )
    curve = exponent_blowup_probe(cfg, checkpoints=(10, 20, 30, 40, 50))
    print("  exponent-bound diagnostic curve (alpha=1.0, non-binding): "
          "running max trial cost by horizon")
    for T, running_max, mean in curve:
        print(f"    T={T:3d}  max={running_max:14.3f}  mean={mean:12.3f}")
    growth = curve[-1][1] / curve[0][1]
    assert growth >= 10.0
    _report(5, f"running-max growth T=10 to T=50 is {growth:.0f}x (>= 10x)",
            time.perf_counter() - t0, 600)


def test_criterion_5_companion_critical_horizon():
    """The probe's alpha-1 exponent |A xi + b|^2, xi = (w - w0, v) ~ N(0, Sigma)
    with Sigma = diag(eta I, I) and A = [K X - X, K] from SMD's prediction
    map, has a finite expectation exactly while SMD's squared gain
    lambda_max(A Sigma A^T) is below 1/2. On criterion 5's config it first
    reaches 1/2 at T* = 47, inside the probe's horizon of 50, and it never
    falls as T grows."""
    cfg = make_config(
        T=50, n_trials=10_000, inputs={"kind": "unit"}, seed=123,
        **RISK_CONFIGS["gaussian"],
    )
    p, l, eta, w0 = cfg.build_potential(), cfg.build_loss(), cfg.schedule["eta"], cfg.w0_vector()
    gain2 = {}
    for T in range(1, cfg.T + 1):
        X = make_inputs(cfg, count=T)
        _, _, K = prediction_map({"kind": "smd"}, p, l, eta, X, w0)
        A = np.hstack([K @ X - X, K])
        sigma = np.concatenate([np.full(cfg.dim, eta), np.ones(T)])
        gain2[T] = float(np.linalg.eigvalsh((A * sigma) @ A.T)[-1])
    critical = min(T for T, g in gain2.items() if g >= 0.5)
    assert critical == 47
    assert (round(gain2[46], 5), round(gain2[47], 5)) == (0.49504, 0.50635)
    assert all(b >= a - 1e-12 for a, b in zip(list(gain2.values()), list(gain2.values())[1:]))


def test_criterion_6_mean_square_convergence():
    t0 = time.perf_counter()
    cfg = make_config(
        potential="squared_l2", loss="quadratic", dim=4, T=10_000, n_trials=100,
        schedule={"kind": "robbins_monro", "c": 1.0},
        noise={"kind": "gaussian", "sigma2": 1.0}, seed=7, control_eta=0.01,
    )
    rep = msq_convergence(cfg)
    errors = dict(rep.checkpoints)
    control = dict(rep.control)
    assert errors[10_000] <= 0.1 * errors[100]
    assert errors[10_000] < control[10_000]
    _report(
        6,
        f"mse {errors[100]:.4f} -> {errors[10_000]:.6f} "
        f"(ratio {errors[10_000]/errors[100]:.4f} <= 0.1), "
        f"control plateau {control[10_000]:.4f}",
        time.perf_counter() - t0,
        300,
    )


SAMPLER_PAIRINGS = [
    ("squared_l2", SquaredL2(2), [0.3, -0.6], 0.5),
    ("neg_entropy", NegEntropy(2), [1.0, 1.0], 0.1),
    ("separable_q", SeparableQ(3.0, 2), [1.0, 0.5], 0.5),
]


def test_criterion_7_sampler_certification():
    t0 = time.perf_counter()
    n = 100_000
    stream_index = 0
    for lk, lcls in LOSS_KINDS.items():
        l = lcls()
        for pk, p, center, scale in SAMPLER_PAIRINGS:
            spec = ExpFamilySpec(p, center, scale)
            rep = mirror_mean_check(spec, n, RngStream(555, stream_index))
            assert rep.passed, (pk, lk, rep.mc_estimate, rep.target, rep.sigma_bound)
            noise = np.asarray(sample_noise(l, RngStream(556, stream_index), size=n))
            band = 3.0 * noise.std(ddof=1) / np.sqrt(n)
            assert abs(noise.mean()) <= band, (pk, lk)
            stream_index += 1

    critical = 1.628 * np.sqrt(2.0 / n)  # two-sample KS, 1% level
    spec = ExpFamilySpec(SquaredL2(1), [0.0], 1.0)
    tab_w = sample_weight(spec, RngStream(557, 0), size=n, force_tabulated=True)[:, 0]
    exact_w = sample_weight(spec, RngStream(557, 1), size=n)[:, 0]
    ks_w = ks_2samp(tab_w, exact_w).statistic
    tab_v = sample_noise(Quadratic(), RngStream(557, 2), size=n, force_tabulated=True)
    exact_v = sample_noise(Quadratic(), RngStream(557, 3), size=n)
    ks_v = ks_2samp(tab_v, exact_v).statistic
    assert ks_w < critical and ks_v < critical
    _report(
        7,
        f"9 pairings certified at 3-sigma with {n} draws; "
        f"KS weight {ks_w:.4f}, noise {ks_v:.4f} < critical {critical:.4f}",
        time.perf_counter() - t0,
        600,
    )


REPRO_BASE = {
    "potential": "neg_entropy", "loss": "quadratic", "dim": 2, "T": 15,
    "n_trials": 20, "seed": 11, "schedule": {"kind": "constant", "eta": 0.05},
}

REPRO_ARTIFACTS = {
    "run": "trajectory.csv",
    "audit": "audit.csv",
    "minimax": "minimax.csv",
    "risk": "risk.csv",
    "implicit": "implicit.csv",
    "converge": "converge.csv",
    "sample-check": "sample_check.csv",
}


def _repro_cfg(sub, out):
    raw = dict(REPRO_BASE, output_dir=str(out))
    if sub == "risk":
        raw.update(potential={"kind": "separable_q", "q": 3.0}, loss="logcosh",
                   w0=1.0, inputs={"kind": "unit"}, n_trials=2000, T=20,
                   schedule={"kind": "constant", "eta": 0.2})
    elif sub == "implicit":
        raw.update(potential="squared_l2", dim=12, T=4, n_trials=2,
                   noise={"kind": "none"}, inputs={"kind": "unit"},
                   schedule={"kind": "constant", "eta": 0.5})
    elif sub == "converge":
        raw.update(potential="squared_l2", dim=2, T=1500, n_trials=15,
                   noise={"kind": "gaussian"}, schedule={"kind": "robbins_monro", "c": 1.0},
                   control_eta=0.02)
    elif sub == "sample-check":
        raw.update(n_trials=10_000, w0=1.0)
    return make_config(**raw)


def test_criterion_8_bit_exact_reproducibility(tmp_path):
    t0 = time.perf_counter()
    for sub, artifact in REPRO_ARTIFACTS.items():
        out1, out2 = tmp_path / f"{sub}-1", tmp_path / f"{sub}-2"
        assert dispatch(_repro_cfg(sub, out1), sub).code == EXIT_PASS, sub
        assert dispatch(_repro_cfg(sub, out2), sub).code == EXIT_PASS, sub
        b1 = (out1 / artifact).read_bytes()
        b2 = (out2 / artifact).read_bytes()
        assert b1 == b2, f"{sub} artifact differs between identical runs"
    _report(8, f"{len(REPRO_ARTIFACTS)} subcommands byte-identical across reruns",
            time.perf_counter() - t0, 600)
