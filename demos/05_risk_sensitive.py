"""Risk-sensitive tournament: mirror descent wins the exponential-cost game.

Weights are drawn from the exponential-family prior matched to the
potential, noises from the density matched to the loss. Every causal
predictor pays the exponential of its accumulated loss-Bregman errors, a
criterion that punishes rare large errors brutally. Mirror descent with the
prior's own scale as learning rate posts the smallest Monte Carlo cost;
both slowed-down and sped-up variants, and the no-update baseline, pay more.
The probe at the end shows why exponents steeper than the quadratic-case
limit are hopeless: worst-case trial costs explode with the horizon.
"""

from mirrorkit import exponent_blowup_probe, risk_compare
from mirrorkit.config import make_config

for title, base in [
    ("Gaussian pairing (squared_l2 potential, quadratic loss)",
     dict(potential="squared_l2", loss="quadratic", dim=4,
          schedule={"kind": "constant", "eta": 0.05}, w0=0.0)),
    ("heavier-tailed pairing (|w|^3 potential, log-cosh loss)",
     dict(potential={"kind": "separable_q", "q": 3.0}, loss="logcosh", dim=2,
          schedule={"kind": "constant", "eta": 0.1}, w0=1.0)),
]:
    cfg = make_config(T=20, n_trials=10_000, inputs={"kind": "unit"}, seed=123, **base)
    rep = risk_compare(cfg)
    print(f"=== {title} ===")
    for e in sorted(rep.entries, key=lambda e: e.mc_cost):
        tag = " <- cost exponent of the symmetric rule" if e.name == "ssmd" else ""
        print(f"  {e.name:18s} cost {e.mc_cost:8.4f}  95% CI [{e.ci_low:.4f}, {e.ci_high:.4f}]{tag}")
    print()

print("=== doubling the exponent (alpha = 1.0 instead of 0.5) ===")
cfg = make_config(
    potential="squared_l2", loss="quadratic", dim=4, T=50, n_trials=10_000,
    schedule={"kind": "constant", "eta": 0.05}, w0=0.0, inputs={"kind": "unit"}, seed=123,
)
print(f"{'horizon':>8} {'running max cost':>18} {'mean cost':>12}")
for T, mx, mean in exponent_blowup_probe(cfg, checkpoints=(10, 20, 30, 40, 50)):
    print(f"{T:>8} {mx:>18.1f} {mean:>12.2f}")
print("finite Monte Carlo cannot certify a divergent expectation, but the")
print("worst observed trial cost grows without any sign of saturating")
