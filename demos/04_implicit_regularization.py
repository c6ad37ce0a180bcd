"""Implicit regularization: the mirror geometry picks the interpolating solution.

On a noiseless underdetermined system there are infinitely many
interpolating weights. Run from the potential's minimizer, mirror descent
converges to the one minimizing the potential itself: minimum L2 norm under
the squared-L2 geometry, maximum entropy under negative entropy, and a
sparse-leaning solution under |w|^1.5. The independent check is a
constrained-optimization oracle solved by Newton on the dual.
"""

import numpy as np

from mirrorkit import implicit_reg_experiment, implicit_reg_oracle, NegEntropy, SquaredL2
from mirrorkit.config import make_config
from mirrorkit.datagen import generate_problems

print("=== tiny closed-form cases ===")
sol = implicit_reg_oracle(np.array([[1.0, 1.0]]), [1.0], SquaredL2(2), np.zeros(2))
print("min-norm solution of w1 + w2 = 1     :", sol.w_star)
sol = implicit_reg_oracle(np.array([[1.0, 1.0]]), [1.0], NegEntropy(2), np.array([0.5, 0.5]))
print("max-entropy solution of w1 + w2 = 1  :", sol.w_star)

print()
print("=== descent limit vs oracle, three geometries, three cases each ===")
cases = [
    ("squared_l2 (5 x 20)", dict(potential="squared_l2", dim=20, T=5,
                                 schedule={"kind": "constant", "eta": 0.5})),
    ("neg_entropy (5 x 20)", dict(potential="neg_entropy", dim=20, T=5,
                                  schedule={"kind": "constant", "eta": 0.2})),
    ("|w|^1.5 (10 x 40, sparse truth)", dict(
        potential={"kind": "separable_q", "q": 1.5}, dim=40, T=10,
        planted={"kind": "sparse", "support": 3},
        schedule={"kind": "constant", "eta": 0.1})),
]
for name, overrides in cases:
    cfg = make_config(loss="quadratic", noise={"kind": "none"},
                      inputs={"kind": "unit"}, n_trials=3, seed=5, **overrides)
    print(name)
    for k, rep in enumerate(implicit_reg_experiment(cfg)):
        print(f"  case {k}: gap to oracle {rep.gap:.2e}  feasibility {rep.feasibility:.2e}  "
              f"steps {rep.steps}")

print()
print("=== sparsity profile of the |w|^1.5 limit (case 0) ===")
cfg = make_config(
    potential={"kind": "separable_q", "q": 1.5}, loss="quadratic", dim=40, T=10,
    planted={"kind": "sparse", "support": 3}, schedule={"kind": "constant", "eta": 0.1},
    noise={"kind": "none"}, inputs={"kind": "unit"}, n_trials=1, seed=5,
)
[rep] = implicit_reg_experiment(cfg)
mags = np.sort(np.abs(rep.w_smd))[::-1]
print("largest coordinate magnitudes :", np.round(mags[:5], 4))
print("median coordinate magnitude   :", f"{np.median(np.abs(rep.w_smd)):.4f}")
support = generate_problems(cfg, 1).w_true[0] != 0.0
mass = np.abs(rep.w_smd) ** 1.5
print("planted support's share of sum |w|^1.5:", f"{mass[support].sum() / mass.sum():.2f}")
