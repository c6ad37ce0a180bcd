"""Audit a mirror-descent run: the per-step balance and its telescoped sum.

Along any mirror-descent trajectory, the divergence from a reference weight
to the previous iterate plus the scaled noise loss exactly equals the
divergence to the new iterate plus a loss-Bregman term plus a step energy
term E_i. Summed over the run, the balance telescopes. The auditor
evaluates every term and reports defects relative to 1 + |LHS|.
"""

import numpy as np

from mirrorkit import (
    Constant,
    Linear,
    NegEntropy,
    Quadratic,
    audit_trajectory,
    energy_gain,
    iterate,
)
from mirrorkit.datagen import gaussian_inputs
from mirrorkit.samplers import RngStream

rng = RngStream(seed=42, stream_index=0)
dim, T, eta = 3, 40, 0.05

p, l, m = NegEntropy(dim), Quadratic(), Linear()
X = gaussian_inputs(dim, T, rng, unit=True)
w_true = np.array([0.8, 1.4, 0.5])
noises = 0.2 * np.asarray(rng.normal(T))
Y = X @ w_true + noises

traj = iterate(p, l, m, X, Y, Constant(eta), np.ones(dim))
terms, global_residual = audit_trajectory(traj, w_true, noises)

print(f"{'step':>4} {'D(w,w_prev)':>12} {'D(w,w_next)':>12} {'loss-Bregman':>13} "
      f"{'E_i':>10} {'residual':>10}")
for i in range(8):
    print(f"{terms.step[i]:>4} {terms.d_psi_prev[i]:>12.6f} {terms.d_psi_next[i]:>12.6f} "
          f"{terms.d_loss_bregman[i]:>13.6f} {terms.e_term[i]:>10.2e} {terms.local_residual[i]:>10.2e}")
print("  ...")
print(f"worst local residual : {terms.local_residual.max():.2e}")
print(f"global residual      : {global_residual:.2e}")

# Every E_i is nonnegative here, which is exactly what makes the run's
# energy-gain ratio land at or below one.
print(f"min E_i              : {terms.e_term.min():.3e}")
rep = energy_gain(traj, w_true, noises)
print(f"energy-gain ratio    : {rep.ratio:.6f} (premise certified: {rep.premise_certified})")
