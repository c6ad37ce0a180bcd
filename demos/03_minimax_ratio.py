"""The energy-gain ratio: bounded by one, and approached from below.

For any reference weight and noise sequence, the ratio of accumulated
estimation-error energy to disturbance energy stays at or below one as long
as the potential dominates the scaled loss curvature along the run. Random
search never finds a violation, and noiseless consistent challenges with a
small learning rate push the ratio arbitrarily close to one, so the bound
is tight.
"""

import numpy as np

from mirrorkit import Constant, Linear, Quadratic, SquaredL2, energy_gain, iterate
from mirrorkit.datagen import gaussian_inputs
from mirrorkit.samplers import RngStream

dim, T = 3, 15
p, l, m = SquaredL2(dim), Quadratic(), Linear()

print("=== random challenges (eta = 0.4, certified) ===")
worst = 0.0
for trial in range(400):
    rng = RngStream(seed=7, stream_index=trial)
    X = gaussian_inputs(dim, T, rng, unit=True)
    w = np.asarray(rng.normal(dim))
    noises = 0.4 * np.asarray(rng.normal(T))
    traj = iterate(p, l, m, X, X @ w + noises, Constant(0.4), np.zeros(dim))
    rep = energy_gain(traj, w, noises)
    assert rep.premise_certified
    worst = max(worst, rep.ratio)
print(f"sup ratio over 400 random (w, noise) challenges: {worst:.6f}  (<= 1)")

print()
print("=== approach to one on noiseless consistent data ===")
rng = RngStream(seed=11, stream_index=0)
X = gaussian_inputs(dim, 30, rng, unit=True)
w = np.array([0.8, -0.5, 0.3])
for eta in (0.5, 0.1, 0.02, 0.005, 0.001):
    traj = iterate(p, l, m, X, X @ w, Constant(eta), np.zeros(dim))
    rep = energy_gain(traj, w, np.zeros(30))
    print(f"eta = {eta:<6g} ratio = {rep.ratio:.6f}")
print("the optimal (worst-case) value of the ratio game is exactly 1")
