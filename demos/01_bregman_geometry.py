"""Tour of the algebraic substrate: potentials, divergences, and their identities.

Each potential defines a geometry through its Bregman divergence. The
squared-L2 potential gives back plain Euclidean (half) squared distance,
negative entropy gives the KL divergence, and the |w|^q family interpolates
toward sparsity-friendly geometries as q drops toward 1.
"""

import numpy as np

from mirrorkit import (
    NegEntropy,
    SeparableQ,
    SquaredL2,
    bregman,
    complete_squares,
    law_of_cosines_residual,
)

rng = np.random.default_rng(0)

print("=== divergences ===")
l2 = SquaredL2(2)
print("half squared distance:", bregman(l2, [1.0, 0.0], [0.0, 0.0]))

ent = NegEntropy(2)
p, q = np.array([0.5, 0.5]), np.array([0.25, 0.75])
print("entropy divergence   :", bregman(ent, p, q))
print("KL formula           :", float(np.sum(p * np.log(p / q))))

q3 = SeparableQ(3.0, 2)
print("cubic-family         :", bregman(q3, [1.0, -1.0], [0.5, 0.5]))

# The mirror map and its inverse are exact closed forms for every kind.
w = rng.uniform(0.2, 2.0, size=2)
for pot in (l2, ent, q3):
    back = pot.grad_inv(pot.grad(w))
    print(f"{pot.kind:12s} mirror round trip error: {np.max(np.abs(back - w)):.2e}")

print()
print("=== the generalized law of cosines ===")
# The three-point expansion is an exact identity in every geometry; the
# residual below is pure floating-point noise.
for pot in (l2, ent, q3):
    triples = [rng.uniform(0.1, 2.0, size=2) for _ in range(3)]
    print(f"{pot.kind:12s} residual: {law_of_cosines_residual(pot, *triples):.2e}")

print()
print("=== completion of squares across two geometries ===")
# The balance point w* of two anchored divergences satisfies
# grad(psi1 + psi2)(w*) = grad psi1(w1) + grad psi2(w2); with two different
# geometries it is found by a certified Newton solve.
w_star = complete_squares(NegEntropy(1), SquaredL2(1), [1.0], [1.0])
print("entropy + L2 balance of anchors (1, 1):", w_star, "(solves 1 + ln w + w = 2)")

w1, w2 = rng.uniform(0.2, 1.5, size=2), rng.uniform(0.2, 1.5, size=2)
w_star = complete_squares(ent, q3, w1, w2)
w_probe = rng.uniform(0.2, 1.5, size=2)
lhs = bregman(ent, w_probe, w1) + bregman(q3, w_probe, w2)
rhs = (
    bregman(ent, w_star, w1)
    + bregman(q3, w_star, w2)
    + bregman(ent, w_probe, w_star)
    + bregman(q3, w_probe, w_star)
)
print(f"two-geometry decomposition defect: {abs(lhs - rhs):.2e}")
