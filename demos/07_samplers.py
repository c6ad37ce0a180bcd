"""Exponential-family sampling and the mirror-mean property.

The weight prior exp(-D(w, w0)/eta) factorizes per coordinate for separable
potentials, so draws come from tabulated inverse CDFs (with exact Gaussian
short-circuits where the geometry is quadratic). Whatever the potential,
the mean of the mirrored draws lands on the mirror of the center: the
center is the point whose mirror is the mean of the mirror map.
"""

import numpy as np

from mirrorkit import (
    ExpFamilySpec,
    LogCosh,
    NegEntropy,
    Quadratic,
    Quartic,
    RngStream,
    SeparableQ,
    SquaredL2,
    ks_two_sample,
    mirror_mean_check,
    sample_noise,
    sample_weight,
)

N = 100_000

print("=== mirror-mean property, three geometries ===")
for i, (p, center, scale) in enumerate([
    (SquaredL2(2), [0.3, -0.6], 0.5),
    (NegEntropy(2), [1.0, 1.0], 0.1),
    (SeparableQ(3.0, 1), [2.0], 0.5),
]):
    spec = ExpFamilySpec(p, center, scale)
    rep = mirror_mean_check(spec, N, RngStream(1, i))
    print(f"{p.kind:12s} mean of mirrored draws {np.round(rep.mc_estimate, 4)} "
          f"vs target {np.round(rep.target, 4)}  -> {'ok' if rep.passed else 'FAIL'}")

print()
print("=== noise families matched to each loss ===")
for i, l in enumerate((Quadratic(), Quartic(), LogCosh())):
    v = np.asarray(sample_noise(l, RngStream(2, i), size=N))
    print(f"{l.kind:10s} mean {v.mean():+.4f}  sd {v.std():.4f}  "
          f"kurtosis proxy E v^4 = {np.mean(v**4):.3f}")

print()
print("=== tabulated inverse-CDF path vs exact Gaussian path ===")
spec = ExpFamilySpec(SquaredL2(1), [0.0], 1.0)
tab = sample_weight(spec, RngStream(3, 0), size=N, force_tabulated=True)[:, 0]
exact = sample_weight(spec, RngStream(3, 1), size=N)[:, 0]
ks_stat, _ = ks_two_sample(tab, exact)
print(f"two-sample KS distance over {N} draws: {ks_stat:.4f} "
      f"(1% critical value {1.628 * np.sqrt(2 / N):.4f})")

print()
print("=== determinism ===")
a = sample_weight(spec, RngStream(99, 5), size=4)
b = sample_weight(spec, RngStream(99, 5), size=4)
print("identical (seed, stream) pairs give bitwise identical draws:",
      bool(np.array_equal(a, b)))
