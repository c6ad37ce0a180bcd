"""CPU-speed calibration, so that times from different minutes compare.

On a shared VM the effective speed drifts by a third or more within tens of
seconds while the program does the same work. Each timing is therefore
paired with a calibration timed next to it, and reported in reference
seconds:

    reference seconds = measured seconds / slowness

where slowness is 1.0 when the calibration kernels run at their reference
times. Two kernels are timed, because the workloads are bound by different
things: Python calls around numpy operations on arrays of 2-4 elements
(mirrorkit's per-step code), and random gathers over megabyte arrays (the
bootstrap). Slowness is the mean of their two time ratios; on the tuning VM
this tracked every workload better than either kernel alone. Neither kernel
depends on mirrorkit, so a change to the program cannot move them.
"""

import time

import numpy as np

# Median kernel times on the 2-core KVM guest (Intel Xeon, Python 3.11,
# numpy 2.4) where the benchmark was tuned; any constants would do.
INTERPRETER_REF_S = 0.05
MEMORY_REF_S = 0.02


def _interpreter_kernel():
    x = np.array([0.5, 1.5, 2.5])
    total = 0.0
    for _ in range(6000):
        y = np.exp(-x) * 0.5 + x
        total += float(y @ x)
        if not np.all(np.isfinite(y)):
            total += 1.0
        total += sum(k * 0.5 for k in range(10))
    return total


def _memory_kernel():
    # 2 MB chunks, so that the kernel adds little to the peak resident memory
    rng = np.random.default_rng(1)
    values = np.linspace(0.0, 1.0, 10_000)
    total = 0.0
    for _ in range(12):
        idx = rng.integers(0, values.size, (25, values.size))
        total += float(values[idx].mean(axis=1).sum())
    return total


def calibrate():
    """Slowness now: 1.0 at the reference speed, 2.0 when twice as slow."""
    t0 = time.perf_counter()
    _interpreter_kernel()
    t1 = time.perf_counter()
    _memory_kernel()
    t2 = time.perf_counter()
    return ((t1 - t0) / INTERPRETER_REF_S + (t2 - t1) / MEMORY_REF_S) / 2


def to_reference(seconds, slowness):
    """`seconds` measured next to a calibration that read `slowness`."""
    return seconds / slowness
