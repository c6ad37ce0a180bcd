import math

import numpy as np
import pytest

from mirrorkit import LogCosh, NegEntropy, Quadratic, Quartic, SeparableQ, SquaredL2
from mirrorkit.samplers import STREAM_TRIAL_BASE, _splitmix64, derive_seed


def all_potentials(dim):
    return [SquaredL2(dim), NegEntropy(dim), SeparableQ(3.0, dim), SeparableQ(1.5, dim)]


def all_losses():
    return [Quadratic(), Quartic(), LogCosh()]


def random_in_domain(p, rng, low=0.1, high=2.0):
    """A random point strictly inside the potential's domain."""
    w = rng.uniform(low, high, size=p.dim)
    if p.domain == "all_reals":
        w *= rng.choice([-1.0, 1.0], size=p.dim)
    return w


class CounterStream:
    """Trial t's uniforms one at a time in Python integers: the splitmix64
    generator started at derive_seed(seed, 1000 + t), each output x mapped to
    (x >> 11) * 2^-53. Successive draws continue the sequence, as an
    RngStream's do, so the single-stream samplers run on it unchanged."""

    def __init__(self, seed, t):
        self.state = derive_seed(seed, STREAM_TRIAL_BASE + t)

    def uniform(self, size):
        values = []
        for _ in range(math.prod(np.atleast_1d(size))):
            self.state = (self.state + 0x9E3779B97F4A7C15) % 2**64
            values.append((_splitmix64(self.state) >> 11) * 2.0**-53)
        return np.array(values, dtype=float).reshape(size)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
