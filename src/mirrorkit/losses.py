"""Scalar convex losses with a unique root at zero.

All three losses are even, differentiable, and vectorize over numpy arrays.
`bregman(a, b)` is the scalar Bregman divergence induced by the loss.
"""

import numpy as np

LN2 = float(np.log(2.0))


class LossFn:
    kind = "abstract"

    def value(self, v):
        raise NotImplementedError

    def deriv(self, v):
        raise NotImplementedError

    def second_deriv(self, v):
        raise NotImplementedError

    def bregman(self, a, b):
        """l(a) - l(b) - l'(b) (a - b); nonnegative for convex l."""
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        return self.value(a) - self.value(b) - self.deriv(b) * (a - b)

    def __repr__(self):
        return f"{type(self).__name__}()"


class Quadratic(LossFn):
    """l(v) = v^2 / 2; its Bregman divergence is (a - b)^2 / 2."""

    kind = "quadratic"

    def value(self, v):
        return 0.5 * np.square(v)

    def deriv(self, v):
        return v + 0.0  # turns a -0.0 into +0.0

    def second_deriv(self, v):
        return np.ones_like(np.asarray(v, dtype=float))


class Quartic(LossFn):
    """l(v) = v^4 / 4."""

    kind = "quartic"

    def value(self, v):
        return 0.25 * np.asarray(v, dtype=float) ** 4

    def deriv(self, v):
        return np.asarray(v, dtype=float) ** 3

    def second_deriv(self, v):
        return 3.0 * np.square(v)


class LogCosh(LossFn):
    """l(v) = ln cosh v, evaluated in an overflow-safe form."""

    kind = "logcosh"

    def value(self, v):
        av = np.abs(v)
        return av + np.log1p(np.exp(-2.0 * av)) - LN2

    def deriv(self, v):
        return np.tanh(v)

    def second_deriv(self, v):
        with np.errstate(over="ignore"):
            return np.square(1.0 / np.cosh(v))


LOSS_KINDS = {cls.kind: cls for cls in (Quadratic, Quartic, LogCosh)}


def make_loss(kind):
    try:
        return LOSS_KINDS[kind]()
    except KeyError:
        raise ValueError(f"unknown loss kind {kind!r}") from None
