import numpy as np
import pytest

from mirrorkit import LogCosh, Quadratic, Quartic, make_loss

from conftest import all_losses


def test_formulas():
    assert Quadratic().value(3.0) == pytest.approx(4.5)
    assert Quartic().value(2.0) == pytest.approx(4.0)
    assert LogCosh().value(2.0) == pytest.approx(np.log(np.cosh(2.0)))


def test_root_at_zero_and_positive_elsewhere(rng):
    for l in all_losses():
        assert l.value(0.0) == 0.0
        for v in rng.uniform(0.05, 5.0, size=50):
            assert l.value(v) > 0
            assert l.value(-v) > 0


def test_derivative_is_odd(rng):
    for l in all_losses():
        for v in rng.uniform(0.0, 5.0, size=50):
            assert l.deriv(-v) == pytest.approx(-l.deriv(v), abs=1e-14)


def test_derivatives_match_finite_differences(rng):
    h = 1e-6
    for l in all_losses():
        for v in rng.uniform(-3.0, 3.0, size=40):
            fd = (l.value(v + h) - l.value(v - h)) / (2 * h)
            assert fd == pytest.approx(float(l.deriv(v)), rel=1e-5, abs=1e-7)
            fd2 = (l.deriv(v + h) - l.deriv(v - h)) / (2 * h)
            assert fd2 == pytest.approx(float(l.second_deriv(v)), rel=1e-4, abs=1e-6)


def test_logcosh_large_arguments_stable():
    l = LogCosh()
    assert l.value(800.0) == pytest.approx(800.0 - np.log(2.0))
    assert l.second_deriv(800.0) == 0.0
    assert np.isfinite(l.deriv(800.0))


def test_quadratic_deriv_is_the_float_rule_bitwise(rng):
    """l'(v) = v + 0.0 is np.asarray(v, dtype=float) + 0.0 bit for bit on
    Python floats and ints, np.float64 and 0-d and n-d arrays; -0.0 gives
    +0.0."""
    l = Quadratic()
    for v in (1.5, -0.0, 0.0, 3, -2, np.float64(-0.7), np.float64(-0.0), np.array(2.5), np.array(-0.0),
              rng.standard_normal(5), rng.standard_normal((3, 4)), np.array([-0.0, 0.0, np.inf, -np.inf, np.nan]),
              np.arange(-3, 3)):
        got, want = l.deriv(v), np.asarray(v, dtype=float) + 0.0
        assert np.array_equal(got, want, equal_nan=True) and np.array_equal(np.signbit(got), np.signbit(want)), v
    assert not np.signbit(l.deriv(-0.0))


def test_quadratic_bregman_is_half_squared_difference(rng):
    l = Quadratic()
    for a, b in rng.uniform(-4, 4, size=(30, 2)):
        assert l.bregman(a, b) == pytest.approx(0.5 * (a - b) ** 2)


def test_loss_bregman_examples():
    assert Quartic().bregman(1.0, 0.0) == pytest.approx(0.25)
    assert LogCosh().bregman(2.0, 2.0) == 0.0


def test_loss_bregman_nonnegative(rng):
    for l in all_losses():
        for a, b in rng.uniform(-4, 4, size=(100, 2)):
            assert l.bregman(a, b) >= -1e-12


def test_make_loss():
    assert make_loss("logcosh").kind == "logcosh"
    with pytest.raises(ValueError):
        make_loss("huber")
