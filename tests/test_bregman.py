import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrorkit import (
    NegEntropy,
    SeparableQ,
    SquaredL2,
    bregman,
    complete_squares,
    law_of_cosines_residual,
)

from conftest import all_potentials, random_in_domain

# direct KL formula as the independent oracle for the entropy divergence
KL_HALF_HALF = 0.5 * np.log(2.0) + 0.5 * np.log(2.0 / 3.0)  # = 0.14384103622589045


def test_squared_l2_bregman_is_half_squared_distance():
    assert bregman(SquaredL2(2), [1.0, 0.0], [0.0, 0.0]) == pytest.approx(0.5)


def test_neg_entropy_bregman_matches_kl_oracle():
    p = np.array([0.5, 0.5])
    q = np.array([0.25, 0.75])
    oracle = float(np.sum(p * np.log(p / q)))
    got = bregman(NegEntropy(2), p, q)
    assert got == pytest.approx(oracle, abs=1e-12)
    assert got == pytest.approx(KL_HALF_HALF, abs=1e-12)
    assert got == pytest.approx(0.14384103622589045, abs=1e-12)


def test_bregman_zero_on_equal_arguments(rng):
    for p in all_potentials(3):
        w = random_in_domain(p, rng)
        assert abs(bregman(p, w, w)) <= 1e-12


def test_bregman_nonnegative_thousand_pairs(rng):
    for p in all_potentials(4):
        for _ in range(1000):
            a = random_in_domain(p, rng, low=0.05, high=3.0)
            b = random_in_domain(p, rng, low=0.05, high=3.0)
            assert bregman(p, a, b) >= -1e-12


def test_bregman_positive_when_separated(rng):
    for p in all_potentials(3):
        for _ in range(50):
            a = random_in_domain(p, rng)
            b = random_in_domain(p, rng)
            if np.max(np.abs(a - b)) > 1e-6:
                assert bregman(p, a, b) > 0.0


@settings(max_examples=150, deadline=None)
@given(
    a=st.floats(0.05, 3.0),
    b=st.floats(0.05, 3.0),
    c=st.floats(0.05, 3.0),
    lam=st.floats(0.0, 1.0),
)
def test_first_argument_convexity(a, b, c, lam):
    for p in [SquaredL2(1), NegEntropy(1), SeparableQ(3.0, 1), SeparableQ(1.5, 1)]:
        mix = bregman(p, [lam * a + (1 - lam) * b], [c])
        bound = lam * bregman(p, [a], [c]) + (1 - lam) * bregman(p, [b], [c])
        assert mix <= bound + 1e-10


def test_law_of_cosines_squared_l2():
    assert law_of_cosines_residual(SquaredL2(1), [1.0], [2.0], [3.0]) < 1e-12


def test_law_of_cosines_random_triples(rng):
    for p in all_potentials(4):
        for _ in range(100):
            triple = [random_in_domain(p, rng) for _ in range(3)]
            assert law_of_cosines_residual(p, *triple) <= 1e-9


def test_law_of_cosines_degenerate(rng):
    for p in all_potentials(2):
        w = random_in_domain(p, rng)
        wp = random_in_domain(p, rng)
        assert law_of_cosines_residual(p, w, wp, w.copy()) < 1e-12


def test_complete_squares_midpoint():
    np.testing.assert_allclose(
        complete_squares(SquaredL2(1), SquaredL2(1), [2.0], [4.0]), [3.0]
    )


def test_complete_squares_entropy_plus_l2():
    # 1 + ln w + w = 2 has the root w = 1 by inspection
    w = complete_squares(NegEntropy(1), SquaredL2(1), [1.0], [1.0])
    np.testing.assert_allclose(w, [1.0], atol=1e-10)


def test_complete_squares_equal_q_closed_form():
    p = SeparableQ(3.0, 2)
    w = complete_squares(p, p, [1.0, -2.0], [2.0, -1.0])
    rhs = p.grad([1.0, -2.0]) + p.grad([2.0, -1.0])
    np.testing.assert_allclose(2.0 * p.grad(w), rhs, atol=1e-12)


def test_completion_identity_random(rng):
    """The two-potential decomposition around w* balances for random w."""
    pairs = [
        (SquaredL2(3), NegEntropy(3)),
        (NegEntropy(3), SeparableQ(3.0, 3)),
        (SeparableQ(1.5, 3), SquaredL2(3)),
    ]
    for p1, p2 in pairs:
        for _ in range(20):
            w1 = random_in_domain(p1, rng)
            w2 = random_in_domain(p2, rng)
            w_star = complete_squares(p1, p2, w1, w2)
            w = rng.uniform(0.05, 3.0, size=3)
            lhs = bregman(p1, w, w1) + bregman(p2, w, w2)
            rhs = (
                bregman(p1, w_star, w1)
                + bregman(p2, w_star, w2)
                + bregman(p1, w, w_star)
                + bregman(p2, w, w_star)
            )
            assert abs(lhs - rhs) <= 1e-9 * (1 + abs(lhs))


def test_complete_squares_unique_across_starts(rng):
    p1, p2 = NegEntropy(2), SeparableQ(3.0, 2)
    w1 = np.array([0.7, 1.3])
    w2 = np.array([1.5, 0.4])
    roots = [
        complete_squares(p1, p2, w1, w2, x0=start)
        for start in ([0.1, 0.1], [2.0, 2.0], [0.5, 3.0])
    ]
    for r in roots[1:]:
        assert np.max(np.abs(r - roots[0])) < 1e-8


def test_complete_squares_certifies_residual(rng):
    p1, p2 = SeparableQ(1.5, 3), NegEntropy(3)
    w1 = random_in_domain(p1, rng, low=0.2)
    w2 = random_in_domain(p2, rng, low=0.2)
    w_star = complete_squares(p1, p2, w1, w2)
    rhs = p1.grad(w1) + p2.grad(w2)
    resid = np.max(np.abs(p1.grad(w_star) + p2.grad(w_star) - rhs))
    assert resid <= 1e-10


POTENTIALS = {
    "l2": SquaredL2,
    "ent": NegEntropy,
    "q3": lambda dim: SeparableQ(3.0, dim),
    "q1.5": lambda dim: SeparableQ(1.5, dim),
}


@pytest.mark.parametrize("kind2", POTENTIALS)
@pytest.mark.parametrize("kind1", POTENTIALS)
def test_complete_squares_solves_coordinates_independently(kind1, kind2, rng):
    # coordinate 0 starts at 1; with a NegEntropy its root lies near 0, so
    # the first Newton steps leave the domain and are halved. Coordinate 1
    # starts at its root and stops at once; coordinate 2 is random.
    make1, make2 = POTENTIALS[kind1], POTENTIALS[kind2]
    p1, p2 = make1(3), make2(3)
    w1 = np.array([1.0, 0.7, rng.uniform(0.3, 2.0)])
    w2 = np.array([1e-8 if kind2 == "ent" else -3.0, 0.7, rng.uniform(0.3, 2.0)])
    w_star = complete_squares(p1, p2, w1, w2)
    singles = [complete_squares(make1(1), make2(1), [a], [b]) for a, b in zip(w1, w2)]
    assert np.array_equal(w_star, np.concatenate(singles))
    assert w_star[1] == pytest.approx(0.7, abs=1e-12)
    if "ent" in (kind1, kind2):
        assert 0.0 < w_star[0] < 0.2


def test_complete_squares_dim_mismatch():
    with pytest.raises(ValueError):
        complete_squares(SquaredL2(2), SquaredL2(3), [1.0, 2.0], [1.0, 2.0, 3.0])
