import numpy as np
import pytest

from mirrorkit import DomainError, NegEntropy, SeparableQ, SquaredL2

from conftest import all_potentials, random_in_domain


def test_squared_l2_value():
    assert SquaredL2(2).value([3.0, 4.0]) == pytest.approx(12.5)


def test_neg_entropy_value_at_ones():
    assert NegEntropy(2).value([1.0, 1.0]) == 0.0


def test_separable_q_value():
    assert SeparableQ(3.0, 1).value([2.0]) == pytest.approx(8.0 / 3.0)


def test_gradients_closed_forms():
    np.testing.assert_allclose(SquaredL2(2).grad([1.0, -2.0]), [1.0, -2.0])
    np.testing.assert_allclose(NegEntropy(1).grad([1.0]), [1.0])
    np.testing.assert_allclose(SeparableQ(3.0, 1).grad([-2.0]), [-4.0])


def test_mirror_inverse_closed_forms():
    np.testing.assert_allclose(SquaredL2(1).grad_inv([5.0]), [5.0])
    np.testing.assert_allclose(NegEntropy(1).grad_inv([1.0]), [1.0])
    np.testing.assert_allclose(SeparableQ(3.0, 1).grad_inv([4.0]), [2.0])


def test_neg_entropy_rejects_nonpositive():
    p = NegEntropy(2)
    for bad in ([0.0, 1.0], [-0.5, 1.0]):
        with pytest.raises(DomainError):
            p.value(bad)
        with pytest.raises(DomainError):
            p.grad(bad)


def test_wrong_length_rejected():
    with pytest.raises(DomainError):
        SquaredL2(3).value([1.0, 2.0])


@pytest.mark.parametrize("p", all_potentials(3), ids=repr)
def test_check_domain_keeps_its_contract(p):
    """The shape is checked first, then finiteness, then the orthant, which
    only the negative entropy requires; an empty batch passes."""
    for shape in ((2,), (4,), (5, 2)):
        with pytest.raises(DomainError, match=rf"^expected vectors of length 3, got shape \({shape[0]},"):
            p.check_domain(np.ones(shape))
    orthant = f"^{p.kind} requires strictly positive coordinates$"
    for bad in (np.nan, np.inf, -np.inf):
        # a non-finite coordinate is named as such, also beside one off the orthant
        for w in ([1.0, bad, 1.0], [[1.0, 1.0, 1.0], [-1.0, 0.0, bad]]):
            with pytest.raises(DomainError, match="^non-finite coordinate$"):
                p.check_domain(w)
    for w in ([0.0, 1.0, 1.0], [1.0, 1.0, -0.0], [[1.0, 1.0, 1.0], [1.0, -2.0, 1.0]], [1.0, 1.0, -5e-324]):
        if p.domain == "positive_orthant":
            with pytest.raises(DomainError, match=orthant):
                p.check_domain(w)
        else:
            assert np.array_equal(p.check_domain(w), w)
    empty = p.check_domain(np.empty((0, 3)))
    assert empty.shape == (0, 3) and empty.dtype == float
    assert p.check_domain(np.empty((2, 0, 3))).shape == (2, 0, 3)
    w = [[0.5, 1.0, 2.0]]
    assert np.array_equal(p.check_domain(w), w) and p.check_domain(w).dtype == float


def test_round_trip_inverse(rng):
    for p in all_potentials(4):
        for _ in range(50):
            w = random_in_domain(p, rng)
            back = p.grad_inv(p.grad(w))
            assert np.max(np.abs(back - w)) < 1e-10


def test_gradient_matches_finite_differences(rng):
    h = 1e-5
    for p in all_potentials(3):
        for _ in range(20):
            w = random_in_domain(p, rng, low=0.2, high=1.5)
            g = p.grad(w)
            for j in range(p.dim):
                e = np.zeros(p.dim)
                e[j] = h
                fd = (p.value(w + e) - p.value(w - e)) / (2 * h)
                assert abs(fd - g[j]) <= 1e-6 * (1 + abs(g[j]))


def test_hessian_positive_on_probes(rng):
    for p in all_potentials(5):
        for _ in range(30):
            w = random_in_domain(p, rng)
            if isinstance(p, SeparableQ):
                w = w[np.abs(w) >= 1e-8]
                if w.size == 0:
                    continue
                hd = (p.q - 1.0) * np.abs(w) ** (p.q - 2.0)
            else:
                hd = p.hessian_diag(w)
            assert np.all(hd > 0)


def test_q_must_exceed_one():
    with pytest.raises(ValueError):
        SeparableQ(1.0, 2)


def test_argmin_points():
    np.testing.assert_allclose(SquaredL2(2).argmin_point(), [0.0, 0.0])
    np.testing.assert_allclose(NegEntropy(2).argmin_point(), np.exp(-1.0) * np.ones(2))
    g = NegEntropy(1).grad(NegEntropy(1).argmin_point())
    np.testing.assert_allclose(g, [0.0], atol=1e-15)
