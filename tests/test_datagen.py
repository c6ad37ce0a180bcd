import numpy as np
import pytest

from mirrorkit.datagen import basis_then_gaussian, gaussian_inputs
from mirrorkit.samplers import RngStream


def _per_row(dim, count, rng, unit=False, scale=1.0, basis=0):
    """Reference: the first `basis` rows sweep the standard basis, then one
    rng.normal(dim) draw per row, each normalized on its own."""
    rows = [np.eye(dim)[j] for j in range(basis)]
    for _ in range(count - basis):
        x = rng.normal(dim)
        rows.append(x / np.linalg.norm(x) if unit else x)
    return scale * np.array(rows).reshape(count, dim)


@pytest.mark.parametrize("dim", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("count", [0, 1, 15, 200])
def test_inputs_match_per_row_draws_bit_for_bit(dim, count):
    for seed in range(5):
        for unit in (False, True):
            got = gaussian_inputs(dim, count, RngStream(seed, 0), unit=unit, scale=1.5)
            ref = _per_row(dim, count, RngStream(seed, 0), unit=unit, scale=1.5)
            assert got.shape == (count, dim) and np.array_equal(got, ref)
        got = basis_then_gaussian(dim, count, RngStream(seed, 0), scale=1.5)
        ref = _per_row(dim, count, RngStream(seed, 0), scale=1.5, basis=min(dim, count))
        assert got.shape == (count, dim) and np.array_equal(got, ref)


class _FixedRows:
    """A stand-in stream whose draws are given rows."""

    def __init__(self, rows):
        self.rows = np.array(rows, dtype=float)

    def normal_rows(self, count, dim):
        assert self.rows.shape == (count, dim)
        return self.rows.copy()


def test_unit_rows_have_norm_one_and_a_zero_row_falls_back_to_e0():
    X = gaussian_inputs(5, 2000, RngStream(3, 0), unit=True)
    assert np.max(np.abs(np.linalg.norm(X, axis=1) - 1.0)) <= 1e-15
    rows = [[0.0, 0.0, 0.0], [3.0, 0.0, 4.0], [1e-13, -1e-13, 0.0]]
    X = gaussian_inputs(3, 3, _FixedRows(rows), unit=True, scale=2.0)
    np.testing.assert_array_equal(X, [[2.0, 0.0, 0.0], [1.2, 0.0, 1.6], [2.0, 0.0, 0.0]])
