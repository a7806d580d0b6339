import math

import numpy as np
import pytest

from finsec import (
    least_squares,
    min_singular_value,
    spectral_norm,
)
from oracles import singular_value_extremes

D_MATRIX = np.array([[1, 1, 1], [1, 1, 0], [1, 0, 0]], dtype=float)
D_INVERSE = np.array([[0, 0, 1], [0, 1, -1], [1, -1, 0]], dtype=float)


def test_hand_inverse_of_corner_block():
    # frozen by hand: D * D^-1 = I, so sigma_min(D) = 1 / sigma_max(D^-1)
    assert np.array_equal(D_MATRIX @ D_INVERSE, np.eye(3))


# ---------------------------------------------------------------------------
# least_squares
# ---------------------------------------------------------------------------


def test_least_squares_matches_solve_when_square():
    rng = np.random.default_rng(11)
    m = rng.standard_normal((5, 5)) + 2 * np.eye(5)
    rhs = rng.standard_normal(5)
    assert np.allclose(least_squares(m, rhs), np.linalg.solve(m, rhs), atol=1e-10)


def test_least_squares_overdetermined():
    # normal equation of ones-column: 2x = 4
    x = least_squares(np.array([[1.0], [1.0]]), np.array([1.0, 3.0]))
    assert x.shape == (1,)
    assert x[0] == pytest.approx(2.0, abs=1e-12)


def test_least_squares_zero_matrix_gives_minimum_norm():
    x = least_squares(np.zeros((3, 2)), np.array([1.0, 2.0, 3.0]))
    assert np.array_equal(x, np.zeros(2))


def test_least_squares_residual_is_locally_optimal():
    rng = np.random.default_rng(5)
    for _ in range(6):
        rows, cols = 9, 4
        m = rng.standard_normal((rows, cols))
        rhs = rng.standard_normal(rows)
        x = least_squares(m, rhs)
        best = np.linalg.norm(m @ x - rhs)
        for _ in range(20):
            step = rng.standard_normal(cols) * 1e-3
            assert np.linalg.norm(m @ (x + step) - rhs) >= best - 1e-12


# ---------------------------------------------------------------------------
# singular values
# ---------------------------------------------------------------------------


def test_spectral_norm_identity_and_permutation():
    assert spectral_norm(np.eye(4)) == pytest.approx(1.0, abs=1e-12)
    assert spectral_norm(np.array([[0, 1], [1, 0]])) == pytest.approx(1.0, abs=1e-12)


def test_spectral_norm_jordan_cell_is_golden_ratio():
    # Gram of [[1,1],[0,1]] is [[1,1],[1,2]] with largest eigenvalue
    # (3+sqrt(5))/2, whose root is the golden ratio
    golden = (1 + math.sqrt(5)) / 2
    assert spectral_norm(np.array([[1.0, 1.0], [0.0, 1.0]])) == pytest.approx(
        golden, abs=1e-10
    )


def test_min_singular_identity_and_zero_row():
    assert min_singular_value(np.eye(5)) == pytest.approx(1.0, abs=1e-12)
    assert min_singular_value(np.array([[1.0, 2.0], [0.0, 0.0]])) == pytest.approx(
        0.0, abs=1e-12
    )


def test_min_singular_of_corner_block_matches_hand_inverse():
    expected = 1.0 / spectral_norm(D_INVERSE)
    assert min_singular_value(D_MATRIX) == pytest.approx(expected, abs=1e-12)
    # and the independent exact oracle agrees
    smin, _ = singular_value_extremes([[1, 1, 1], [1, 1, 0], [1, 0, 0]])
    assert min_singular_value(D_MATRIX) == pytest.approx(smin, abs=1e-10)


def test_extremes_invariant_under_transpose_and_permutation():
    rng = np.random.default_rng(17)
    for _ in range(10):
        n = int(rng.integers(2, 8))
        m = rng.standard_normal((n, n))
        smin, smax = min_singular_value(m), spectral_norm(m)
        assert min_singular_value(m.T) == pytest.approx(smin, rel=1e-9)
        assert spectral_norm(m.T) == pytest.approx(smax, rel=1e-9)
        perm = rng.permutation(n)
        assert min_singular_value(m[perm][:, perm]) == pytest.approx(smin, rel=1e-9)
        assert spectral_norm(m[perm][:, perm]) == pytest.approx(smax, rel=1e-9)
        assert smin <= smax + 1e-15


def test_kernels_match_exact_oracle_on_integer_matrices():
    rng = np.random.default_rng(23)
    for _ in range(10):
        n = int(rng.integers(1, 7))
        m = rng.integers(-4, 5, size=(n, n))
        smin, smax = singular_value_extremes(m.tolist())
        assert spectral_norm(m.astype(float)) == pytest.approx(smax, abs=1e-8)
        assert min_singular_value(m.astype(float)) == pytest.approx(smin, abs=1e-8)
