import numpy as np
import pytest

from nanofilter.errors import NotPositiveDefinite
from nanofilter.linalg import cholesky_factor, spd_inverse, spd_solve, symmetrize


def test_cholesky_factor_known_values():
    a = np.array([[4.0, 2.0], [2.0, 5.0]])
    expected = np.array([[2.0, 0.0], [1.0, 2.0]])
    np.testing.assert_allclose(cholesky_factor(a), expected, atol=1e-14)


@pytest.mark.parametrize("n", range(1, 7))
def test_cholesky_factor_roundtrip(n):
    rng = np.random.default_rng(7 + n)
    m = rng.standard_normal((n, n))
    a = m.T @ m + 1e-3 * np.eye(n)
    factor = cholesky_factor(a)
    assert np.allclose(np.tril(factor), factor)  # lower triangular
    np.testing.assert_allclose(factor @ factor.T, a, rtol=1e-12, atol=1e-12)


def test_cholesky_factor_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        cholesky_factor(np.diag([1.0, -1e-8]))


def test_cholesky_factor_accepts_ill_conditioned_pd():
    # positive definite but conditioned far beyond float precision
    a = np.diag([1.0, 1e-30])
    factor = cholesky_factor(a)
    np.testing.assert_allclose(factor @ factor.T, a)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_cholesky_factor_rejects_non_finite(bad):
    a = np.eye(2)
    a[1, 1] = bad
    with pytest.raises(NotPositiveDefinite):
        cholesky_factor(a)


def test_cholesky_factor_rejects_asymmetric():
    with pytest.raises(ValueError):
        cholesky_factor(np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        cholesky_factor(np.ones((2, 3)))


def test_spd_solve_matches_dense_solve():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = rng.integers(1, 6)
        m = rng.standard_normal((n, n))
        a = m @ m.T + np.eye(n)
        b = rng.standard_normal((n, 3))
        np.testing.assert_allclose(spd_solve(a, b), np.linalg.solve(a, b), rtol=1e-10, atol=1e-12)


def test_spd_inverse_roundtrip():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((4, 4))
    a = m @ m.T + np.eye(4)
    inv = spd_inverse(a)
    np.testing.assert_allclose(inv, inv.T)  # symmetrized output
    np.testing.assert_allclose(a @ inv, np.eye(4), atol=1e-12)


def test_symmetrize():
    a = np.array([[1.0, 2.0], [0.0, 3.0]])
    np.testing.assert_allclose(symmetrize(a), np.array([[1.0, 1.0], [1.0, 3.0]]))
