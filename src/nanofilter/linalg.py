"""Dense symmetric/SPD matrix primitives shared by every filter.

All covariance handling in the package funnels through :func:`cholesky_factor`
so that loss of positive definiteness surfaces as one well-defined exception
instead of a LAPACK error in some random call site.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import cho_solve

from .errors import NotPositiveDefinite

# Relative tolerance for the symmetry pre-check in cholesky_factor.
SYMMETRY_RTOL = 1e-10


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Return ``(A + A.T) / 2``."""
    a = np.asarray(a, dtype=float)
    return 0.5 * (a + a.T)


def cholesky_factor(a: np.ndarray) -> np.ndarray:
    """Lower-triangular Cholesky factor ``L`` with ``L @ L.T == A``.

    The gate is factorization success alone: a covariance can be legitimately
    positive definite yet conditioned worse than float precision.

    Raises
    ------
    ValueError
        If ``a`` is not square or not symmetric to relative tolerance
        ``SYMMETRY_RTOL``.
    NotPositiveDefinite
        If ``a`` has a NaN or infinite entry, or a nonpositive pivot is
        encountered.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    scale = np.abs(a).max() if a.size else 0.0
    if not math.isfinite(scale):
        raise NotPositiveDefinite("matrix has a non-finite entry")
    if a.size and np.abs(a - a.T).max() > SYMMETRY_RTOL * max(scale, 1.0):
        raise ValueError("matrix is not symmetric")
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"Cholesky factorization failed: {exc}") from exc


def spd_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``A @ X = B`` for symmetric positive-definite ``A`` via Cholesky."""
    factor = cholesky_factor(a)
    return cho_solve((factor, True), np.asarray(b, dtype=float), check_finite=False)


def spd_inverse(a: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric positive-definite matrix, symmetrized."""
    a = np.asarray(a, dtype=float)
    factor = cholesky_factor(a)
    return symmetrize(cho_solve((factor, True), np.eye(a.shape[0]), check_finite=False))
