"""Dense symmetric/SPD matrix primitives shared by every filter.

All covariance handling in the package funnels through :func:`cholesky_factor`
so that loss of positive definiteness surfaces as one well-defined exception
instead of a LAPACK error in some random call site.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_solve

from .errors import NotPositiveDefinite

# Opt-in PD-test tolerance: a Cholesky pivot (squared factor diagonal) at or
# below this fraction of the largest diagonal entry counts as effectively
# singular.  The default gate is factorization success alone, because a
# covariance can be legitimately PD yet conditioned worse than 1e12.
PIVOT_RTOL = 1e-12

# Relative tolerance for the symmetry pre-check in cholesky_factor.
SYMMETRY_RTOL = 1e-10


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Return ``(A + A.T) / 2``."""
    a = np.asarray(a, dtype=float)
    return 0.5 * (a + a.T)


def frobenius_norm(a: np.ndarray) -> float:
    """Frobenius norm, as a plain float."""
    return float(np.linalg.norm(np.asarray(a, dtype=float)))


def cholesky_factor(a: np.ndarray, pivot_rtol: float = 0.0) -> np.ndarray:
    """Lower-triangular Cholesky factor ``L`` with ``L @ L.T == A``.

    Parameters
    ----------
    a : (n, n) array_like
        Symmetric positive-definite matrix.
    pivot_rtol : float
        Optional relative pivot floor for an explicit "effectively singular"
        test (``PIVOT_RTOL`` is the library convention); the default accepts
        everything the factorization itself accepts.

    Raises
    ------
    ValueError
        If ``a`` is not square or not symmetric to relative tolerance
        ``SYMMETRY_RTOL``.
    NotPositiveDefinite
        If a nonpositive pivot is encountered, or any pivot falls at or below
        ``pivot_rtol * max(diag(a))``.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    scale = np.abs(a).max() if a.size else 0.0
    if a.size and np.abs(a - a.T).max() > SYMMETRY_RTOL * max(scale, 1.0):
        raise ValueError("matrix is not symmetric")
    try:
        factor = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"Cholesky factorization failed: {exc}") from exc
    if pivot_rtol > 0.0:
        floor = pivot_rtol * max(float(np.max(np.diag(a))), 0.0)
        if np.any(np.diag(factor) ** 2 <= floor):
            raise NotPositiveDefinite("Cholesky pivot below relative threshold")
    return factor


def spd_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``A @ X = B`` for symmetric positive-definite ``A`` via Cholesky."""
    factor = cholesky_factor(a)
    return cho_solve((factor, True), np.asarray(b, dtype=float), check_finite=False)


def spd_inverse(a: np.ndarray, pivot_rtol: float = 0.0) -> np.ndarray:
    """Inverse of a symmetric positive-definite matrix, symmetrized."""
    a = np.asarray(a, dtype=float)
    factor = cholesky_factor(a, pivot_rtol)
    return symmetrize(cho_solve((factor, True), np.eye(a.shape[0]), check_finite=False))

