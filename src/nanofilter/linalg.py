"""Dense symmetric/SPD matrix primitives shared by every filter.

Every factorization and solve in the package goes through this module, which
calls LAPACK through ``scipy.linalg.lapack`` directly: on the 2x2-6x6
matrices of a filter step the numpy/scipy convenience wrappers cost several
times the arithmetic.  The LAPACK ``info`` of every call is checked:

* ``dpotrf`` (:func:`cholesky_factor`) with ``info > 0`` raises
  :class:`~nanofilter.errors.NotPositiveDefinite`, so loss of positive
  definiteness surfaces as one well-defined exception instead of a LAPACK
  error in some random call site;
* ``dtrtrs`` (:func:`tril_solve`) with ``info > 0`` raises
  :class:`~nanofilter.errors.SingularFactor`;
* ``info < 0`` from ``dpotrf``, ``dpotrs``, ``dtrtrs`` or ``dgeqrf`` means
  an illegal argument and raises ``ValueError``.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dgeqrf, dpotrf, dpotrs, dtrtrs

from .errors import NotPositiveDefinite, SingularFactor

# Relative tolerance for the symmetry pre-check in cholesky_factor.
SYMMETRY_RTOL = 1e-10


def _check_info(routine: str, info: int) -> None:
    if info < 0:
        raise ValueError(f"{routine}: argument {-info} has an illegal value")


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
    # dpotrf reads one triangle and returns info 0 with a NaN factor for a NaN
    # below the diagonal, so finiteness cannot be left to it.
    if not np.isfinite(a).all():
        raise NotPositiveDefinite("matrix has a non-finite entry")
    # The scale of A is only needed once the absolute test has failed.
    asym = np.abs(a - a.T).max(initial=0.0)
    if asym > SYMMETRY_RTOL and asym > SYMMETRY_RTOL * np.abs(a).max():
        raise ValueError("matrix is not symmetric")
    factor, info = dpotrf(a, lower=1, clean=1)
    if info > 0:
        raise NotPositiveDefinite(f"Cholesky factorization failed: leading minor {info} is not positive")
    _check_info("dpotrf", info)
    return factor


def chol_solve(factor: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``(L @ L.T) @ X = B`` for a 2-D ``B`` given the lower Cholesky factor ``L``."""
    x, info = dpotrs(factor, b, lower=1)
    _check_info("dpotrs", info)
    return x


def tril_solve(factor: np.ndarray, b: np.ndarray, trans: bool = False) -> np.ndarray:
    """Solve ``L @ X = B`` (or ``L.T @ X = B`` with ``trans``) for lower-triangular ``L``.

    Raises
    ------
    SingularFactor
        If ``L`` has a zero on its diagonal.
    """
    x, info = dtrtrs(factor, b, lower=1, trans=int(trans))
    if info > 0:
        raise SingularFactor(f"triangular factor has a zero at diagonal entry {info}")
    _check_info("dtrtrs", info)
    return x


def qr_upper(a: np.ndarray) -> np.ndarray:
    """Upper-triangular ``R`` of the QR factorization of an ``(m, n)`` matrix, ``m >= n``."""
    qr, _, _, info = dgeqrf(a)
    _check_info("dgeqrf", info)
    upper = qr[: a.shape[1]]
    for i in range(1, upper.shape[0]):
        upper[i, :i] = 0.0  # below the diagonal dgeqrf stores Householder vectors
    return upper


def spd_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``A @ X = B`` for symmetric positive-definite ``A`` and 2-D ``B`` via Cholesky."""
    return chol_solve(cholesky_factor(a), np.asarray(b, dtype=float))


def spd_inverse(a: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric positive-definite matrix, symmetrized."""
    factor = cholesky_factor(a)
    return symmetrize(chol_solve(factor, np.eye(factor.shape[0])))
