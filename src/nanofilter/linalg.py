"""Dense symmetric/SPD matrix primitives shared by every filter.

Every factorization and solve in the package goes through this module, which
calls LAPACK directly: on the 2x2-6x6 matrices of a filter step the
numpy/scipy convenience wrappers cost several times the arithmetic.

The routines are the ones ``scipy.linalg.lapack`` re-exports, taken from
scipy's compiled ``scipy/linalg/_flapack`` extension, which is loaded from its
file.  ``importlib.util.find_spec`` locates scipy without running its package
init, so importing this module never executes ``scipy/linalg/__init__.py``:
that init imports ``scipy._lib._array_api``, which pulls in ``numpy.f2py``,
``numpy.testing`` and ``numpy.ma`` (none of which this package uses) and more
than doubles the import time of :mod:`nanofilter.bench`.  If the extension
file is missing or fails to load, the module falls back to
``scipy.linalg.lapack``, which exposes the same compiled functions.  Loading
the file alone is not enough where scipy's own init must run first: the
Windows wheels are repaired with delvewheel, whose patch to
``scipy/__init__.py`` adds the bundled ``scipy.libs`` directory to the DLL
search path, and without it ``_flapack`` cannot find its OpenBLAS.  A scipy
frozen into an application bundle has no ``scipy/linalg/_flapack`` file at
all.  On Linux and macOS wheels the extension finds its libraries through its
own run path, so the direct load is the one taken.

The LAPACK ``info`` of every call is checked:

* ``dpotrf`` (:func:`cholesky_factor`) with ``info > 0`` raises
  :class:`~nanofilter.errors.NotPositiveDefinite`, so loss of positive
  definiteness surfaces as one well-defined exception instead of a LAPACK
  error in some random call site;
* ``dtrtrs`` (:func:`tril_solve`) with ``info > 0`` raises
  :class:`~nanofilter.errors.SingularFactor`;
* ``dstevd`` (:func:`tridiagonal_eigh`) with ``info > 0`` raises
  ``numpy.linalg.LinAlgError`` (no convergence);
* ``info < 0`` from any routine means an illegal argument and raises
  ``ValueError``.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os

import numpy as np

from .errors import NotPositiveDefinite, SingularFactor


def _load_flapack():
    """scipy's compiled LAPACK module, loaded from its file without importing ``scipy.linalg``."""
    spec = importlib.util.find_spec("scipy")
    if spec is None:
        raise ImportError("scipy is not installed")
    name = "scipy.linalg._flapack"
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(spec.submodule_search_locations[0], "linalg", "_flapack" + suffix)
        if os.path.isfile(path):
            loader = importlib.machinery.ExtensionFileLoader(name, path)
            module = importlib.util.module_from_spec(importlib.util.spec_from_loader(name, loader))
            loader.exec_module(module)
            return module
    raise ImportError("scipy/linalg/_flapack extension not found")


try:
    _flapack = _load_flapack()
except ImportError:
    from scipy.linalg import lapack as _flapack

dgeqrf, dpotrf, dpotrs, dstevd, dtrtrs = (
    _flapack.dgeqrf, _flapack.dpotrf, _flapack.dpotrs, _flapack.dstevd, _flapack.dtrtrs
)

# Relative tolerance for the symmetry pre-check in cholesky_factor.
SYMMETRY_RTOL = 1e-10


def _check_info(routine: str, info: int) -> None:
    if info < 0:
        raise ValueError(f"{routine}: argument {-info} has an illegal value")


@functools.lru_cache(maxsize=32)
def identity(n: int) -> np.ndarray:
    """The ``n x n`` identity, built once per ``n`` and read-only.

    ``dpotrs`` and ``dtrtrs`` copy their right-hand side (``overwrite_b=0``),
    so it can be passed to :func:`chol_solve` and :func:`tril_solve`.
    """
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


# all_finite sums arrays up to this size with Python's float sum, and takes
# the sum of squares of larger ones.  Near 48 entries the two cost the same.
FINITE_SUM_MAX = 48


def all_finite(*arrays: np.ndarray) -> bool:
    """Whether every entry of every array is finite (neither NaN nor +-Inf).

    The fast path adds up one total per array: the entries themselves, by
    Python's float sum, for arrays of up to ``FINITE_SUM_MAX`` entries, and
    the squares of the entries, by one 1-D ``@``, above.  Either total is
    finite only when every entry is.  Both cost less than a numpy reduction,
    the sum on small arrays and the ``@`` on large ones, and neither releases
    the GIL (``ndarray.dot`` does, which changes how the thread-pool workers
    of a Monte Carlo run take turns at the interpreter mid-update).  Large
    finite entries can overflow a total (numpy warns for the ``@``), so a
    non-finite total falls back to the entry-wise test.
    """
    total = 0.0
    for a in arrays:
        flat = a.ravel()
        total += sum(flat.tolist()) if flat.size <= FINITE_SUM_MAX else float(flat @ flat)
    return math.isfinite(total) or all(np.isfinite(a).all() for a in arrays)


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
    # below the diagonal, so finiteness cannot be left to it.  A bitwise
    # symmetric matrix skips the symmetry tolerance test.
    if not all_finite(a):
        raise NotPositiveDefinite("matrix has a non-finite entry")
    if a.tobytes() != a.T.tobytes():
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
    return symmetrize(chol_solve(factor, identity(factor.shape[0])))


def tridiagonal_eigh(d: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvector columns of a symmetric tridiagonal matrix.

    ``d`` is the diagonal and ``e`` the off-diagonal.  Raises
    ``numpy.linalg.LinAlgError`` if ``dstevd`` does not converge.
    """
    vals, vecs, info = dstevd(d, e, compute_v=1)
    if info > 0:
        raise np.linalg.LinAlgError(f"dstevd: {info} off-diagonal elements did not converge")
    _check_info("dstevd", info)
    return vals, vecs
