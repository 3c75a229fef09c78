"""Natural-gradient Gaussian measurement update.

The measurement update is treated as minimizing the expected negative
log-likelihood under the posterior, regularized toward the prior.  Each
iteration averages likelihood derivatives over sigma points of the current
iterate N(x, P) and applies a natural-gradient step in the Gaussian family:

    P_inv'  = prior_inv + E[hess]                 (information/covariance step)
    x'      = x - P' @ (E[grad] + prior_inv @ (x - prior_mean))

All likelihood derivatives, the point functions' included, come from one
function, so the checks on :func:`grad_loglik` and the Hessians check the update.

Two curvature choices are offered -- the exact likelihood Hessian (which can
be indefinite and then kills the covariance step) and its Gauss-Newton part
(PSD by construction) -- and two covariance mechanisms: the ``direct``
information-matrix recursion above, or a multiplicative update of a Cholesky
factor of the inverse covariance (``cholesky-factor``), which keeps positive
definiteness unconditionally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (MissingHessian, NonFiniteFunctionValue, NonFiniteIterate, NotPositiveDefinite, PDFailure,
                     SingularFactor, integer_at_least)
from .filters import ITER_GAMMA, ITER_MAX, GaussianBelief, UpdateDiagnostics, ekf_update, iterate
from .linalg import all_finite, chol_inverse, cholesky_factor, identity, qr_upper, spd_inverse, tril_solve
from .models import StateSpaceModel
from .quadrature import CollocationSet, SigmaPointRule, generate_points

HESSIAN_MODES = ("gauss-newton", "exact")
COV_UPDATES = ("direct", "cholesky-factor")
INIT_MODES = ("prior", "ekf")

# Factor diagonal below this is treated as numerically singular.
FACTOR_DIAG_TOL = 1e-14


@dataclass(frozen=True)
class NanoConfig:
    """Tuning knobs for :func:`nano_update`.

    ``gamma`` and ``max_iters`` bound the iteration; ``epsilon`` is the floor
    ``epsilon I`` added to the reconstructed inverse covariance of the
    ``"cholesky-factor"`` update.  The benchmark runs only the
    :data:`NANO_PRESETS`; pass any other config to :func:`nano_update`.
    """

    gamma: float = ITER_GAMMA
    max_iters: int = ITER_MAX
    hessian: str = "gauss-newton"
    cov_update: str = "direct"
    epsilon: float = 1e-9
    init: str = "prior"

    def __post_init__(self):
        if self.hessian not in HESSIAN_MODES:
            raise ValueError(f"hessian must be one of {HESSIAN_MODES}, got {self.hessian!r}")
        if self.cov_update not in COV_UPDATES:
            raise ValueError(f"cov_update must be one of {COV_UPDATES}, got {self.cov_update!r}")
        if self.init not in INIT_MODES:
            raise ValueError(f"init must be one of {INIT_MODES}, got {self.init!r}")
        # Written so that NaN fails every clause and +-inf fails epsilon's.
        if not (self.gamma > 0 and integer_at_least(self.max_iters, 1) and 0 <= self.epsilon < np.inf):
            raise ValueError("gamma > 0, integer max_iters >= 1, finite epsilon >= 0 required")


# Filter-id presets; the four published variants of the update.
NANO_PRESETS = {
    "nano": NanoConfig(),
    "nano-nopd": NanoConfig(hessian="exact"),
    "nano-ekf": NanoConfig(hessian="exact", init="ekf"),
    "nano-chol": NanoConfig(cov_update="cholesky-factor"),
}


# ---------------------------------------------------------------------------
# Gaussian measurement likelihood and its derivatives


def loglik(x: np.ndarray, y: np.ndarray, model: StateSpaceModel) -> float:
    """Negative log-likelihood up to a constant: 0.5 (y-g)^T R^{-1} (y-g)."""
    resid = np.asarray(y, float) - model.g(x)
    return 0.5 * float(resid @ model.R_inv @ resid)


def grad_loglik(x: np.ndarray, y: np.ndarray, model: StateSpaceModel) -> np.ndarray:
    """Gradient of :func:`loglik` in x: G^T R^{-1} (g(x) - y)."""
    return _at_point(x, y, model, exact=False)[0]


def hess_loglik(x: np.ndarray, y: np.ndarray, model: StateSpaceModel) -> np.ndarray:
    """Exact Hessian: G^T R^{-1} G - sum_j [R^{-1}(y-g)]_j hess(g_j).

    The second term flips sign with the residual, so this matrix can be
    indefinite.  Requires ``model.hess_g``.
    """
    return _at_point(x, y, model, exact=True)[1]


def hess_loglik_gn(x: np.ndarray, model: StateSpaceModel) -> np.ndarray:
    """Gauss-Newton Hessian G^T R^{-1} G; positive semidefinite by construction."""
    # The measurement moves only the gradient, so any one will do.
    return _at_point(x, np.zeros(model.m), model, exact=False)[1]


def _at_point(x, y, model: StateSpaceModel, exact: bool) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_expected_derivatives` under the point mass at ``x``: one point of weight 1."""
    x = np.asarray(x, dtype=float)
    weight = np.ones(1)
    point = CollocationSet(x[None], weight, weight, x, np.zeros((x.shape[0], x.shape[0])))
    return _expected_derivatives(point, np.asarray(y, dtype=float), model, exact)


def _expected_derivatives(
    cset: CollocationSet, y: np.ndarray, model: StateSpaceModel, exact: bool
) -> tuple[np.ndarray, np.ndarray]:
    """E[grad] and E[hess] of :func:`loglik` over the points of ``cset``.

    The only code that forms them; the ``*_loglik*`` functions take one point
    of weight 1.  One model call on the whole stack gives every value the
    pass needs: ``jac_g`` in Gauss-Newton mode, ``hess_g`` if ``exact``, each
    returning ``g`` with its derivatives.  Both curvature terms are stacked
    products over the points: the Gauss-Newton ``G^T R^{-1} G`` and, if
    ``exact``, each point's ``hess_g`` contracted with its ``R^{-1} (g - y)``.
    Raises ``MissingHessian`` if ``exact`` and the model has no ``hess_g``.
    """
    if exact and model.hess_g is None:
        raise MissingHessian(f"model {model.name!r} provides no measurement second derivatives")
    pts, w = cset.points, cset.mean_weights
    lin = model.hess_g(pts) if exact else model.jac_g(pts)
    G = lin.jac                                       # (N, m, n)
    scaled = model.R_inv @ G                          # R^{-1} G, reused below
    resid = lin.value - y                             # (N, m)
    # Weighted sums over axis 0 add the points in order, as a loop would.
    v_x = np.add.reduce(w[:, None] * (scaled.transpose(0, 2, 1) @ resid[..., None])[..., 0], 0)
    h = G.transpose(0, 2, 1) @ scaled                 # (N, n, n)
    if exact:
        N, m, n = G.shape
        wres = (model.R_inv @ resid[..., None])[..., 0]   # R^{-1} (g - y), (N, m)
        h += (wres[:, None, :] @ lin.hess.reshape(N, m, n * n)).reshape(N, n, n)
    v_xx = np.add.reduce(w[:, None, None] * h, 0)
    v_xx = 0.5 * (v_xx + v_xx.T)
    # Checked after symmetrizing, so an entry that overflows there is named
    # as a non-finite value and not as a later loss of positive definiteness.
    if not all_finite(v_x, v_xx):
        raise NonFiniteFunctionValue("likelihood derivatives non-finite at a sigma point")
    return v_x, v_xx


# ---------------------------------------------------------------------------
# Covariance step on a Cholesky factor of the inverse covariance


def chol_cov_step(
    factor: np.ndarray, v_xx: np.ndarray, prior_inv: np.ndarray, epsilon: float
) -> np.ndarray:
    """Multiplicative update of a lower Cholesky factor of the inverse covariance.

    The factor moves by the first-order matrix exponential,
    ``factor' = factor @ (I + M)``.  The exponent ``M`` is built from the gap
    between the curvature target ``v_xx + prior_inv`` and the current factor
    Gram, so the fixed point is the direct recursion's target.  The
    reconstructed inverse covariance ``factor' factor'^T + epsilon I`` is
    positive definite no matter what the curvature looked like.  The
    re-triangularized factor is obtained from a QR factorization of
    ``[moved^T; sqrt(epsilon) I]``, which equals the Cholesky factor of the
    reconstruction but never forms the Gram product -- so its
    smallest pivot stays >= sqrt(epsilon) even when the iterate is so
    ill-conditioned that the explicit product would round to indefinite.
    That ``(2n, n)`` QR input is filled in one preallocated array.

    ``v_xx`` and ``prior_inv`` must each be exactly symmetric (as the outputs
    of :func:`~nanofilter.linalg.symmetrize` are); their sum then is too, so
    it is not symmetrized again.
    """
    if factor.diagonal().min() < FACTOR_DIAG_TOL:
        raise SingularFactor("factor diagonal fell below tolerance")
    n = factor.shape[0]
    target = v_xx + prior_inv - factor @ factor.T
    inner = tril_solve(factor, target)
    exponent = 0.5 * tril_solve(factor, inner.T).T
    moved = factor @ (identity(n) + exponent)
    stacked = np.zeros((2 * n, n))
    stacked[:n] = moved.T
    stacked.flat[n * n :: n + 1] = math.sqrt(epsilon)   # the lower block's diagonal
    upper = qr_upper(stacked)
    signs = np.where(upper.diagonal() < 0.0, -1.0, 1.0)
    return (signs[:, None] * upper).T


# ---------------------------------------------------------------------------
# The update itself


def _sigma_root(cov: np.ndarray, inv_factor: np.ndarray | None) -> np.ndarray:
    """Square root of ``cov`` for sigma-point spreads.

    Prefers the Cholesky factor; if the iterate covariance is numerically
    indefinite (possible after a large multiplicative overshoot, when the
    condition number exceeds float precision) falls back to the inverse
    transpose of ``inv_factor``, whose Gram is ``cov`` by construction.
    """
    try:
        return cholesky_factor(cov)
    except NotPositiveDefinite:
        if inv_factor is None:
            raise
        return tril_solve(inv_factor, identity(inv_factor.shape[0]), trans=True)


def nano_update(
    prior: GaussianBelief,
    y: np.ndarray,
    model: StateSpaceModel,
    rule: SigmaPointRule,
    cfg: NanoConfig | None = None,
) -> tuple[GaussianBelief, UpdateDiagnostics]:
    """Iterated natural-gradient measurement update of a Gaussian prior.

    Stops when the Frobenius change of the covariance drops below
    ``cfg.gamma`` (checked after a full covariance+mean pass) or after
    ``cfg.max_iters`` iterations, and returns the last iterate; the passes
    run under :func:`~nanofilter.filters.iterate`.

    ``prior.cov`` is factored once: the factor gives the prior information
    matrix (by :func:`~nanofilter.linalg.chol_inverse`) and, with ``init="prior"``,
    is the first pass's sigma-point root.  The ``"cholesky-factor"`` update
    then starts from the Cholesky factor of that information matrix.  Each
    pass tests the likelihood derivatives and the new iterate for finiteness
    with :func:`~nanofilter.linalg.all_finite`.

    Raises
    ------
    PDFailure
        If any covariance iterate loses positive definiteness (only possible
        with ``cov_update="direct"`` and an indefinite curvature estimate).
    NonFiniteIterate
        If a mean or covariance iterate leaves the finite floats.
    MissingHessian
        If ``hessian="exact"`` but the model has no second derivatives.
    """
    cfg = cfg or NanoConfig()
    y = np.asarray(y, dtype=float)
    exact = cfg.hessian == "exact"
    factored = cfg.cov_update == "cholesky-factor"

    prior_factor = cholesky_factor(prior.cov)
    prior_inv = chol_inverse(prior_factor)
    prior_mean = prior.mean
    if cfg.init == "ekf":
        start = ekf_update(prior, y, model)[0]
        mean, cov = start.mean, start.cov
        root, cov_inv = None, spd_inverse(cov) if factored else None
    else:
        # The first pass spreads its points with the prior's own factor.
        mean, cov = prior_mean, prior.cov
        root, cov_inv = prior_factor, prior_inv

    # Lower factor of the iterate's *inverse* covariance; its inverse transpose
    # is a square root of the covariance, usable for sigma points even when the
    # covariance itself is too ill-conditioned to re-factorize.
    inv_factor = cholesky_factor(cov_inv) if factored else None

    # A pass's state: (mean, cov, sigma root or None, inverse factor).  Only
    # the first pass is handed a root; every later one takes its own.
    def one_pass(state):
        mean, cov, root, inv_factor = state
        if root is None:
            root = _sigma_root(cov, inv_factor)
        cset = generate_points(rule, mean, cov, spread=root)
        v_x, v_xx = _expected_derivatives(cset, y, model, exact)

        if factored:
            inv_factor = chol_cov_step(inv_factor, v_xx, prior_inv, cfg.epsilon)
        else:
            # Indefinite curvature (exact-Hessian mode) dies here.
            inv_factor = cholesky_factor(prior_inv + v_xx)
        cov_next = chol_inverse(inv_factor)

        mean_next = mean - cov_next @ (v_x + prior_inv @ (mean - prior_mean))
        if not all_finite(mean_next, cov_next):
            raise NonFiniteIterate("optimizer iterate left finite floats")

        d = (cov_next - cov).ravel()
        return (mean_next, cov_next, None, inv_factor), math.sqrt(d.dot(d))

    try:
        (mean, cov, _, _), diag = iterate(
            one_pass, (mean, cov, root, inv_factor), cfg.max_iters, cfg.gamma)
    except NotPositiveDefinite as exc:
        raise PDFailure(f"covariance update lost positive definiteness: {exc}") from exc

    return GaussianBelief(mean, cov), diag
