"""Classical Gaussian filters behind one predict/update contract.

All filters share :class:`GaussianBelief`, and every measurement update
returns ``(GaussianBelief, UpdateDiagnostics)``.  :func:`filter_step` runs one
predict + one measurement update and stamps the update's wall-clock time onto
its diagnostics.  The natural-gradient family lives in :mod:`nanofilter.nano`;
this module hosts the baselines and the dispatcher.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import ModelNotLinear, NonFiniteMeasurement, PDFailure
from .linalg import all_finite, chol_solve, identity, spd_solve, symmetrize
from .models import StateSpaceModel
from .quadrature import SigmaPointRule, generate_points, propagate_moments, propagate_with_cross

FILTER_IDS = ("kf", "ekf", "iekf", "ukf", "plf", "nano", "nano-nopd", "nano-ekf", "nano-chol")

ITER_GAMMA = 1e-6
ITER_MAX = 10


@dataclass(frozen=True)
class GaussianBelief:
    """Gaussian state estimate (mean, covariance).

    The covariance is expected to stay symmetric positive definite; producers
    symmetrize, and the SPD property is enforced wherever a factorization is
    actually needed.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=float))
        object.__setattr__(self, "cov", np.asarray(self.cov, dtype=float))


@dataclass(frozen=True)
class UpdateDiagnostics:
    """Per-update bookkeeping returned by every measurement update.

    ``iterations`` counts the passes the update made (1 for the single-pass
    updates).  ``final_delta`` is the change made by the last pass: the norm
    of the mean step for :func:`iekf_update` and :func:`plf_update`, the
    Frobenius norm of the covariance change for the natural-gradient update,
    and 0.0 for the single-pass updates.  ``update_ms`` is filled in by
    :func:`filter_step`; the updates themselves report 0.0.
    """

    iterations: int
    final_delta: float
    pd_failure: bool
    update_ms: float


# Diagnostics of every single-pass update (kf, ekf, ukf).
SINGLE_PASS = UpdateDiagnostics(1, 0.0, False, 0.0)
# Diagnostics of a natural-gradient update that lost positive definiteness.
PD_FAILED = UpdateDiagnostics(0, float("nan"), True, 0.0)


# ---------------------------------------------------------------------------
# Linear Kalman filter


def _kf_predict(belief: GaussianBelief, u, model: StateSpaceModel) -> GaussianBelief:
    lin = model.linear
    x = lin.A @ belief.mean
    if lin.B is not None and u is not None:
        x = x + lin.B @ u
    cov = symmetrize(lin.A @ belief.cov @ lin.A.T + model.Q)
    return GaussianBelief(x, cov)


def _linear_update(prior: GaussianBelief, H: np.ndarray, R: np.ndarray,
                   innovation: np.ndarray) -> GaussianBelief:
    """Shared linear measurement update with Joseph-form covariance."""
    P = prior.cov
    S = symmetrize(H @ P @ H.T + R)
    gain = spd_solve(S, H @ P).T
    mean = prior.mean + gain @ innovation
    closure = identity(P.shape[0]) - gain @ H
    cov = symmetrize(closure @ P @ closure.T + gain @ R @ gain.T)
    return GaussianBelief(mean, cov)


def kf_update(
    prior: GaussianBelief, y, model: StateSpaceModel
) -> tuple[GaussianBelief, UpdateDiagnostics]:
    """Exact linear measurement update (Joseph form)."""
    H = model.linear.H
    post = _linear_update(prior, H, model.R, np.asarray(y, float) - H @ prior.mean)
    return post, SINGLE_PASS


def kf_step(belief: GaussianBelief, u, y, model: StateSpaceModel) -> GaussianBelief:
    """Exact linear-Gaussian step.  ``y=None`` performs prediction only."""
    if model.linear is None:
        raise ModelNotLinear(f"model {model.name!r} has no exact linear parts")
    pred = _kf_predict(belief, u, model)
    if y is None:
        return pred
    return kf_update(pred, y, model)[0]


# ---------------------------------------------------------------------------
# Extended / iterated extended Kalman filter


def ekf_predict(belief: GaussianBelief, u, model: StateSpaceModel, t: int = 0) -> GaussianBelief:
    """First-order linearized prediction."""
    F = model.jac_f(belief.mean, u, t)
    mean = model.f(belief.mean, u, t)
    cov = symmetrize(F @ belief.cov @ F.T + model.Q)
    return GaussianBelief(mean, cov)


def ekf_update(
    prior: GaussianBelief, y, model: StateSpaceModel
) -> tuple[GaussianBelief, UpdateDiagnostics]:
    """Measurement update linearized at the prior mean (Joseph form)."""
    G = model.jac_g(prior.mean)
    innovation = np.asarray(y, float) - model.g(prior.mean)
    return _linear_update(prior, G, model.R, innovation), SINGLE_PASS


def iekf_update(
    prior: GaussianBelief,
    y,
    model: StateSpaceModel,
    max_iters: int = ITER_MAX,
) -> tuple[GaussianBelief, UpdateDiagnostics]:
    """Iterated EKF update: Gauss-Newton relinearization of the MAP problem.

    Stops once the mean step is shorter than ``ITER_GAMMA`` or after
    ``max_iters`` passes.  With ``max_iters=1`` this is exactly
    :func:`ekf_update`.
    """
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    y = np.asarray(y, dtype=float)
    x0, P, R = prior.mean, prior.cov, model.R
    xi = x0
    for iterations in range(1, max_iters + 1):
        G = model.jac_g(xi)
        GP = G @ P
        S = GP @ G.T + R
        S = 0.5 * (S + S.T)
        gain = spd_solve(S, GP).T
        x_next = x0 + gain @ (y - model.g(xi) - G @ (x0 - xi))
        step = x_next - xi
        delta = math.sqrt(step.dot(step))
        xi = x_next
        if delta < ITER_GAMMA:
            break
    closure = identity(P.shape[0]) - gain @ G
    cov = symmetrize(closure @ P @ closure.T + gain @ R @ gain.T)
    return GaussianBelief(xi, cov), UpdateDiagnostics(iterations, delta, False, 0.0)


# ---------------------------------------------------------------------------
# Sigma-point prediction (shared by UKF / PLF / the natural-gradient family)


def mm_predict(
    belief: GaussianBelief,
    u,
    model: StateSpaceModel,
    rule: SigmaPointRule,
    t: int = 0,
) -> GaussianBelief:
    """Moment-matched prediction through the dynamics, plus process noise."""
    cset = generate_points(rule, belief.mean, belief.cov)
    mean, spread_cov = propagate_moments(cset, lambda x: model.f(x, u, t))
    cov = spread_cov + model.Q
    return GaussianBelief(mean, cov)


def ukf_update(
    prior: GaussianBelief, y, model: StateSpaceModel, rule: SigmaPointRule
) -> tuple[GaussianBelief, UpdateDiagnostics]:
    """Sigma-point measurement update (statistical linearization at the prior)."""
    y = np.asarray(y, dtype=float)
    cset = generate_points(rule, prior.mean, prior.cov)
    ybar, spread, cross = propagate_with_cross(cset, model.g)
    S = spread + model.R
    gain = spd_solve(S, cross.T).T
    mean = prior.mean + gain @ (y - ybar)
    cov = symmetrize(prior.cov - gain @ S @ gain.T)
    return GaussianBelief(mean, cov), SINGLE_PASS


def plf_update(
    prior: GaussianBelief,
    y,
    model: StateSpaceModel,
    rule: SigmaPointRule,
    max_iters: int = ITER_MAX,
) -> tuple[GaussianBelief, UpdateDiagnostics]:
    """Iterated posterior-linearization update.

    Each pass statistically linearizes g over the current posterior iterate
    (affine fit A x + b with residual covariance Omega) and redoes the linear
    update of the original prior with measurement noise R + Omega.  The first
    pass linearizes over the prior itself and therefore reproduces
    :func:`ukf_update` exactly.  Stops once the mean step is shorter than
    ``ITER_GAMMA`` or after ``max_iters`` passes.
    """
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    y = np.asarray(y, dtype=float)
    x0, P0, R = prior.mean, prior.cov, model.R
    xi, Pi = x0, P0
    for iterations in range(1, max_iters + 1):
        cset = generate_points(rule, xi, Pi)
        ybar, spread, cross = propagate_with_cross(cset, model.g)
        A = chol_solve(cset.spread, cross).T        # cross^T Pi^{-1}; spread is chol(Pi)
        b = ybar - A @ xi
        omega = spread - A @ Pi @ A.T
        AP0 = A @ P0
        S = AP0 @ A.T + R + 0.5 * (omega + omega.T)
        S = 0.5 * (S + S.T)
        gain = spd_solve(S, AP0).T
        x_next = x0 + gain @ (y - A @ x0 - b)
        P_next = P0 - gain @ S @ gain.T
        P_next = 0.5 * (P_next + P_next.T)
        step = x_next - xi
        delta = math.sqrt(step.dot(step))
        xi, Pi = x_next, P_next
        if delta < ITER_GAMMA:
            break
    return GaussianBelief(xi, Pi), UpdateDiagnostics(iterations, delta, False, 0.0)


# ---------------------------------------------------------------------------
# Dispatch


def filter_step(
    filter_id: str,
    belief: GaussianBelief,
    u,
    y,
    model: StateSpaceModel,
    t: int = 0,
    rule: SigmaPointRule | None = None,
    nano_cfg=None,
) -> tuple[GaussianBelief, UpdateDiagnostics]:
    """One predict + update step of the named filter.

    Returns the posterior belief and the update's diagnostics.  ``update_ms``
    times the measurement update only (prediction excluded).  A
    positive-definiteness failure inside a natural-gradient update is reported
    via ``diagnostics.pd_failure`` with the prior belief returned unchanged.
    A measurement with a NaN or Inf entry raises :class:`NonFiniteMeasurement`
    before any filter work.
    """
    if filter_id not in FILTER_IDS:
        raise ValueError(f"unknown filter {filter_id!r}; expected one of {FILTER_IDS}")
    y = np.asarray(y, dtype=float)
    if not all_finite(y):
        raise NonFiniteMeasurement(f"measurement {y!r} is not finite")
    rule = rule or SigmaPointRule("cubature")

    if filter_id == "kf":
        prior = kf_step(belief, u, None, model)
    elif filter_id in ("ekf", "iekf"):
        prior = ekf_predict(belief, u, model, t)
    else:
        prior = mm_predict(belief, u, model, rule, t)

    start = time.perf_counter()
    try:
        post, diag = _update(filter_id, prior, y, model, rule, nano_cfg)
    except PDFailure:
        post, diag = prior, PD_FAILED
    elapsed = time.perf_counter() - start
    return post, UpdateDiagnostics(diag.iterations, diag.final_delta, diag.pd_failure, elapsed * 1e3)


def _update(filter_id: str, prior: GaussianBelief, y, model: StateSpaceModel,
            rule: SigmaPointRule, nano_cfg) -> tuple[GaussianBelief, UpdateDiagnostics]:
    """The named filter's measurement update.

    Each update is looked up by name at call time, so a rebinding of this
    module's (or :mod:`nanofilter.nano`'s) attribute reaches every step.
    """
    from . import nano  # deferred: nano imports this module's baselines

    if filter_id == "kf":
        return kf_update(prior, y, model)
    if filter_id == "ekf":
        return ekf_update(prior, y, model)
    if filter_id == "iekf":
        return iekf_update(prior, y, model)
    if filter_id == "ukf":
        return ukf_update(prior, y, model, rule)
    if filter_id == "plf":
        return plf_update(prior, y, model, rule)
    cfg = nano_cfg if nano_cfg is not None else nano.NANO_PRESETS[filter_id]
    return nano.nano_update(prior, y, model, rule, cfg)
