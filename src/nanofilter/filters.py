"""Classical Gaussian filters behind one predict/update contract.

All filters share :class:`GaussianBelief`, and every measurement update
returns ``(GaussianBelief, UpdateDiagnostics)``.  :func:`predict_update` runs
one predict + one measurement update of the filter id it is given, as looked up
in the one table :data:`FILTERS`, and stamps the update's wall-clock time onto
its diagnostics; every estimation failure propagates from it as an
:class:`~nanofilter.errors.EstimationError`.  The natural-gradient family lives
in :mod:`nanofilter.nano`; this module hosts the baselines and the filter table.
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
    and 0.0 for the single-pass updates.  ``converged`` says whether the last
    pass met the stopping test; an update that meets it on its last allowed
    pass has converged, one that reaches the cap without meeting it has not.
    ``update_ms`` is filled in by :func:`predict_update`; the updates
    themselves report 0.0.  Only an update that returned has diagnostics: one
    that fails, positive definiteness lost included, raises an
    :class:`~nanofilter.errors.EstimationError` instead.  ``pd_failure`` is
    True only on :data:`PD_FAILED`, which :func:`filter_step` returns in place
    of a :class:`~nanofilter.errors.PDFailure`.
    """

    iterations: int
    final_delta: float
    converged: bool
    update_ms: float
    pd_failure: bool = False


# Diagnostics of every single-pass update (kf, ekf, ukf).
SINGLE_PASS = UpdateDiagnostics(1, 0.0, True, 0.0)


def iterate(one_pass, state, max_iters: int, tol: float):
    """Run ``one_pass`` until its statistic drops below ``tol``, at most ``max_iters`` times.

    ``one_pass(state)`` returns ``(next state, stopping statistic)``.  Returns
    the last state and its :class:`UpdateDiagnostics`: the passes made, the
    last statistic, and whether it fell below ``tol``.  Every iterated update
    (:func:`iekf_update`, :func:`plf_update`,
    :func:`~nanofilter.nano.nano_update`) is one pass plus one call of this
    function.
    """
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    for iterations in range(1, max_iters + 1):
        state, delta = one_pass(state)
        if delta < tol:
            return state, UpdateDiagnostics(iterations, delta, True, 0.0)
    return state, UpdateDiagnostics(iterations, delta, False, 0.0)


# ---------------------------------------------------------------------------
# Linear Kalman filter


def kf_predict(belief: GaussianBelief, u, model: StateSpaceModel) -> GaussianBelief:
    """Exact linear prediction."""
    lin = model.linear
    if lin is None:
        raise ModelNotLinear(f"model {model.name!r} has no exact linear parts")
    x = lin.A @ belief.mean
    if lin.B is not None and u is not None:
        x = x + lin.B @ u
    cov = symmetrize(lin.A @ belief.cov @ lin.A.T + model.Q)
    return GaussianBelief(x, cov)


def _joseph_cov(P: np.ndarray, gain: np.ndarray, H: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Joseph-form posterior covariance (I - K H) P (I - K H)^T + K R K^T, symmetrized."""
    closure = identity(P.shape[0]) - gain @ H
    return symmetrize(closure @ P @ closure.T + gain @ R @ gain.T)


def _linear_update(prior: GaussianBelief, H: np.ndarray, R: np.ndarray,
                   innovation: np.ndarray) -> GaussianBelief:
    """Shared linear measurement update with Joseph-form covariance."""
    P = prior.cov
    S = symmetrize(H @ P @ H.T + R)
    gain = spd_solve(S, H @ P).T
    return GaussianBelief(prior.mean + gain @ innovation, _joseph_cov(P, gain, H, R))


def kf_update(
    prior: GaussianBelief, y, model: StateSpaceModel
) -> tuple[GaussianBelief, UpdateDiagnostics]:
    """Exact linear measurement update (Joseph form)."""
    H = model.linear.H
    post = _linear_update(prior, H, model.R, np.asarray(y, float) - H @ prior.mean)
    return post, SINGLE_PASS


def kf_step(belief: GaussianBelief, u, y, model: StateSpaceModel) -> GaussianBelief:
    """Exact linear-Gaussian step.  ``y=None`` performs prediction only."""
    pred = kf_predict(belief, u, model)
    return pred if y is None else kf_update(pred, y, model)[0]


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
    lin = model.jac_g(prior.mean)
    innovation = np.asarray(y, float) - lin.value
    return _linear_update(prior, lin.jac, model.R, innovation), SINGLE_PASS


def iekf_update(
    prior: GaussianBelief,
    y,
    model: StateSpaceModel,
    max_iters: int = ITER_MAX,
) -> tuple[GaussianBelief, UpdateDiagnostics]:
    """Iterated EKF update: Gauss-Newton relinearization of the MAP problem.

    Stops once the mean step is shorter than ``ITER_GAMMA`` or after
    ``max_iters`` passes; each pass makes one ``jac_g`` call, which also
    gives ``g``.  With ``max_iters=1`` this is exactly :func:`ekf_update`.
    """
    y = np.asarray(y, dtype=float)
    x0, P, R = prior.mean, prior.cov, model.R

    # A pass's state: (iterate, gain, Jacobian); the last pass's gain and
    # Jacobian give the Joseph-form covariance.
    def one_pass(state):
        xi = state[0]
        lin = model.jac_g(xi)
        G = lin.jac
        GP = G @ P
        S = GP @ G.T + R
        S = 0.5 * (S + S.T)
        gain = spd_solve(S, GP).T
        x_next = x0 + gain @ (y - lin.value - G @ (x0 - xi))
        step = x_next - xi
        return (x_next, gain, G), math.sqrt(step.dot(step))

    (xi, gain, G), diag = iterate(one_pass, (x0, None, None), max_iters, ITER_GAMMA)
    return GaussianBelief(xi, _joseph_cov(P, gain, G, R)), diag


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
    :func:`ukf_update` up to rounding: it forms the innovation covariance as
    ``A P Aᵀ + R + sym(spread - A P Aᵀ)`` where the UKF adds ``spread + R``.
    Stops once the mean step is shorter than ``ITER_GAMMA`` or after
    ``max_iters`` passes.
    """
    y = np.asarray(y, dtype=float)
    x0, P0, R = prior.mean, prior.cov, model.R

    def one_pass(state):
        xi, Pi = state
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
        return (x_next, P_next), math.sqrt(step.dot(step))

    (xi, Pi), diag = iterate(one_pass, (x0, P0), max_iters, ITER_GAMMA)
    return GaussianBelief(xi, Pi), diag


# ---------------------------------------------------------------------------
# The filter table


# Filter id -> (predict(belief, u, model, t, rule), update(prior, y, model, rule)).
# Each lambda looks its function up by name when it runs, so a rebinding of
# this module's or nano's attribute, as a tracer makes, reaches every step.
# Adding a filter id means adding one entry.
FILTERS = {
    "kf": (lambda belief, u, model, t, rule: kf_predict(belief, u, model),
           lambda prior, y, model, rule: kf_update(prior, y, model)),
    "ekf": (lambda belief, u, model, t, rule: ekf_predict(belief, u, model, t),
            lambda prior, y, model, rule: ekf_update(prior, y, model)),
    "iekf": (lambda belief, u, model, t, rule: ekf_predict(belief, u, model, t),
             lambda prior, y, model, rule: iekf_update(prior, y, model)),
    "ukf": (lambda belief, u, model, t, rule: mm_predict(belief, u, model, rule, t),
            lambda prior, y, model, rule: ukf_update(prior, y, model, rule)),
    "plf": (lambda belief, u, model, t, rule: mm_predict(belief, u, model, rule, t),
            lambda prior, y, model, rule: plf_update(prior, y, model, rule)),
    # the natural-gradient ids differ only in their nano.NANO_PRESETS entry;
    # fid=fid gives each lambda its own id
    **{fid: (lambda belief, u, model, t, rule: mm_predict(belief, u, model, rule, t),
             lambda prior, y, model, rule, fid=fid:
                 nano.nano_update(prior, y, model, rule, nano.NANO_PRESETS[fid]))
       for fid in ("nano", "nano-nopd", "nano-ekf", "nano-chol")},
}
FILTER_IDS = tuple(FILTERS)


def lookup_filter(filter_id: str):
    """The table entry of ``filter_id``; a ``ValueError`` for an unknown id."""
    try:
        return FILTERS[filter_id]
    except KeyError:
        raise ValueError(f"unknown filter {filter_id!r}; expected one of {FILTER_IDS}") from None


def predict_update(
    filter_id: str,
    belief: GaussianBelief,
    u,
    y,
    model: StateSpaceModel,
    t: int = 0,
    rule: SigmaPointRule | None = None,
) -> tuple[GaussianBelief, UpdateDiagnostics]:
    """One predict + update step of the named filter.

    Returns the posterior belief and the update's diagnostics.  ``update_ms``
    times the measurement update only (prediction excluded).  A measurement
    with a NaN or Inf entry raises :class:`NonFiniteMeasurement` before any
    filter work; any other estimation failure, a natural-gradient update's
    :class:`~nanofilter.errors.PDFailure` included, propagates from the
    predict or update that raised it.
    """
    predict, update = lookup_filter(filter_id)
    y = np.asarray(y, dtype=float)
    if not all_finite(y):
        raise NonFiniteMeasurement(f"measurement {y!r} is not finite")
    rule = rule or SigmaPointRule("cubature")

    prior = predict(belief, u, model, t, rule)
    start = time.perf_counter()
    post, diag = update(prior, y, model, rule)
    elapsed = time.perf_counter() - start
    return post, UpdateDiagnostics(diag.iterations, diag.final_delta, diag.converged, elapsed * 1e3)


# Diagnostics filter_step returns for an update that lost positive definiteness.
PD_FAILED = UpdateDiagnostics(0, float("nan"), False, 0.0, pd_failure=True)


def filter_step(
    filter_id: str,
    belief: GaussianBelief,
    u,
    y,
    model: StateSpaceModel,
    t: int = 0,
    rule: SigmaPointRule | None = None,
) -> tuple[GaussianBelief, UpdateDiagnostics]:
    """:func:`predict_update`, except that a :class:`PDFailure` returns the prior with :data:`PD_FAILED`.

    The prior is the predicted belief.  perfbench's warm-up calls this name
    for every filter id, nano-nopd and nano-ekf on fm and duffing among them,
    whose first update loses positive definiteness.  The package itself steps
    through :func:`predict_update`, so a PD failure ends a trial like every
    other estimation error.  ROADMAP item 8 deletes this function,
    ``PD_FAILED`` and ``pd_failure`` together with perfbench's calls.
    """
    try:
        return predict_update(filter_id, belief, u, y, model, t, rule)
    except PDFailure:
        predict = lookup_filter(filter_id)[0]
        return predict(belief, u, model, t, rule or SigmaPointRule("cubature")), PD_FAILED


# Last, because nano imports this module's baselines.
from . import nano  # noqa: E402
