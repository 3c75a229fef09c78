"""State-space model contract, noise generators, and trajectory simulation.

A :class:`StateSpaceModel` packages the discrete-time system

    x_t = f(x_{t-1}, u_{t-1}, t-1) + w_t,      w_t ~ process noise
    y_t = g(x_t) + v_t,                        v_t ~ measurement noise

together with its Jacobians (and optionally measurement second derivatives and
an exact linear form).  ``Q``/``R`` are the *filter's* Gaussian noise
covariances; what the simulator actually draws is described separately by
:class:`NoiseSpec`, so model mismatch and heavy-tailed truth are expressible.

``f``, ``g``, ``jac_g`` and ``hess_g`` map a stack of states ``x`` of shape
``(..., n)`` to ``(..., n)``, ``(..., m)``, ``(..., m, n)`` and
``(..., m, n, n)``; a single ``(n,)`` state is the empty-stack case.  Sigma-point
filters evaluate a whole point set with one call.  ``jac_f`` takes one state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import NonFiniteState
from .linalg import cholesky_factor, spd_inverse, symmetrize

Array = np.ndarray
Dynamics = Callable[[Array, Array | None, int], Array]
Measurement = Callable[[Array], Array]


@dataclass(frozen=True)
class LinearParts:
    """Exact linear-Gaussian structure: f = A x + B u, g = H x."""

    A: Array
    H: Array
    B: Array | None = None


@dataclass
class StateSpaceModel:
    """Nonlinear state-space model with the derivatives filters need.

    ``f(x, u, t)`` and ``jac_f(x, u, t)`` take ``u=None`` when ``l == 0``.
    ``f``, ``g``, ``jac_g`` and ``hess_g`` accept a stack ``x`` of shape
    ``(..., n)`` and return one result per state, with the stack shape leading:
    ``(..., n)``, ``(..., m)``, ``(..., m, n)`` and ``(..., m, n, n)``.
    ``jac_f`` takes a single ``(n,)`` state.  ``hess_g`` holds the second
    derivatives of each measurement component and may be omitted for filters
    that never ask.  Treat instances as immutable; ``R_inv`` is derived once at
    construction.
    """

    name: str
    n: int
    m: int
    f: Dynamics
    g: Measurement
    jac_f: Callable[[Array, Array | None, int], Array]
    jac_g: Callable[[Array], Array]
    Q: Array
    R: Array
    l: int = 0
    hess_g: Callable[[Array], Array] | None = None
    control: Callable[[int], Array] | None = None
    linear: LinearParts | None = None
    R_inv: Array = field(init=False, repr=False)

    def __post_init__(self):
        self.Q = symmetrize(np.asarray(self.Q, dtype=float))
        self.R = symmetrize(np.asarray(self.R, dtype=float))
        if self.Q.shape != (self.n, self.n):
            raise ValueError(f"Q must be ({self.n}, {self.n}), got {self.Q.shape}")
        if self.R.shape != (self.m, self.m):
            raise ValueError(f"R must be ({self.m}, {self.m}), got {self.R.shape}")
        # R must be usable as a Gaussian likelihood covariance.
        self.R_inv = spd_inverse(self.R)


def linear_model(
    A: Array,
    H: Array,
    Q: Array,
    R: Array,
    B: Array | None = None,
    name: str = "linear",
) -> StateSpaceModel:
    """Wrap explicit (A, B, H) matrices as a StateSpaceModel with exact parts."""
    A = np.asarray(A, dtype=float)
    H = np.asarray(H, dtype=float)
    B = None if B is None else np.asarray(B, dtype=float)
    n = A.shape[0]
    m = H.shape[0]
    l = 0 if B is None else B.shape[1]

    def f(x, u, t):
        out = (A @ x[..., None])[..., 0]
        if B is not None and u is not None:
            out = out + B @ u
        return out

    def g(x):
        return (H @ x[..., None])[..., 0]

    return StateSpaceModel(
        name=name,
        n=n,
        m=m,
        l=l,
        f=f,
        g=g,
        jac_f=lambda x, u, t: A,
        jac_g=lambda x: np.broadcast_to(H, x.shape[:-1] + H.shape),
        hess_g=lambda x: np.zeros(x.shape[:-1] + (m, n, n)),
        Q=Q,
        R=R,
        linear=LinearParts(A=A, H=H, B=B),
    )


# ---------------------------------------------------------------------------
# Noise generation


@dataclass(frozen=True)
class NoiseSpec:
    """Sampling recipe for one noise source.

    Kinds: ``gaussian`` (chol), ``laplace`` (per-axis scale),
    ``gaussian-mixture`` (nominal/outlier chols plus outlier probability), and
    ``beta-replacement`` (with prob. ``prob`` the whole noise vector is one
    Beta(a, b) draw replicated across components, else Gaussian).
    The per-draw RNG consumption is fixed per kind so that trials with equal
    seeds consume the stream identically; an all-zero covariance has an
    all-zero ``chol`` and still draws.
    """

    kind: str
    dim: int
    chol: Array | None = None
    scale: Array | None = None
    outlier_chol: Array | None = None
    prob: float = 0.0
    beta_a: float = 0.0
    beta_b: float = 0.0


def _noise_root(cov: Array) -> Array:
    """Cholesky factor of a noise covariance; an all-zero covariance has a zero root."""
    cov = np.asarray(cov, dtype=float)
    if not cov.any():
        return np.zeros_like(cov)
    return cholesky_factor(cov)


def gaussian_noise(cov: Array) -> NoiseSpec:
    cov = np.asarray(cov, dtype=float)
    return NoiseSpec(kind="gaussian", dim=cov.shape[0], chol=_noise_root(cov))


def laplace_noise(scale: Array) -> NoiseSpec:
    """Independent Laplace components with the given per-axis scales."""
    scale = np.asarray(scale, dtype=float)
    if np.any(scale < 0):
        raise ValueError("laplace scale must be nonnegative")
    return NoiseSpec(kind="laplace", dim=scale.shape[0], scale=scale)


def mixture_outlier_noise(prob: float, nominal_cov: Array, outlier_cov: Array) -> NoiseSpec:
    """Gaussian with probability ``1-prob``, inflated Gaussian with ``prob``."""
    if not 0.0 <= prob <= 1.0:
        raise ValueError("outlier probability must be in [0, 1]")
    nominal_cov = np.asarray(nominal_cov, dtype=float)
    return NoiseSpec(
        kind="gaussian-mixture",
        dim=nominal_cov.shape[0],
        chol=_noise_root(nominal_cov),
        outlier_chol=_noise_root(outlier_cov),
        prob=prob,
    )


def beta_outlier_noise(prob: float, a: float, b: float, nominal_cov: Array) -> NoiseSpec:
    """Gaussian nominally; with probability ``prob`` a replicated Beta(a,b) draw."""
    if not 0.0 <= prob <= 1.0:
        raise ValueError("outlier probability must be in [0, 1]")
    if a <= 0 or b <= 0:
        raise ValueError("beta shape parameters must be positive")
    nominal_cov = np.asarray(nominal_cov, dtype=float)
    return NoiseSpec(
        kind="beta-replacement",
        dim=nominal_cov.shape[0],
        chol=_noise_root(nominal_cov),
        prob=prob,
        beta_a=a,
        beta_b=b,
    )


def sample_noise(spec: NoiseSpec, rng: np.random.Generator) -> Array:
    """Draw one noise vector.  Consumes the stream deterministically per kind."""
    if spec.kind == "gaussian":
        return spec.chol @ rng.standard_normal(spec.dim)
    if spec.kind == "laplace":
        return rng.laplace(0.0, spec.scale)
    if spec.kind == "gaussian-mixture":
        u = rng.random()
        z = rng.standard_normal(spec.dim)
        return (spec.outlier_chol if u < spec.prob else spec.chol) @ z
    if spec.kind == "beta-replacement":
        u = rng.random()
        if u < spec.prob:
            return np.full(spec.dim, rng.beta(spec.beta_a, spec.beta_b))
        return spec.chol @ rng.standard_normal(spec.dim)
    raise ValueError(f"unknown noise kind {spec.kind!r}")


# ---------------------------------------------------------------------------
# Simulation


@dataclass(frozen=True)
class Trajectory:
    """One simulated rollout: states x_0..x_M, measurements y_1..y_M."""

    states: Array               # (M+1, n)
    measurements: Array         # (M, m)
    inputs: Array | None = None  # (M, l) controls u_0..u_{M-1}, or None


def simulate_trajectory(
    model: StateSpaceModel,
    process: NoiseSpec,
    measurement: NoiseSpec,
    init_mean: Array,
    init_cov: Array,
    steps: int,
    rng: np.random.Generator,
) -> Trajectory:
    """Roll the model forward ``steps`` steps from a Gaussian initial draw.

    Draw order is fixed -- initial state, then per step: process noise, then
    measurement noise -- so a seed pins the whole trajectory.
    """
    init_mean = np.asarray(init_mean, dtype=float)
    x = init_mean + _noise_root(init_cov) @ rng.standard_normal(model.n)

    states = np.empty((steps + 1, model.n))
    states[0] = x
    measurements = np.empty((steps, model.m))
    inputs = np.empty((steps, model.l)) if model.control is not None else None

    for t in range(1, steps + 1):
        u = model.control(t - 1) if model.control is not None else None
        if inputs is not None:
            inputs[t - 1] = u
        x = model.f(states[t - 1], u, t - 1) + sample_noise(process, rng)
        if not np.all(np.isfinite(x)):
            raise NonFiniteState(f"simulated state left finite floats at step {t}")
        states[t] = x
        measurements[t - 1] = model.g(x) + sample_noise(measurement, rng)

    return Trajectory(states=states, measurements=measurements, inputs=inputs)
