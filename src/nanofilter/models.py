"""State-space model contract, noise generators, and batched trajectory simulation.

A :class:`StateSpaceModel` packages the discrete-time system

    x_t = f(x_{t-1}, u_{t-1}, t-1) + w_t,      w_t ~ process noise
    y_t = g(x_t) + v_t,                        v_t ~ measurement noise

together with its Jacobians (and optionally measurement second derivatives and
an exact linear form).  ``Q``/``R`` are the *filter's* Gaussian noise
covariances; what the simulator actually draws is described separately by
:class:`NoiseSpec`, so model mismatch and heavy-tailed truth are expressible.

``f`` and ``g`` map a stack of states ``x`` of shape ``(..., n)`` to
``(..., n)`` and ``(..., m)``; a single ``(n,)`` state is the empty-stack case.
``jac_g`` returns a :class:`MeasurementJacobian` and ``hess_g`` a
:class:`MeasurementHessian`: ``g``'s value with its ``(..., m, n)`` Jacobian
(and ``(..., m, n, n)`` second derivatives), all from one evaluation, so an
update needs one model call per point set.  Sigma-point filters evaluate a
whole point set with one call.  ``jac_f`` takes one state.

:func:`simulate_trajectory` advances all trials of a run together, so the
simulator calls ``f`` once per step on the ``(T, n)`` stack of trial states.
Each trial keeps its own random stream, and the draws from each stream keep a
fixed order, so a trial's trajectory does not depend on how many trials are
simulated with it.  One trajectory is the T = 1 case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import NonFiniteState
from .linalg import all_finite, cholesky_factor, spd_inverse, symmetrize

Array = np.ndarray
Dynamics = Callable[[Array, Array | None, int], Array]
Measurement = Callable[[Array], Array]


class MeasurementJacobian(NamedTuple):
    """What ``jac_g`` returns: ``g(x)`` and its Jacobian at the same states."""

    value: Array    # (..., m), equal to g(x) bit for bit
    jac: Array      # (..., m, n)


class MeasurementHessian(NamedTuple):
    """What ``hess_g`` returns: ``g(x)``, its Jacobian and its second derivatives."""

    value: Array    # (..., m), equal to g(x) bit for bit
    jac: Array      # (..., m, n), equal to jac_g(x).jac bit for bit
    hess: Array     # (..., m, n, n)


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
    ``(..., n)`` and return one result per state, with the stack shape leading.
    ``f`` and ``g`` return ``(..., n)`` and ``(..., m)`` arrays.  ``jac_g``
    returns a :class:`MeasurementJacobian` ``(value, jac)`` and ``hess_g`` a
    :class:`MeasurementHessian` ``(value, jac, hess)``; ``value`` is ``g(x)``
    and ``jac``/``hess`` are ``(..., m, n)``/``(..., m, n, n)``.  Updates read
    the fields by name, so a ``jac_g`` that returns a bare array fails at its
    first use.  ``jac_f`` takes a single ``(n,)`` state.  ``hess_g`` may be
    omitted for filters that never ask for second derivatives.  Treat
    instances as immutable; ``R_inv`` is derived once at construction.
    """

    name: str
    n: int
    m: int
    f: Dynamics
    g: Measurement
    jac_f: Callable[[Array, Array | None, int], Array]
    jac_g: Callable[[Array], MeasurementJacobian]
    Q: Array
    R: Array
    l: int = 0
    hess_g: Callable[[Array], MeasurementHessian] | None = None
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

    def jac(x):
        return np.broadcast_to(H, x.shape[:-1] + H.shape)

    return StateSpaceModel(
        name=name,
        n=n,
        m=m,
        l=l,
        f=f,
        g=g,
        jac_f=lambda x, u, t: A,
        jac_g=lambda x: MeasurementJacobian(g(x), jac(x)),
        hess_g=lambda x: MeasurementHessian(g(x), jac(x), np.zeros(x.shape[:-1] + (m, n, n))),
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


def _variate_drawer(spec: NoiseSpec) -> Callable[[np.random.Generator, Array], bool]:
    """``draw(rng, out)``: draw one noise vector's variates from ``rng`` into ``out``.

    ``draw`` returns whether the draw took the outlier branch (mixture and
    beta-replacement kinds); :func:`_shape_noise` turns variates into noise.
    """
    kind, dim = spec.kind, spec.dim
    if kind == "gaussian":
        def draw(rng, out):
            out[:] = rng.standard_normal(dim)
            return False
    elif kind == "laplace":
        scale = spec.scale
        if scale.size and scale.tobytes() == np.full_like(scale, scale[0]).tobytes():
            # Equal scales draw the same bits through numpy's much cheaper
            # scalar-parameter path.
            scale = float(scale[0])

        def draw(rng, out):
            out[:] = rng.laplace(0.0, scale, dim)
            return False
    elif kind == "gaussian-mixture":
        def draw(rng, out):
            outlier = rng.random() < spec.prob
            out[:] = rng.standard_normal(dim)
            return outlier
    elif kind == "beta-replacement":
        def draw(rng, out):
            if rng.random() < spec.prob:
                out[:] = rng.beta(spec.beta_a, spec.beta_b)
                return True
            out[:] = rng.standard_normal(dim)
            return False
    else:
        raise ValueError(f"unknown noise kind {spec.kind!r}")
    return draw


def _root_times(root: Array, z: Array) -> Array:
    """``root @ z`` for every vector of a ``(..., d)`` stack, one BLAS product each."""
    return np.matmul(root, z[..., None])[..., 0]


def _shape_noise(spec: NoiseSpec, z: Array, outlier: Array | None) -> Array:
    """Noise vectors from a ``(..., dim)`` stack of variates and ``(...)`` outlier flags.

    The flags are read only by the kinds that have an outlier branch.
    """
    if spec.kind == "laplace":
        return z
    noise = _root_times(spec.chol, z)
    if spec.kind == "gaussian-mixture":
        return np.where(outlier[..., None], _root_times(spec.outlier_chol, z), noise)
    if spec.kind == "beta-replacement":
        return np.where(outlier[..., None], z, noise)
    return noise


def sample_noise(spec: NoiseSpec, rng: np.random.Generator) -> Array:
    """Draw one noise vector.  Consumes the stream deterministically per kind."""
    z = np.empty(spec.dim)
    outlier = _variate_drawer(spec)(rng, z)
    return _shape_noise(spec, z, np.array(outlier))


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
    rng: np.random.Generator | Sequence[np.random.Generator],
) -> Trajectory | list[Trajectory]:
    """Roll the model forward ``steps`` steps from a Gaussian initial draw.

    ``rng`` is one Generator, which gives one :class:`Trajectory`, or a
    sequence of T Generators, which gives a list of T trajectories; one
    Generator is the T = 1 case.  The trials advance together: ``f`` sees the
    ``(T, n)`` stack of states once per step, ``g`` sees every simulated state
    in one call, and the noise roots multiply stacks of variates.  Each
    stream is drawn in a fixed order -- initial state, then per step: process
    noise, then measurement noise -- so a seed pins its trajectory, whatever
    streams it shares a call with.  The trajectories own disjoint arrays.

    Raises
    ------
    NonFiniteState
        If a simulated state leaves the finite floats.  With several streams,
        the error names the first bad step of the lowest-index failing one,
        which is what simulating them one after another would report.  The
        order covers this error only.  An exception raised inside ``f`` or
        ``g`` (attitude's ``GimbalLock``, say) comes from the stacked call,
        whichever stream trips it, and ``g`` runs only after every step, so a
        batch can raise a different error than its streams one at a time.
    """
    single = isinstance(rng, np.random.Generator)
    rngs = [rng] if single else list(rng)
    count, n, m = len(rngs), model.n, model.m

    z0 = np.empty((count, n))
    z_proc = np.empty((count, steps, n))
    z_meas = np.empty((count, steps, m))
    proc_out = np.empty((count, steps), dtype=bool)
    meas_out = np.empty((count, steps), dtype=bool)
    draw_process, draw_measurement = _variate_drawer(process), _variate_drawer(measurement)
    for k, stream in enumerate(rngs):
        z0[k] = stream.standard_normal(n)
        for t in range(steps):
            proc_out[k, t] = draw_process(stream, z_proc[k, t])
            meas_out[k, t] = draw_measurement(stream, z_meas[k, t])
    process_noise = _shape_noise(process, z_proc, proc_out)
    measurement_noise = _shape_noise(measurement, z_meas, meas_out)

    states = np.empty((count, steps + 1, n))
    inputs = np.empty((steps, model.l)) if model.control is not None else None
    x = np.asarray(init_mean, dtype=float) + _root_times(_noise_root(init_cov), z0)
    states[:, 0] = x
    live, failure = count, None
    for t in range(1, steps + 1):
        u = None
        if inputs is not None:
            u = inputs[t - 1] = model.control(t - 1)
        x = model.f(x, u, t - 1) + process_noise[:live, t - 1]
        if not all_finite(x):
            # Streams below the lowest failing one keep going: one of them may
            # fail later, and simulated one at a time it would be reported.
            live = int(np.flatnonzero(~np.isfinite(x).all(axis=-1))[0])
            failure = (live, t)
            if live == 0:
                break
            x = x[:live]
        states[:live, t] = x
    if failure is not None:
        stream, t = failure
        raise NonFiniteState(f"simulated state of stream {stream} left finite floats at step {t}")

    measurements = model.g(states[:, 1:]) + measurement_noise
    if inputs is not None:
        inputs = np.repeat(inputs[None], count, axis=0)
    trajectories = [
        Trajectory(states[k], measurements[k], None if inputs is None else inputs[k])
        for k in range(count)
    ]
    return trajectories[0] if single else trajectories
