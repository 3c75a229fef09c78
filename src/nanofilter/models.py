"""State-space model contract, noise generators, and batched trajectory simulation.

A :class:`StateSpaceModel` packages the discrete-time system

    x_t = f(x_{t-1}, u_{t-1}, t-1) + w_t,      w_t ~ process noise
    y_t = g(x_t) + v_t,                        v_t ~ measurement noise

together with its Jacobians (and optionally measurement second derivatives and
an exact linear form).  ``Q``/``R`` are the *filter's* Gaussian noise
covariances; what the simulator actually draws is a separate :class:`NoiseSpec`
per noise source, so model mismatch and heavy-tailed truth are expressible.
Each noise factory (:func:`gaussian_noise`, :func:`laplace_noise`,
:func:`mixture_outlier_noise`, :func:`beta_outlier_noise`) checks its
settings, computes its roots once and returns a spec whose ``draw`` and
``shape`` close over them; nothing else knows the kinds.

The model's dimensions are those of its own parts: the state dimension ``n``
is the order of ``Q``, the measurement dimension ``m`` the order of ``R``,
and a control input has the width of the vectors ``control`` returns; none
is a separate setting.  ``f`` and ``g`` map a stack of states ``x`` of shape
``(..., n)`` to ``(..., n)`` and ``(..., m)``; a single ``(n,)`` state is the
empty-stack case.
``jac_g`` returns a :class:`MeasurementJacobian` and ``hess_g`` a
:class:`MeasurementHessian`: ``g``'s value with its ``(..., m, n)`` Jacobian
(and ``(..., m, n, n)`` second derivatives), all from one evaluation, so an
update needs one model call per point set.  Sigma-point filters evaluate a
whole point set with one call.  ``jac_f`` takes one state.

:func:`simulate_trajectory` advances all trials of a run together, so the
simulator calls ``f`` once per step on the ``(T, n)`` stack of trial states.
It takes one random stream per trial and returns one trajectory per stream;
each stream is drawn in a fixed order, so a trial's trajectory does not
depend on how many trials are simulated with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import NonFiniteState, integer_at_least
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

    ``n`` and ``m`` are not arguments: they are read off ``Q`` and ``R``,
    which must be square and finite.  ``f(x, u, t)`` and ``jac_f(x, u, t)``
    take ``u=control(t)``, or ``u=None`` for a model without ``control``.
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
    f: Dynamics
    g: Measurement
    jac_f: Callable[[Array, Array | None, int], Array]
    jac_g: Callable[[Array], MeasurementJacobian]
    Q: Array
    R: Array
    hess_g: Callable[[Array], MeasurementHessian] | None = None
    control: Callable[[int], Array] | None = None
    linear: LinearParts | None = None
    n: int = field(init=False)
    m: int = field(init=False)
    R_inv: Array = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("Q", "R"):
            cov = np.asarray(getattr(self, name), dtype=float)
            if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
                raise ValueError(f"{name} must be a square matrix, got shape {cov.shape}")
            if not all_finite(cov):
                raise ValueError(f"{name} must be finite")
            setattr(self, name, symmetrize(cov))
        self.n, self.m = self.Q.shape[0], self.R.shape[0]
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
    """Wrap explicit (A, B, H) matrices as a StateSpaceModel with exact parts.

    ``A`` must be ``(n, n)``, ``H`` ``(m, n)`` and ``B``, if given, ``(n, l)``
    for the orders n of ``Q`` and m of ``R``; a ``ValueError`` says otherwise.
    """
    A = np.asarray(A, dtype=float)
    H = np.asarray(H, dtype=float)
    B = None if B is None else np.asarray(B, dtype=float)

    def f(x, u, t):
        out = (A @ x[..., None])[..., 0]
        if B is not None and u is not None:
            out = out + B @ u
        return out

    def g(x):
        return (H @ x[..., None])[..., 0]

    def jac(x):
        return np.broadcast_to(H, x.shape[:-1] + H.shape)

    def hess(x):
        return np.zeros(x.shape[:-1] + H.shape + x.shape[-1:])

    model = StateSpaceModel(
        name=name,
        f=f,
        g=g,
        jac_f=lambda x, u, t: A,
        jac_g=lambda x: MeasurementJacobian(g(x), jac(x)),
        hess_g=lambda x: MeasurementHessian(g(x), jac(x), hess(x)),
        Q=Q,
        R=R,
        linear=LinearParts(A=A, H=H, B=B),
    )
    n, m = model.n, model.m
    if A.shape != (n, n) or H.shape != (m, n):
        raise ValueError(f"A must be ({n}, {n}) and H ({m}, {n}), got {A.shape} and {H.shape}")
    if B is not None and (B.ndim != 2 or B.shape[0] != n):
        raise ValueError(f"B must be a 2-D matrix with {n} rows, got shape {B.shape}")
    return model


# ---------------------------------------------------------------------------
# Noise generation


@dataclass(frozen=True)
class NoiseSpec:
    """One true noise source, as a factory below builds it.

    ``draw(rng)`` draws one noise vector's variates and returns them with the
    draw's outlier flag.  ``shape(z, outlier)`` turns a ``(..., dim)`` stack
    of variates and its ``(...)`` stack of flags into noise vectors.  Both
    close over their factory's checked settings, so a spec cannot exist
    half-specified.  ``kind`` is a label only.  Each kind consumes the stream
    in a fixed order, so trials with equal seeds draw identically.
    """

    kind: str
    draw: Callable[[np.random.Generator], tuple[Array, bool]]
    shape: Callable[[Array, Array], Array]


def _noise_root(cov: Array) -> Array:
    """Cholesky factor of a noise covariance; an all-zero covariance has a zero root.

    A covariance that is not a square matrix, or has a NaN or infinite entry,
    is a bad setting, not a failed estimate, so it raises ``ValueError``.
    """
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ValueError(f"noise covariance must be a square matrix, got shape {cov.shape}")
    if not all_finite(cov):
        raise ValueError("noise covariance must be finite")
    if not cov.any():
        return np.zeros_like(cov)
    return cholesky_factor(cov)


def _root_times(root: Array, z: Array) -> Array:
    """``root @ z`` for every vector of a ``(..., d)`` stack, one BLAS product each."""
    return np.matmul(root, z[..., None])[..., 0]


def gaussian_noise(cov: Array) -> NoiseSpec:
    root = _noise_root(cov)
    dim = root.shape[0]
    return NoiseSpec(
        "gaussian",
        lambda rng: (rng.standard_normal(dim), False),
        lambda z, outlier: _root_times(root, z),
    )


def laplace_noise(scale: Array) -> NoiseSpec:
    """Independent Laplace components with the given per-axis scales."""
    scale = np.asarray(scale, dtype=float)
    if scale.ndim != 1:
        raise ValueError(f"laplace scale must be 1-D, got shape {scale.shape}")
    if not (all_finite(scale) and np.all(scale >= 0)):
        raise ValueError("laplace scale must be finite and nonnegative")
    dim, param = scale.shape[0], scale
    if dim and scale.tobytes() == np.full_like(scale, scale[0]).tobytes():
        # Equal scales draw the same bits through numpy's much cheaper
        # scalar-parameter path.
        param = float(scale[0])
    return NoiseSpec(
        "laplace",
        lambda rng: (rng.laplace(0.0, param, dim), False),
        lambda z, outlier: z,
    )


def mixture_outlier_noise(prob: float, nominal_cov: Array, outlier_cov: Array) -> NoiseSpec:
    """Gaussian with probability ``1-prob``, inflated Gaussian with ``prob``."""
    if not 0.0 <= prob <= 1.0:
        raise ValueError("outlier probability must be in [0, 1]")
    root, outlier_root = _noise_root(nominal_cov), _noise_root(outlier_cov)
    if root.shape != outlier_root.shape:
        raise ValueError(f"nominal and outlier covariances must have the same order, "
                         f"got shapes {root.shape} and {outlier_root.shape}")
    dim = root.shape[0]

    def draw(rng):
        outlier = rng.random() < prob
        return rng.standard_normal(dim), outlier

    def shape(z, outlier):
        return np.where(outlier[..., None], _root_times(outlier_root, z), _root_times(root, z))

    return NoiseSpec("gaussian-mixture", draw, shape)


def beta_outlier_noise(prob: float, a: float, b: float, nominal_cov: Array) -> NoiseSpec:
    """Gaussian nominally; with probability ``prob`` a replicated Beta(a,b) draw."""
    if not 0.0 <= prob <= 1.0:
        raise ValueError("outlier probability must be in [0, 1]")
    if not (0 < a < np.inf and 0 < b < np.inf):
        raise ValueError("beta shape parameters must be finite and positive")
    root = _noise_root(nominal_cov)
    dim = root.shape[0]

    def draw(rng):
        if rng.random() < prob:
            return np.full(dim, rng.beta(a, b)), True
        return rng.standard_normal(dim), False

    return NoiseSpec(
        "beta-replacement",
        draw,
        lambda z, outlier: np.where(outlier[..., None], z, _root_times(root, z)),
    )


# ---------------------------------------------------------------------------
# Simulation


@dataclass(frozen=True)
class Trajectory:
    """One simulated rollout: states x_0..x_M, measurements y_1..y_M."""

    states: Array               # (M+1, n)
    measurements: Array         # (M, m)
    inputs: Array | None = None  # (M, l) controls u_0..u_{M-1}, or None


def _check_order(source: str, shape: tuple[int, ...], want: tuple[int, ...], space: str) -> None:
    """``ValueError`` naming ``source`` and both orders unless its ``shape`` is ``want``."""
    if shape != want:
        raise ValueError(f"{source} has shape {shape}, but the model's {space} has order "
                         f"{want[0]}, so it must be {want}")


def simulate_trajectory(
    model: StateSpaceModel,
    process: NoiseSpec,
    measurement: NoiseSpec,
    init_mean: Array,
    init_cov: Array,
    steps: int,
    rngs: Sequence[np.random.Generator],
) -> list[Trajectory]:
    """Roll the model forward ``steps`` steps from a Gaussian initial draw, once per stream.

    ``rngs`` holds T Generators, one per trial, and the result is the list of
    their T :class:`Trajectory` records, in order.  The trials advance
    together: ``f`` sees the ``(T, n)`` stack of states once per step, ``g``
    sees every simulated state in one call, and the noise roots multiply
    stacks of variates.  Each stream is drawn in a fixed order -- initial
    state, then per step: process noise, then measurement noise -- so a seed
    pins its trajectory, whatever streams it shares a call with.  A model's
    ``control`` is called once per step before the first one; ``f`` gets the
    rows of the stacked values, which every trajectory keeps as its
    ``inputs``.  The trajectories own disjoint arrays.

    Raises
    ------
    ValueError
        Before anything is drawn, if ``steps`` is not an integer >= 0, or if
        a noise source, ``init_mean`` or ``init_cov`` does not have the order
        of the model's state or measurement.  A source's order is the length
        of one draw, taken from a throwaway stream.
    NonFiniteState
        If a simulated state leaves the finite floats.  With several streams,
        the error names the first bad step of the lowest-index failing one,
        which is what simulating them one after another would report.  The
        order covers this error only.  An exception raised inside ``f`` or
        ``g`` (attitude's ``GimbalLock``, say) comes from the stacked call,
        whichever stream trips it, and ``g`` runs only after every step, so a
        batch can raise a different error than its streams one at a time.
    """
    if not integer_at_least(steps, 0):
        raise ValueError(f"steps must be an integer >= 0, got {steps!r}")
    count, n, m = len(rngs), model.n, model.m
    init_mean = np.asarray(init_mean, dtype=float)
    init_root = _noise_root(init_cov)
    probe = np.random.default_rng(0)
    _check_order("process noise", process.draw(probe)[0].shape, (n,), "state")
    _check_order("measurement noise", measurement.draw(probe)[0].shape, (m,), "measurement")
    _check_order("init_mean", init_mean.shape, (n,), "state")
    _check_order("init_cov", init_root.shape, (n, n), "state")

    z0 = np.empty((count, n))
    z_proc = np.empty((count, steps, n))
    z_meas = np.empty((count, steps, m))
    proc_out = np.empty((count, steps), dtype=bool)
    meas_out = np.empty((count, steps), dtype=bool)
    draw_process, draw_measurement = process.draw, measurement.draw
    for k, stream in enumerate(rngs):
        z0[k] = stream.standard_normal(n)
        for t in range(steps):
            z_proc[k, t], proc_out[k, t] = draw_process(stream)
            z_meas[k, t], meas_out[k, t] = draw_measurement(stream)
    process_noise = process.shape(z_proc, proc_out)
    measurement_noise = measurement.shape(z_meas, meas_out)

    states = np.empty((count, steps + 1, n))
    inputs = None
    if model.control is not None:
        inputs = np.array([model.control(t) for t in range(steps)], dtype=float)
    x = init_mean + _root_times(init_root, z0)
    states[:, 0] = x
    live, failure = count, None
    for t in range(1, steps + 1):
        u = None if inputs is None else inputs[t - 1]
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
    return [
        Trajectory(states[k], measurements[k], None if inputs is None else inputs[k])
        for k in range(count)
    ]
