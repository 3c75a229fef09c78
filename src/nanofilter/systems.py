"""The three benchmark systems.

Each factory returns a fully wired :class:`~nanofilter.models.StateSpaceModel`:

* :func:`fm_demodulator` -- linear 2-state frequency/phase dynamics with a
  sinusoidal 2-D measurement.  The angle wrap makes the measurement strongly
  nonlinear and its exact likelihood curvature indefinite for bad residuals.
* :func:`attitude_model` -- Euler-angle rigid-body kinematics driven by a
  rate input, observed through gravity and magnetic-field vectors rotated
  into the body frame (6-D measurement).
* :func:`duffing_model` -- explicit-Euler discretized Duffing oscillator with
  a cubic position measurement.

Each factory takes the one physical parameter that its scenario's ``system``
mismatch perturbs (fm: bandwidth beta, attitude: step size dt, duffing:
natural frequency), so the scenario layer can hand the filter a deliberately
perturbed copy of the truth; every other parameter is a module constant.
"""

from __future__ import annotations

import numpy as np

from .errors import GimbalLock
from .models import StateSpaceModel


def _component(x: np.ndarray, i: int):
    """``x[..., i]``: an array for a stack of states, a NumPy scalar for one state.

    Single-state calls (simulation, EKF) then run on NumPy's scalar arithmetic,
    which is much cheaper than 0-d array operations.  Scalar ``**`` calls the C
    library's ``pow`` while arrays use NumPy's own, so powers are written as
    ``np.power``/``np.square`` to give the same bits for one state and a stack.
    """
    return x[..., i][()]


# ---------------------------------------------------------------------------
# FM demodulator

FM_PERIOD = 2.0 * np.pi / 16.0


def fm_demodulator(beta: float = 100.0, matrix_mode: str = "literal") -> StateSpaceModel:
    """Frequency/phase tracking model; state (frequency, phase).

    ``matrix_mode`` selects how the phase-from-frequency transition entry is
    written: ``"literal"`` uses -beta*exp(-T/beta) - 1, ``"grouped"`` uses
    beta*(1 - exp(-T/beta)).  Both are kept because they behave very
    differently (the literal entry is ~ -100 at beta=100), and the literal
    form is the default.
    """
    if matrix_mode not in ("literal", "grouped"):
        raise ValueError(f"matrix_mode must be 'literal' or 'grouped', got {matrix_mode!r}")
    decay = np.exp(-FM_PERIOD / beta)
    if matrix_mode == "literal":
        a21 = -beta * decay - 1.0
    else:
        a21 = beta * (1.0 - decay)
    A = np.array([[decay, 0.0], [a21, 0.1]])
    root2 = np.sqrt(2.0)

    def g(x):
        out = np.empty(x.shape[:-1] + (2,))
        out[..., 0] = root2 * np.sin(x[..., 1])
        out[..., 1] = root2 * np.cos(x[..., 1])
        return out

    def jac_g(x):
        out = np.zeros(x.shape[:-1] + (2, 2))
        out[..., 0, 1] = root2 * np.cos(x[..., 1])
        out[..., 1, 1] = -root2 * np.sin(x[..., 1])
        return out

    def hess_g(x):
        out = np.zeros(x.shape[:-1] + (2, 2, 2))
        out[..., 0, 1, 1] = -root2 * np.sin(x[..., 1])
        out[..., 1, 1, 1] = -root2 * np.cos(x[..., 1])
        return out

    return StateSpaceModel(
        name="fm",
        n=2,
        m=2,
        f=lambda x, u, t: (A @ x[..., None])[..., 0],
        g=g,
        jac_f=lambda x, u, t: A,
        jac_g=jac_g,
        hess_g=hess_g,
        Q=np.diag([0.01, 1.0]),
        R=np.eye(2),
    )


# ---------------------------------------------------------------------------
# Attitude kinematics

GRAVITY_VECTOR = np.array([0.0, 0.0, -9.81])
MAGNETIC_VECTOR = np.array([27.75, -3.65, 47.21])
GIMBAL_COS_TOL = 1e-6
# Per-axis Laplace scale of the true angular-rate disturbance; the filter's
# Gaussian Q below is its moment match (variance 2 b^2).
ATTITUDE_LAPLACE_SCALE = 1e-5


# Row/column pair each elementary rotation acts on, ordered so the block
# reads [[c, -s], [s, c]].
_ROTATION_PLANE = ((1, 2), (2, 0), (0, 1))


def _axis_rotation(axis: int, angle, deriv: int = 0) -> np.ndarray:
    """Elementary rotation about the given axis, or its angle-derivative.

    ``angle`` may be a scalar or an array; the result has shape
    ``angle.shape + (3, 3)``.  Differentiating rotates the (cos, sin) pair and
    kills the constant 1, so the same layout serves all derivative orders.
    """
    c, s = np.cos(angle), np.sin(angle)
    for _ in range(deriv):
        c, s = -s, c
    i, j = _ROTATION_PLANE[axis]
    out = np.zeros(c.shape + (3, 3))
    if deriv == 0:
        out[..., axis, axis] = 1.0
    out[..., i, i] = c
    out[..., i, j] = -s
    out[..., j, i] = s
    out[..., j, j] = c
    return out


def _body_rotation(theta: np.ndarray, d_pitch: int = 0, d_roll: int = 0, d_yaw: int = 0) -> np.ndarray:
    """Rz(yaw) Ry(pitch) Rx(roll) with per-factor derivative orders.

    ``theta`` has shape (..., 3); the result has shape (..., 3, 3).
    """
    pitch, roll, yaw = (_component(theta, i) for i in range(3))
    return (
        _axis_rotation(2, yaw, d_yaw)
        @ _axis_rotation(1, pitch, d_pitch)
        @ _axis_rotation(0, roll, d_roll)
    )


def _rate_matrix(theta: np.ndarray) -> np.ndarray:
    """Map body rates to Euler-angle rates; rows (pitch, roll, yaw).

    ``theta`` has shape (..., 3); the result has shape (..., 3, 3).
    """
    pitch, roll = _component(theta, 0), _component(theta, 1)
    cp = np.cos(pitch)
    if (np.abs(cp) < GIMBAL_COS_TOL).any():
        raise GimbalLock(f"pitch {pitch} too close to +/-90 degrees")
    tp = np.tan(pitch)
    sr, cr = np.sin(roll), np.cos(roll)
    out = np.zeros(cp.shape + (3, 3))
    out[..., 0, 1] = cr
    out[..., 0, 2] = -sr
    out[..., 1, 0] = 1.0
    out[..., 1, 1] = sr * tp
    out[..., 1, 2] = cr * tp
    out[..., 2, 1] = sr / cp
    out[..., 2, 2] = cr / cp
    return out


def _rate_matrix_grad(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Partial derivatives of the rate matrix w.r.t. pitch and roll."""
    pitch, roll = theta[0], theta[1]
    cp = np.cos(pitch)
    if abs(cp) < GIMBAL_COS_TOL:
        raise GimbalLock(f"pitch {pitch} too close to +/-90 degrees")
    sp = np.sin(pitch)
    sr, cr = np.sin(roll), np.cos(roll)
    sec2 = 1.0 / cp ** 2
    d_pitch = np.array(
        [
            [0.0, 0.0, 0.0],
            [0.0, sr * sec2, cr * sec2],
            [0.0, sr * sp * sec2, cr * sp * sec2],
        ]
    )
    tp = sp / cp
    d_roll = np.array(
        [
            [0.0, -sr, -cr],
            [0.0, cr * tp, -sr * tp],
            [0.0, cr / cp, -sr / cp],
        ]
    )
    return d_pitch, d_roll


def attitude_model(dt: float = 0.01) -> StateSpaceModel:
    """Euler-angle attitude kinematics; state (pitch, roll, yaw) in radians.

    The measurement stacks the gravity and magnetic reference vectors rotated
    into the body frame: g(x) = [C(x)^T grav; C(x)^T mag].  The rate input is
    a slow sinusoid shared by all three body axes.
    """
    gravity, magnetic = GRAVITY_VECTOR, MAGNETIC_VECTOR

    def g(x):
        body = _body_rotation(x).swapaxes(-1, -2)
        out = np.empty(x.shape[:-1] + (6,))
        out[..., :3] = body @ gravity
        out[..., 3:] = body @ magnetic
        return out

    def jac_g(x):
        out = np.empty(x.shape[:-1] + (6, 3))
        for a, orders in enumerate(((1, 0, 0), (0, 1, 0), (0, 0, 1))):
            d = _body_rotation(x, *orders).swapaxes(-1, -2)
            out[..., :3, a] = d @ gravity
            out[..., 3:, a] = d @ magnetic
        return out

    def hess_g(x):
        out = np.empty(x.shape[:-1] + (6, 3, 3))
        for a in range(3):
            for b in range(a, 3):
                orders = [0, 0, 0]
                orders[a] += 1
                orders[b] += 1
                d = _body_rotation(x, *orders).swapaxes(-1, -2)
                out[..., :3, a, b] = d @ gravity
                out[..., 3:, a, b] = d @ magnetic
                if b != a:
                    out[..., b, a] = out[..., a, b]
        return out

    def f(x, u, t):
        return x + dt * (_rate_matrix(x) @ u)

    def jac_f(x, u, t):
        d_pitch, d_roll = _rate_matrix_grad(x)
        jac = np.eye(3)
        jac[:, 0] += dt * (d_pitch @ u)
        jac[:, 1] += dt * (d_roll @ u)
        return jac

    def control(t):
        return (np.pi / 18.0) * np.sin(2.0 * dt * np.pi * t) * np.ones(3)

    return StateSpaceModel(
        name="attitude",
        n=3,
        m=6,
        l=3,
        f=f,
        g=g,
        jac_f=jac_f,
        jac_g=jac_g,
        hess_g=hess_g,
        control=control,
        Q=2.0 * ATTITUDE_LAPLACE_SCALE ** 2 * np.eye(3),
        R=1e-4 * np.eye(6),
    )


# ---------------------------------------------------------------------------
# Duffing oscillator

DUFFING_DT = 0.01
DUFFING_DAMPING = 0.05
DUFFING_STIFFNESS = 1.0
DUFFING_FORCING = 0.2
DUFFING_FORCING_FREQ = 1.2


def duffing_model(natural_freq: float = 1.0) -> StateSpaceModel:
    """Forced Duffing oscillator, explicit Euler; state (position, velocity).

    The measurement is the cubed position, so likelihood curvature flips sign
    with the residual -- the stock example of an indefinite exact Hessian.
    """
    dt, damping, stiffness = DUFFING_DT, DUFFING_DAMPING, DUFFING_STIFFNESS
    forcing, forcing_freq = DUFFING_FORCING, DUFFING_FORCING_FREQ

    def f(x, u, t):
        pos, vel = _component(x, 0), _component(x, 1)
        accel = (
            -2.0 * damping * natural_freq * vel
            - natural_freq ** 2 * pos
            - stiffness * np.power(pos, 3)
            + forcing * np.cos(forcing_freq * t * dt)
        )
        out = np.empty(x.shape)
        out[..., 0] = pos + vel * dt
        out[..., 1] = vel + accel * dt
        return out

    def jac_f(x, u, t):
        pos = x[0]
        return np.array(
            [
                [1.0, dt],
                [-dt * (natural_freq ** 2 + 3.0 * stiffness * pos ** 2),
                 1.0 - 2.0 * damping * natural_freq * dt],
            ]
        )

    def g(x):
        return np.power(x[..., :1], 3)

    def jac_g(x):
        out = np.zeros(x.shape[:-1] + (1, 2))
        out[..., 0, 0] = 3.0 * np.square(_component(x, 0))
        return out

    def hess_g(x):
        out = np.zeros(x.shape[:-1] + (1, 2, 2))
        out[..., 0, 0, 0] = 6.0 * x[..., 0]
        return out

    return StateSpaceModel(
        name="duffing",
        n=2,
        m=1,
        f=f,
        g=g,
        jac_f=jac_f,
        jac_g=jac_g,
        hess_g=hess_g,
        Q=1e-3 * np.eye(2),
        R=np.array([[1e-2]]),
    )
