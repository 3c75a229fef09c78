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
from .models import MeasurementHessian, MeasurementJacobian, StateSpaceModel


def _component(x: np.ndarray, i: int):
    """``x[..., i]``: an array for a stack of states, a NumPy scalar for one state.

    Single-state calls (simulation, EKF) then run on NumPy's scalar arithmetic,
    which is much cheaper than 0-d array operations.  Scalar ``**`` calls the C
    library's ``pow`` while arrays use NumPy's own, so powers are written as
    ``np.power``/``np.square`` to give the same bits for one state and a stack.
    """
    return x[..., i][()]


def _measurement_callables(measure) -> dict:
    """``g``, ``jac_g`` and ``hess_g`` of a model from its ``measure(x, order)``.

    ``measure`` returns ``[g, jac, hess][:order + 1]`` from one evaluation, so
    each callable shares its trig with the value it differentiates.
    """
    return {
        "g": lambda x: measure(x, 0)[0],
        "jac_g": lambda x: MeasurementJacobian(*measure(x, 1)),
        "hess_g": lambda x: MeasurementHessian(*measure(x, 2)),
    }


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

    def measure(x, order):
        """``[g, jac, hess][:order + 1]`` from one sin/cos of the phase."""
        # -(root2 * s) has the bits of (-root2) * s: rounding ignores the sign.
        s, c = root2 * np.sin(x[..., 1]), root2 * np.cos(x[..., 1])
        stack = x.shape[:-1]
        value = np.empty(stack + (2,))
        value[..., 0] = s
        value[..., 1] = c
        out = [value]
        if order >= 1:
            jac = np.zeros(stack + (2, 2))
            jac[..., 0, 1] = c
            jac[..., 1, 1] = -s
            out.append(jac)
        if order >= 2:
            hess = np.zeros(stack + (2, 2, 2))
            hess[..., 0, 1, 1] = -s
            hess[..., 1, 1, 1] = -c
            out.append(hess)
        return out

    return StateSpaceModel(
        name="fm",
        n=2,
        m=2,
        f=lambda x, u, t: (A @ x[..., None])[..., 0],
        jac_f=lambda x, u, t: A,
        **_measurement_callables(measure),
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


# Derivative orders (pitch, roll, yaw) of the rotation product behind each
# attitude output: g, the three Jacobian columns, then the Hessian pairs (a, b)
# with a <= b.  The first 1, 4 or 10 rows serve derivative order 0, 1 or 2.
_ATTITUDE_ORDERS = np.array([
    (0, 0, 0),
    (1, 0, 0), (0, 1, 0), (0, 0, 1),
    (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2),
])
_ATTITUDE_PRODUCTS = (1, 4, 10)
# Row of _ATTITUDE_ORDERS that holds Hessian entry (a, b).
_HESSIAN_PRODUCT = np.array([[4, 5, 6], [5, 7, 8], [6, 8, 9]])

# The factors Rz(yaw), Ry(pitch), Rx(roll): the state index of each angle,
# the axis each turns about and the (row, col) pair of its plane, ordered so
# the block reads [[c, -s], [s, c]].
_FACTOR_STATE = (2, 0, 1)
_FACTOR_AXIS = np.array([2, 1, 0])
_FACTOR_PLANE = np.array([(0, 1), (2, 0), (1, 2)])
# The k-th derivative of (cos, sin) is its k-th quarter turn, so the block's
# entries (c, -s, s, c) at order k are these picks from (c, s, -c, -s).
_BLOCK_SOURCE = np.array([[0, 3, 1, 0], [3, 2, 0, 3], [2, 1, 3, 2]])


def _factor_index(orders: np.ndarray) -> tuple:
    """Where the factors of the products ``orders`` take their entries, and put them."""
    factor, plane = np.arange(3)[:, None, None], _FACTOR_PLANE[:, None, :]
    order = orders[:, _FACTOR_STATE].T                # (3, Q): each factor's order
    put = (factor, np.arange(len(orders))[:, None], Ellipsis,
           plane[..., [0, 0, 1, 1]], plane[..., [0, 1, 0, 1]])
    take = (factor, _BLOCK_SOURCE[order])
    # Only an underived factor keeps the 1 on its axis.
    f, q = np.nonzero(order == 0)
    ones = (f, q, Ellipsis, _FACTOR_AXIS[f], _FACTOR_AXIS[f])
    return put, take, ones


_FACTOR_INDEX = [_factor_index(_ATTITUDE_ORDERS[:q]) for q in _ATTITUDE_PRODUCTS]


def _euler_rotations(theta: np.ndarray, order: int = 0) -> np.ndarray:
    """The factors Rz(yaw), Ry(pitch), Rx(roll) of every attitude product.

    ``theta`` has shape (..., 3).  Returns ``[rz, ry, rx]`` as one array of
    shape (3, Q, ..., 3, 3), with Q = ``_ATTITUDE_PRODUCTS[order]``: ``rz[q]``
    is Rz differentiated as often as row ``q`` of ``_ATTITUDE_ORDERS`` says,
    so order 0 gives the rotations themselves.  Each angle's cos/sin is taken
    once; the derivatives only move and negate them.
    """
    put, take, ones = _FACTOR_INDEX[order]
    trig = []
    for index in _FACTOR_STATE:
        angle = _component(theta, index)
        c, s = np.cos(angle), np.sin(angle)
        trig.append((c, s, -c, -s))
    trig = np.array(trig)                             # (3, 4, ...)
    out = np.zeros((3, _ATTITUDE_PRODUCTS[order]) + trig.shape[2:] + (3, 3))
    out[put] = trig[take]
    out[ones] = 1.0
    return out


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


def _rate_matrix_grad(theta: np.ndarray) -> np.ndarray:
    """Partial derivatives of the rate matrix w.r.t. pitch and roll, stacked (2, 3, 3)."""
    pitch, roll = theta[0], theta[1]
    cp = np.cos(pitch)
    if abs(cp) < GIMBAL_COS_TOL:
        raise GimbalLock(f"pitch {pitch} too close to +/-90 degrees")
    sp = np.sin(pitch)
    sr, cr = np.sin(roll), np.cos(roll)
    sec2 = 1.0 / cp ** 2
    tp = sp / cp
    return np.array(
        [
            [
                [0.0, 0.0, 0.0],
                [0.0, sr * sec2, cr * sec2],
                [0.0, sr * sp * sec2, cr * sp * sec2],
            ],
            [
                [0.0, -sr, -cr],
                [0.0, cr * tp, -sr * tp],
                [0.0, cr / cp, -sr / cp],
            ],
        ]
    )


def attitude_model(dt: float = 0.01) -> StateSpaceModel:
    """Euler-angle attitude kinematics; state (pitch, roll, yaw) in radians.

    The measurement stacks the gravity and magnetic reference vectors rotated
    into the body frame: g(x) = [C(x)^T grav; C(x)^T mag].  The rate input is
    a slow sinusoid shared by all three body axes.
    """
    # Row v of vectors @ C is (C^T v)^T, so one product rotates both reference
    # vectors into the body frame and lays them out as g's six components.
    # With numpy's OpenBLAS it has the bits of C^T @ v, which
    # tests/test_systems.py checks against products formed one at a time.
    vectors = np.stack([GRAVITY_VECTOR, MAGNETIC_VECTOR])

    def measure(x, order):
        """``[g, jac, hess][:order + 1]`` from one rotation build.

        Each output rotates the reference vectors by one product
        rz[yaw] @ ry[pitch] @ rx[roll], with the derivative orders of its row
        of ``_ATTITUDE_ORDERS``.  All products of a call form in one batch,
        left to right, each with the bits it has on its own.
        """
        rz, ry, rx = _euler_rotations(x, order)
        prod = rz @ ry @ rx                           # (Q, ..., 3, 3)
        rotated = (vectors @ prod).reshape(prod.shape[:-2] + (6,))
        out = [rotated[0]]
        if order >= 1:
            by_output = rotated.transpose(*range(1, rotated.ndim), 0)   # (..., 6, Q)
            out.append(np.ascontiguousarray(by_output[..., 1:4]))
        if order >= 2:
            out.append(np.ascontiguousarray(by_output[..., _HESSIAN_PRODUCT]))
        return out

    def f(x, u, t):
        return x + dt * (_rate_matrix(x) @ u)

    def jac_f(x, u, t):
        # Column a is e_a + dt * (dR/da @ u) for pitch and roll; yaw is not in R.
        # Adding the identity's 1.0s and 0.0s as floats keeps eye(3) + columns'
        # bits, signed zeros included.
        (p0, p1, p2), (r0, r1, r2) = (dt * (_rate_matrix_grad(x) @ u)).tolist()
        return np.array([[1.0 + p0, 0.0 + r0, 0.0], [0.0 + p1, 1.0 + r1, 0.0], [0.0 + p2, 0.0 + r2, 1.0]])

    def control(t):
        return (np.pi / 18.0) * np.sin(2.0 * dt * np.pi * t) * np.ones(3)

    return StateSpaceModel(
        name="attitude",
        n=3,
        m=6,
        l=3,
        f=f,
        jac_f=jac_f,
        **_measurement_callables(measure),
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

    def measure(x, order):
        """``[g, jac, hess][:order + 1]`` of the cubed position."""
        out = [np.power(x[..., :1], 3)]
        if order >= 1:
            jac = np.zeros(x.shape[:-1] + (1, 2))
            jac[..., 0, 0] = 3.0 * np.square(_component(x, 0))
            out.append(jac)
        if order >= 2:
            hess = np.zeros(x.shape[:-1] + (1, 2, 2))
            hess[..., 0, 0, 0] = 6.0 * x[..., 0]
            out.append(hess)
        return out

    return StateSpaceModel(
        name="duffing",
        n=2,
        m=1,
        f=f,
        jac_f=jac_f,
        **_measurement_callables(measure),
        Q=1e-3 * np.eye(2),
        R=np.array([[1e-2]]),
    )
