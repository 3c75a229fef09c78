import zlib

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from nanofilter.errors import GimbalLock
from nanofilter.systems import (
    FM_PERIOD,
    GRAVITY_VECTOR,
    MAGNETIC_VECTOR,
    attitude_model,
    duffing_model,
    fm_demodulator,
)


def central_jac(fn, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        cols.append((np.asarray(fn(x + e)) - np.asarray(fn(x - e))) / (2 * h))
    return np.stack(cols, axis=-1)


# ---------------------------------------------------------------------------
# FM demodulator


def test_fm_transition_matrix_literal():
    model = fm_demodulator()
    A = model.jac_f(np.zeros(2), None, 0)
    assert FM_PERIOD == pytest.approx(2 * np.pi / 16)
    assert A[0, 0] == pytest.approx(np.exp(-FM_PERIOD / 100.0), abs=1e-12)
    assert A[0, 0] == pytest.approx(0.99608071, abs=1e-8)
    assert A[1, 0] == pytest.approx(-100.608071, abs=1e-6)
    assert A[0, 1] == 0.0 and A[1, 1] == pytest.approx(0.1)


def test_fm_transition_matrix_grouped():
    A = fm_demodulator(matrix_mode="grouped").jac_f(np.zeros(2), None, 0)
    assert A[1, 0] == pytest.approx(0.3919290, abs=1e-6)
    with pytest.raises(ValueError):
        fm_demodulator(matrix_mode="expanded")


def test_fm_measurement_values():
    model = fm_demodulator()
    np.testing.assert_allclose(model.g(np.array([5.0, 0.0])), [0.0, np.sqrt(2)], atol=1e-15)
    x = np.array([0.3, np.pi / 3])
    np.testing.assert_allclose(
        model.g(x), np.sqrt(2) * np.array([np.sin(np.pi / 3), np.cos(np.pi / 3)])
    )
    # unit-energy identity: |g|^2 = 2 for any phase
    assert float(model.g(x) @ model.g(x)) == pytest.approx(2.0)


def test_fm_noise_matrices():
    model = fm_demodulator()
    np.testing.assert_allclose(model.Q, np.diag([0.01, 1.0]))
    np.testing.assert_allclose(model.R, np.eye(2))


# ---------------------------------------------------------------------------
# Attitude kinematics


def test_attitude_rotation_identity_at_zero():
    model = attitude_model()
    np.testing.assert_allclose(
        model.g(np.zeros(3)), np.concatenate([GRAVITY_VECTOR, MAGNETIC_VECTOR]), atol=1e-12
    )


def test_attitude_rotation_orthogonality():
    from nanofilter.systems import _euler_rotations

    rng = np.random.default_rng(12)
    for _ in range(25):
        theta = rng.uniform(-1.2, 1.2, size=3)
        rz, ry, rx = _euler_rotations(theta)
        C = rz[0] @ ry[0] @ rx[0]
        np.testing.assert_allclose(C @ C.T, np.eye(3), atol=1e-10)
        assert np.linalg.det(C) == pytest.approx(1.0, abs=1e-10)


def test_attitude_rate_matrix_at_zero():
    from nanofilter.systems import _rate_matrix

    rates = np.array([0.2, -0.1, 0.4])
    # at zero attitude the pitch/roll rows swap the first two body rates
    np.testing.assert_allclose(_rate_matrix(np.zeros(3)) @ rates, [-0.1, 0.2, 0.4], atol=1e-14)


def test_attitude_gimbal_lock():
    model = attitude_model()
    with pytest.raises(GimbalLock):
        model.f(np.array([np.pi / 2, 0.0, 0.0]), np.ones(3), 0)


def test_attitude_gimbal_lock_anywhere_in_a_stack():
    model = attitude_model()
    stack = np.zeros((4, 3))
    stack[2, 0] = np.pi / 2
    with pytest.raises(GimbalLock):
        model.f(stack, np.ones(3), 0)


def test_attitude_control_profile():
    model = attitude_model()
    np.testing.assert_allclose(model.control(0), np.zeros(3), atol=1e-15)
    # sin(2 pi dt t) peaks at t = 25 for dt = 0.01
    np.testing.assert_allclose(model.control(25), (np.pi / 18) * np.ones(3), atol=1e-12)


def test_attitude_noise_matrices():
    model = attitude_model()
    # Gaussian moment match of a Laplace(1e-5) disturbance: variance 2 b^2
    np.testing.assert_allclose(model.Q, 2e-10 * np.eye(3))
    np.testing.assert_allclose(model.R, 1e-4 * np.eye(6))
    assert model.m == 6 and model.n == 3


# ---------------------------------------------------------------------------
# Duffing oscillator


def test_duffing_step_values():
    model = duffing_model()
    np.testing.assert_allclose(model.f(np.zeros(2), None, 0), [0.0, 0.002], atol=1e-15)
    # one Euler step by hand at a generic state
    x = np.array([0.5, -0.3])
    accel = -2 * 0.05 * 1.0 * (-0.3) - 1.0 ** 2 * 0.5 - 1.0 * 0.5 ** 3 + 0.2 * np.cos(0.0)
    np.testing.assert_allclose(model.f(x, None, 0), [0.5 - 0.003, -0.3 + accel * 0.01])


def test_duffing_measurement_is_cubic():
    model = duffing_model()
    np.testing.assert_allclose(model.g(np.array([2.0, 7.0])), [8.0])
    np.testing.assert_allclose(model.jac_g(np.array([2.0, 7.0])).jac, [[12.0, 0.0]])
    np.testing.assert_allclose(model.hess_g(np.array([2.0, 7.0])).hess[0], [[12.0, 0.0], [0.0, 0.0]])


def test_duffing_euler_step_close_to_exact_flow():
    model = duffing_model()
    x0 = np.array([0.8, -0.2])

    def rhs(t, s):
        return [s[1], -0.1 * s[1] - s[0] - s[0] ** 3 + 0.2 * np.cos(1.2 * t)]

    sol = solve_ivp(rhs, (0.0, 0.01), x0, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(model.f(x0, None, 0), sol.y[:, -1], atol=1e-3)


def test_duffing_noise_matrices():
    model = duffing_model()
    np.testing.assert_allclose(model.Q, 1e-3 * np.eye(2))
    np.testing.assert_allclose(model.R, [[1e-2]])


# ---------------------------------------------------------------------------
# Derivative consistency, all three systems


@pytest.mark.parametrize("maker", [fm_demodulator, attitude_model, duffing_model])
def test_measurement_jacobian_matches_differences(maker):
    model = maker()
    rng = np.random.default_rng(zlib.crc32(model.name.encode()))
    for _ in range(20):
        x = rng.uniform(-1.0, 1.0, size=model.n)
        num = central_jac(model.g, x)
        ana = model.jac_g(x).jac
        np.testing.assert_allclose(ana, num, rtol=1e-4, atol=1e-6)


@pytest.mark.parametrize("maker", [fm_demodulator, attitude_model, duffing_model])
def test_measurement_hessian_matches_differences(maker):
    model = maker()
    rng = np.random.default_rng(zlib.crc32(model.name.encode()) % 2 ** 31)
    for _ in range(20):
        x = rng.uniform(-1.0, 1.0, size=model.n)
        num = central_jac(lambda s: model.jac_g(s).jac, x)   # (m, n, n): d jac / d x_k
        ana = model.hess_g(x).hess
        np.testing.assert_allclose(ana, num, rtol=1e-3, atol=1e-5)
        # symmetry in the two derivative indices
        np.testing.assert_allclose(ana, np.swapaxes(ana, 1, 2), atol=1e-12)


@pytest.mark.parametrize("maker", [fm_demodulator, attitude_model, duffing_model])
def test_dynamics_jacobian_matches_differences(maker):
    model = maker()
    rng = np.random.default_rng(zlib.crc32(model.name.encode()) % 2 ** 30)
    for t in range(10):
        x = rng.uniform(-1.0, 1.0, size=model.n)
        u = model.control(t) if model.control is not None else None
        num = central_jac(lambda s: model.f(s, u, t), x)
        np.testing.assert_allclose(model.jac_f(x, u, t), num, rtol=1e-4, atol=1e-7)


# ---------------------------------------------------------------------------
# Stack contract: one call on (..., n) equals the per-point calls


def same_bits(a, b):
    """Equal shapes and equal bytes: signed zeros and NaN payloads included."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def stacked_equals_per_point(call, stack):
    """One call on ``stack`` equals the per-state calls, field by field for tuples."""
    stacked, per_point = call(stack), [call(x) for x in stack]
    if isinstance(stacked, tuple):
        return all(np.array_equal(a, np.stack(b)) for a, b in zip(stacked, zip(*per_point)))
    return np.array_equal(stacked, np.stack(per_point))


def _reference_measurement(model, x):
    """g, its Jacobian and its second derivatives, each written on its own."""
    if model.name == "attitude":
        return _reference_attitude(x)
    stack = x.shape[:-1]
    if model.name == "fm":
        root2 = np.sqrt(2.0)
        g = np.empty(stack + (2,))
        g[..., 0] = root2 * np.sin(x[..., 1])
        g[..., 1] = root2 * np.cos(x[..., 1])
        jac = np.zeros(stack + (2, 2))
        jac[..., 0, 1] = root2 * np.cos(x[..., 1])
        jac[..., 1, 1] = -root2 * np.sin(x[..., 1])
        hess = np.zeros(stack + (2, 2, 2))
        hess[..., 0, 1, 1] = -root2 * np.sin(x[..., 1])
        hess[..., 1, 1, 1] = -root2 * np.cos(x[..., 1])
        return g, jac, hess
    g = np.power(x[..., :1], 3)
    jac = np.zeros(stack + (1, 2))
    jac[..., 0, 0] = 3.0 * np.square(x[..., 0][()])
    hess = np.zeros(stack + (1, 2, 2))
    hess[..., 0, 0, 0] = 6.0 * x[..., 0]
    return g, jac, hess


@pytest.mark.parametrize("maker", [fm_demodulator, attitude_model, duffing_model])
@pytest.mark.parametrize("name", ["f", "g", "jac_g", "hess_g"])
def test_stacked_call_equals_per_point_calls(maker, name):
    model = maker()
    rng = np.random.default_rng(27)
    stack = rng.uniform(-1.0, 1.0, size=(27, model.n))
    u = model.control(5) if model.control is not None else None
    fn = getattr(model, name)
    call = (lambda x: fn(x, u, 5)) if name == "f" else fn
    assert stacked_equals_per_point(call, stack)
    if name in ("jac_g", "hess_g"):
        # on one state and on the stack, the value is g's and the derivatives
        # are those of the formulas written on their own, bit for bit
        for x in (stack[0], stack):
            result = call(x)
            g, jac, hess = _reference_measurement(model, x)
            assert same_bits(result.value, model.g(x)) and same_bits(result.value, g)
            assert same_bits(result.jac, jac)
            if name == "hess_g":
                assert same_bits(result.hess, hess)


@pytest.mark.parametrize("name", ["f", "g", "jac_g"])
def test_duffing_powers_match_between_one_state_and_a_stack(name):
    # scalar ** and NumPy's array power disagree in the last bit on a few
    # percent of inputs; a large stack makes such a mismatch certain to show
    model = duffing_model()
    stack = np.random.default_rng(2).uniform(-2.0, 2.0, size=(2000, 2))
    fn = getattr(model, name)
    call = (lambda x: fn(x, None, 7)) if name == "f" else fn
    assert stacked_equals_per_point(call, stack)


# ---------------------------------------------------------------------------
# Attitude rotations: one cos/sin per angle, the same bits as one rotation per
# derivative order


def _reference_axis_rotation(axis, angle, deriv):
    """One elementary rotation or its angle-derivative, built on its own."""
    c, s = np.cos(angle), np.sin(angle)
    for _ in range(deriv):
        c, s = -s, c
    i, j = ((1, 2), (2, 0), (0, 1))[axis]
    out = np.zeros(np.shape(c) + (3, 3))
    if deriv == 0:
        out[..., axis, axis] = 1.0
    out[..., i, i] = c
    out[..., i, j] = -s
    out[..., j, i] = s
    out[..., j, j] = c
    return out


def _reference_rotation(x, d_pitch=0, d_roll=0, d_yaw=0):
    pitch, roll, yaw = (x[..., k][()] for k in range(3))
    return (
        _reference_axis_rotation(2, yaw, d_yaw)
        @ _reference_axis_rotation(1, pitch, d_pitch)
        @ _reference_axis_rotation(0, roll, d_roll)
    ).swapaxes(-1, -2)


def _reference_attitude(x):
    """g, jac_g and hess_g from one rotation product per derivative order."""
    vectors = (GRAVITY_VECTOR, MAGNETIC_VECTOR)
    g = np.concatenate([_reference_rotation(x) @ v for v in vectors], axis=-1)
    jac = np.empty(x.shape[:-1] + (6, 3))
    hess = np.empty(x.shape[:-1] + (6, 3, 3))
    for a in range(3):
        orders = [0, 0, 0]
        orders[a] = 1
        d = _reference_rotation(x, *orders)
        jac[..., :3, a], jac[..., 3:, a] = (d @ v for v in vectors)
        for b in range(3):
            orders = [0, 0, 0]
            orders[a] += 1
            orders[b] += 1
            d = _reference_rotation(x, *orders)
            hess[..., :3, a, b], hess[..., 3:, a, b] = (d @ v for v in vectors)
    return g, jac, hess


@pytest.mark.parametrize("shape", [(3,), (6, 3), (27, 3)])
def test_attitude_derivatives_match_per_order_rotations(shape):
    model = attitude_model()
    rng = np.random.default_rng(sum(shape))
    for _ in range(20):
        x = rng.uniform(-1.4, 1.4, size=shape)
        g, jac, hess = _reference_attitude(x)
        first, second = model.jac_g(x), model.hess_g(x)
        assert np.array_equal(model.g(x), g)
        assert same_bits(first.value, model.g(x)) and same_bits(second.value, model.g(x))
        assert same_bits(first.jac, jac) and same_bits(second.jac, jac)
        assert same_bits(second.hess, hess)


class _CountingNumpy:
    """Stands in for ``numpy`` inside ``systems`` and counts chosen calls."""

    def __init__(self, names):
        self.calls = {name: 0 for name in names}

    def __getattr__(self, name):
        attr = getattr(np, name)
        if name not in self.calls:
            return attr

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return attr(*args, **kwargs)

        return counted


@pytest.mark.parametrize("shape", [(3,), (27, 3)])
@pytest.mark.parametrize("name", ["g", "jac_g", "hess_g"])
def test_attitude_measurement_takes_each_trig_once(monkeypatch, name, shape):
    from nanofilter import systems

    model = attitude_model()
    counter = _CountingNumpy(("cos", "sin"))
    monkeypatch.setattr(systems, "np", counter)
    getattr(model, name)(np.full(shape, 0.3))
    assert counter.calls == {"cos": 3, "sin": 3}


def test_attitude_dynamics_jacobian_matches_identity_plus_columns(monkeypatch):
    from nanofilter import systems

    dt = 0.01
    model = attitude_model(dt)
    rng = np.random.default_rng(8)
    for t in range(40):
        x = rng.uniform(-1.4, 1.4, size=3)
        u = model.control(t) if t % 2 else rng.uniform(-1.0, 1.0, size=3)
        pitch, roll = x[0], x[1]
        cp, sp, sr, cr = np.cos(pitch), np.sin(pitch), np.sin(roll), np.cos(roll)
        sec2, tp = 1.0 / cp ** 2, sp / cp
        d_pitch = np.array([[0.0, 0.0, 0.0], [0.0, sr * sec2, cr * sec2], [0.0, sr * sp * sec2, cr * sp * sec2]])
        d_roll = np.array([[0.0, -sr, -cr], [0.0, cr * tp, -sr * tp], [0.0, cr / cp, -sr / cp]])
        expected = np.eye(3)
        expected[:, 0] += dt * (d_pitch @ u)
        expected[:, 1] += dt * (d_roll @ u)
        assert np.array_equal(model.jac_f(x, u, t), expected)
    counter = _CountingNumpy(("eye",))
    monkeypatch.setattr(systems, "np", counter)
    model.jac_f(x, u, 0)
    assert counter.calls == {"eye": 0}
