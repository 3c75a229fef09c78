import ast
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from nanofilter import models
from nanofilter.errors import NonFiniteState
from nanofilter.models import (
    NoiseSpec,
    StateSpaceModel,
    beta_outlier_noise,
    gaussian_noise,
    laplace_noise,
    linear_model,
    mixture_outlier_noise,
    simulate_trajectory,
)
from nanofilter.systems import duffing_model


def _noise_vector(spec, rng):
    z, outlier = spec.draw(rng)
    return spec.shape(z, np.array(outlier))


def _draws(spec, seed, count):
    rng = np.random.default_rng(np.random.PCG64(seed))
    return np.stack([_noise_vector(spec, rng) for _ in range(count)])


def test_linear_model_wiring():
    A = np.array([[0.9, 0.1], [0.0, 0.8]])
    H = np.array([[1.0, 0.0]])
    B = np.array([[0.0], [1.0]])
    model = linear_model(A, H, Q=0.1 * np.eye(2), R=np.eye(1), B=B)
    assert (model.n, model.m) == (2, 1)
    x = np.array([1.0, 2.0])
    np.testing.assert_allclose(model.f(x, np.array([0.5]), 0), A @ x + B @ np.array([0.5]))
    np.testing.assert_allclose(model.g(x), H @ x)
    np.testing.assert_allclose(model.jac_f(x, None, 0), A)
    np.testing.assert_allclose(model.jac_g(x).jac, H)
    np.testing.assert_allclose(model.hess_g(x).hess, np.zeros((1, 2, 2)))
    assert model.linear is not None
    np.testing.assert_allclose(model.linear.A, A)
    np.testing.assert_allclose(model.linear.H, H)
    np.testing.assert_allclose(model.linear.B, B)


@pytest.mark.parametrize("name", ["f", "g", "jac_g", "hess_g"])
def test_linear_model_stacked_call_equals_per_point_calls(name):
    rng = np.random.default_rng(3)
    A, H, B = rng.standard_normal((3, 3)), rng.standard_normal((2, 3)), rng.standard_normal((3, 1))
    model = linear_model(A, H, Q=np.eye(3), R=np.eye(2), B=B)
    stack = rng.standard_normal((27, 3))
    u = np.array([0.5])
    fn = getattr(model, name)
    call = (lambda x: fn(x, u, 0)) if name == "f" else fn
    stacked, per_point = call(stack), [call(x) for x in stack]
    if name in ("f", "g"):
        assert np.array_equal(stacked, np.stack(per_point))
        return
    for field, got in zip(stacked._fields, zip(*per_point)):
        assert np.array_equal(getattr(stacked, field), np.stack(got))
    # on one state and on the stack: g's value and the matrix's own entries,
    # bit for bit
    for x, result in ((stack[0], per_point[0]), (stack, stacked)):
        assert _same_bits(result.value, model.g(x))
        assert _same_bits(result.jac, np.broadcast_to(H, x.shape[:-1] + H.shape))
        if name == "hess_g":
            assert _same_bits(result.hess, np.zeros(x.shape[:-1] + (2, 3, 3)))


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_model_validates_covariance_shapes():
    # n and m are the orders of Q and R, so each must be a square matrix
    for Q, R in ((np.ones((2, 3)), np.eye(1)), (np.ones(2), np.eye(1)),
                 (np.eye(2), np.ones((1, 2))), (np.eye(2), np.float64(1.0))):
        with pytest.raises(ValueError, match="square"):
            StateSpaceModel(
                name="bad",
                f=lambda x, u, t: x, g=lambda x: x[:1],
                jac_f=lambda x, u, t: np.eye(2), jac_g=lambda x: np.eye(1, 2),
                Q=Q, R=R,
            )


def test_model_r_inv():
    model = linear_model(np.eye(1), np.eye(1), Q=np.eye(1), R=np.array([[4.0]]))
    np.testing.assert_allclose(model.R_inv, np.array([[0.25]]))


def test_gaussian_noise_moments():
    cov = np.array([[2.0, 0.5], [0.5, 1.0]])
    draws = _draws(gaussian_noise(cov), 0, 100_000)
    np.testing.assert_allclose(draws.mean(axis=0), 0.0, atol=0.02)
    np.testing.assert_allclose(np.cov(draws.T), cov, rtol=0.05)


def test_zero_gaussian_noise_keeps_the_stream():
    # a zero covariance samples zeros but still consumes its standard-normal
    # draw, so the stream stays where a nonzero spec would leave it
    zero, nonzero = np.random.default_rng(7), np.random.default_rng(7)
    for _ in range(3):
        assert np.array_equal(_noise_vector(gaussian_noise(np.zeros((2, 2))), zero), np.zeros(2))
        _noise_vector(gaussian_noise(np.array([[2.0, 0.5], [0.5, 1.0]])), nonzero)
    assert zero.bit_generator.state == nonzero.bit_generator.state


def test_laplace_noise_variance():
    # Laplace(b) has variance 2 b^2
    b = 1e-2
    draws = _draws(laplace_noise(np.full(3, b)), 1, 100_000)
    np.testing.assert_allclose(draws.var(axis=0), 2 * b * b, rtol=0.05)
    with pytest.raises(ValueError):
        laplace_noise(np.array([-1.0]))


def test_mixture_outlier_moments():
    prob = 0.1
    spec = mixture_outlier_noise(prob, np.eye(1), 100.0 * np.eye(1))
    draws = _draws(spec, 2, 200_000)
    want = (1 - prob) * 1.0 + prob * 100.0
    np.testing.assert_allclose(draws.var(axis=0), want, rtol=0.05)
    # prob=0 is plain Gaussian with the nominal covariance
    clean = _draws(mixture_outlier_noise(0.0, np.eye(1), 100.0 * np.eye(1)), 2, 100_000)
    np.testing.assert_allclose(clean.var(axis=0), 1.0, rtol=0.05)
    with pytest.raises(ValueError):
        mixture_outlier_noise(1.5, np.eye(1), np.eye(1))


def test_mixture_rng_consumption_is_branch_free():
    # the stream advances identically whether or not an outlier fires, so
    # mixture draws at different probabilities stay sample-wise comparable
    a = _draws(mixture_outlier_noise(0.0, np.eye(2), 4.0 * np.eye(2)), 5, 50)
    b = _draws(mixture_outlier_noise(1.0, np.eye(2), 4.0 * np.eye(2)), 5, 50)
    np.testing.assert_allclose(b, 2.0 * a)


def test_beta_replacement_noise():
    spec = beta_outlier_noise(1.0, 1.2, 1.5, np.eye(4))
    draws = _draws(spec, 3, 50_000)
    # every outlier draw is one scalar replicated across components
    assert np.all(draws == draws[:, :1])
    assert np.all((draws >= 0.0) & (draws <= 1.0))
    mean = 1.2 / (1.2 + 1.5)
    np.testing.assert_allclose(draws.mean(), mean, rtol=0.02)
    clean = _draws(beta_outlier_noise(0.0, 1.2, 1.5, np.eye(4)), 3, 10_000)
    np.testing.assert_allclose(clean.var(axis=0), 1.0, rtol=0.1)
    with pytest.raises(ValueError):
        beta_outlier_noise(0.1, 0.0, 1.0, np.eye(1))


def test_noise_spec_cannot_be_half_specified():
    # a spec is its factory's draw and shape; without them it does not construct
    with pytest.raises(TypeError):
        NoiseSpec(kind="gaussian")
    with pytest.raises(TypeError):
        NoiseSpec(kind="laplace", draw=lambda rng: (np.zeros(1), False))


def test_noise_sources_carry_only_their_draw_and_shape():
    # the factories are the one place that knows a kind: the spec holds a
    # label and two closures, and models.py never reads a .kind back
    assert tuple(f.name for f in fields(NoiseSpec)) == ("kind", "draw", "shape")
    tree = ast.parse(Path(models.__file__).read_text())
    reads = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "kind"]
    assert reads == []


@pytest.mark.parametrize("cov", [np.zeros((2, 3)), np.zeros((1, 2, 2)), np.zeros(2), np.float64(0.0)],
                         ids=["2x3", "1x2x2", "vector", "scalar"])
@pytest.mark.parametrize("make", [
    gaussian_noise,
    lambda cov: mixture_outlier_noise(0.1, cov, cov),
    lambda cov: beta_outlier_noise(0.1, 1.2, 1.5, cov),
    lambda cov: simulate_trajectory(_tiny_model(), gaussian_noise(np.eye(1)), gaussian_noise(np.eye(1)),
                                    np.zeros(1), cov, 3, [np.random.default_rng(0)]),
], ids=["gaussian", "mixture", "beta", "init-cov"])
def test_zero_covariance_must_still_be_square(make, cov):
    # an all-zero covariance has a zero root, but only once it is a square matrix
    with pytest.raises(ValueError, match="square"):
        make(cov)


@pytest.mark.parametrize("make, match", [
    (lambda: mixture_outlier_noise(0.1, np.eye(2), np.eye(3)), "same order"),
    (lambda: laplace_noise(np.array(1.0)), "1-D"),
    (lambda: laplace_noise(np.ones((2, 2))), "1-D"),
], ids=["mixture-orders", "laplace-scalar", "laplace-matrix"])
def test_factory_settings_that_cannot_draw_are_refused(make, match):
    # each of these used to construct and then fail at its first draw
    with pytest.raises(ValueError, match=match):
        make()


_BAD = [np.nan, np.inf, -np.inf]
_BAD_IDS = ["nan", "inf", "-inf"]


@pytest.mark.parametrize("bad", _BAD, ids=_BAD_IDS)
@pytest.mark.parametrize("make", [
    lambda bad: laplace_noise(np.array([bad, 1.0])),
    lambda bad: beta_outlier_noise(0.1, bad, 1.0, np.eye(1)),
    lambda bad: beta_outlier_noise(0.1, 1.0, bad, np.eye(1)),
    lambda bad: gaussian_noise(np.array([[1.0, bad], [bad, 1.0]])),
    lambda bad: mixture_outlier_noise(0.1, np.array([[bad]]), np.eye(1)),
    lambda bad: mixture_outlier_noise(0.1, np.eye(1), np.array([[bad]])),
    lambda bad: beta_outlier_noise(0.1, 1.2, 1.5, np.array([[bad]])),
    lambda bad: linear_model(np.eye(1), np.eye(1), Q=np.array([[bad]]), R=np.eye(1)),
    lambda bad: linear_model(np.eye(1), np.eye(1), Q=np.eye(1), R=np.array([[bad]])),
], ids=["laplace-scale", "beta-a", "beta-b", "gaussian-cov", "mixture-nominal",
        "mixture-outlier", "beta-cov", "model-Q", "model-R"])
def test_non_finite_settings_are_usage_errors(make, bad):
    # a bad setting is a ValueError at construction, never a divergence or an
    # EstimationError found later in a trial; numpy's beta draw returns NaN
    # for a NaN or infinite shape instead of raising
    with pytest.raises(ValueError):
        make(bad)


def test_linear_model_checks_matrix_shapes():
    with pytest.raises(ValueError, match="A must be"):
        linear_model(np.eye(2), np.ones((1, 2)), Q=np.eye(3), R=np.eye(1))
    with pytest.raises(ValueError, match="H"):
        linear_model(np.eye(2), np.ones((1, 2)), Q=np.eye(2), R=np.eye(2))


@pytest.mark.parametrize("B", [np.ones((2, 1, 1)), np.ones((3, 1)), np.ones(2), np.float64(1.0)],
                         ids=["3-D", "3-rows", "vector", "scalar"])
def test_linear_model_checks_the_input_matrix(B):
    # a (2, 1, 1) B used to construct and make kf_step return a (2, 2) "mean";
    # the others failed only at the first predict
    with pytest.raises(ValueError, match=r"B must be a 2-D matrix with 2 rows"):
        linear_model(np.eye(2), np.ones((1, 2)), Q=np.eye(2), R=np.eye(1), B=B)
    # any number of input columns is fine
    model = linear_model(np.eye(2), np.ones((1, 2)), Q=np.eye(2), R=np.eye(1), B=np.ones((2, 3)))
    np.testing.assert_allclose(model.f(np.zeros(2), np.ones(3), 0), [3.0, 3.0])


def _tiny_model():
    return linear_model(0.5 * np.eye(1), np.eye(1), Q=np.eye(1), R=np.eye(1))


def test_simulate_shapes_and_determinism():
    model = _tiny_model()
    proc = gaussian_noise(model.Q)
    meas = gaussian_noise(model.R)
    kw = dict(init_mean=np.zeros(1), init_cov=np.eye(1), steps=30)
    t1, t2, t3 = (
        simulate_trajectory(model, proc, meas, rngs=[np.random.default_rng(np.random.PCG64(seed))], **kw)[0]
        for seed in (9, 9, 10)
    )
    assert t1.states.shape == (31, 1) and t1.measurements.shape == (30, 1)
    assert t1.inputs is None
    np.testing.assert_array_equal(t1.states, t2.states)
    np.testing.assert_array_equal(t1.measurements, t2.measurements)
    assert not np.array_equal(t1.states, t3.states)


def test_simulate_zero_steps():
    model = _tiny_model()
    traj = simulate_trajectory(
        model, gaussian_noise(model.Q), gaussian_noise(model.R),
        np.zeros(1), np.eye(1), 0, [np.random.default_rng(0)],
    )[0]
    assert traj.states.shape == (1, 1) and traj.measurements.shape == (0, 1)


def test_simulate_zero_process_noise_is_deterministic_dynamics():
    model = _tiny_model()
    traj = simulate_trajectory(
        model, gaussian_noise(np.zeros((1, 1))), gaussian_noise(model.R),
        np.array([8.0]), np.zeros((1, 1)), 3, [np.random.default_rng(0)],
    )[0]
    np.testing.assert_allclose(traj.states[:, 0], [8.0, 4.0, 2.0, 1.0])


def test_simulate_records_inputs():
    A = np.eye(1)
    B = np.eye(1)
    model = linear_model(A, np.eye(1), Q=np.zeros((1, 1)), R=np.eye(1), B=B)
    model.control = lambda t: np.array([float(t)])
    traj = simulate_trajectory(
        model, gaussian_noise(model.Q), gaussian_noise(model.R),
        np.zeros(1), np.zeros((1, 1)), 4, [np.random.default_rng(0)],
    )[0]
    np.testing.assert_allclose(traj.inputs[:, 0], [0.0, 1.0, 2.0, 3.0])
    # x_t accumulates the applied controls
    np.testing.assert_allclose(traj.states[:, 0], [0.0, 0.0, 1.0, 3.0, 6.0])


def test_simulate_rejects_nonfinite_state():
    model = _tiny_model()
    model.f = lambda x, u, t: x * np.inf
    with pytest.raises(NonFiniteState):
        simulate_trajectory(
            model, gaussian_noise(model.Q), gaussian_noise(model.R),
            np.ones(1), np.eye(1), 2, [np.random.default_rng(0)],
        )


def _duffing_case(**changes):
    """Positional simulator arguments on duffing (state order 2, measurement order 1), with ``changes``."""
    model = duffing_model()
    args = dict(model=model, process=gaussian_noise(model.Q), measurement=gaussian_noise(model.R),
                init_mean=np.zeros(2), init_cov=np.eye(2), steps=5, rngs=[np.random.default_rng(0)])
    args.update(changes)
    return args.values()


@pytest.mark.parametrize("change, message", [
    (dict(process=laplace_noise(np.array([0.1]))),
     "process noise has shape (1,), but the model's state has order 2, so it must be (2,)"),
    (dict(process=gaussian_noise(np.eye(3))),
     "process noise has shape (3,), but the model's state has order 2, so it must be (2,)"),
    (dict(measurement=gaussian_noise(np.eye(2))),
     "measurement noise has shape (2,), but the model's measurement has order 1, so it must be (1,)"),
    (dict(measurement=beta_outlier_noise(1.0, 1.2, 1.5, np.eye(2))),
     "measurement noise has shape (2,), but the model's measurement has order 1, so it must be (1,)"),
    (dict(init_mean=np.zeros(1)),
     "init_mean has shape (1,), but the model's state has order 2, so it must be (2,)"),
    (dict(init_mean=np.zeros((2, 2))),
     "init_mean has shape (2, 2), but the model's state has order 2, so it must be (2,)"),
    (dict(init_cov=np.eye(1)),
     "init_cov has shape (1, 1), but the model's state has order 2, so it must be (2, 2)"),
    (dict(init_cov=np.eye(3)),
     "init_cov has shape (3, 3), but the model's state has order 2, so it must be (2, 2)"),
], ids=["laplace-process-1", "gaussian-process-3", "gaussian-measurement-2", "beta-measurement-2",
        "init-mean-1", "init-mean-2x2", "init-cov-1", "init-cov-3"])
def test_simulator_checks_every_order(change, message):
    # a one-component source or mean used to be broadcast over the state
    # without a word; a wider one failed in a bare numpy broadcast or matmul
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        simulate_trajectory(*_duffing_case(**change))


@pytest.mark.parametrize("steps", [-1, 2.5, 3.0, float("nan"), None, "3"])
def test_simulator_rejects_a_bad_step_count(steps):
    with pytest.raises(ValueError, match="steps must be an integer >= 0"):
        simulate_trajectory(*_duffing_case(steps=steps))


def test_simulator_takes_a_list_of_streams():
    [traj] = simulate_trajectory(*_duffing_case(steps=np.int64(3)))
    assert traj.states.shape == (4, 2)
    # one bare Generator is not a list of streams
    with pytest.raises(TypeError):
        simulate_trajectory(*_duffing_case(rngs=np.random.default_rng(0)))
