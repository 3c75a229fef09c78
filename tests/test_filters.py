import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from nanofilter.bench import make_trajectory
from nanofilter.errors import EstimationError, ModelNotLinear, NonFiniteMeasurement, PDFailure
from nanofilter.filters import (
    FILTER_IDS,
    ITER_GAMMA,
    ITER_MAX,
    PD_FAILED,
    SINGLE_PASS,
    GaussianBelief,
    UpdateDiagnostics,
    ekf_predict,
    ekf_update,
    filter_step,
    iekf_update,
    kf_step,
    mm_predict,
    plf_update,
    predict_update,
    ukf_update,
)
from nanofilter.models import StateSpaceModel, linear_model
from nanofilter.quadrature import SigmaPointRule
from nanofilter.scenarios import ScenarioConfig, scenario_models
from nanofilter.systems import duffing_model, fm_demodulator

RULE = SigmaPointRule("cubature")


def random_linear(seed, n=None, m=None, with_b=False):
    rng = np.random.default_rng(np.random.PCG64(seed))
    n = n or int(rng.integers(1, 5))
    m = m or int(rng.integers(1, 5))
    A = 0.9 * rng.standard_normal((n, n)) / max(1.0, np.sqrt(n))
    H = rng.standard_normal((m, n))
    q = rng.standard_normal((n, n))
    r = rng.standard_normal((m, m))
    Q = q @ q.T + 0.1 * np.eye(n)
    R = r @ r.T + 0.1 * np.eye(m)
    B = rng.standard_normal((n, 2)) if with_b else None
    model = linear_model(A, H, Q, R, B=B)
    p = rng.standard_normal((n, n))
    belief = GaussianBelief(rng.standard_normal(n), p @ p.T + np.eye(n))
    u = rng.standard_normal(2) if with_b else None
    y = rng.standard_normal(m)
    return model, belief, u, y


def test_kf_scalar_hand_values():
    model = linear_model(np.eye(1), np.eye(1), Q=np.zeros((1, 1)), R=np.eye(1))
    post = kf_step(GaussianBelief([0.0], [[1.0]]), None, np.array([2.0]), model)
    assert post.mean[0] == pytest.approx(1.0)
    assert post.cov[0, 0] == pytest.approx(0.5)


def test_kf_matches_information_form():
    # posterior precision = prior precision + H^T R^-1 H, independent derivation
    model, belief, u, y = random_linear(1, with_b=True)
    pred = kf_step(belief, u, None, model)
    post = kf_step(belief, u, y, model)
    H, R = model.linear.H, model.R
    prec = np.linalg.inv(pred.cov) + H.T @ np.linalg.inv(R) @ H
    cov_expected = np.linalg.inv(prec)
    mean_expected = cov_expected @ (
        np.linalg.inv(pred.cov) @ pred.mean + H.T @ np.linalg.inv(R) @ y
    )
    np.testing.assert_allclose(post.cov, cov_expected, rtol=1e-9, atol=1e-11)
    np.testing.assert_allclose(post.mean, mean_expected, rtol=1e-9, atol=1e-11)


def test_kf_predict_only():
    model, belief, u, _ = random_linear(2, with_b=True)
    pred = kf_step(belief, u, None, model)
    A, B = model.linear.A, model.linear.B
    np.testing.assert_allclose(pred.mean, A @ belief.mean + B @ u)
    np.testing.assert_allclose(pred.cov, A @ belief.cov @ A.T + model.Q, rtol=1e-12)


def test_kf_requires_linear_model():
    with pytest.raises(ModelNotLinear):
        kf_step(GaussianBelief(np.zeros(2), np.eye(2)), None, np.zeros(2), fm_demodulator())


def test_ekf_equals_kf_on_linear_models():
    for seed in range(5):
        model, belief, u, y = random_linear(10 + seed, with_b=True)
        ref = kf_step(belief, u, y, model)
        pred = ekf_predict(belief, u, model)
        post, _ = ekf_update(pred, y, model)
        np.testing.assert_allclose(post.mean, ref.mean, atol=1e-10)
        np.testing.assert_allclose(post.cov, ref.cov, atol=1e-10)


@pytest.mark.parametrize("model_id", ["fm", "attitude", "duffing"])
def test_iekf_single_iteration_is_ekf(model_id):
    # bit for bit, at every step of the EKF's run over each benchmark model
    for seed in range(5):
        cfg = ScenarioConfig(model=model_id, horizon=100, seed=seed)
        setup = scenario_models(cfg)
        traj = make_trajectory(cfg, 0, setup)
        model = setup.filter_view
        belief = GaussianBelief(setup.init_mean, setup.init_cov)
        for t in range(cfg.horizon):
            u = traj.inputs[t] if traj.inputs is not None else None
            prior = ekf_predict(belief, u, model, t)
            y = traj.measurements[t]
            a, _ = ekf_update(prior, y, model)
            b, diag = iekf_update(prior, y, model, max_iters=1)
            assert np.array_equal(a.mean, b.mean), (seed, t)
            assert np.array_equal(a.cov, b.cov), (seed, t)
            assert diag.iterations == 1
            belief = a


def test_iekf_converges_immediately_on_linear_models():
    model, belief, u, y = random_linear(3, with_b=True)
    pred = kf_step(belief, u, None, model)
    ref = kf_step(belief, u, y, model)
    post, _ = iekf_update(pred, y, model)
    np.testing.assert_allclose(post.mean, ref.mean, atol=1e-9)
    np.testing.assert_allclose(post.cov, ref.cov, atol=1e-9)


def test_iekf_moves_toward_map_on_nonlinear_models():
    # with a strongly informative measurement the relinearized estimate must
    # explain the observation better than the single-shot EKF
    model = duffing_model()
    prior = GaussianBelief(np.array([0.9, 0.0]), np.diag([0.3, 0.01]))
    y = np.array([0.2])
    ekf, _ = ekf_update(prior, y, model)
    iekf, _ = iekf_update(prior, y, model)
    assert abs(model.g(iekf.mean)[0] - 0.2) < abs(model.g(ekf.mean)[0] - 0.2)


def test_mm_predict_matches_kf_predict_on_linear_models():
    for kind in ("cubature", "unscented", "gauss-hermite"):
        model, belief, u, _ = random_linear(4, with_b=True)
        pred = mm_predict(belief, u, model, SigmaPointRule(kind))
        ref = kf_step(belief, u, None, model)
        np.testing.assert_allclose(pred.mean, ref.mean, atol=1e-9)
        np.testing.assert_allclose(pred.cov, ref.cov, rtol=1e-9, atol=1e-9)


def test_ukf_equals_kf_on_linear_models():
    for seed in range(5):
        model, belief, u, y = random_linear(20 + seed, with_b=True)
        ref = kf_step(belief, u, y, model)
        pred = mm_predict(belief, u, model, RULE)
        post, _ = ukf_update(pred, y, model, RULE)
        np.testing.assert_allclose(post.mean, ref.mean, atol=1e-8)
        np.testing.assert_allclose(post.cov, ref.cov, atol=1e-8)


def test_plf_first_iteration_is_ukf():
    model = duffing_model()
    prior = GaussianBelief(np.array([0.4, 0.2]), 0.1 * np.eye(2))
    y = np.array([0.3])
    a, _ = ukf_update(prior, y, model, RULE)
    b, _ = plf_update(prior, y, model, RULE, max_iters=1)
    np.testing.assert_allclose(a.mean, b.mean, atol=1e-10)
    np.testing.assert_allclose(a.cov, b.cov, atol=1e-10)


def test_plf_equals_kf_on_linear_models():
    model, belief, u, y = random_linear(5, with_b=True)
    pred = kf_step(belief, u, None, model)
    ref = kf_step(belief, u, y, model)
    post, _ = plf_update(pred, y, model, RULE)
    np.testing.assert_allclose(post.mean, ref.mean, atol=1e-8)
    np.testing.assert_allclose(post.cov, ref.cov, atol=1e-8)


def test_filter_step_rejects_unknown_id():
    model, belief, u, y = random_linear(6)
    with pytest.raises(ValueError):
        filter_step("ekf2", belief, u, y, model)


def test_filter_step_times_update():
    model, belief, u, y = random_linear(7, with_b=True)
    post, diag = filter_step("kf", belief, u, y, model)
    assert diag.update_ms >= 0.0
    assert not diag.pd_failure
    ref = kf_step(belief, u, y, model)
    np.testing.assert_allclose(post.mean, ref.mean)


@pytest.mark.parametrize("filter_id", ["iekf", "plf"])
def test_filter_step_reports_real_iteration_count(filter_id):
    # on a linear model the second pass repeats the first, so the update stops
    # well before its cap and says so
    model, belief, u, y = random_linear(9, with_b=True)
    _, diag = filter_step(filter_id, belief, u, y, model)
    assert 1 < diag.iterations < ITER_MAX
    assert diag.final_delta < ITER_GAMMA


def test_iterated_updates_reject_zero_iterations():
    model, belief, _, y = random_linear(9)
    with pytest.raises(ValueError):
        iekf_update(belief, y, model, max_iters=0)
    with pytest.raises(ValueError):
        plf_update(belief, y, model, RULE, max_iters=0)


@pytest.mark.parametrize("max_iters", [2.5, 2.0, float("nan"), "3"])
def test_iterated_updates_reject_a_non_integer_cap(max_iters):
    model, belief, _, y = random_linear(9)
    with pytest.raises(ValueError, match="max_iters"):
        iekf_update(belief, y, model, max_iters=max_iters)
    with pytest.raises(ValueError, match="max_iters"):
        plf_update(belief, y, model, RULE, max_iters=max_iters)


def test_iterated_updates_take_a_numpy_integer_cap():
    model, belief, _, y = random_linear(9)
    post, diag = iekf_update(belief, y, model, max_iters=np.int64(1))
    assert diag.iterations == 1
    assert np.array_equal(post.mean, ekf_update(belief, y, model)[0].mean)


def test_filter_step_reaches_rebound_predict_and_update(monkeypatch):
    # a tracer rebinds module attributes; every step must go through them
    from nanofilter import filters, nano

    calls = {}

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for name in ("ekf_predict", "mm_predict", "kf_update", "ekf_update", "iekf_update",
                 "ukf_update", "plf_update"):
        count(filters, name)
    count(nano, "nano_update")
    expected = {
        "kf": ("kf_update",),
        "ekf": ("ekf_predict", "ekf_update"),
        "iekf": ("ekf_predict", "iekf_update"),
        "ukf": ("mm_predict", "ukf_update"),
        "plf": ("mm_predict", "plf_update"),
    }
    model, belief, u, y = random_linear(8, with_b=True)
    for fid in FILTER_IDS:
        calls.clear()
        filter_step(fid, belief, u, y, model)
        assert calls == dict.fromkeys(expected.get(fid, ("mm_predict", "nano_update")), 1), fid


def test_predict_update_pd_failure_raises():
    # indefinite exact curvature: large positive residual at the cubic sensor
    model = duffing_model()
    belief = GaussianBelief(np.array([1.0, 0.0]), 1e-4 * np.eye(2))
    y = np.array([5.0])
    with pytest.raises(PDFailure):
        predict_update("nano-nopd", belief, None, y, model)


def test_filter_step_pd_failure_returns_prior():
    # the same step through filter_step, which turns the PDFailure into a flag
    model = duffing_model()
    belief = GaussianBelief(np.array([1.0, 0.0]), 1e-4 * np.eye(2))
    y = np.array([5.0])
    post, diag = filter_step("nano-nopd", belief, None, y, model)
    assert diag.pd_failure
    pred = mm_predict(belief, None, model, RULE)
    np.testing.assert_allclose(post.mean, pred.mean)
    np.testing.assert_allclose(post.cov, pred.cov)


def test_ekf_step_after_nan_measurement_raises():
    # a NaN measurement is refused on the step that receives it, and a NaN
    # mean from elsewhere still fails loudly on the next step
    model = duffing_model()
    belief = GaussianBelief(np.zeros(2), np.eye(2))
    with pytest.raises(NonFiniteMeasurement):
        filter_step("ekf", belief, None, np.array([np.nan]), model)
    nan_belief = GaussianBelief(np.full(2, np.nan), np.eye(2))
    with pytest.raises(EstimationError):
        filter_step("ekf", nan_belief, None, np.array([0.0]), model)


@pytest.mark.parametrize("filter_id", FILTER_IDS)
def test_nonfinite_measurement_raises_one_error(filter_id):
    # every filter names the same cause for a NaN measurement on its first step
    if filter_id == "kf":
        model, belief, u, y = random_linear(8, m=2, with_b=True)
        y = np.array([y[0], np.nan])
    else:
        model, belief, u = duffing_model(), GaussianBelief(np.zeros(2), np.eye(2)), None
        y = np.array([np.nan])
    with pytest.raises(NonFiniteMeasurement):
        filter_step(filter_id, belief, u, y, model)


def test_filter_step_all_ids_run_on_linear_model():
    model, belief, u, y = random_linear(8, with_b=True)
    ref = kf_step(belief, u, y, model)
    for fid in FILTER_IDS:
        post, diag = filter_step(fid, belief, u, y, model)
        assert np.all(np.isfinite(post.mean)), fid
        # every filter collapses to the exact answer on a linear model
        np.testing.assert_allclose(post.mean, ref.mean, atol=1e-4)


def _bare_array_model():
    """g(x) = sin(x) on two states, with derivatives returned as bare arrays."""
    def hess_g(x):
        out = np.zeros(x.shape[:-1] + (2, 2, 2))
        out[..., 0, 0, 0] = -np.sin(x[..., 0])
        out[..., 1, 1, 1] = -np.sin(x[..., 1])
        return out

    return StateSpaceModel(
        name="bare",
        f=lambda x, u, t: x,
        g=np.sin,
        jac_f=lambda x, u, t: np.eye(2),
        jac_g=lambda x: np.cos(x)[..., None] * np.eye(2),
        hess_g=hess_g,
        Q=0.01 * np.eye(2), R=0.1 * np.eye(2),
    )


@pytest.mark.parametrize("filter_id", ["ekf", "iekf", "nano", "nano-nopd", "nano-ekf", "nano-chol"])
def test_bare_array_derivatives_fail_at_the_first_step(filter_id):
    # updates read jac_g's and hess_g's results by field name, so a model that
    # returns the bare (2, 2) Jacobian fails loudly; unpacked as a tuple, the
    # array would split into its two rows and pass for (value, jac)
    belief = GaussianBelief(np.array([0.3, -0.2]), 0.1 * np.eye(2))
    with pytest.raises(AttributeError):
        filter_step(filter_id, belief, None, np.array([0.25, -0.1]), _bare_array_model())


def test_gaussian_belief_coerces_arrays():
    b = GaussianBelief([1.0, 2.0], [[1.0, 0.0], [0.0, 2.0]])
    assert isinstance(b.mean, np.ndarray) and b.mean.dtype == float
    assert b.cov.shape == (2, 2)
    b = GaussianBelief([0, 1], [[1, 0], [0, 1]])
    assert b.mean.dtype == np.float64 and b.cov.dtype == np.float64
    assert np.array_equal(b.mean, [0.0, 1.0]) and np.array_equal(b.cov, np.eye(2))
    assert [f.name for f in dataclasses.fields(b)] == ["mean", "cov"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        b.mean = np.zeros(2)
    # float64 arrays are taken as they are, not copied
    mean, cov = np.zeros(2), np.eye(2)
    b = GaussianBelief(mean, cov)
    assert b.mean is mean and b.cov is cov


def test_update_diagnostics_record():
    assert UpdateDiagnostics._fields == ("iterations", "final_delta", "converged", "update_ms",
                                         "pd_failure")
    diag = UpdateDiagnostics(1, 0.0, True, 0.0)
    assert diag.pd_failure is False
    assert diag == SINGLE_PASS and diag != PD_FAILED
    assert UpdateDiagnostics(1, 0.0, True, 2.5) != SINGLE_PASS
    # a named tuple: unpacks in field order and compares as a tuple
    assert tuple(diag) == (1, 0.0, True, 0.0, False)
    assert diag == (1, 0.0, True, 0.0, False)
    with pytest.raises(AttributeError):
        diag.update_ms = 1.0


# ---------------------------------------------------------------------------
# Property: every filter id on random linear-Gaussian models


_ENTRY = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False, width=64)


def _spd(draw, dim):
    root = draw(hnp.arrays(np.float64, (dim, dim), elements=_ENTRY))
    return root @ root.T + 0.1 * np.eye(dim)


@st.composite
def _linear_cases(draw):
    """A random linear model with n, m in 1..3, SPD Q, R and prior, and a finite y."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    A = draw(hnp.arrays(np.float64, (n, n), elements=_ENTRY))
    H = draw(hnp.arrays(np.float64, (m, n), elements=_ENTRY))
    model = linear_model(A, H, _spd(draw, n), _spd(draw, m))
    belief = GaussianBelief(draw(hnp.arrays(np.float64, n, elements=_ENTRY)), _spd(draw, n))
    y = draw(hnp.arrays(np.float64, m, elements=st.floats(-1e3, 1e3, width=64)))
    return model, belief, y


@settings(derandomize=True, deadline=None, max_examples=100)
@given(_linear_cases(), st.sampled_from([np.nan, np.inf, -np.inf]), st.data())
def test_every_filter_gives_a_gaussian_or_an_estimation_error(case, bad, data):
    model, belief, y = case
    spoiled = y.copy()
    spoiled[data.draw(st.integers(0, y.size - 1))] = bad
    for fid in FILTER_IDS:
        try:
            post, _ = predict_update(fid, belief, None, y, model, rule=RULE)
        except EstimationError:
            pass
        else:
            assert np.isfinite(post.mean).all(), fid
            assert np.array_equal(post.cov, post.cov.T), fid
            np.linalg.cholesky(post.cov)
        with pytest.raises(NonFiniteMeasurement):
            predict_update(fid, belief, None, spoiled, model, rule=RULE)
