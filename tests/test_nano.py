import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings
from hypothesis import strategies as st

from nanofilter.errors import EstimationError, MissingHessian, NotPositiveDefinite, PDFailure
from nanofilter.filters import GaussianBelief, ekf_update, iekf_update, kf_step, mm_predict
from nanofilter.linalg import cholesky_factor, symmetrize
from nanofilter.models import (
    MeasurementHessian,
    MeasurementJacobian,
    StateSpaceModel,
    linear_model,
    simulate_trajectory,
)
from nanofilter.nano import (
    NANO_PRESETS,
    NanoConfig,
    chol_cov_step,
    grad_loglik,
    hess_loglik,
    hess_loglik_gn,
    loglik,
    nano_update,
    _expected_derivatives,
    _sigma_root,
)
from nanofilter.quadrature import SigmaPointRule, generate_points, parse_rule
from nanofilter.scenarios import ScenarioConfig, scenario_models
from nanofilter.systems import attitude_model, duffing_model, fm_demodulator

RULE = SigmaPointRule("cubature")


def cubic_model():
    """1-D model with g(x) = x^3 and unit noises; hand-checkable derivatives."""
    def g(x):
        return x[..., :1] ** 3

    return StateSpaceModel(
        name="cubic",
        f=lambda x, u, t: x,
        g=g,
        jac_f=lambda x, u, t: np.eye(1),
        jac_g=lambda x: MeasurementJacobian(g(x), 3.0 * x[..., :1, None] ** 2),
        hess_g=lambda x: MeasurementHessian(
            g(x), 3.0 * x[..., :1, None] ** 2, 6.0 * x[..., :1, None, None]),
        Q=np.eye(1), R=np.eye(1),
    )


def random_linear(seed):
    rng = np.random.default_rng(np.random.PCG64(seed))
    n = int(rng.integers(1, 5))
    m = int(rng.integers(1, 5))
    A = 0.9 * rng.standard_normal((n, n)) / max(1.0, np.sqrt(n))
    H = rng.standard_normal((m, n))
    q = rng.standard_normal((n, n))
    r = rng.standard_normal((m, m))
    model = linear_model(A, H, q @ q.T + 0.1 * np.eye(n), r @ r.T + 0.1 * np.eye(m))
    p = rng.standard_normal((n, n))
    belief = GaussianBelief(rng.standard_normal(n), p @ p.T + np.eye(n))
    y = rng.standard_normal(m)
    return model, belief, y


# ---------------------------------------------------------------------------
# Likelihood derivatives


def test_loglik_hand_values():
    model = cubic_model()
    x, y = np.array([1.0]), np.array([0.0])
    assert loglik(x, y, model) == pytest.approx(0.5)
    assert grad_loglik(x, y, model)[0] == pytest.approx(3.0)
    assert hess_loglik_gn(x, model)[0, 0] == pytest.approx(9.0)
    # exact adds -[R^-1 (y - g)] * g'' = -(-1) * 6 = +6
    assert hess_loglik(x, y, model)[0, 0] == pytest.approx(15.0)


def test_exact_hessian_can_go_indefinite():
    # cubic sensor, residual pushing the curvature negative
    model = duffing_model()
    x, y = np.array([1.0, 0.0]), np.array([5.0])
    h = hess_loglik(x, y, model)
    assert h[0, 0] == pytest.approx(-1500.0)
    assert hess_loglik_gn(x, model)[0, 0] == pytest.approx(900.0)
    assert np.linalg.eigvalsh(h).min() < 0.0


def test_gauss_newton_hessian_is_psd():
    rng = np.random.default_rng(0)
    model = duffing_model()
    for _ in range(1000):
        x = rng.uniform(-3, 3, size=2)
        eig = np.linalg.eigvalsh(hess_loglik_gn(x, model))
        assert eig.min() >= -1e-12


def test_hess_loglik_requires_second_derivatives():
    model = cubic_model()
    model.hess_g = None
    with pytest.raises(MissingHessian):
        hess_loglik(np.zeros(1), np.zeros(1), model)


def test_expected_derivatives_collapse_to_point_values():
    # at vanishing spread the sigma-point averages equal the pointwise values
    model = cubic_model()
    x, y = np.array([0.7]), np.array([0.2])
    cset = generate_points(RULE, x, 1e-12 * np.eye(1))
    v_x, v_xx = _expected_derivatives(cset, y, model, exact=False)
    np.testing.assert_allclose(v_x, grad_loglik(x, y, model), atol=1e-5)
    np.testing.assert_allclose(v_xx, hess_loglik_gn(x, model), atol=1e-5)
    v_x2, v_xx2 = _expected_derivatives(cset, y, model, exact=True)
    np.testing.assert_allclose(v_xx2, hess_loglik(x, y, model), atol=1e-5)


def dense_r_model():
    """2-D model with g = (x0 x1, sin x0 + x1^2) and correlated measurement noise."""
    def g(x):
        return np.stack([x[..., 0] * x[..., 1], np.sin(x[..., 0]) + x[..., 1] ** 2], axis=-1)

    def jac(x):
        J = np.zeros(x.shape[:-1] + (2, 2))
        J[..., 0, 0], J[..., 0, 1] = x[..., 1], x[..., 0]
        J[..., 1, 0], J[..., 1, 1] = np.cos(x[..., 0]), 2.0 * x[..., 1]
        return J

    def hess(x):
        H = np.zeros(x.shape[:-1] + (2, 2, 2))
        H[..., 0, 0, 1] = H[..., 0, 1, 0] = 1.0
        H[..., 1, 0, 0], H[..., 1, 1, 1] = -np.sin(x[..., 0]), 2.0
        return H

    return StateSpaceModel(
        name="dense-r",
        f=lambda x, u, t: x,
        g=g,
        jac_f=lambda x, u, t: np.eye(2),
        jac_g=lambda x: MeasurementJacobian(g(x), jac(x)),
        hess_g=lambda x: MeasurementHessian(g(x), jac(x), hess(x)),
        Q=np.eye(2), R=np.array([[1.0, 0.4], [0.4, 0.5]]),
    )


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("rule", ["cubature", "gh:3"])
@pytest.mark.parametrize("make_model", [fm_demodulator, attitude_model, duffing_model, dense_r_model],
                         ids=["fm", "attitude", "duffing", "dense-r"])
def test_expected_derivatives_equal_a_per_point_loop(make_model, rule, exact):
    # a dense R gives each entry of R^{-1} r several terms, so only there can
    # the stacked and the per-point products round differently
    model = make_model()
    n, m = model.n, model.m
    rng = np.random.default_rng(4)
    s = 0.05 * rng.standard_normal((n, n))
    x0 = 0.3 * rng.standard_normal(n)
    cset = generate_points(parse_rule(rule), x0, s @ s.T + 1e-4 * np.eye(n))
    y = model.g(x0 + 0.1 * rng.standard_normal(n)) + 0.01 * rng.standard_normal(m)
    v_x, v_xx = np.zeros(n), np.zeros((n, n))
    for w, p in zip(cset.mean_weights, cset.points):
        G = model.jac_g(p).jac
        scaled = model.R_inv @ G
        resid = model.g(p) - y
        v_x += w * (scaled.T @ resid)
        h = G.T @ scaled
        # the point functions are the same code at one point of weight 1
        assert np.array_equal(grad_loglik(p, y, model), scaled.T @ resid)
        assert np.array_equal(hess_loglik_gn(p, model), symmetrize(h))
        if exact:
            h = h + np.tensordot(model.R_inv @ resid, model.hess_g(p).hess, axes=1)
            assert np.array_equal(hess_loglik(p, y, model), symmetrize(h))
        v_xx += w * h
    got_x, got_xx = _expected_derivatives(cset, y, model, exact)
    assert np.array_equal(got_x, v_x)
    assert np.array_equal(got_xx, symmetrize(v_xx))


def duffing_oracle(mean, cov, y, r_inv, z4):
    """Closed-form E[grad], Gauss-Newton and exact terms of loglik for duffing's g = x1^3.

    With x1 = a + s z under N(mean, cov), the terms are polynomials in x1 of
    degree at most 5: E[grad] = 3 r_inv (E[x1^5] - y E[x1^2]) on the first
    axis, the Gauss-Newton term 9 r_inv E[x1^4] and the exact term
    r_inv (15 E[x1^4] - 6 y a), both in the (0, 0) entry.  ``z4`` is E[z^4]:
    3 for Gaussian moments.  Odd moments of z vanish.  Returns the three
    terms and, for each, the size its rounding error scales with: the same
    sum with x1 at its farthest point, ``reach``, since no rule tested here
    puts a point past 3 standard deviations.
    """
    a, s2 = mean[0], cov[0, 0]
    ex2 = a ** 2 + s2
    ex4 = a ** 4 + 6.0 * a ** 2 * s2 + z4 * s2 ** 2
    ex5 = a ** 5 + 10.0 * a ** 3 * s2 + 5.0 * z4 * a * s2 ** 2
    grad, gn, exact = np.zeros(2), np.zeros((2, 2)), np.zeros((2, 2))
    grad[0] = 3.0 * r_inv * (ex5 - y * ex2)
    gn[0, 0] = 9.0 * r_inv * ex4
    exact[0, 0] = r_inv * (15.0 * ex4 - 6.0 * y * a)
    reach = abs(a) + 3.0 * np.sqrt(s2)
    sizes = (3.0 * r_inv * (reach ** 5 + abs(y) * reach ** 2), 9.0 * r_inv * reach ** 4,
             r_inv * (15.0 * reach ** 4 + 6.0 * abs(y) * reach))
    return (grad, gn, exact), sizes


# E[z^4] of each rule's points along one axis of duffing's 2-D state: every
# rule but cubature is exact to degree 5; cubature's points sit at +-sqrt(n) e_i,
# so its E[z^4] is n = 2 where a Gaussian's is 3.
ORACLE_Z4 = {"gh:3": 3.0, "gh:5": 3.0, "unscented": 3.0, "cubature": 2.0}


@st.composite
def _duffing_beliefs(draw):
    """A mean in [-2, 2]^2, an SPD covariance M M^T + d I, and a measurement."""
    coord = st.floats(-2.0, 2.0)
    mean = np.array([draw(coord), draw(coord)])
    root = np.array([[draw(st.floats(-1.0, 1.0)) for _ in range(2)] for _ in range(2)])
    cov = root @ root.T + draw(st.floats(1e-3, 1.0)) * np.eye(2)
    return mean, cov, draw(st.floats(-10.0, 10.0))


@pytest.mark.parametrize("rule", sorted(ORACLE_Z4))
@settings(derandomize=True, deadline=None)
@given(belief=_duffing_beliefs())
def test_expected_derivatives_match_duffings_closed_form(rule, belief):
    # the gradient, Gauss-Newton and exact modes against the same moments;
    # cubature's gap to the Gaussian moments is its fourth moment alone
    model = duffing_model()
    mean, cov, y = belief
    cset = generate_points(parse_rule(rule), mean, cov)
    v_x, v_gn = _expected_derivatives(cset, np.array([y]), model, exact=False)
    _, v_exact = _expected_derivatives(cset, np.array([y]), model, exact=True)
    r_inv = model.R_inv[0, 0]
    want, sizes = duffing_oracle(mean, cov, y, r_inv, ORACLE_Z4[rule])
    for got, term, size in zip((v_x, v_gn, v_exact), want, sizes):
        np.testing.assert_allclose(got, term, rtol=0.0, atol=1e-13 * size)
    if rule == "cubature":
        (_, gaussian_gn, _), _ = duffing_oracle(mean, cov, y, r_inv, 3.0)
        gap = 9.0 * r_inv * cov[0, 0] ** 2
        assert gaussian_gn[0, 0] - v_gn[0, 0] == pytest.approx(gap, rel=1e-6)


def test_sigma_root_falls_back_to_the_inverse_factor():
    # a covariance iterate that no longer factors takes its root from the
    # factor of the inverse covariance: root root^T = (L L^T)^{-1}
    inv_factor = cholesky_factor(np.array([[4.0, 1.0], [1.0, 3.0]]))
    root = _sigma_root(np.array([[1.0, 2.0], [2.0, 1.0]]), inv_factor)
    np.testing.assert_allclose(root @ root.T, np.linalg.inv(inv_factor @ inv_factor.T), rtol=1e-12)


def test_sigma_root_without_inverse_factor_reraises():
    with pytest.raises(NotPositiveDefinite):
        _sigma_root(np.array([[1.0, 2.0], [2.0, 1.0]]), None)


def _counting_hess_g(model):
    """Wrap ``model``'s ``g``, ``jac_g`` and ``hess_g`` to record their calls.

    Returns ``{name: [copy of each call's argument]}``; the dict is filled as
    the model is used, after ``y`` has been formed from the unwrapped ``g``.
    """
    seen = {}

    def counting(name, inner):
        def counted(x):
            seen[name].append(np.array(x, copy=True))
            return inner(x)
        return counted

    y_source = model.g
    for name in ("g", "jac_g", "hess_g"):
        seen[name] = []
        setattr(model, name, counting(name, getattr(model, name)))
    return seen, y_source


def test_exact_expected_derivatives_call_hess_g_once_on_the_stack():
    model = attitude_model()
    seen, g = _counting_hess_g(model)
    cset = generate_points(parse_rule("gh:3"), np.array([0.2, -0.1, 0.3]), 1e-3 * np.eye(3))
    y = g(np.array([0.21, -0.1, 0.29]))
    _expected_derivatives(cset, y, model, exact=True)
    assert [len(seen[k]) for k in ("g", "jac_g", "hess_g")] == [0, 0, 1]
    assert seen["hess_g"][0].shape == cset.points.shape == (27, 3)
    assert np.array_equal(seen["hess_g"][0], cset.points)
    # Gauss-Newton mode: one jac_g call on the stack, which also gives g
    _expected_derivatives(cset, y, model, exact=False)
    assert [len(seen[k]) for k in ("g", "jac_g", "hess_g")] == [0, 1, 1]
    assert np.array_equal(seen["jac_g"][0], cset.points)


@pytest.mark.parametrize("rule, points", [("cubature", 4), ("gh:3", 9)])
def test_exact_update_calls_hess_g_once_per_pass(rule, points):
    model = duffing_model()
    seen, g = _counting_hess_g(model)
    prior = GaussianBelief(np.array([0.8, -0.2]), 0.05 * np.eye(2))
    y = g(np.array([0.85, -0.2]))
    _, diag = nano_update(prior, y, model, parse_rule(rule), NANO_PRESETS["nano-nopd"])
    assert diag.iterations > 1
    assert len(seen["hess_g"]) == diag.iterations
    assert seen["g"] == [] and seen["jac_g"] == []
    assert all(x.shape == (points, 2) for x in seen["hess_g"])


@pytest.mark.parametrize("preset, per_pass, ekf_start", [
    ("nano", "jac_g", 0),
    ("nano-chol", "jac_g", 0),
    ("nano-ekf", "hess_g", 1),     # one jac_g call for the ekf start
])
def test_update_makes_one_model_call_per_pass(preset, per_pass, ekf_start):
    model = duffing_model()
    seen, g = _counting_hess_g(model)
    prior = GaussianBelief(np.array([0.8, -0.2]), 0.05 * np.eye(2))
    y = g(np.array([0.85, -0.2]))
    _, diag = nano_update(prior, y, model, RULE, NANO_PRESETS[preset])
    assert diag.iterations > 1
    expected = {"g": 0, "jac_g": ekf_start, "hess_g": 0}
    expected[per_pass] += diag.iterations
    assert {k: len(v) for k, v in seen.items()} == expected


@pytest.mark.parametrize("maker", [fm_demodulator, attitude_model, duffing_model])
def test_ekf_and_iekf_make_one_jac_g_call_per_pass(maker):
    # the iterated EKF's pass count is read from its jac_g calls
    model = maker()
    seen, g = _counting_hess_g(model)
    x = np.full(model.n, 0.3)
    prior = GaussianBelief(x, 0.01 * np.eye(model.n))
    y = g(x + 0.05)
    ekf_update(prior, y, model)
    assert [len(seen[k]) for k in ("g", "jac_g", "hess_g")] == [0, 1, 0]
    _, diag = iekf_update(prior, y, model)
    assert diag.iterations > 1
    assert [len(seen[k]) for k in ("g", "jac_g", "hess_g")] == [0, 1 + diag.iterations, 0]


# ---------------------------------------------------------------------------
# Configuration plumbing


def test_config_validation():
    with pytest.raises(ValueError):
        NanoConfig(hessian="newton")
    with pytest.raises(ValueError):
        NanoConfig(cov_update="sqrt")
    with pytest.raises(ValueError):
        NanoConfig(init="zero")
    with pytest.raises(ValueError):
        NanoConfig(gamma=0.0)
    with pytest.raises(ValueError):
        NanoConfig(max_iters=0)


@pytest.mark.parametrize("max_iters", [2.5, 3.0, float("nan"), "3"])
def test_config_rejects_a_non_integer_cap(max_iters):
    # a float cap used to construct and then fail in the first update's range()
    with pytest.raises(ValueError, match="max_iters"):
        NanoConfig(max_iters=max_iters)


@pytest.mark.parametrize("field", ["gamma", "epsilon"])
def test_config_rejects_nan(field):
    # NaN fails every comparison: a NaN gamma would leave every update unconverged
    with pytest.raises(ValueError):
        NanoConfig(**{field: float("nan")})


@pytest.mark.parametrize("epsilon", [np.inf, -np.inf], ids=["inf", "-inf"])
def test_config_rejects_an_infinite_epsilon(epsilon):
    # an infinite floor made every cholesky-factor update raise NonFiniteIterate,
    # so a bad setting was counted as a divergence in every trial
    with pytest.raises(ValueError, match="epsilon"):
        NanoConfig(cov_update="cholesky-factor", epsilon=epsilon)


def test_presets():
    assert NANO_PRESETS["nano"].hessian == "gauss-newton"
    assert NANO_PRESETS["nano"].cov_update == "direct"
    assert NANO_PRESETS["nano-nopd"].hessian == "exact"
    assert NANO_PRESETS["nano-ekf"].init == "ekf"
    assert NANO_PRESETS["nano-chol"].cov_update == "cholesky-factor"


# ---------------------------------------------------------------------------
# Factored covariance step


def test_chol_cov_step_scalar_hand_values():
    eps = NanoConfig().epsilon
    factor = chol_cov_step(np.ones((1, 1)), np.array([[3.0]]), np.array([[1.0]]), eps)
    # exponent = (3 + 1 - 1)/2 = 1.5, factor' = 1 * (1 + 1.5) = 2.5
    assert factor[0, 0] == pytest.approx(2.5, abs=1e-9)
    assert factor[0, 0] ** 2 == pytest.approx(6.25 + eps, abs=1e-8)


def test_chol_cov_step_pivot_floor():
    # reconstruction keeps every Cholesky pivot at or above sqrt(epsilon),
    # whatever the curvature input looks like
    eps = NanoConfig().epsilon
    rng = np.random.default_rng(31)
    for _ in range(200):
        n = int(rng.integers(1, 5))
        p = rng.standard_normal((n, n))
        factor = cholesky_factor(p @ p.T + 0.1 * np.eye(n))
        v = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-3, 6)
        v_xx = (v + v.T) / 2            # arbitrary symmetric, maybe indefinite
        prior_inv = np.eye(n) * 10.0 ** rng.integers(-3, 3)
        out = chol_cov_step(factor, v_xx, prior_inv, eps)
        assert np.diag(out).min() >= np.sqrt(eps) * (1 - 1e-12)


def test_chol_cov_step_returns_lower_factor_of_reconstruction():
    # factor' is the Cholesky factor of moved moved^T + epsilon I, where
    # moved = factor (I + M) and M = L^-1 (target - L L^T) L^-T / 2
    eps = 1e-3
    rng = np.random.default_rng(5)
    for _ in range(50):
        p = rng.standard_normal((3, 3))
        factor = cholesky_factor(p @ p.T + np.eye(3))
        v = rng.standard_normal((3, 3))
        v_xx = (v + v.T) / 2
        out = chol_cov_step(factor, v_xx, np.eye(3), eps)
        assert np.array_equal(np.tril(out), out)
        assert np.diag(out).min() > 0.0
        l_inv = np.linalg.inv(factor)
        exponent = 0.5 * l_inv @ (v_xx + np.eye(3) - factor @ factor.T) @ l_inv.T
        moved = factor @ (np.eye(3) + exponent)
        np.testing.assert_allclose(out @ out.T, moved @ moved.T + eps * np.eye(3),
                                   rtol=1e-9, atol=1e-9)


# ---------------------------------------------------------------------------
# The update: linear collapse, presets, positive definiteness


def test_nano_collapses_to_kf_on_linear_models():
    for seed in range(8):
        model, belief, y = random_linear(40 + seed)
        ref = kf_step(belief, None, y, model)
        prior = kf_step(belief, None, None, model)
        post, diag = nano_update(prior, y, model, RULE)
        np.testing.assert_allclose(post.mean, ref.mean, atol=1e-8)
        np.testing.assert_allclose(post.cov, ref.cov, atol=1e-8)
        assert diag.iterations <= 2  # constant curvature: fixed point by pass two


def test_nano_chol_collapses_to_kf_on_linear_models():
    tight = replace(NANO_PRESETS["nano-chol"], gamma=1e-12, max_iters=300)
    for seed in range(5):
        model, belief, y = random_linear(60 + seed)
        ref = kf_step(belief, None, y, model)
        prior = kf_step(belief, None, None, model)
        post, _ = nano_update(prior, y, model, RULE, tight)
        np.testing.assert_allclose(post.mean, ref.mean, atol=1e-6)
        np.testing.assert_allclose(post.cov, ref.cov, atol=1e-6)


def test_nano_ekf_init_matches_kf_on_linear_models():
    model, belief, y = random_linear(70)
    ref = kf_step(belief, None, y, model)
    prior = kf_step(belief, None, None, model)
    post, _ = nano_update(prior, y, model, RULE, NANO_PRESETS["nano-ekf"])
    np.testing.assert_allclose(post.mean, ref.mean, atol=1e-8)
    np.testing.assert_allclose(post.cov, ref.cov, atol=1e-8)


def test_nano_exact_mode_raises_pd_failure_on_indefinite_curvature():
    # exact curvature at this (state, measurement) is -1500 in the position
    # slot; a prior precision of 100 cannot rescue it
    model = duffing_model()
    prior = GaussianBelief(np.array([1.0, 0.0]), 1e-2 * np.eye(2))
    with pytest.raises(PDFailure):
        nano_update(prior, np.array([5.0]), model, RULE, NANO_PRESETS["nano-nopd"])


def test_nano_gn_mode_survives_the_same_update():
    model = duffing_model()
    prior = GaussianBelief(np.array([1.0, 0.0]), 1e-2 * np.eye(2))
    post, diag = nano_update(prior, np.array([5.0]), model, RULE, NANO_PRESETS["nano"])
    cholesky_factor(post.cov)  # must stay positive definite
    assert np.all(np.isfinite(post.mean))


def test_nano_chol_survives_exact_hessian():
    # the factored update absorbs indefinite curvature instead of failing
    model = duffing_model()
    prior = GaussianBelief(np.array([1.0, 0.0]), 1e-2 * np.eye(2))
    cfg = NanoConfig(hessian="exact", cov_update="cholesky-factor")
    post, _ = nano_update(prior, np.array([5.0]), model, RULE, cfg)
    cholesky_factor(post.cov)


def test_nano_requires_hessian_for_exact_mode():
    model = cubic_model()
    model.hess_g = None
    prior = GaussianBelief(np.zeros(1), np.eye(1))
    with pytest.raises(MissingHessian):
        nano_update(prior, np.zeros(1), model, RULE, NanoConfig(hessian="exact"))


def test_nano_randomized_pd_preservation():
    rng = np.random.default_rng(17)
    model = duffing_model()
    for cfg in (NANO_PRESETS["nano"], NANO_PRESETS["nano-chol"]):
        for _ in range(100):
            mean = rng.uniform(-2, 2, size=2)
            p = rng.standard_normal((2, 2))
            prior = GaussianBelief(mean, p @ p.T + 0.01 * np.eye(2))
            y = rng.uniform(-8, 8, size=1)
            post, _ = nano_update(prior, y, model, RULE, cfg)
            cholesky_factor(post.cov)  # raises if not positive definite


# The PD guarantee is tested on priors up to this condition number; past about
# 1e15 the set-up factorizations themselves start to fail (ROADMAP item 16).
PD_CONDITION_BOUND = 1e12
PD_MODELS = {"fm": fm_demodulator(), "attitude": attitude_model(), "duffing": duffing_model()}


@st.composite
def _adversarial_updates(draw, model):
    """A random SPD prior of condition up to the bound and scale 1e-4..1e3, a
    random mean, and a measurement of a state drawn from the prior with noise
    up to 10 times R's scale."""
    n, m = model.n, model.m
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    log_scale = draw(st.floats(-4.0, 3.0))
    log_cond = draw(st.floats(0.0, np.log10(PD_CONDITION_BOUND)))
    basis = np.linalg.qr(rng.standard_normal((n, n)))[0]
    eig = 10.0 ** (log_scale - log_cond * np.linspace(0.0, 1.0, n))
    prior = GaussianBelief(rng.uniform(-3.0, 3.0, n), symmetrize((basis * eig) @ basis.T))
    x = prior.mean + cholesky_factor(prior.cov) @ rng.standard_normal(n)
    noise = draw(st.floats(0.0, 10.0)) * cholesky_factor(model.R) @ rng.standard_normal(m)
    return prior, model.g(x) + noise


@pytest.mark.parametrize("model_id", sorted(PD_MODELS))
@settings(derandomize=True, deadline=None, max_examples=50)
@given(data=st.data())
def test_nano_updates_stay_positive_definite_on_adversarial_beliefs(model_id, data):
    # the abstract's guarantee: a Gauss-Newton or factored update returns a
    # covariance that factors, or fails with an estimation error that is not
    # a lost positive definiteness
    model = PD_MODELS[model_id]
    prior, y = data.draw(_adversarial_updates(model))
    for fid in ("nano", "nano-chol"):
        for rule in (RULE, parse_rule("gh:3")):
            try:
                post, _ = nano_update(prior, y, model, rule, NANO_PRESETS[fid])
            except EstimationError as exc:
                assert not isinstance(exc, PDFailure), (fid, rule, exc)
                continue
            np.linalg.cholesky(post.cov)


def test_nano_determinism():
    model, belief, y = random_linear(80)
    prior = kf_step(belief, None, None, model)
    a, _ = nano_update(prior, y, model, RULE)
    b, _ = nano_update(prior, y, model, RULE)
    np.testing.assert_array_equal(a.mean, b.mean)
    np.testing.assert_array_equal(a.cov, b.cov)


# ---------------------------------------------------------------------------
# Direct vs factored covariance recursions on the benchmark systems


def _warmed_updates(model_id, seed, horizon, skip):
    """Per-step (prior, measurement) pairs from a warmed-up tracking run."""
    cfg = ScenarioConfig(model=model_id, horizon=horizon, seed=seed)
    setup = scenario_models(cfg)
    [traj] = simulate_trajectory(
        setup.truth, setup.process_noise, setup.measurement_noise,
        setup.init_mean, setup.init_cov, horizon, [np.random.default_rng(np.random.PCG64(seed))],
    )
    belief = GaussianBelief(setup.init_mean, setup.init_cov)
    out = []
    for t in range(horizon):
        u = traj.inputs[t] if traj.inputs is not None else None
        prior = mm_predict(belief, u, setup.filter_view, RULE, t)
        if t >= skip:
            out.append((prior, traj.measurements[t], setup.filter_view))
        belief, _ = nano_update(prior, traj.measurements[t], setup.filter_view, RULE)
    return out


@pytest.mark.parametrize("model_id", ["fm", "attitude", "duffing"])
def test_direct_and_factored_covariances_share_a_fixed_point(model_id):
    # run both recursions to convergence: the covariance fixed points agree to
    # well under 1e-5 (difference bounded by epsilon and exponent truncation)
    tight_a = replace(NANO_PRESETS["nano"], gamma=1e-12, max_iters=400)
    tight_b = replace(NANO_PRESETS["nano-chol"], gamma=1e-12, max_iters=400)
    for prior, y, model in _warmed_updates(model_id, seed=3, horizon=40, skip=15):
        pa, _ = nano_update(prior, y, model, RULE, tight_a)
        pb, _ = nano_update(prior, y, model, RULE, tight_b)
        np.testing.assert_allclose(pa.cov, pb.cov, atol=1e-5)


@pytest.mark.parametrize("model_id", ["attitude", "duffing"])
def test_direct_and_factored_means_agree_where_unimodal(model_id):
    # the phase-wrapped sensor is excluded: its posterior is multimodal with a
    # wide prior and the two iteration paths may settle in different wells
    tight_a = replace(NANO_PRESETS["nano"], gamma=1e-12, max_iters=400)
    tight_b = replace(NANO_PRESETS["nano-chol"], gamma=1e-12, max_iters=400)
    for prior, y, model in _warmed_updates(model_id, seed=3, horizon=40, skip=15):
        pa, _ = nano_update(prior, y, model, RULE, tight_a)
        pb, _ = nano_update(prior, y, model, RULE, tight_b)
        np.testing.assert_allclose(pa.mean, pb.mean, atol=1e-5)
