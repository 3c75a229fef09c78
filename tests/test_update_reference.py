"""The iterated updates against reference copies of their earlier, plainer form.

``nano_update``, ``chol_cov_step``, ``plf_update`` and ``iekf_update`` factor
the prior once, test finiteness with ``linalg.all_finite`` and reuse products
within a pass, and the three updates run their passes under the one driver
``filters.iterate``.
The references below keep the earlier arithmetic (a second ``spd_inverse``,
``symmetrize``, ``np.linalg.norm``, ``np.vstack``, entry-wise finiteness
checks) and each keeps its own loop, which sets ``converged`` from its last
statistic; every posterior and diagnostic must match them bit for bit.
"""

import numpy as np
import pytest
from dataclasses import replace

from nanofilter import linalg, nano
from nanofilter.bench import make_trajectory
from nanofilter.errors import (
    EstimationError,
    NonFiniteFunctionValue,
    NonFiniteIterate,
    NotPositiveDefinite,
    PDFailure,
    SingularFactor,
)
from nanofilter.filters import (
    ITER_GAMMA,
    ITER_MAX,
    GaussianBelief,
    UpdateDiagnostics,
    ekf_predict,
    ekf_update,
    iekf_update,
    mm_predict,
    plf_update,
)
from nanofilter.linalg import (
    chol_solve,
    cholesky_factor,
    identity,
    qr_upper,
    spd_inverse,
    spd_solve,
    symmetrize,
    tril_solve,
)
from nanofilter.models import MeasurementJacobian, linear_model
from nanofilter.nano import FACTOR_DIAG_TOL, NANO_PRESETS, NanoConfig, _expected_derivatives, _sigma_root
from nanofilter.quadrature import SigmaPointRule, _apply, generate_points, parse_rule, propagate_with_cross
from nanofilter.scenarios import ScenarioConfig, scenario_models

# The finiteness cases below overflow sums and multiply Inf by zero on purpose.
pytestmark = [
    pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning"),
    pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning"),
]

RULES = ("cubature", "unscented", "gh:3")
MODELS = ("fm", "attitude", "duffing")


# ---------------------------------------------------------------------------
# Reference updates


def ref_chol_cov_step(factor, v_xx, prior_inv, epsilon):
    if float(np.min(np.diag(factor))) < FACTOR_DIAG_TOL:
        raise SingularFactor("factor diagonal fell below tolerance")
    n = factor.shape[0]
    target = v_xx + prior_inv - factor @ factor.T
    inner = tril_solve(factor, target)
    exponent = 0.5 * tril_solve(factor, inner.T).T
    moved = factor @ (identity(n) + exponent)
    stacked = np.vstack([moved.T, np.sqrt(epsilon) * identity(n)])
    upper = qr_upper(stacked)
    signs = np.where(np.diag(upper) < 0.0, -1.0, 1.0)
    return (signs[:, None] * upper).T


def ref_nano_update(prior, y, model, rule, cfg):
    y = np.asarray(y, dtype=float)
    exact = cfg.hessian == "exact"
    factored = cfg.cov_update == "cholesky-factor"
    n = prior.mean.shape[0]
    prior_inv = spd_inverse(prior.cov)
    start = ekf_update(prior, y, model)[0] if cfg.init == "ekf" else prior
    mean, cov = start.mean, start.cov
    inv_factor = cholesky_factor(spd_inverse(cov)) if factored else None
    try:
        for iterations in range(1, cfg.max_iters + 1):
            spread = _sigma_root(cov, inv_factor)
            cset = generate_points(rule, mean, cov, spread=spread)
            v_x, v_xx = _expected_derivatives(cset, y, model, exact)
            if factored:
                inv_factor = ref_chol_cov_step(inv_factor, v_xx, prior_inv, cfg.epsilon)
            else:
                inv_factor = cholesky_factor(prior_inv + v_xx)
            cov_next = symmetrize(chol_solve(inv_factor, identity(n)))
            mean_next = mean - cov_next @ (v_x + prior_inv @ (mean - prior.mean))
            if not (np.isfinite(mean_next).all() and np.isfinite(cov_next).all()):
                raise NonFiniteIterate("optimizer iterate left finite floats")
            delta = float(np.linalg.norm(cov_next - cov))
            mean, cov = mean_next, cov_next
            if delta < cfg.gamma:
                break
    except NotPositiveDefinite as exc:
        raise PDFailure(f"covariance update lost positive definiteness: {exc}") from exc
    return GaussianBelief(mean, cov), UpdateDiagnostics(iterations, delta, delta < cfg.gamma, False, 0.0)


def ref_iekf_update(prior, y, model, max_iters=ITER_MAX):
    y = np.asarray(y, dtype=float)
    x0, P = prior.mean, prior.cov
    xi = x0
    for iterations in range(1, max_iters + 1):
        G = model.jac_g(xi).jac
        S = symmetrize(G @ P @ G.T + model.R)
        gain = spd_solve(S, G @ P).T
        x_next = x0 + gain @ (y - model.g(xi) - G @ (x0 - xi))
        delta = float(np.linalg.norm(x_next - xi))
        xi = x_next
        if delta < ITER_GAMMA:
            break
    closure = identity(P.shape[0]) - gain @ G
    cov = symmetrize(closure @ P @ closure.T + gain @ model.R @ gain.T)
    return GaussianBelief(xi, cov), UpdateDiagnostics(iterations, delta, delta < ITER_GAMMA, False, 0.0)


def ref_plf_update(prior, y, model, rule, max_iters=ITER_MAX):
    y = np.asarray(y, dtype=float)
    x0, P0 = prior.mean, prior.cov
    xi, Pi = x0, P0
    for iterations in range(1, max_iters + 1):
        cset = generate_points(rule, xi, Pi)
        ybar, spread, cross = propagate_with_cross(cset, model.g)
        A = chol_solve(cset.spread, cross).T
        b = ybar - A @ xi
        omega = symmetrize(spread - A @ Pi @ A.T)
        S = symmetrize(A @ P0 @ A.T + model.R + omega)
        gain = spd_solve(S, A @ P0).T
        x_next = x0 + gain @ (y - A @ x0 - b)
        P_next = symmetrize(P0 - gain @ S @ gain.T)
        delta = float(np.linalg.norm(x_next - xi))
        xi, Pi = x_next, P_next
        if delta < ITER_GAMMA:
            break
    return GaussianBelief(xi, Pi), UpdateDiagnostics(iterations, delta, delta < ITER_GAMMA, False, 0.0)


# ---------------------------------------------------------------------------
# Five filter steps on each benchmark model, each rule


def _nano_pair(cfg):
    return (lambda p, y, m, r: nano.nano_update(p, y, m, r, cfg),
            lambda p, y, m, r: ref_nano_update(p, y, m, r, cfg))


UPDATES = {fid: _nano_pair(cfg) for fid, cfg in NANO_PRESETS.items()}
# Not a preset: the factored update started from the EKF posterior, the one
# path that still inverts a covariance.
UPDATES["chol-from-ekf"] = _nano_pair(NanoConfig(cov_update="cholesky-factor", init="ekf"))
UPDATES["plf"] = (plf_update, ref_plf_update)
UPDATES["iekf"] = (lambda p, y, m, r: iekf_update(p, y, m), lambda p, y, m, r: ref_iekf_update(p, y, m))


def _outcome(update, prior, y, model, rule):
    try:
        return update(prior, y, model, rule)
    except EstimationError as exc:
        return type(exc)


@pytest.mark.parametrize("rule", RULES)
@pytest.mark.parametrize("model_id", MODELS)
@pytest.mark.parametrize("filter_id", list(UPDATES))
def test_update_matches_reference_bit_for_bit(filter_id, model_id, rule):
    new, ref = UPDATES[filter_id]
    cfg = ScenarioConfig(model=model_id, horizon=5, seed=0)
    setup = scenario_models(cfg)
    traj = make_trajectory(cfg, 0, setup)
    model, sp_rule = setup.filter_view, parse_rule(rule)
    belief = GaussianBelief(setup.init_mean, setup.init_cov)
    for t in range(cfg.horizon):
        u = traj.inputs[t] if traj.inputs is not None else None
        if filter_id == "iekf":
            prior = ekf_predict(belief, u, model, t)
        else:
            prior = mm_predict(belief, u, model, sp_rule, t)
        y = traj.measurements[t]
        got = _outcome(new, prior, y, model, sp_rule)
        want = _outcome(ref, prior, y, model, sp_rule)
        if isinstance(want, type):
            assert got is want, (t, got)
            belief = prior
            continue
        assert np.array_equal(got[0].mean, want[0].mean), t
        assert np.array_equal(got[0].cov, want[0].cov), t
        assert got[1] == want[1], t
        belief = got[0]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("epsilon", [0.0, 1e-9, 0.5])
def test_chol_cov_step_matches_reference_bit_for_bit(n, epsilon):
    rng = np.random.default_rng(np.random.PCG64(10 * n))
    for _ in range(20):
        a = rng.standard_normal((n, n))
        factor = cholesky_factor(a @ a.T + 0.1 * np.eye(n))
        v = rng.standard_normal((n, n))
        p = rng.standard_normal((n, n))
        v_xx, prior_inv = symmetrize(v + v.T), symmetrize(p @ p.T + np.eye(n))
        got = nano.chol_cov_step(factor, v_xx, prior_inv, epsilon)
        assert np.array_equal(got, ref_chol_cov_step(factor, v_xx, prior_inv, epsilon))


# ---------------------------------------------------------------------------
# Factorizations per update


def _count(monkeypatch, owner, name):
    """Replace ``owner.name`` by a wrapper that records each call's arguments."""
    calls, inner = [], getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _duffing_update():
    model = scenario_models(ScenarioConfig(model="duffing")).filter_view
    prior = GaussianBelief(np.array([0.8, -0.2]), 0.05 * np.eye(2))
    return prior, model.g(np.array([0.85, -0.2])), model


@pytest.mark.parametrize("filter_id", list(NANO_PRESETS))
def test_nano_update_inverts_no_covariance(monkeypatch, filter_id):
    prior, y, model = _duffing_update()
    calls = _count(monkeypatch, nano, "spd_inverse")
    _outcome(lambda *a: nano.nano_update(*a, NANO_PRESETS[filter_id]), prior, y, model, SigmaPointRule())
    assert calls == []


@pytest.mark.parametrize("filter_id, per_pass, extra", [("nano-chol", 1, 1), ("nano", 2, 0)])
def test_prior_factor_is_shared_by_the_inverse_and_the_first_pass(monkeypatch, filter_id, per_pass, extra):
    # One factorization of the prior serves both its inverse and the first
    # pass's sigma points, so the count of every factorization, through
    # nano's binding or linalg's own, is the passes' share plus `extra`.
    prior, y, model = _duffing_update()
    via_nano = _count(monkeypatch, nano, "cholesky_factor")
    via_linalg = _count(monkeypatch, linalg, "cholesky_factor")
    points = _count(monkeypatch, nano, "generate_points")
    _, diag = nano.nano_update(prior, y, model, SigmaPointRule(), NANO_PRESETS[filter_id])
    assert diag.iterations > 1
    assert via_linalg == []
    assert len(via_nano) == per_pass * diag.iterations + extra
    assert via_nano[0][0][0] is prior.cov
    assert np.array_equal(points[0][1]["spread"], cholesky_factor(prior.cov))


# ---------------------------------------------------------------------------
# Finiteness checks whose fast path can overflow


def _constant_model(jac, resid):
    """Linear-looking 2x2 model whose stacked g and jac_g are the given constants."""
    model = linear_model(np.eye(2), np.eye(2), np.eye(2), np.eye(2))
    model.g = lambda x: np.broadcast_to(resid, x.shape[:-1] + (2,)).copy()
    model.jac_g = lambda x: MeasurementJacobian(
        model.g(x), np.broadcast_to(jac, x.shape[:-1] + (2, 2)).copy())
    return model


def _cset():
    return generate_points(SigmaPointRule(), np.zeros(2), np.eye(2))


BAD = [np.nan, np.inf, -np.inf]


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("entry", range(6))
def test_nonfinite_derivative_entry_raises(entry, bad):
    jac, resid = np.eye(2), np.array([0.5, -0.25])
    if entry < 2:
        resid[entry] = bad
    else:
        jac.flat[entry - 2] = bad
    with pytest.raises(NonFiniteFunctionValue):
        _expected_derivatives(_cset(), np.zeros(2), _constant_model(jac, resid), exact=False)


@pytest.mark.parametrize("jac, resid", [
    (np.eye(2), np.array([1e308, 1e308])),      # v_x = resid
    (np.eye(2), np.array([-1e308, -1e308])),
    (np.sqrt(8e307) * np.array([[1.0, 1.0], [0.0, 0.0]]), np.zeros(2)),  # v_xx = jac^T jac
])
def test_derivatives_whose_sum_overflows_pass(jac, resid):
    v_x, v_xx = _expected_derivatives(_cset(), np.zeros(2), _constant_model(jac, resid), exact=False)
    assert np.isfinite(v_x).all() and np.isfinite(v_xx).all()
    assert np.isinf(v_x.sum() + v_xx.sum())


def test_overflow_at_symmetrizing_is_a_nonfinite_value():
    # G^T R^-1 G = 1e308 I is finite, but symmetrizing adds each entry to its
    # mirror and overflows; the update names that overflow, not a later loss
    # of positive definiteness.
    model = _constant_model(1e154 * np.eye(2), np.zeros(2))
    with pytest.raises(NonFiniteFunctionValue):
        _expected_derivatives(_cset(), np.zeros(2), model, exact=False)
    prior = GaussianBelief(np.zeros(2), np.eye(2))
    with pytest.raises(NonFiniteFunctionValue):
        nano.nano_update(prior, np.zeros(2), model, SigmaPointRule(), NANO_PRESETS["nano"])


def _stub_iterate_cov(monkeypatch, cov):
    """Make nano_update's covariance iterate ``cov`` (before symmetrizing).

    The prior of :func:`_linear_setup` has the identity as its factor; every
    other ``chol_solve`` is the iterate's.
    """
    inner = linalg.chol_solve

    def stub(factor, b):
        return inner(factor, b) if np.array_equal(factor, np.eye(2)) else cov.copy()

    monkeypatch.setattr(linalg, "chol_solve", stub)


def _linear_setup(offset=0.0):
    model = linear_model(np.eye(2), np.eye(2), np.eye(2), np.eye(2))
    prior = GaussianBelief(np.array([0.3, -0.1]), np.eye(2))
    return prior, model.g(prior.mean) + offset, model


ONE_PASS = replace(NANO_PRESETS["nano"], max_iters=1)


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("entry", range(4))
def test_nonfinite_covariance_entry_raises(monkeypatch, entry, bad):
    cov = np.eye(2)
    cov.flat[entry] = bad
    _stub_iterate_cov(monkeypatch, cov)
    prior, y, model = _linear_setup()
    with pytest.raises(NonFiniteIterate):
        nano.nano_update(prior, y, model, SigmaPointRule(), ONE_PASS)


# Symmetrizing adds each entry to its mirror, so entries near 1e308 would
# overflow there; 8e307 survives it and still overflows the sums below.
HUGE = 8e307


def test_overflowing_mean_raises(monkeypatch):
    _stub_iterate_cov(monkeypatch, HUGE * np.eye(2))
    prior, y, model = _linear_setup(offset=10.0)
    with pytest.raises(NonFiniteIterate):
        nano.nano_update(prior, y, model, SigmaPointRule(), ONE_PASS)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_iterate_whose_sum_overflows_passes(monkeypatch, sign):
    cov = np.full((2, 2), sign * HUGE)
    _stub_iterate_cov(monkeypatch, cov)
    prior, y, model = _linear_setup()
    post, diag = nano.nano_update(prior, y, model, SigmaPointRule(), ONE_PASS)
    assert np.array_equal(post.cov, cov)
    assert np.isfinite(post.mean).all()
    assert diag.final_delta == np.inf


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("entry", range(6))
def test_nonfinite_function_value_entry_raises(entry, bad):
    vals = np.arange(6.0).reshape(3, 2)
    vals.flat[entry] = bad
    with pytest.raises(NonFiniteFunctionValue):
        _apply(lambda x: vals, np.zeros((3, 2)))


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_function_values_whose_sum_overflows_pass(sign):
    vals = np.full((3, 2), sign * 1e308)
    assert np.array_equal(_apply(lambda x: vals, np.zeros((3, 2))), vals)
