import itertools

import numpy as np
import pytest

from nanofilter.errors import NonFiniteFunctionValue
from nanofilter.quadrature import (
    GH_MAX_POINTS,
    CollocationSet,
    SigmaPointRule,
    _apply,
    _hermite_nodes,
    _unit_rule,
    generate_points,
    parse_rule,
    propagate_moments,
    propagate_with_cross,
)


def test_parse_rule():
    assert parse_rule("cubature").kind == "cubature"
    assert parse_rule("unscented").kind == "unscented"
    rule = parse_rule("gh:5")
    assert rule.kind == "gauss-hermite" and rule.order == 5
    with pytest.raises(ValueError):
        parse_rule("gh:nope")
    with pytest.raises(ValueError):
        parse_rule("simpson")
    with pytest.raises(ValueError):
        parse_rule("gh:1")  # below minimum order
    with pytest.raises(ValueError):
        parse_rule("gh:11")  # above maximum order


def test_rule_validation():
    with pytest.raises(ValueError):
        SigmaPointRule("banana")


@pytest.mark.parametrize("order", [3.0, 2.5, float("nan"), "3"])
def test_hermite_order_must_be_an_integer(order):
    # a float order used to construct and then fail inside numpy's node build
    with pytest.raises(ValueError, match="order"):
        SigmaPointRule("gauss-hermite", order=order)


def test_hermite_order_accepts_numpy_integers():
    rule = SigmaPointRule("gauss-hermite", order=np.int64(3))
    cset = generate_points(rule, np.zeros(2), np.eye(2))
    assert len(cset.points) == 9


def test_hermite_three_point_rule():
    # order-3 probabilists' rule: nodes {0, +-sqrt(3)}, weights {2/3, 1/6, 1/6}
    cset = generate_points(SigmaPointRule("gauss-hermite", order=3), np.zeros(1), np.eye(1))
    order_idx = np.argsort(cset.points[:, 0])
    np.testing.assert_allclose(
        cset.points[order_idx, 0], [-np.sqrt(3), 0.0, np.sqrt(3)], atol=1e-12
    )
    np.testing.assert_allclose(cset.mean_weights[order_idx], [1 / 6, 2 / 3, 1 / 6], atol=1e-12)


@pytest.mark.parametrize("order", [2, 3, 4, 5])
def test_hermite_polynomial_exactness(order):
    # p-point rule integrates monomials of N(0,1) exactly up to degree 2p-1
    cset = generate_points(SigmaPointRule("gauss-hermite", order=order), np.zeros(1), np.eye(1))
    # E[z^k] for N(0,1): 0 for odd k, (k-1)!! for even k
    moment = {0: 1.0, 1: 0.0, 2: 1.0, 3: 0.0, 4: 3.0, 5: 0.0, 6: 15.0, 7: 0.0, 8: 105.0, 9: 0.0}
    for k in range(2 * order):
        got = float(cset.mean_weights @ cset.points[:, 0] ** k)
        assert got == pytest.approx(moment[k], abs=1e-9), (order, k)


@pytest.mark.parametrize("kind", ["cubature", "unscented", "gauss-hermite"])
@pytest.mark.parametrize("n", [1, 2, 4])
def test_rules_match_first_two_moments(kind, n):
    rng = np.random.default_rng(10 * n)
    mean = rng.standard_normal(n)
    m = rng.standard_normal((n, n))
    cov = m @ m.T + 0.5 * np.eye(n)
    cset = generate_points(SigmaPointRule(kind), mean, cov)
    assert cset.mean_weights.sum() == pytest.approx(1.0, abs=1e-12)
    got_mean, got_cov = propagate_moments(cset, lambda x: x)
    np.testing.assert_allclose(got_mean, mean, atol=1e-10)
    np.testing.assert_allclose(got_cov, cov, rtol=1e-9, atol=1e-10)


@pytest.mark.parametrize("kind", ["cubature", "unscented", "gauss-hermite"])
def test_affine_propagation_is_exact(kind):
    rng = np.random.default_rng(42)
    n, m = 3, 2
    mean = rng.standard_normal(n)
    s = rng.standard_normal((n, n))
    cov = s @ s.T + np.eye(n)
    A = rng.standard_normal((m, n))
    b = rng.standard_normal(m)
    cset = generate_points(SigmaPointRule(kind), mean, cov)
    got_mean, got_cov, got_cross = propagate_with_cross(cset, lambda x: x @ A.T + b)
    np.testing.assert_allclose(got_mean, A @ mean + b, rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(got_cov, A @ cov @ A.T, rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(got_cross, cov @ A.T, rtol=1e-9, atol=1e-9)


def test_cubature_point_layout():
    # 2n points at mean +/- sqrt(n) L e_i with equal weights
    mean = np.array([1.0, -2.0])
    cov = np.diag([4.0, 9.0])
    cset = generate_points(SigmaPointRule("cubature"), mean, cov)
    assert cset.points.shape == (4, 2)
    np.testing.assert_allclose(cset.mean_weights, 0.25)
    expected = np.array(
        [[1 + 2 * np.sqrt(2), -2], [1, -2 + 3 * np.sqrt(2)],
         [1 - 2 * np.sqrt(2), -2], [1, -2 - 3 * np.sqrt(2)]]
    )
    np.testing.assert_allclose(cset.points, expected, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 4])
def test_unscented_default_kappa_and_weights(n):
    # alpha = 1, kappa = 3 - n -> lambda = 3 - n, n + lambda = 3; the centre
    # mean weight (3 - n)/3 is negative for n = 4
    cset = generate_points(SigmaPointRule("unscented"), np.zeros(n), np.eye(n))
    outer = [1 / 6] * (2 * n)
    np.testing.assert_array_equal(cset.mean_weights, [(3 - n) / 3] + outer)
    # beta = 2 adds 1 - alpha^2 + beta = 2 to the centre covariance weight
    np.testing.assert_array_equal(cset.cov_weights, [(3 - n) / 3 + 2.0] + outer)
    offsets = np.sqrt(3.0) * np.eye(n)
    np.testing.assert_array_equal(cset.points, np.vstack([np.zeros((1, n)), offsets, -offsets]))


def test_gauss_hermite_point_cap():
    with pytest.raises(ValueError):
        generate_points(SigmaPointRule("gauss-hermite", order=10), np.zeros(6), np.eye(6))
    assert 10 ** 6 > GH_MAX_POINTS


def test_custom_spread_square_root():
    # any S with S S^T = cov must reproduce the moments
    rng = np.random.default_rng(8)
    m = rng.standard_normal((3, 3))
    cov = m @ m.T + np.eye(3)
    mean = rng.standard_normal(3)
    w, v = np.linalg.eigh(cov)
    root = v @ np.diag(np.sqrt(w))  # non-triangular square root
    cset = generate_points(SigmaPointRule("cubature"), mean, cov, spread=root)
    got_mean, got_cov = propagate_moments(cset, lambda x: x)
    np.testing.assert_allclose(got_mean, mean, atol=1e-10)
    np.testing.assert_allclose(got_cov, cov, rtol=1e-9, atol=1e-10)


def test_nonfinite_function_value_raises():
    cset = generate_points(SigmaPointRule("cubature"), np.zeros(1), np.eye(1))
    with pytest.raises(NonFiniteFunctionValue):
        propagate_moments(cset, lambda x: np.full(x.shape, np.inf))


def test_propagation_calls_the_function_once_per_set():
    cset = generate_points(parse_rule("gh:3"), np.zeros(3), np.eye(3))
    calls = []

    def h(x):
        calls.append(x.shape)
        return np.sin(x)

    propagate_with_cross(cset, h)
    assert calls == [(27, 3)]


@pytest.mark.parametrize("count", [2, 3])
def test_apply_rejects_a_per_point_function(count):
    points = np.arange(2.0 * count).reshape(count, 2)
    with pytest.raises(ValueError, match="stack"):
        _apply(lambda x: np.array([x[0] ** 3]), points)


def _fresh_unit_rule(rule, n):
    """The unit rule's grid and weights, written out from the rule's definition."""
    if rule.kind == "cubature":
        grid = np.vstack([np.sqrt(n) * np.eye(n), -np.sqrt(n) * np.eye(n)])
        wm = np.full(2 * n, 1 / (2 * n))
        return grid, wm, wm
    if rule.kind == "unscented":
        grid = np.vstack([np.zeros((1, n)), np.sqrt(3.0) * np.eye(n), -np.sqrt(3.0) * np.eye(n)])
        wm = np.array([(3 - n) / 3] + [1 / 6] * (2 * n))
        return grid, wm, wm + np.eye(1, 2 * n + 1)[0] * 2.0
    nodes, weights = _hermite_nodes(rule.order)
    grid = np.array(list(itertools.product(nodes, repeat=n)))
    wm = np.prod(np.array(list(itertools.product(weights, repeat=n))), axis=1)
    return grid, wm, wm


@pytest.mark.parametrize(
    "text, n",
    [(kind, n) for kind in ("cubature", "unscented", "gh:3") for n in (1, 2, 3)]
    + [("gh:2", 1), ("gh:5", 2)],
)
def test_cached_unit_rule_matches_a_fresh_build(text, n):
    rule = parse_rule(text)
    cached = _unit_rule(rule, n)
    assert _unit_rule(rule, n) is cached
    for got, want in zip(cached, _fresh_unit_rule(rule, n)):
        assert np.array_equal(got, want)
        assert not got.flags.writeable
        with pytest.raises(ValueError):
            got[0] = 1.0
    rng = np.random.default_rng(n * 10 + len(text))
    mean = rng.standard_normal(n)
    s = rng.standard_normal((n, n))
    cset = generate_points(rule, mean, s @ s.T + np.eye(n))
    assert np.array_equal(cset.points, mean + cached[0] @ cset.spread.T)
    assert cset.mean_weights is cached[1] and cset.cov_weights is cached[2]


@pytest.mark.parametrize("order", range(2, 11))
def test_hermite_nodes_match_scipys_eigh_tridiagonal(order):
    from scipy.linalg import eigh_tridiagonal

    off = np.sqrt(np.arange(1, order, dtype=float))
    want_nodes, vecs = eigh_tridiagonal(np.zeros(order), off, lapack_driver="stevd")
    nodes, weights = _hermite_nodes(order)
    assert nodes.tobytes() == want_nodes.tobytes()
    assert weights.tobytes() == (vecs[0] ** 2).tobytes()


def test_collocation_set_record():
    assert CollocationSet._fields == ("points", "mean_weights", "cov_weights", "center", "spread")
    cset = generate_points(SigmaPointRule("cubature"), np.zeros(2), np.eye(2))
    points, mean_weights, cov_weights, center, spread = cset
    assert points is cset.points and spread is cset.spread
    with pytest.raises(AttributeError):
        cset.points = np.zeros((4, 2))
