"""The batched simulator against a reference copy of the per-trial loop.

``simulate_trajectory`` advances every stream of a call together: ``f`` on the
``(T, n)`` stack, ``g`` on every state at once, the noise roots on stacks of
variates.  ``ref_simulate`` below keeps the earlier form, one trajectory at a
time with one noise vector per draw, and every trajectory must match it bit
for bit, for one Generator (T = 1) and for several.
"""

import re

import numpy as np
import pytest

from nanofilter import bench
from nanofilter.errors import NonFiniteState
from nanofilter.linalg import cholesky_factor
from nanofilter.models import (
    Trajectory,
    beta_outlier_noise,
    gaussian_noise,
    laplace_noise,
    linear_model,
    mixture_outlier_noise,
    simulate_trajectory,
)
from nanofilter.scenarios import ScenarioConfig, scenario_models
from nanofilter.systems import attitude_model, duffing_model, fm_demodulator

# ---------------------------------------------------------------------------
# Reference: one trajectory, one noise vector per draw


def ref_root(cov):
    cov = np.asarray(cov, dtype=float)
    return np.zeros_like(cov) if not cov.any() else cholesky_factor(cov)


def ref_sample_noise(spec, rng):
    if spec.kind == "gaussian":
        return spec.chol @ rng.standard_normal(spec.dim)
    if spec.kind == "laplace":
        return rng.laplace(0.0, spec.scale)
    if spec.kind == "gaussian-mixture":
        u = rng.random()
        z = rng.standard_normal(spec.dim)
        return (spec.outlier_chol if u < spec.prob else spec.chol) @ z
    if spec.kind == "beta-replacement":
        u = rng.random()
        if u < spec.prob:
            return np.full(spec.dim, rng.beta(spec.beta_a, spec.beta_b))
        return spec.chol @ rng.standard_normal(spec.dim)
    raise ValueError(spec.kind)


def ref_simulate(model, process, measurement, init_mean, init_cov, steps, rng):
    x = init_mean + ref_root(init_cov) @ rng.standard_normal(model.n)
    states = np.empty((steps + 1, model.n))
    states[0] = x
    measurements = np.empty((steps, model.m))
    inputs = np.empty((steps, model.l)) if model.control is not None else None
    for t in range(1, steps + 1):
        u = model.control(t - 1) if model.control is not None else None
        if inputs is not None:
            inputs[t - 1] = u
        x = model.f(states[t - 1], u, t - 1) + ref_sample_noise(process, rng)
        if not np.all(np.isfinite(x)):
            raise NonFiniteState(f"simulated state left finite floats at step {t}")
        states[t] = x
        measurements[t - 1] = model.g(x) + ref_sample_noise(measurement, rng)
    return Trajectory(states, measurements, inputs)


# ---------------------------------------------------------------------------
# Models and noise specs


def _controlled_linear():
    A = np.array([[0.9, 0.2], [-0.1, 0.95]])
    H = np.array([[1.0, 0.5], [0.0, 2.0], [0.3, -1.0]])
    model = linear_model(A, H, Q=np.eye(2), R=np.eye(3), B=np.array([[0.5], [1.0]]))
    model.control = lambda t: np.array([np.sin(0.3 * t)])
    return model


# (model factory, noise scale, initial covariance)
MODELS = {
    "fm": (fm_demodulator, 1.0, np.eye(2)),
    "attitude": (attitude_model, 1e-3, 1e-3 * np.eye(3)),
    "duffing": (duffing_model, 0.1, np.eye(2)),
    "linear": (_controlled_linear, 0.5, np.eye(2)),
}


def _cov(dim, scale, seed):
    m = np.random.default_rng(seed).standard_normal((dim, dim))
    return scale ** 2 * (m @ m.T / dim + 0.5 * np.eye(dim))


def _spec(kind, dim, scale, seed):
    cov = _cov(dim, scale, seed)
    if kind == "gaussian":
        return gaussian_noise(cov)
    if kind == "zero":
        return gaussian_noise(np.zeros((dim, dim)))
    if kind == "laplace":
        return laplace_noise(scale * np.linspace(0.5, 1.5, dim))
    if kind == "laplace-equal":
        return laplace_noise(np.full(dim, scale))
    if kind == "gaussian-mixture":
        return mixture_outlier_noise(0.3, cov, 25.0 * cov)
    if kind == "beta-replacement":
        return beta_outlier_noise(0.3, 1.2, 1.5, cov)
    raise ValueError(kind)


KINDS = ("gaussian", "zero", "laplace", "laplace-equal", "gaussian-mixture", "beta-replacement")


def _case(name, process_kind, measurement_kind):
    factory, scale, init_cov = MODELS[name]
    model = factory()
    process = _spec(process_kind, model.n, scale, 1)
    measurement = _spec(measurement_kind, model.m, scale, 2)
    return model, process, measurement, np.full(model.n, 0.1), init_cov


def _assert_same(traj, ref):
    assert traj.states.tobytes() == ref.states.tobytes()
    assert traj.measurements.tobytes() == ref.measurements.tobytes()
    if ref.inputs is None:
        assert traj.inputs is None
    else:
        assert traj.inputs.tobytes() == ref.inputs.tobytes()


# ---------------------------------------------------------------------------
# Bitwise equality


@pytest.mark.parametrize("measurement_kind", KINDS)
@pytest.mark.parametrize("process_kind", KINDS)
@pytest.mark.parametrize("name", MODELS)
def test_batched_trajectories_match_the_per_trial_loop(name, process_kind, measurement_kind):
    model, process, measurement, init_mean, init_cov = _case(name, process_kind, measurement_kind)
    steps, seeds = 15, (3, 4, 5, 6)
    args = (model, process, measurement, init_mean, init_cov, steps)
    refs = [ref_simulate(*args, np.random.default_rng(seed)) for seed in seeds]

    single = simulate_trajectory(*args, np.random.default_rng(seeds[0]))
    assert isinstance(single, Trajectory)
    _assert_same(single, refs[0])

    batch = simulate_trajectory(*args, [np.random.default_rng(seed) for seed in seeds])
    assert isinstance(batch, list) and len(batch) == len(seeds)
    for traj, ref in zip(batch, refs):
        _assert_same(traj, ref)


@pytest.mark.parametrize("model", ["fm", "attitude", "duffing"])
@pytest.mark.parametrize("mismatch_kind", ["none", "outlier"])
def test_make_trajectories_match_make_trajectory(model, mismatch_kind):
    level = {"fm": 0.1, "attitude": 0.15, "duffing": 0.1}[model] if mismatch_kind == "outlier" else 0.0
    cfg = ScenarioConfig(model=model, mismatch_kind=mismatch_kind, mismatch_level=level,
                         trials=5, horizon=30, seed=11)
    setup = scenario_models(cfg)
    for trial, traj in enumerate(bench.make_trajectories(cfg, setup)):
        ref = ref_simulate(setup.truth, setup.process_noise, setup.measurement_noise,
                           setup.init_mean, setup.init_cov, cfg.horizon,
                           np.random.default_rng(cfg.seed + trial))
        _assert_same(traj, ref)
        _assert_same(bench.make_trajectory(cfg, trial, setup), ref)


def test_trajectories_own_disjoint_arrays():
    model, process, measurement, init_mean, init_cov = _case("linear", "gaussian", "gaussian")
    batch = simulate_trajectory(model, process, measurement, init_mean, init_cov, 10,
                                [np.random.default_rng(seed) for seed in range(3)])
    arrays = [a for traj in batch for a in (traj.states, traj.measurements, traj.inputs)]
    for i, a in enumerate(arrays):
        for b in arrays[i + 1:]:
            assert not np.shares_memory(a, b)
    before = [traj.measurements.copy() for traj in batch]
    batch[0].measurements[4] = np.nan
    for traj, kept in zip(batch[1:], before[1:]):
        assert np.array_equal(traj.measurements, kept)


def test_no_streams_give_no_trajectories():
    model, process, measurement, init_mean, init_cov = _case("fm", "gaussian", "gaussian")
    assert simulate_trajectory(model, process, measurement, init_mean, init_cov, 5, []) == []


# ---------------------------------------------------------------------------
# Which failure a batch reports


def _escaping_walk():
    """A 1-D random walk whose state turns Inf once it leaves [-4, 4]."""
    model = linear_model(np.eye(1), np.eye(1), Q=np.eye(1), R=np.eye(1))
    model.f = lambda x, u, t: np.where(np.abs(x) > 4.0, np.inf, x)
    return model, gaussian_noise(np.eye(1)), gaussian_noise(np.eye(1)), np.zeros(1), np.eye(1), 30


def _first_bad_step(args, seed):
    try:
        ref_simulate(*args, np.random.default_rng(seed))
    except NonFiniteState as exc:
        return int(re.search(r"step (\d+)", str(exc)).group(1))
    return None


@pytest.mark.parametrize("seeds, overtaken", [
    (range(0, 6), True),     # stream 0 fails at step 22, streams 2 and 4 sooner
    (range(1, 6), True),     # stream 0 never fails; stream 1 does, stream 3 sooner
    (range(6, 9), False),    # stream 0 fails first
])
def test_nonfinite_state_names_the_lowest_failing_stream(seeds, overtaken):
    # Simulated one after another, the lowest-index stream that fails raises
    # first, at its own first bad step, even when a later stream fails sooner.
    args = _escaping_walk()
    bad = [_first_bad_step(args, seed) for seed in seeds]
    stream = next(k for k, step in enumerate(bad) if step is not None)
    with pytest.raises(NonFiniteState, match=rf"stream {stream} .* step {bad[stream]}$"):
        simulate_trajectory(*args, [np.random.default_rng(seed) for seed in seeds])
    # Whether the batch had to advance past a later stream's failure to find it.
    later = [step for step in bad[stream + 1:] if step is not None]
    assert (min(later, default=np.inf) < bad[stream]) == overtaken
