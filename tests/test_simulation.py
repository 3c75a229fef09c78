"""The batched simulator against a reference copy of the per-trial loop.

``simulate_trajectory`` advances every stream of a call together: ``f`` on the
``(T, n)`` stack, ``g`` on every state at once, the noise roots on stacks of
variates.  ``ref_simulate`` below keeps the earlier form, one trajectory at a
time with one noise vector per draw, and every trajectory must match it bit
for bit, for one stream (T = 1) and for several.  The reference draws its
noise from plain records of each factory's settings, with its own roots, so
it shares no noise code with the package.
"""

import ast
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from nanofilter import bench, models
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


def ref_gaussian(cov):
    return SimpleNamespace(kind="gaussian", chol=ref_root(cov), dim=len(cov))


def ref_laplace(scale):
    scale = np.asarray(scale, dtype=float)
    return SimpleNamespace(kind="laplace", scale=scale, dim=len(scale))


def ref_mixture(prob, nominal_cov, outlier_cov):
    return SimpleNamespace(kind="gaussian-mixture", chol=ref_root(nominal_cov),
                           outlier_chol=ref_root(outlier_cov), prob=prob, dim=len(nominal_cov))


def ref_beta(prob, a, b, nominal_cov):
    return SimpleNamespace(kind="beta-replacement", chol=ref_root(nominal_cov), prob=prob,
                           beta_a=a, beta_b=b, dim=len(nominal_cov))


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
    inputs = np.empty((steps, len(model.control(0)))) if model.control is not None else None
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


# each noise factory with the reference record of the same arguments
NOISES = {
    "gaussian": (gaussian_noise, ref_gaussian),
    "laplace": (laplace_noise, ref_laplace),
    "gaussian-mixture": (mixture_outlier_noise, ref_mixture),
    "beta-replacement": (beta_outlier_noise, ref_beta),
}


def _spec(kind, dim, scale, seed):
    """The factory-built spec of ``kind`` and the reference record of its settings."""
    cov = _cov(dim, scale, seed)
    name, args = {
        "gaussian": ("gaussian", (cov,)),
        "zero": ("gaussian", (np.zeros((dim, dim)),)),
        "laplace": ("laplace", (scale * np.linspace(0.5, 1.5, dim),)),
        "laplace-equal": ("laplace", (np.full(dim, scale),)),
        "gaussian-mixture": ("gaussian-mixture", (0.3, cov, 25.0 * cov)),
        "beta-replacement": ("beta-replacement", (0.3, 1.2, 1.5, cov)),
    }[kind]
    factory, ref = NOISES[name]
    return factory(*args), ref(*args)


KINDS = ("gaussian", "zero", "laplace", "laplace-equal", "gaussian-mixture", "beta-replacement")


def _case(name, process_kind, measurement_kind):
    """Simulator arguments but the streams and steps, and the reference's."""
    factory, scale, init_cov = MODELS[name]
    model = factory()
    process, ref_process = _spec(process_kind, model.n, scale, 1)
    measurement, ref_measurement = _spec(measurement_kind, model.m, scale, 2)
    init_mean = np.full(model.n, 0.1)
    return ((model, process, measurement, init_mean, init_cov),
            (model, ref_process, ref_measurement, init_mean, init_cov))


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
    args, ref_args = _case(name, process_kind, measurement_kind)
    steps, seeds = 15, (3, 4, 5, 6)
    refs = [ref_simulate(*ref_args, steps, np.random.default_rng(seed)) for seed in seeds]

    single = simulate_trajectory(*args, steps, [np.random.default_rng(seeds[0])])
    assert isinstance(single, list) and len(single) == 1
    _assert_same(single[0], refs[0])

    batch = simulate_trajectory(*args, steps, [np.random.default_rng(seed) for seed in seeds])
    assert isinstance(batch, list) and len(batch) == len(seeds)
    for traj, ref in zip(batch, refs):
        _assert_same(traj, ref)


# Each scenario's true noise, stated here: the process noise, the nominal
# measurement covariance, and the measurement noise at outlier probability p.
SCENARIO_NOISES = {
    "fm": (ref_gaussian(np.diag([0.01, 1.0])), np.eye(2),
           lambda p: ref_mixture(p, np.eye(2), 100.0 * np.eye(2))),
    "attitude": (ref_laplace(np.full(3, 1e-5)), 1e-4 * np.eye(6),
                 lambda p: ref_beta(p, 1.2, 1.5, 1e-4 * np.eye(6))),
    "duffing": (ref_gaussian(1e-3 * np.eye(2)), np.array([[1e-2]]),
                lambda p: ref_mixture(p, np.array([[1e-2]]), np.array([[1.0]]))),
}


@pytest.mark.parametrize("model", ["fm", "attitude", "duffing"])
@pytest.mark.parametrize("mismatch_kind", ["none", "outlier"])
def test_make_trajectories_match_make_trajectory(model, mismatch_kind):
    level = {"fm": 0.1, "attitude": 0.15, "duffing": 0.1}[model] if mismatch_kind == "outlier" else 0.0
    cfg = ScenarioConfig(model=model, mismatch_kind=mismatch_kind, mismatch_level=level,
                         trials=5, horizon=30, seed=11)
    setup = scenario_models(cfg)
    process, nominal, outliers = SCENARIO_NOISES[model]
    measurement = outliers(level) if level else ref_gaussian(nominal)
    for trial, traj in enumerate(bench.make_trajectories(cfg, setup)):
        ref = ref_simulate(setup.truth, process, measurement,
                           setup.init_mean, setup.init_cov, cfg.horizon,
                           np.random.default_rng(cfg.seed + trial))
        _assert_same(traj, ref)
        _assert_same(bench.make_trajectory(cfg, trial, setup), ref)


def test_trajectories_own_disjoint_arrays():
    args, _ = _case("linear", "gaussian", "gaussian")
    batch = simulate_trajectory(*args, 10, [np.random.default_rng(seed) for seed in range(3)])
    arrays = [a for traj in batch for a in (traj.states, traj.measurements, traj.inputs)]
    for i, a in enumerate(arrays):
        for b in arrays[i + 1:]:
            assert not np.shares_memory(a, b)
    before = [traj.measurements.copy() for traj in batch]
    batch[0].measurements[4] = np.nan
    for traj, kept in zip(batch[1:], before[1:]):
        assert np.array_equal(traj.measurements, kept)


def test_no_streams_give_no_trajectories():
    args, _ = _case("fm", "gaussian", "gaussian")
    assert simulate_trajectory(*args, 5, []) == []


# ---------------------------------------------------------------------------
# Which failure a batch reports


def _escaping_walk():
    """A 1-D random walk whose state turns Inf once it leaves [-4, 4], and its reference."""
    model = linear_model(np.eye(1), np.eye(1), Q=np.eye(1), R=np.eye(1))
    model.f = lambda x, u, t: np.where(np.abs(x) > 4.0, np.inf, x)
    noise, ref_noise = gaussian_noise(np.eye(1)), ref_gaussian(np.eye(1))
    return ((model, noise, noise, np.zeros(1), np.eye(1), 30),
            (model, ref_noise, ref_noise, np.zeros(1), np.eye(1), 30))


def _first_bad_step(ref_args, seed):
    try:
        ref_simulate(*ref_args, np.random.default_rng(seed))
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
    args, ref_args = _escaping_walk()
    bad = [_first_bad_step(ref_args, seed) for seed in seeds]
    stream = next(k for k, step in enumerate(bad) if step is not None)
    with pytest.raises(NonFiniteState, match=rf"stream {stream} .* step {bad[stream]}$"):
        simulate_trajectory(*args, [np.random.default_rng(seed) for seed in seeds])
    # Whether the batch had to advance past a later stream's failure to find it.
    later = [step for step in bad[stream + 1:] if step is not None]
    assert (min(later, default=np.inf) < bad[stream]) == overtaken


# ---------------------------------------------------------------------------
# One way in: a list of streams, and one place that builds the scenario


def _callers(path, name):
    """Names of the innermost functions in ``path`` that call ``name`` (None at module level)."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            function = getattr(node, "name", "<lambda>")
        callee = getattr(node, "func", None)
        if isinstance(node, ast.Call) and name in (getattr(callee, "id", None), getattr(callee, "attr", None)):
            found.append(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(Path(path).read_text()), None)
    return found


def _generator_tests(path):
    """Line numbers in ``path`` of ``isinstance`` calls against ``Generator``."""
    return [node.lineno for node in ast.walk(ast.parse(Path(path).read_text()))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance"
            and any(isinstance(n, ast.Attribute) and n.attr == "Generator"
                    or isinstance(n, ast.Name) and n.id == "Generator"
                    for arg in node.args[1:] for n in ast.walk(arg))]


def test_only_run_monte_carlo_builds_a_scenario():
    # every other bench function takes the setup it is handed
    assert _callers(bench.__file__, "scenario_models") == ["run_monte_carlo"]


def test_the_simulator_has_one_form():
    tree = ast.parse(Path(models.__file__).read_text())
    defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert "sample_noise" not in defined
    assert _generator_tests(models.__file__) == []


def test_guards_see_each_spelling(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import numpy as np\n"
                     "from numpy.random import Generator\n"
                     "def a(cfg):\n"
                     "    return scenarios.scenario_models(cfg)\n"
                     "def b(cfg, rng):\n"
                     "    single = isinstance(rng, np.random.Generator)\n"
                     "    return scenario_models(cfg) if isinstance(rng, (list, Generator)) else None\n"
                     "setup = scenario_models(None)\n")
    assert _callers(probe, "scenario_models") == ["a", "b", None]
    assert _generator_tests(probe) == [6, 7]
