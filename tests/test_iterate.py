"""The one iteration driver, ``filters.iterate``, and the updates that run under it."""

import ast
from pathlib import Path

import pytest

from nanofilter import bench, filters, nano
from nanofilter.bench import make_trajectory
from nanofilter.filters import ITER_GAMMA, ITER_MAX, PD_FAILED, SINGLE_PASS, GaussianBelief, filter_step, iterate
from nanofilter.quadrature import parse_rule
from nanofilter.scenarios import ScenarioConfig, scenario_models


def scripted(stats):
    """A pass that counts itself in the state and returns the next scripted statistic."""
    stats = iter(stats)
    return lambda state: (state + 1, next(stats))


def test_met_before_the_cap():
    state, diag = iterate(scripted([3.0, 0.5, 0.01, 9.0]), 0, max_iters=4, tol=0.1)
    assert state == 3
    assert (diag.iterations, diag.final_delta, diag.converged) == (3, 0.01, True)
    assert not diag.pd_failure and diag.update_ms == 0.0


def test_met_on_the_cap_pass():
    state, diag = iterate(scripted([3.0, 0.5, 0.01]), 0, max_iters=3, tol=0.1)
    assert state == 3
    assert (diag.iterations, diag.final_delta, diag.converged) == (3, 0.01, True)


def test_never_met():
    state, diag = iterate(scripted([3.0, 0.5, 0.2]), 0, max_iters=3, tol=0.1)
    assert state == 3
    assert (diag.iterations, diag.final_delta, diag.converged) == (3, 0.2, False)


def test_nan_statistic_does_not_converge():
    _, diag = iterate(scripted([float("nan")]), 0, max_iters=1, tol=0.1)
    assert diag.iterations == 1 and not diag.converged


@pytest.mark.parametrize("max_iters", [0, -1])
def test_rejects_fewer_than_one_pass(max_iters):
    with pytest.raises(ValueError):
        iterate(scripted([]), 0, max_iters=max_iters, tol=0.1)


def test_fixed_diagnostics():
    assert SINGLE_PASS.converged and not SINGLE_PASS.pd_failure
    assert not PD_FAILED.converged and PD_FAILED.pd_failure


# ---------------------------------------------------------------------------
# Along the online trajectories: seed 0, rule gh:3, 60 steps per model


ONLINE_ITERATED = ("iekf", "plf", "nano", "nano-chol")


def _online_diagnostics(model_id, filter_id):
    cfg = ScenarioConfig(model=model_id, trials=1, horizon=60, seed=0, mm="gh:3")
    setup = scenario_models(cfg)
    traj = make_trajectory(cfg, 0, setup)
    rule = parse_rule(cfg.mm)
    belief = GaussianBelief(setup.init_mean, setup.init_cov)
    diags = []
    for t in range(cfg.horizon):
        u = traj.inputs[t] if traj.inputs is not None else None
        belief, diag = filter_step(filter_id, belief, u, traj.measurements[t], setup.filter_view,
                                   t=t, rule=rule)
        diags.append(diag)
    return diags


@pytest.fixture(scope="module")
def online():
    return {(m, fid): _online_diagnostics(m, fid)
            for m in ("fm", "attitude", "duffing") for fid in ONLINE_ITERATED}


def test_converged_is_the_stopping_test(online):
    for (model_id, fid), diags in online.items():
        tol = ITER_GAMMA if fid in ("iekf", "plf") else nano.NANO_PRESETS[fid].gamma
        for t, diag in enumerate(diags):
            assert not diag.pd_failure, (model_id, fid, t)
            assert diag.converged == (diag.final_delta < tol), (model_id, fid, t)
            assert diag.converged or diag.iterations == ITER_MAX, (model_id, fid, t)


def test_fm_plf_never_converges(online):
    diags = online["fm", "plf"]
    assert len(diags) == 60
    assert not any(d.converged for d in diags)


def test_reaching_the_cap_is_not_missing_the_test(online):
    capped = [d for d in online["fm", "iekf"] if d.iterations == ITER_MAX]
    assert any(d.converged for d in capped)
    assert not all(d.converged for d in capped)


# ---------------------------------------------------------------------------
# One loop: only iterate runs passes up to max_iters


def _range_loops_over_max_iters(path):
    """Names of the innermost functions in ``path`` with a ``for`` over a ``range`` of ``max_iters``."""
    found = []

    def mentions_max_iters(node):
        return any(isinstance(n, ast.Name) and n.id == "max_iters"
                   or isinstance(n, ast.Attribute) and n.attr == "max_iters"
                   for n in ast.walk(node))

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            function = getattr(node, "name", "<lambda>")
        if (isinstance(node, (ast.For, ast.comprehension))
                and isinstance(node.iter, ast.Call)
                and isinstance(node.iter.func, ast.Name) and node.iter.func.id == "range"
                and any(mentions_max_iters(a) for a in node.iter.args)):
            found.append(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(Path(path).read_text()), None)
    return found


def test_only_iterate_loops_to_max_iters():
    found = {module.__name__: _range_loops_over_max_iters(module.__file__) for module in (filters, nano)}
    assert found == {"nanofilter.filters": ["iterate"], "nanofilter.nano": []}


# ---------------------------------------------------------------------------
# One failure path: an estimation error reaches the harness unabsorbed


def _estimation_error_handlers(path):
    """Names of the functions in ``path`` with an ``except`` naming PDFailure or EstimationError."""
    found = []

    def names(node):
        return {n.id if isinstance(n, ast.Name) else n.attr
                for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            function = getattr(node, "name", "<lambda>")
        if (isinstance(node, ast.ExceptHandler) and node.type is not None
                and names(node.type) & {"PDFailure", "EstimationError"}):
            found.append(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(Path(path).read_text()), None)
    return found


def test_only_filter_step_catches_an_estimation_error():
    # filter_step turns a PDFailure into a flag for perfbench's callers only;
    # the harness steps through predict_update, which lets every error through
    found = {module.__name__: _estimation_error_handlers(module.__file__) for module in (filters, nano)}
    assert found == {"nanofilter.filters": ["filter_step"], "nanofilter.nano": []}
    assert bench.filter_step is filters.predict_update
