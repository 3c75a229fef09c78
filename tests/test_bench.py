"""Benchmark harness: RMSE oracle, paired trials, aggregates, CSV round-trips."""

from dataclasses import fields, replace

import numpy as np
import pytest

from nanofilter.bench import (
    BenchmarkReport,
    FilterRun,
    TrialResult,
    _worker_count,
    ablate,
    emit_ablation,
    emit_report,
    emit_sweep,
    make_trajectory,
    parse_trials_csv,
    rmse,
    run_filter,
    run_monte_carlo,
    run_trial,
    scenario_label,
    sweep_mismatch,
)
from nanofilter.errors import (
    LengthMismatch,
    MissingHessian,
    ModelNotLinear,
    UnknownLevel,
    UnknownScenario,
)
from nanofilter.filters import SINGLE_PASS, GaussianBelief
from nanofilter.models import NoiseSpec, StateSpaceModel
from nanofilter.quadrature import parse_rule
from nanofilter.scenarios import ScenarioConfig, mismatch_grid, scenario_models


# ---------------------------------------------------------------------------
# rmse

def test_rmse_zero_when_exact():
    rng = np.random.default_rng(0)
    truth = rng.standard_normal((30, 3))
    assert rmse(truth, truth.copy()) == 0.0


def test_rmse_scalar_single_step():
    assert rmse(np.zeros((1, 1)), np.full((1, 1), 3.0)) == pytest.approx(3.0)


def test_rmse_hand_value():
    # per-step component errors (3, 4) then (0, 0): sqrt((9+16+0+0)/4) = 2.5
    truth = np.zeros((2, 2))
    est = np.array([[3.0, 4.0], [0.0, 0.0]])
    assert rmse(truth, est) == pytest.approx(2.5)


def test_rmse_shape_mismatch():
    with pytest.raises(LengthMismatch):
        rmse(np.zeros((3, 2)), np.zeros((4, 2)))
    with pytest.raises(LengthMismatch):
        rmse(np.zeros((0, 2)), np.zeros((0, 2)))


# ---------------------------------------------------------------------------
# trials and pairing

def test_make_trajectory_deterministic():
    cfg = ScenarioConfig(model="duffing", trials=4, horizon=15, seed=9)
    setup = scenario_models(cfg)
    a = make_trajectory(cfg, 2, setup)
    b = make_trajectory(cfg, 2, setup)
    np.testing.assert_array_equal(a.states, b.states)
    np.testing.assert_array_equal(a.measurements, b.measurements)
    # different trial index => different trajectory
    c = make_trajectory(cfg, 3, setup)
    assert np.any(a.states != c.states)


def test_trial_seed_offsets_by_index():
    # trial k of a seed-s config replays trial 0 of a seed-(s+k) config
    base = ScenarioConfig(model="fm", trials=4, horizon=10, seed=5)
    shifted = ScenarioConfig(model="fm", trials=4, horizon=10, seed=7)
    a = make_trajectory(base, 2, scenario_models(base))
    b = make_trajectory(shifted, 0, scenario_models(shifted))
    np.testing.assert_array_equal(a.states, b.states)
    np.testing.assert_array_equal(a.measurements, b.measurements)


@pytest.mark.parametrize("filter_id", ["ekf", "ukf", "nano"])
def test_run_trial_deterministic(filter_id):
    cfg = ScenarioConfig(model="duffing", trials=2, horizon=20, seed=1)
    setup = scenario_models(cfg)
    a = run_trial(cfg, filter_id, 0, make_trajectory(cfg, 0, setup), setup)
    b = run_trial(cfg, filter_id, 0, make_trajectory(cfg, 0, setup), setup)
    assert a.trial == b.trial == 0
    assert a.diverged == b.diverged
    assert a.steps == b.steps
    assert a.rmse == b.rmse  # exact: same float sequence both runs


def test_run_filter_completes_horizon():
    cfg = ScenarioConfig(model="attitude", trials=1, horizon=12, seed=4)
    setup = scenario_models(cfg)
    traj = make_trajectory(cfg, 0, setup)
    run = run_filter(setup, "ukf", traj, parse_rule("cubature"))
    assert not run.diverged
    assert run.steps == 12
    assert run.means.shape == (12, 3)
    assert run.covs.shape == (12, 3, 3)
    assert len(run.diagnostics) == 12
    assert all(d.update_ms >= 0.0 for d in run.diagnostics)


def test_diverged_trial_truncates():
    # exact-Hessian update meets indefinite curvature on this trajectory
    cfg = ScenarioConfig(model="duffing", trials=1, horizon=40, seed=0)
    setup = scenario_models(cfg)
    traj = make_trajectory(cfg, 0, setup)
    res = run_trial(cfg, "nano-nopd", 0, traj, setup)
    assert res.diverged
    assert res.rmse is None
    assert 0 < res.steps < 40
    # the update that raised is neither listed nor counted as a step
    run = run_filter(setup, "nano-nopd", traj, parse_rule(cfg.mm))
    assert run.failure == (res.steps + 1, "PDFailure")
    assert len(run.diagnostics) == run.steps == res.steps


def test_derived_values_are_not_init_parameters():
    # each of these restates another value of its record, so none is a
    # constructor argument; each still reads as an attribute
    def init_names(cls):
        return {f.name for f in fields(cls) if f.init}

    assert not {"n", "m", "l"} & init_names(StateSpaceModel)
    assert "dim" not in init_names(NoiseSpec)
    assert "steps" not in init_names(FilterRun)
    assert "diverged" not in init_names(TrialResult)
    assert "filter_ids" not in init_names(BenchmarkReport)

    for model, (n, m) in (("fm", (2, 2)), ("attitude", (3, 6)), ("duffing", (2, 1))):
        setup = scenario_models(ScenarioConfig(model=model, trials=1, horizon=5))
        for view in (setup.truth, setup.filter_view):
            assert (view.n, view.m) == (n, m) == (view.Q.shape[0], view.R.shape[0])
            assert not hasattr(view, "l")
        rng = np.random.default_rng(0)
        assert (setup.process_noise.draw(rng)[0].shape,
                setup.measurement_noise.draw(rng)[0].shape) == ((n,), (m,))

    cfg = ScenarioConfig(model="duffing", trials=1, horizon=40, seed=0)
    setup = scenario_models(cfg)
    run = run_filter(setup, "nano-nopd", make_trajectory(cfg, 0, setup), parse_rule(cfg.mm))
    assert run.diverged and run.steps == len(run.diagnostics) == run.means.shape[0] > 0
    report = run_monte_carlo(cfg, ("nano-nopd", "ekf"))
    assert report.filter_ids == ("nano-nopd", "ekf")
    diverged, fine = report.results["nano-nopd"][0], report.results["ekf"][0]
    assert diverged.diverged and diverged.rmse is None and diverged.steps == run.steps
    assert not fine.diverged and fine.rmse is not None


def test_trial_does_not_time_a_failed_update():
    cfg = ScenarioConfig(model="duffing", trials=1, horizon=40, seed=0)
    setup = scenario_models(cfg)
    # trial 1 fails on the very first update
    res = run_trial(cfg, "nano-nopd", 1, make_trajectory(cfg, 1, setup), setup)
    assert res.diverged and res.steps == 0
    assert res.update_ms is None  # no update completed, so none was timed


def test_nan_measurement_diverges_the_trial(monkeypatch):
    # filter_step refuses a NaN measurement with NonFiniteMeasurement; the
    # trial must count as diverged rather than carry a NaN RMSE into the
    # aggregates
    from nanofilter import bench

    simulate = bench.make_trajectories

    def with_nan(cfg, setup):
        trajectories = simulate(cfg, setup)
        trajectories[0].measurements[5] = np.nan
        return trajectories

    monkeypatch.setattr(bench, "make_trajectories", with_nan)
    cfg = ScenarioConfig(model="duffing", trials=3, horizon=20, seed=0)
    rep = run_monte_carlo(cfg, ("ekf", "iekf"))
    setup = scenario_models(cfg)
    traj = bench.make_trajectories(cfg, setup)[0]
    for fid in ("ekf", "iekf"):
        first = rep.results[fid][0]
        assert first.diverged and first.rmse is None, fid
        assert first.steps <= 6, fid
        st = rep.stats(fid)
        assert st.divergences == 1, fid
        assert np.isfinite(st.mean_rmse), fid
        run = run_filter(setup, fid, traj, parse_rule(cfg.mm))
        assert run.failure == (6, "NonFiniteMeasurement"), fid
        assert run.steps == 5, fid


@pytest.mark.parametrize("bad", [np.nan, 2e6, -2e6])
def test_mean_past_the_limit_diverges_the_trial(monkeypatch, bad):
    # run_filter's own check on the posterior mean; no filter reaches it
    # without raising first, so a stubbed step puts the bad mean at t = 2.
    # The step that crosses the limit counts in `steps`.
    from nanofilter import bench

    seen = []

    def step(filter_id, belief, u, y, model, t=0, rule=None):
        seen.append(t)
        mean = np.full(2, bad) if t == 2 else belief.mean
        return GaussianBelief(mean, belief.cov), SINGLE_PASS

    monkeypatch.setattr(bench, "filter_step", step)
    cfg = ScenarioConfig(model="duffing", trials=1, horizon=10, seed=0)
    setup = scenario_models(cfg)
    traj = make_trajectory(cfg, 0, setup)
    res = run_trial(cfg, "ekf", 0, traj, setup)
    assert seen == [0, 1, 2]
    assert res.diverged and res.rmse is None
    assert res.steps == 3
    run = run_filter(setup, "ekf", traj, parse_rule(cfg.mm))
    assert run.failure == (3, "DIVERGENCE_LIMIT")
    assert run.steps == len(run.diagnostics) == 3


# ---------------------------------------------------------------------------
# aggregates

def _hand_report():
    cfg = ScenarioConfig(model="duffing", trials=4, horizon=30, seed=0)
    rows = [
        TrialResult(0, 2.0, 30, 1.0),
        TrialResult(1, 4.0, 30, 3.0),
        TrialResult(2, None, 7, 5.0),
        TrialResult(3, 6.0, 30, None),
    ]
    return BenchmarkReport(scenario=cfg, results={"ekf": rows})


def test_stats_hand_aggregates():
    st = _hand_report().stats("ekf")
    assert st.trials == 4
    assert st.divergences == 1
    assert st.mean_rmse == pytest.approx(4.0)
    assert st.median_rmse == pytest.approx(4.0)
    assert st.q1_rmse == pytest.approx(3.0)
    assert st.q3_rmse == pytest.approx(5.0)
    assert st.mean_update_ms == pytest.approx(3.0)  # over recorded times only


def test_stats_all_diverged_is_nan():
    cfg = ScenarioConfig(model="duffing", trials=2, horizon=30, seed=0)
    rows = [TrialResult(0, None, 3, 0.5), TrialResult(1, None, 0, None)]
    rep = BenchmarkReport(scenario=cfg, results={"nano-nopd": rows})
    st = rep.stats("nano-nopd")
    assert np.isnan(st.mean_rmse) and np.isnan(st.median_rmse)
    assert st.label == "diverge"


def test_label_majority_threshold():
    st = _hand_report().stats("ekf")
    assert st.label == "4.000"  # 1 of 4 diverged: below the majority threshold
    cfg = ScenarioConfig(model="duffing", trials=4, horizon=30, seed=0)
    rows = [
        TrialResult(0, 2.0, 30, 1.0),
        TrialResult(1, None, 2, 1.0),
        TrialResult(2, None, 2, 1.0),
        TrialResult(3, None, 2, 1.0),
    ]
    rep = BenchmarkReport(scenario=cfg, results={"ekf": rows})
    assert rep.stats("ekf").label == "diverge"


def test_run_monte_carlo_shapes_and_order():
    cfg = ScenarioConfig(model="duffing", trials=6, horizon=25, seed=3)
    rep = run_monte_carlo(cfg, ("ekf", "ukf", "nano"))
    assert rep.filter_ids == ("ekf", "ukf", "nano")
    for fid in rep.filter_ids:
        assert [r.trial for r in rep.results[fid]] == list(range(6))
    # paired trials: every filter saw the same trajectories, so per-trial
    # RMSEs are comparable row by row
    assert all(not r.diverged for r in rep.results["nano"][:6])


def test_run_monte_carlo_simulates_each_trial_once(monkeypatch):
    # Every trial is simulated once, all of them in one batched call before
    # any filter runs, and every filter replays trial i's trajectory.
    from nanofilter import bench

    simulate, run, events = bench.make_trajectories, bench.run_trial, []
    batches = []

    def simulated(cfg, setup):
        batches.append(simulate(cfg, setup))
        events.append(("simulate", len(batches[-1])))
        return batches[-1]

    def ran(cfg, fid, trial, traj, *args):
        assert traj is batches[0][trial]
        events.append((fid, trial))
        return run(cfg, fid, trial, traj, *args)

    monkeypatch.setattr(bench, "make_trajectories", simulated)
    monkeypatch.setattr(bench, "run_trial", ran)
    cfg = ScenarioConfig(model="duffing", trials=3, horizon=10, seed=0)
    rep = run_monte_carlo(cfg, ("ekf", "ukf"))
    assert events == [("simulate", 3)] + [(name, trial) for trial in range(3) for name in ("ekf", "ukf")]
    # The shared trajectories give what a trial simulated on its own gives.
    setup = scenario_models(cfg)
    for fid in ("ekf", "ukf"):
        for trial, row in enumerate(rep.results[fid]):
            alone = run_trial(cfg, fid, trial, bench.make_trajectory(cfg, trial, setup), setup)
            assert (row.rmse, row.diverged, row.steps) == (alone.rmse, alone.diverged, alone.steps)


def test_run_monte_carlo_rejects_unknown_filter(monkeypatch):
    import nanofilter.bench as bench

    calls = []
    monkeypatch.setattr(bench, "simulate_trajectory", lambda *a, **k: calls.append(a))
    cfg = ScenarioConfig(model="duffing", trials=1, horizon=5, seed=0)
    with pytest.raises(ValueError, match="unknown filter"):
        run_monte_carlo(cfg, ("ekf", "bogus"))
    assert calls == []


@pytest.mark.parametrize("ids", ["nano", "ekf"])
def test_monte_carlo_and_sweep_reject_a_bare_string_of_ids(monkeypatch, ids):
    # iterated, "nano" would be the ids 'n', 'a', 'n', 'o'
    import nanofilter.bench as bench

    calls = []
    monkeypatch.setattr(bench, "simulate_trajectory", lambda *a, **k: calls.append(a))
    cfg = ScenarioConfig(model="duffing", trials=1, horizon=5, seed=0)
    with pytest.raises(ValueError, match="sequence of filter ids"):
        run_monte_carlo(cfg, ids)
    with pytest.raises(ValueError, match="sequence of filter ids"):
        sweep_mismatch(cfg, "system", (0.0, 0.1), ids)
    assert calls == []


def test_run_monte_carlo_rejects_repeated_filter(monkeypatch):
    import nanofilter.bench as bench

    calls = []
    monkeypatch.setattr(bench, "simulate_trajectory", lambda *a, **k: calls.append(a))
    cfg = ScenarioConfig(model="duffing", trials=1, horizon=5, seed=0)
    with pytest.raises(ValueError, match="repeated filter id"):
        run_monte_carlo(cfg, ("ekf", "iekf", "ekf"))
    assert calls == []


def test_bad_rule_rejected_before_any_trajectory(monkeypatch):
    import nanofilter.bench as bench

    calls = []
    monkeypatch.setattr(bench, "simulate_trajectory", lambda *a, **k: calls.append(a))
    with pytest.raises(ValueError, match="unknown sigma-point rule"):
        run_monte_carlo(ScenarioConfig(model="duffing", trials=2, horizon=5, mm="bogus"), ("ekf",))
    assert calls == []


def test_kf_requires_linear_model():
    cfg = ScenarioConfig(model="fm", trials=1, horizon=5, seed=0)
    with pytest.raises(ModelNotLinear):
        run_monte_carlo(cfg, ("kf",))


@pytest.mark.parametrize("filter_id, error", [
    ("kf", ModelNotLinear),
    ("nano-nopd", MissingHessian),
    ("nano-ekf", MissingHessian),
])
def test_usage_error_is_not_a_divergence(filter_id, error):
    # a filter the model cannot run is the caller's mistake: it must reach the
    # caller instead of being counted as a trial that diverged at step 0
    cfg = ScenarioConfig(model="duffing", trials=1, horizon=5, seed=0)
    setup = scenario_models(cfg)
    setup = replace(setup, filter_view=replace(setup.filter_view, hess_g=None))
    traj = make_trajectory(cfg, 0, setup)
    with pytest.raises(error):
        run_filter(setup, filter_id, traj, parse_rule("cubature"))


# ---------------------------------------------------------------------------
# worker configuration

def test_worker_count_env(monkeypatch):
    monkeypatch.setenv("NANO_BENCH_THREADS", "3")
    assert _worker_count() == 3
    monkeypatch.setenv("NANO_BENCH_THREADS", "0")
    assert _worker_count() >= 1
    monkeypatch.setenv("NANO_BENCH_THREADS", "two")
    with pytest.raises(ValueError, match="NANO_BENCH_THREADS"):
        _worker_count()


def test_run_monte_carlo_runs_on_the_calling_thread(monkeypatch):
    # The harness starts no threads, whatever NANO_BENCH_THREADS says, so an
    # update's wall-clock time never includes another trial's turn.
    import threading

    from nanofilter import bench

    monkeypatch.setenv("NANO_BENCH_THREADS", "4")
    run, calls = bench.run_trial, []

    def ran(cfg, fid, trial, *args):
        calls.append((threading.get_ident(), fid, trial))
        return run(cfg, fid, trial, *args)

    monkeypatch.setattr(bench, "run_trial", ran)
    cfg = ScenarioConfig(model="duffing", trials=4, horizon=10, seed=2)
    run_monte_carlo(cfg, ("ekf", "nano"))
    caller = threading.get_ident()
    assert calls == [(caller, fid, trial) for trial in range(4) for fid in ("ekf", "nano")]


# ---------------------------------------------------------------------------
# sweeps and ablation

def test_sweep_level_zero_matches_nominal():
    base = ScenarioConfig(model="duffing", trials=4, horizon=20, seed=11)
    swept, off = sweep_mismatch(base, "system", (0.0, 0.1), ("ekf",))
    assert [r.scenario.mismatch_level for r in (swept, off)] == [0.0, 0.1]
    nominal = run_monte_carlo(base, ("ekf",))
    for got, want in zip(swept.results["ekf"], nominal.results["ekf"]):
        assert got.rmse == want.rmse and got.diverged == want.diverged
    # nonzero level changes the filter's model, so results differ
    assert any(
        a.rmse != b.rmse for a, b in zip(off.results["ekf"], nominal.results["ekf"])
    )


def test_sweep_divergence_never_aborts():
    base = ScenarioConfig(model="duffing", trials=2, horizon=40, seed=0)
    reports = sweep_mismatch(base, "outlier", (0.0, 0.05), ("nano-nopd", "nano"))
    assert [r.scenario.mismatch_level for r in reports] == [0.0, 0.05]
    for report in reports:
        assert report.scenario.mismatch_kind == "outlier"
        st = report.stats("nano-nopd")
        assert st.divergences == 2  # every trial fails, sweep still completes
        assert report.stats("nano").divergences == 0


@pytest.mark.parametrize("run, error, match", [
    (lambda: sweep_mismatch(ScenarioConfig(model="duffing", trials=2, horizon=5),
                            "outlier", (0.0, 0.17), ("ekf",)), UnknownLevel, None),
    (lambda: ablate(models=("duffing", "nosuch"), trials=2, horizon=5), UnknownScenario, None),
    (lambda: sweep_mismatch(ScenarioConfig(model="duffing", trials=1, horizon=5),
                            "outlier", (0.03, 0.0, 0.03), ("ekf",)), ValueError, "repeated level"),
    (lambda: ablate(models=("duffing", "fm", "duffing"), trials=1, horizon=5),
     ValueError, "repeated model"),
], ids=["sweep-off-grid-level", "ablate-unknown-model",
        "sweep-repeated-level", "ablate-repeated-model"])
def test_bad_scenario_rejected_before_any_trajectory(monkeypatch, run, error, match):
    import nanofilter.bench as bench

    calls = []
    monkeypatch.setattr(bench, "simulate_trajectory", lambda *a, **k: calls.append(a))
    with pytest.raises(error, match=match):
        run()
    assert calls == []


@pytest.mark.parametrize("field, value", [
    ("horizon", 0), ("horizon", float("nan")), ("horizon", 2.5), ("horizon", 20.0),
    ("trials", 0), ("trials", float("nan")), ("trials", 2.5),
    ("seed", -1), ("seed", float("nan")), ("seed", 2.5),
])
def test_scenario_config_rejects_a_bad_count(field, value):
    # NaN fails the check too: each check passes only a value that meets it
    with pytest.raises(ValueError, match=field):
        ScenarioConfig(model="duffing", **{field: value})


def test_scenario_config_takes_numpy_integer_counts():
    cfg = ScenarioConfig(model="duffing", horizon=np.int64(5), trials=np.int32(2), seed=np.int64(0))
    assert (cfg.horizon, cfg.trials, cfg.seed) == (5, 2, 0)


@pytest.mark.parametrize("kind", ["none", "bogus"])
def test_mismatch_grid_rejects_a_kind_without_a_grid(kind):
    assert mismatch_grid("fm", "outlier") == (0.0, 0.01, 0.04, 0.07, 0.1)
    with pytest.raises(UnknownScenario, match="no level grid"):
        mismatch_grid("fm", kind)


def test_ablate_structure(tmp_path):
    reports = ablate(models=("duffing",), trials=2, horizon=12, seed=0)
    (report,) = reports
    assert report.filter_ids == ("nano-nopd", "nano-ekf", "nano")
    assert report.scenario == ScenarioConfig(model="duffing", trials=2, horizon=12, seed=0)
    paths = emit_ablation(reports, tmp_path)
    assert [p.name for p in paths] == ["ablation.csv", "ablation.txt"]
    text = (tmp_path / "ablation.txt").read_text()
    assert "duffing" in text and "nano-nopd" in text


def test_ablation_reproducible_across_runs(tmp_path):
    dirs = (tmp_path / "a", tmp_path / "b")
    for d in dirs:
        emit_ablation(ablate(models=("duffing",), trials=2, horizon=12, seed=0), d)
    for name in ("ablation.csv", "ablation.txt"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


# ---------------------------------------------------------------------------
# emission and parsing

def test_csv_round_trip(tmp_path):
    cfg = ScenarioConfig(model="duffing", trials=3, horizon=15, seed=7)
    rep = run_monte_carlo(cfg, ("ekf", "nano"))
    emit_report(rep, tmp_path)
    back = parse_trials_csv(tmp_path / "trials.csv")
    assert set(back) == {"ekf", "nano"}
    for fid in rep.filter_ids:
        for got, want in zip(back[fid], rep.results[fid]):
            assert got.trial == want.trial
            assert got.rmse == want.rmse  # repr round-trips floats exactly
            assert got.diverged == want.diverged
            assert got.steps == want.steps
            assert got.update_ms is None  # timing columns are opt-in


def test_csv_round_trip_with_timing(tmp_path):
    cfg = ScenarioConfig(model="duffing", trials=2, horizon=10, seed=7)
    rep = run_monte_carlo(cfg, ("nano",))
    emit_report(rep, tmp_path, include_timing=True)
    back = parse_trials_csv(tmp_path / "trials.csv")
    for got, want in zip(back["nano"], rep.results["nano"]):
        assert got.update_ms == want.update_ms


def test_emit_reproducible_across_runs(tmp_path):
    cfg = ScenarioConfig(model="duffing", trials=3, horizon=15, seed=5)
    dirs = (tmp_path / "a", tmp_path / "b")
    for d in dirs:
        emit_report(run_monte_carlo(cfg, ("ekf", "nano")), d)
    for name in ("trials.csv", "summary.txt"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


def test_emit_diverged_rows(tmp_path):
    cfg = ScenarioConfig(model="duffing", trials=2, horizon=40, seed=0)
    rep = run_monte_carlo(cfg, ("nano-nopd",))
    emit_report(rep, tmp_path)
    back = parse_trials_csv(tmp_path / "trials.csv")
    assert all(r.diverged and r.rmse is None for r in back["nano-nopd"])


def test_parse_rejects_wrong_header(tmp_path):
    path = tmp_path / "trials.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="header"):
        parse_trials_csv(path)


def test_emit_empty_filter_list(tmp_path):
    cfg = ScenarioConfig(model="fm", trials=1, horizon=5, seed=0)
    rep = BenchmarkReport(scenario=cfg, results={})
    paths = emit_report(rep, tmp_path)
    lines = paths[0].read_text().splitlines()
    assert len(lines) == 1  # header only
    assert parse_trials_csv(paths[0]) == {}


def test_emit_sweep_table(tmp_path):
    base = ScenarioConfig(model="fm", trials=2, horizon=10, seed=1)
    reports = sweep_mismatch(base, "outlier", (0.0, 0.04), ("ekf", "nano"))
    (path,) = emit_sweep(reports, tmp_path)
    lines = path.read_text().splitlines()
    assert len(lines) == 1 + 2 * 2  # header + levels x filters
    assert lines[1].startswith("fm,outlier,0.0,ekf,2,")


def test_scenario_label_format():
    cfg = ScenarioConfig(model="attitude", mismatch_kind="system",
                         mismatch_level=-0.2, trials=1, horizon=5, seed=0)
    assert scenario_label(cfg) == "attitude:system:-0.2"
