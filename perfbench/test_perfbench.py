"""Tests of the benchmark itself, on shrunken copies of its workloads.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(autouse=True)
def serial_harness(monkeypatch):
    """The benchmark runs the harness serially; the span recorder needs it."""
    monkeypatch.setenv("NANO_BENCH_THREADS", "1")


def small(name: str, **sizes) -> workloads.Workload:
    defaults = {"mc": {"trials": 2, "horizon": 4}, "online": {"horizon": 3}}
    w = workloads.WORKLOADS[name]
    return dataclasses.replace(w, **{**defaults[w.kind], **sizes})


def traced_pass(w, seed, out_dir):
    inputs = workloads.make_inputs(w, seed)
    rec = spans.SpanRecorder()
    with spans.Instrumentation(rec, w.name) as inst:
        if w.kind == "online":
            for item in inputs:
                inst.wrap_model(item.setup.filter_view)
        result = workloads.run_pass(w, inputs, out_dir, rec)
    return result, spans.layer_metrics(rec)


def test_inputs_are_a_pure_function_of_the_seed():
    mc = small("mc-iterated")
    assert workloads.make_inputs(mc, 5) == workloads.make_inputs(mc, 5)
    assert workloads.make_inputs(mc, 5) != workloads.make_inputs(mc, 6)

    online = small("online-step")
    first, again, other = (workloads.make_inputs(online, s) for s in (5, 5, 6))
    for a, b, c in zip(first, again, other):
        assert np.array_equal(a.trajectory.states, b.trajectory.states)
        assert np.array_equal(a.trajectory.measurements, b.trajectory.measurements)
        assert not np.array_equal(a.trajectory.measurements, c.trajectory.measurements)


def test_self_time_subtracts_the_union_of_clipped_children():
    #         0: root [0, 10]
    #   1: [1, 3]   2: [2, 5] (overlaps 1)   3: [8, 12] (overhangs the root)
    #   4: [1.5, 2] inside span 1
    start = [0.0, 1.0, 2.0, 8.0, 1.5]
    end = [10.0, 3.0, 5.0, 12.0, 2.0]
    parent = [-1, 0, 0, 0, 1]
    own = spans.self_times(start, end, parent)
    # root: 10 - |[1, 5] u [8, 10]| = 10 - 6
    np.testing.assert_allclose(own, [4.0, 1.5, 3.0, 4.0, 0.5])


def test_self_times_of_a_recorded_nest_sum_to_the_root_duration():
    rec = spans.SpanRecorder()
    inner = rec.wrap("inner", lambda: sum(range(1000)))
    outer = rec.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    arr = rec.arrays()
    own = spans.self_times(arr["start"], arr["end"], arr["parent"])
    assert list(arr["parent"]) == [-1, 0, 0, 0]
    assert own.sum() == pytest.approx(arr["end"][0] - arr["start"][0], rel=1e-9)
    assert (own >= 0).all()


def test_output_check_rejects_a_perturbed_rmse_and_a_flipped_flag(tmp_path):
    w = small("mc-classic")
    inputs = workloads.make_inputs(w, 0)
    result = workloads.run_pass(w, inputs, tmp_path)
    reference = checks.to_reference(w, result)
    assert checks.check_pass(w, result, reference) == (0, [])
    assert checks.csv_identical(result, reference) is True

    rows = result.outputs["duffing"]["ukf"]
    err, diverged, steps = rows[1]
    rows[1] = (err * (1.0 + 1e-8), diverged, steps)
    failed, notes = checks.check_pass(w, result, reference)
    assert failed == 1 and "duffing/ukf" in notes[0]

    rows[1] = (err, not diverged, steps)
    assert checks.check_pass(w, result, reference)[0] == 1


def test_output_check_rejects_a_moved_online_posterior(tmp_path):
    w = small("online-step", filters=("ekf", "nano"))
    result = workloads.run_pass(w, workloads.make_inputs(w, 0), tmp_path)
    reference = checks.to_reference(w, result)
    assert checks.check_pass(w, result, reference)[0] == 0
    result.outputs["fm"]["nano"]["mean"] = result.outputs["fm"]["nano"]["mean"] * (1.0 + 1e-7)
    assert checks.check_pass(w, result, reference)[0] == w.horizon


def test_invariants_flag_a_diverged_nano_trial(tmp_path):
    w = small("mc-iterated", trials=1, horizon=3)
    result = workloads.run_pass(w, workloads.make_inputs(w, 0), tmp_path)
    assert checks.check_pass(w, result, None)[0] == 0
    err, _, steps = result.outputs["fm"]["nano"][0]
    result.outputs["fm"]["nano"][0] = (None, True, steps)
    assert checks.check_pass(w, result, None)[0] == 1


def test_traced_model_call_counts_repeat_exactly(tmp_path):
    w = small("mc-iterated")
    _, first = traced_pass(w, 3, tmp_path)
    _, second = traced_pass(w, 3, tmp_path)
    counts = {k: v for k, v in first.items() if k.startswith("model.") and k.endswith(".calls")}
    assert counts["model.g.calls"] > 0 and counts["model.hess_g.calls"] > 0
    assert counts == {k: second[k] for k in counts}


def test_layers_a_workload_bypasses_stay_at_zero(tmp_path):
    _, classic = traced_pass(small("mc-classic"), 0, tmp_path)
    assert classic["nano.nano_update.calls"] == 0 and classic["nano.chol_cov_step.calls"] == 0
    assert classic["bench.run_filter.calls"] == 3 * 3 * 2
    assert classic["bench.run_filter.completed_frac"] == 1.0

    _, online = traced_pass(small("online-step"), 0, tmp_path)
    assert all(v == 0 for k, v in online.items() if k.startswith("bench."))
    assert online["filters.filter_step.calls"] == 3 * 6 * 3
    assert online["filters.update.nano.iters_per_update"] >= 1.0


def test_each_nano_update_is_attributed_to_its_filter_id(tmp_path):
    _, layers = traced_pass(small("mc-iterated"), 0, tmp_path)
    per_id = [layers[f"filters.update.{fid}.calls"] for fid in spans.NANO_IDS]
    assert all(n > 0 for n in per_id)
    assert sum(per_id) == layers["nano.nano_update.calls"]
    # nano-ekf and nano-nopd raise PDFailure on fm and duffing within 4 steps.
    assert layers["nano.nano_update.errors"] > 0
    assert layers["bench.run_filter.completed_frac"] < 1.0


def test_ekf_and_iekf_make_no_sigma_point_calls(tmp_path):
    w = small("mc-classic")
    inputs = workloads.make_inputs(w, 0)
    rec = spans.SpanRecorder()
    with spans.Instrumentation(rec, w.name):
        workloads.run_pass(w, inputs, tmp_path, rec)
    assert spans.calls_by_filter(rec, "quadrature.generate_points") == {"ukf": 3 * 2 * 4 * 2}


def test_tracing_refuses_a_threaded_harness(monkeypatch):
    from nanofilter import bench

    monkeypatch.setenv("NANO_BENCH_THREADS", "2")
    original = bench.filter_step
    with pytest.raises(RuntimeError, match="NANO_BENCH_THREADS=1"):
        spans.Instrumentation(spans.SpanRecorder(), "x").install()
    assert bench.filter_step is original


def test_speed_factor_rescales_to_reference_seconds():
    import speed

    assert speed.factor(speed.REFERENCE_S, speed.REFERENCE_S) == 1.0
    # A machine running at half speed takes twice as long for the kernel.
    assert speed.factor(2 * speed.REFERENCE_S, 2 * speed.REFERENCE_S) == pytest.approx(0.5)
    assert speed.factor(0.03, 0.05) == pytest.approx(speed.REFERENCE_S / 0.04)
    assert speed.kernel_seconds() > 0.0
