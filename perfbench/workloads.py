"""Workload definitions: inputs made from a seed, and one timed pass over them.

Every workload runs the three benchmark models.  A *pass* is one fixed unit
of work; the runner repeats passes for the measuring window and reports
medians over them.

* ``mc-classic`` -- ``run_monte_carlo`` with ekf/iekf/ukf, cubature, many
  short trials: model evaluation and per-step harness overhead dominate.
* ``mc-iterated`` -- ``run_monte_carlo`` with the iterated sigma-point
  updates (plf and the four natural-gradient ids): quadrature, linalg and
  ``hess_g`` dominate, and nano-ekf / nano-nopd take the divergence path.
* ``online-step`` -- ``filters.filter_step`` called step by step along one
  pre-simulated trajectory per model, rule ``gh:3``: single-stream latency
  with no trial axis and the ``bench`` harness bypassed.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from pathlib import Path

MODELS = ("fm", "attitude", "duffing")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                    # "mc" or "online"
    filters: tuple[str, ...]
    rule: str
    trials: int                  # Monte Carlo trials per model (1 for online)
    horizon: int                 # steps per trial / trajectory length


WORKLOADS = {
    w.name: w
    for w in (
        Workload("mc-classic", "mc", ("ekf", "iekf", "ukf"), "cubature", trials=16, horizon=20),
        Workload("mc-iterated", "mc", ("plf", "nano", "nano-chol", "nano-ekf", "nano-nopd"),
                 "cubature", trials=9, horizon=12),
        Workload("online-step", "online", ("ekf", "iekf", "ukf", "plf", "nano", "nano-chol"),
                 "gh:3", trials=1, horizon=60),
    )
}


@dataclass
class OnlineInput:
    """What one model of ``online-step`` hands the filters."""

    model: str
    setup: object            # ScenarioSetup; its filter_view is the filter's model
    trajectory: object       # Trajectory simulated from the truth model


def make_inputs(w: Workload, seed: int) -> list:
    """The workload's inputs, a pure function of ``seed``.

    Monte Carlo workloads get one ScenarioConfig per model (run_monte_carlo
    simulates trial ``i`` from seed + i); ``online-step`` gets one simulated
    trajectory per model plus the scenario it came from.
    """
    from nanofilter.bench import make_trajectory
    from nanofilter.scenarios import ScenarioConfig, scenario_models

    configs = [
        ScenarioConfig(model=m, trials=w.trials, horizon=w.horizon, seed=seed, mm=w.rule)
        for m in MODELS
    ]
    if w.kind == "mc":
        return configs
    inputs = []
    for cfg in configs:
        setup = scenario_models(cfg)
        inputs.append(OnlineInput(cfg.model, setup, make_trajectory(cfg, 0, setup)))
    return inputs


def warm_up(w: Workload, inputs: list) -> None:
    """One predict+update step of every (model, filter) pair of the workload."""
    from nanofilter.bench import make_trajectory
    from nanofilter.filters import GaussianBelief, filter_step
    from nanofilter.quadrature import parse_rule
    from nanofilter.scenarios import scenario_models

    rule = parse_rule(w.rule)
    for item in inputs:
        if w.kind == "mc":
            setup = scenario_models(item)
            traj = make_trajectory(item, 0, setup)
        else:
            setup, traj = item.setup, item.trajectory
        u = traj.inputs[0] if traj.inputs is not None else None
        for fid in w.filters:
            belief = GaussianBelief(setup.init_mean, setup.init_cov)
            filter_step(fid, belief, u, traj.measurements[0], setup.filter_view, t=0, rule=rule)


@dataclass
class PassResult:
    """Outputs of one pass, in the shape the output check reads."""

    wall_s: float
    steps: int                               # completed predict+update steps
    outputs: dict                            # model -> filter -> output, or model -> None
    step_s: list                             # per filter_step call, seconds
    csv_sha256: dict                         # model -> sha256 of trials.csv (mc only)
    errors: list                             # "model/filter: message" for raised exceptions


def run_pass(w: Workload, inputs: list, out_dir: Path, tracer=None) -> PassResult:
    if w.kind == "mc":
        return _mc_pass(w, inputs, out_dir, tracer)
    return _online_pass(w, inputs, tracer)


def _mc_pass(w: Workload, configs: list, out_dir: Path, tracer) -> PassResult:
    from nanofilter import bench

    step_s: list[float] = []
    timed_step = bench.filter_step
    perf = time.perf_counter

    def sample(*args, **kwargs):
        t0 = perf()
        out = timed_step(*args, **kwargs)
        step_s.append(perf() - t0)
        return out

    if tracer is None:
        # The latency sampler sits where run_filter looks filter_step up.
        bench.filter_step = sample
    outputs, errors, paths = {}, [], {}
    try:
        start = perf()
        for cfg in configs:
            try:
                report = bench.run_monte_carlo(cfg, w.filters)
            except Exception as exc:  # counted as failed runs, the pass goes on
                outputs[cfg.model] = None
                errors.append(f"{cfg.model}: {type(exc).__name__}: {exc}")
                continue
            outputs[cfg.model] = {
                fid: [(r.rmse, r.diverged, r.steps) for r in report.results[fid]]
                for fid in w.filters
            }
            model_dir = out_dir / cfg.model
            if tracer is not None:
                previous = tracer.set_request((w.name, cfg.model, "", -1))
                paths[cfg.model] = tracer.wrap("bench.emit", bench.emit_report)(report, model_dir)[0]
                tracer.restore_request(previous)
            else:
                paths[cfg.model] = bench.emit_report(report, model_dir)[0]
        wall = perf() - start
    finally:
        bench.filter_step = timed_step
    steps = sum(r[2] for per in outputs.values() if per for rows in per.values() for r in rows)
    sums = {m: hashlib.sha256(p.read_bytes()).hexdigest() for m, p in paths.items()}
    return PassResult(wall, steps, outputs, step_s, sums, errors)


def _online_pass(w: Workload, inputs: list, tracer) -> PassResult:
    from nanofilter import filters
    from nanofilter.quadrature import parse_rule

    rule = parse_rule(w.rule)
    perf = time.perf_counter
    step_s: list[float] = []
    outputs: dict = {}
    errors: list[str] = []
    steps = 0
    start = perf()
    for item in inputs:
        setup, traj = item.setup, item.trajectory
        model = setup.filter_view
        outputs[item.model] = {}
        for fid in w.filters:
            previous = tracer.set_request((w.name, item.model, fid, 0)) if tracer is not None else None
            belief = filters.GaussianBelief(setup.init_mean, setup.init_cov)
            done, pd_failures, error = 0, 0, None
            for t in range(traj.measurements.shape[0]):
                u = traj.inputs[t] if traj.inputs is not None else None
                t0 = perf()
                try:
                    belief, diag = filters.filter_step(
                        fid, belief, u, traj.measurements[t], model, t=t, rule=rule
                    )
                except Exception as exc:  # an online step that raised: counted as failed
                    error = f"{type(exc).__name__}: {exc}"
                    errors.append(f"{item.model}/{fid} step {t}: {error}")
                    break
                step_s.append(perf() - t0)
                done += 1
                pd_failures += diag.pd_failure
            if tracer is not None:
                tracer.restore_request(previous)
            steps += done
            outputs[item.model][fid] = {
                "mean": belief.mean, "cov": belief.cov,
                "steps": done, "pd_failures": pd_failures, "error": error,
            }
    wall = perf() - start
    return PassResult(wall, steps, outputs, step_s, {}, errors)
