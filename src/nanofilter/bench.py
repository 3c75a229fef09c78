"""Monte Carlo benchmark driver: trials, reports, sweeps, ablation.

Trials are paired: trial ``i`` of every filter replays the identical simulated
trajectory, because the trajectory is derived only from the scenario config
and the trial index (seed = config seed + trial index, a fresh PCG64 stream).
All trials of a run are simulated together up front; then they run one after
another, on the calling thread, each through every filter.
A trial counts as diverged when the filter raises an estimation error or any
mean component is NaN or exceeds ``DIVERGENCE_LIMIT`` in magnitude; diverged
trials are excluded from RMSE aggregates and counted separately.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import EstimationError, LengthMismatch, ModelNotLinear
# run_filter steps through the name filter_step, where perfbench samples and traces it.
from .filters import GaussianBelief, UpdateDiagnostics, lookup_filter, predict_update as filter_step
from .models import Trajectory, simulate_trajectory
from .quadrature import SigmaPointRule, parse_rule
from .scenarios import MODEL_IDS, ScenarioConfig, ScenarioSetup, scenario_models

DIVERGENCE_LIMIT = 1e6
RNG_NAME = "pcg64"

TRIALS_HEADER = ("scenario", "filter", "trial", "rmse", "diverged", "steps", "update_ms")


def rmse(truth: np.ndarray, estimates: np.ndarray) -> float:
    """Root mean squared error over all steps and state components."""
    truth = np.asarray(truth, dtype=float)
    estimates = np.asarray(estimates, dtype=float)
    if truth.shape != estimates.shape:
        raise LengthMismatch(f"shape mismatch: truth {truth.shape} vs estimates {estimates.shape}")
    if truth.size == 0:
        raise LengthMismatch("empty sequences")
    return float(np.sqrt(np.mean((truth - estimates) ** 2)))


@dataclass(frozen=True)
class TrialResult:
    """Outcome of one filter on one simulated trajectory.

    ``rmse`` is None exactly when the run diverged.
    """

    trial: int
    rmse: float | None
    steps: int
    update_ms: float | None

    @property
    def diverged(self) -> bool:
        return self.rmse is None


@dataclass(frozen=True)
class FilterRun:
    """Raw per-step output of one filter pass (used by tests and demos).

    ``diagnostics`` has one entry per completed step.  ``failure`` is
    ``(step, cause)`` for a run that diverged, else None: ``step`` counts from
    1, and ``cause`` is the name of the exception class the step raised, or
    ``"DIVERGENCE_LIMIT"`` when the step's mean came out NaN or past
    ``DIVERGENCE_LIMIT``.  A step that raised is not among the ``steps``
    completed; a step whose mean crossed the limit is.
    """

    means: np.ndarray                 # (steps, n)
    covs: np.ndarray                  # (steps, n, n)
    diagnostics: tuple[UpdateDiagnostics, ...]
    failure: tuple[int, str] | None

    @property
    def steps(self) -> int:
        """Completed update steps."""
        return len(self.diagnostics)

    @property
    def diverged(self) -> bool:
        return self.failure is not None


def scenario_label(cfg: ScenarioConfig) -> str:
    return f"{cfg.model}:{cfg.mismatch_kind}:{cfg.mismatch_level:g}"


def run_filter(
    setup: ScenarioSetup,
    filter_id: str,
    traj: Trajectory,
    rule: SigmaPointRule,
) -> FilterRun:
    """Run one filter along one trajectory, stopping early on divergence."""
    model = setup.filter_view
    belief = GaussianBelief(setup.init_mean, setup.init_cov)
    total = traj.measurements.shape[0]
    means = np.empty((total, model.n))
    covs = np.empty((total, model.n, model.n))
    diags: list[UpdateDiagnostics] = []
    failure = None

    for t in range(1, total + 1):
        u = traj.inputs[t - 1] if traj.inputs is not None else None
        try:
            belief, diag = filter_step(
                filter_id, belief, u, traj.measurements[t - 1], model, t=t - 1, rule=rule
            )
        except EstimationError as exc:
            failure = (t, type(exc).__name__)
            break
        diags.append(diag)
        means[t - 1] = belief.mean
        covs[t - 1] = belief.cov
        # Every comparison with NaN is false, so a NaN component diverges too.
        if not all(abs(v) <= DIVERGENCE_LIMIT for v in belief.mean.tolist()):
            failure = (t, "DIVERGENCE_LIMIT")
            break

    steps = len(diags)
    return FilterRun(means[:steps], covs[:steps], tuple(diags), failure)


def make_trajectory(cfg: ScenarioConfig, trial: int, setup: ScenarioSetup) -> Trajectory:
    """The (shared) trajectory of trial ``trial``: the one-trial case of :func:`make_trajectories`."""
    return _simulate(cfg, setup, [trial])[0]


def make_trajectories(cfg: ScenarioConfig, setup: ScenarioSetup) -> list[Trajectory]:
    """Simulate the trajectories of all ``cfg.trials`` trials in one batched call.

    Trial ``i`` draws from its own stream, seeded ``cfg.seed + i``, so each
    trajectory equals ``make_trajectory(cfg, i, setup)``.
    """
    return _simulate(cfg, setup, range(cfg.trials))


def _simulate(cfg: ScenarioConfig, setup: ScenarioSetup, trials) -> list[Trajectory]:
    """One trajectory per index in ``trials``, seeded ``cfg.seed + index``, from one simulator call."""
    return simulate_trajectory(
        setup.truth, setup.process_noise, setup.measurement_noise,
        setup.init_mean, setup.init_cov, cfg.horizon,
        [np.random.default_rng(cfg.seed + trial) for trial in trials],
    )


def run_trial(
    cfg: ScenarioConfig,
    filter_id: str,
    trial: int,
    traj: Trajectory,
    setup: ScenarioSetup,
) -> TrialResult:
    """Run one filter over ``traj``, the trajectory of trial ``trial`` of ``setup``."""
    run = run_filter(setup, filter_id, traj, parse_rule(cfg.mm))
    err = None if run.diverged else rmse(traj.states[1:], run.means)
    times = [d.update_ms for d in run.diagnostics]
    mean_ms = float(np.mean(times)) if times else None
    return TrialResult(trial, err, run.steps, mean_ms)


@dataclass(frozen=True)
class FilterStats:
    """Aggregates over the non-diverged trials of one filter."""

    filter_id: str
    trials: int
    divergences: int
    mean_rmse: float        # nan when every trial diverged
    median_rmse: float
    q1_rmse: float
    q3_rmse: float
    mean_update_ms: float

    @property
    def label(self) -> str:
        """Table cell: the mean RMSE, or 'diverge' past the majority threshold."""
        if self.divergences > self.trials // 2:
            return "diverge"
        return f"{self.mean_rmse:.3f}"


@dataclass
class BenchmarkReport:
    """All trial results of one scenario, per filter, in trial order."""

    scenario: ScenarioConfig
    results: dict[str, list[TrialResult]]

    @property
    def filter_ids(self) -> tuple[str, ...]:
        return tuple(self.results)

    def stats(self, filter_id: str) -> FilterStats:
        rows = self.results[filter_id]
        errs = np.array([r.rmse for r in rows if not r.diverged], dtype=float)
        times = np.array([r.update_ms for r in rows if r.update_ms is not None], dtype=float)
        if errs.size:
            q1, med, q3 = (float(v) for v in np.percentile(errs, [25.0, 50.0, 75.0]))
            mean = float(errs.mean())
        else:
            q1 = med = q3 = mean = float("nan")
        return FilterStats(
            filter_id=filter_id,
            trials=len(rows),
            divergences=sum(r.diverged for r in rows),
            mean_rmse=mean,
            median_rmse=med,
            q1_rmse=q1,
            q3_rmse=q3,
            mean_update_ms=float(times.mean()) if times.size else float("nan"),
        )

    def summary(self) -> list[FilterStats]:
        return [self.stats(fid) for fid in self.filter_ids]


def _worker_count() -> int:
    """``NANO_BENCH_THREADS`` (0 or unset: one per CPU); the harness no longer reads it.

    Only perfbench's serial-harness guard calls it; ROADMAP item 8 deletes both.
    """
    raw = os.environ.get("NANO_BENCH_THREADS", "0")
    try:
        count = int(raw)
    except ValueError as exc:
        raise ValueError(f"NANO_BENCH_THREADS must be an integer, got {raw!r}") from exc
    if count <= 0:
        return os.cpu_count() or 1
    return count


def run_monte_carlo(
    cfg: ScenarioConfig,
    filter_ids: tuple[str, ...] = ("nano",),
) -> BenchmarkReport:
    """Paired Monte Carlo over ``cfg.trials`` trajectories for each filter.

    The config and the filter ids (a sequence of known ids, none repeated, not
    one bare string) are validated first; then every trial's trajectory is
    simulated up front in one batched call (:func:`make_trajectories`), and
    the trials run in order, each through every filter.
    """
    if isinstance(filter_ids, str):
        raise ValueError(f"filter_ids must be a sequence of filter ids, not the string {filter_ids!r}")
    for fid in filter_ids:
        lookup_filter(fid)   # an unknown id raises before anything is simulated
    if len(set(filter_ids)) != len(filter_ids):
        raise ValueError(f"repeated filter id in {tuple(filter_ids)}")
    setup = scenario_models(cfg)
    if "kf" in filter_ids and setup.filter_view.linear is None:
        raise ModelNotLinear(f"model {cfg.model!r} has no exact linear parts; 'kf' cannot run")

    # Every filter replays the same trajectories, so each trial is simulated
    # once, all of them together before any filter runs.
    trajectories = make_trajectories(cfg, setup) if filter_ids else []
    results = {fid: [] for fid in filter_ids}
    for trial, traj in enumerate(trajectories):
        for fid in filter_ids:
            results[fid].append(run_trial(cfg, fid, trial, traj, setup))
    return BenchmarkReport(scenario=cfg, results=results)


# ---------------------------------------------------------------------------
# Sweeps and ablation


def sweep_mismatch(
    base: ScenarioConfig,
    kind: str,
    levels: tuple[float, ...],
    filter_ids: tuple[str, ...],
) -> list[BenchmarkReport]:
    """Run the same Monte Carlo at each mismatch level of one kind, in level order.

    Level 0 reproduces the nominal scenario (shared base seed).  An off-grid
    or repeated level raises before any level runs; a filter diverging never
    aborts the sweep, the cell just reports its divergences.
    """
    cfgs = [replace(base, mismatch_kind=kind, mismatch_level=float(level)) for level in levels]
    if len(set(levels)) != len(levels):
        raise ValueError(f"repeated level in {tuple(levels)}")
    return [run_monte_carlo(cfg, filter_ids) for cfg in cfgs]


ABLATION_VARIANTS = ("nano-nopd", "nano-ekf", "nano")


def ablate(models: tuple[str, ...] = MODEL_IDS, **fields) -> list[BenchmarkReport]:
    """Compare the natural-gradient update variants on each benchmark model.

    ``fields`` are further :class:`ScenarioConfig` fields shared by every model.
    Every model's config is validated, and a repeated model rejected, before any runs.
    """
    cfgs = [ScenarioConfig(model=m, **fields) for m in models]
    if len(set(models)) != len(models):
        raise ValueError(f"repeated model in {tuple(models)}")
    return [run_monte_carlo(cfg, ABLATION_VARIANTS) for cfg in cfgs]


# ---------------------------------------------------------------------------
# Emission / parsing


def _fmt_float(value: float | None) -> str:
    # repr of a Python float round-trips exactly through float()
    return "" if value is None else repr(float(value))


def _write_csv(path: Path, header, rows) -> Path:
    """Write ``header`` and then ``rows`` to ``path`` as CSV, creating its directory."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def emit_report(report: BenchmarkReport, out_dir, include_timing: bool = False) -> list[Path]:
    """Write ``trials.csv`` and ``summary.txt``; returns the paths.

    Timing columns are opt-in: without ``include_timing`` the outputs are
    byte-for-byte reproducible across runs with the same config.
    """
    out = Path(out_dir)
    label = scenario_label(report.scenario)
    trials_path = _write_csv(out / "trials.csv", TRIALS_HEADER, (
        [
            label,
            fid,
            row.trial,
            _fmt_float(row.rmse),
            "true" if row.diverged else "false",
            row.steps,
            _fmt_float(row.update_ms) if include_timing else "",
        ]
        for fid in report.filter_ids
        for row in report.results[fid]
    ))

    cfg = report.scenario
    lines = [
        f"scenario={label}",
        f"horizon={cfg.horizon} trials={cfg.trials} seed={cfg.seed} mm={cfg.mm} rng={RNG_NAME}",
    ]
    for st in report.summary():
        line = (
            f"filter={st.filter_id} trials={st.trials} divergences={st.divergences} "
            f"mean_rmse={st.mean_rmse:.6g} median_rmse={st.median_rmse:.6g} "
            f"q1_rmse={st.q1_rmse:.6g} q3_rmse={st.q3_rmse:.6g}"
        )
        if include_timing:
            line += f" mean_update_ms={st.mean_update_ms:.6g}"
        lines.append(line)
    summary_path = out / "summary.txt"
    summary_path.write_text("\n".join(lines) + "\n")
    return [trials_path, summary_path]


def parse_trials_csv(path) -> dict[str, list[TrialResult]]:
    """Read a ``trials.csv`` back into per-filter TrialResult lists."""
    out: dict[str, list[TrialResult]] = {}
    with Path(path).open(newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader))
        if header != TRIALS_HEADER:
            raise ValueError(f"unexpected header {header!r}")
        for rec in reader:
            _, fid, trial, err, _, steps, ms = rec
            out.setdefault(fid, []).append(
                TrialResult(
                    trial=int(trial),
                    rmse=float(err) if err else None,
                    steps=int(steps),
                    update_ms=float(ms) if ms else None,
                )
            )
    return out


def emit_sweep(reports: list[BenchmarkReport], out_dir) -> list[Path]:
    """Write ``sweep.csv`` with one row per (level, filter)."""
    header = ["model", "mismatch_kind", "level", "filter", "trials",
              "divergences", "mean_rmse", "median_rmse", "q1_rmse", "q3_rmse"]
    return [_write_csv(Path(out_dir) / "sweep.csv", header, (
        [
            report.scenario.model,
            report.scenario.mismatch_kind,
            _fmt_float(report.scenario.mismatch_level),
            st.filter_id,
            st.trials,
            st.divergences,
            f"{st.mean_rmse:.6g}",
            f"{st.median_rmse:.6g}",
            f"{st.q1_rmse:.6g}",
            f"{st.q3_rmse:.6g}",
        ]
        for report in reports
        for st in report.summary()
    ))]


def emit_ablation(reports: list[BenchmarkReport], out_dir) -> list[Path]:
    """Write ``ablation.csv`` plus a human-readable ``ablation.txt`` grid."""
    out = Path(out_dir)
    header = ["model", "filter", "trials", "divergences", "label", "mean_rmse"]
    csv_path = _write_csv(out / "ablation.csv", header, (
        [report.scenario.model, st.filter_id, st.trials, st.divergences, st.label, f"{st.mean_rmse:.6g}"]
        for report in reports
        for st in report.summary()
    ))

    width = max(len(v) for v in ABLATION_VARIANTS) + 2
    lines = ["RMSE (mean over non-diverged trials; 'diverge' = majority failed)"]
    lines.append("model".ljust(10) + "".join(v.rjust(width) for v in ABLATION_VARIANTS))
    for report in reports:
        lines.append(
            report.scenario.model.ljust(10)
            + "".join(report.stats(v).label.rjust(width) for v in ABLATION_VARIANTS)
        )
    txt_path = out / "ablation.txt"
    txt_path.write_text("\n".join(lines) + "\n")
    return [csv_path, txt_path]
