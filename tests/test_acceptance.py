"""Acceptance checklist: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines stream.
Criteria 4 and 5 share one cached Monte Carlo sweep (100 trials x 200 steps,
seed 0, cubature rule, paired trajectories), so the file takes a few minutes
end to end; everything is deterministic apart from wall-clock timings.
"""

import math
import subprocess
import sys
import time
import zlib
from dataclasses import replace

import numpy as np
import pytest

from nanofilter.bench import make_trajectory, run_filter, run_monte_carlo
from nanofilter.filters import GaussianBelief, filter_step, kf_step, mm_predict
from nanofilter.models import linear_model
from nanofilter.nano import (
    NANO_PRESETS,
    grad_loglik,
    hess_loglik,
    hess_loglik_gn,
    loglik,
    nano_update,
)
from nanofilter.quadrature import generate_points, parse_rule, propagate_moments
from nanofilter.scenarios import (
    MODEL_IDS,
    OUTLIER_GRID,
    SYSTEM_ERROR_GRID,
    ScenarioConfig,
    scenario_models,
)
from nanofilter.systems import attitude_model, duffing_model, fm_demodulator

BASELINES = ("ekf", "ukf", "iekf", "plf")
VARIANTS = ("nano", "nano-ekf", "nano-nopd")
MC_FILTERS = VARIANTS + BASELINES

# External reference values for the variant comparison, used only to report
# magnitude ratios next to the measured numbers (target: within a factor of 3;
# never a gate, because horizon/seeds/rule of the reference runs are unknown).
REFERENCE_RMSE = {
    "fm": {"nano": 2.533, "nano-ekf": 2.829, "nano-nopd": None},
    "attitude": {"nano": 0.116, "nano-ekf": 0.127, "nano-nopd": 0.161},
    "duffing": {"nano": 0.254, "nano-ekf": 0.263, "nano-nopd": 0.293},
}
REFERENCE_MS = {"fm": (0.481, 1.218), "attitude": (1.868, 6.137), "duffing": (0.248, 0.819)}


def _verdict(num: int, name: str, failures: list, detail: str = "") -> None:
    ok = not failures
    line = f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}"
    extra = detail if ok else "; ".join(failures)
    if extra:
        line += f" -- {extra}"
    print(line)
    assert ok, line


@pytest.fixture(scope="session")
def mc_sweep():
    """One nominal paired Monte Carlo per model, shared by criteria 4 and 5."""
    t0 = time.perf_counter()
    reports = {}
    for model_id in MODEL_IDS:
        cfg = ScenarioConfig(model=model_id, trials=100, horizon=200, seed=0, mm="cubature")
        reports[model_id] = run_monte_carlo(cfg, MC_FILTERS)
    return reports, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# 1. all filters collapse to the Kalman filter on linear-Gaussian systems


def _random_linear_system(seed):
    rng = np.random.default_rng(np.random.PCG64(seed))
    n = int(rng.integers(1, 5))
    m = int(rng.integers(1, 5))
    A = 0.9 * rng.standard_normal((n, n)) / max(1.0, np.sqrt(n))
    H = rng.standard_normal((m, n))
    q = rng.standard_normal((n, n))
    r = rng.standard_normal((m, m))
    model = linear_model(A, H, q @ q.T + 0.1 * np.eye(n), r @ r.T + 0.1 * np.eye(m))
    return model, rng


def test_criterion_1_linear_gaussian_equivalence():
    t0 = time.perf_counter()
    rule = parse_rule("cubature")
    ids = ("ekf", "iekf", "ukf", "plf", "nano", "nano-chol")
    # The factored update regularizes the reconstructed precision with
    # epsilon*I, biasing the covariance by about epsilon*||P||^2; shrink
    # epsilon so the gate measures the fixed point, not the regularizer.
    # nano-chol therefore makes filter_step's two calls itself.
    chol_cfg = replace(NANO_PRESETS["nano-chol"], epsilon=1e-12)
    worst_mean = worst_cov = 0.0
    for seed in range(50):
        model, rng = _random_linear_system(seed)
        truth = rng.standard_normal(model.n)
        chol_q = np.linalg.cholesky(model.Q)
        chol_r = np.linalg.cholesky(model.R)
        beliefs = {fid: GaussianBelief(np.zeros(model.n), np.eye(model.n)) for fid in ids}
        reference = GaussianBelief(np.zeros(model.n), np.eye(model.n))
        for t in range(20):
            truth = model.f(truth, None, t) + chol_q @ rng.standard_normal(model.n)
            y = model.g(truth) + chol_r @ rng.standard_normal(model.m)
            reference = kf_step(reference, None, y, model)
            for fid in ids:
                if fid == "nano-chol":
                    prior = mm_predict(beliefs[fid], None, model, rule, t)
                    beliefs[fid], _ = nano_update(prior, y, model, rule, chol_cfg)
                else:
                    beliefs[fid], _ = filter_step(fid, beliefs[fid], None, y, model, t=t, rule=rule)
                worst_mean = max(worst_mean, float(np.abs(beliefs[fid].mean - reference.mean).max()))
                worst_cov = max(worst_cov, float(np.linalg.norm(beliefs[fid].cov - reference.cov)))
    elapsed = time.perf_counter() - t0

    failures = []
    if not worst_mean < 1e-6:
        failures.append(f"mean deviation {worst_mean:.2e} >= 1e-6")
    if not worst_cov < 1e-6:
        failures.append(f"covariance deviation {worst_cov:.2e} >= 1e-6")
    if not elapsed < 10.0:
        failures.append(f"runtime {elapsed:.1f}s >= 10s")
    _verdict(
        1, "linear-Gaussian equivalence (6 filters, 50 systems, 20 steps)", failures,
        f"worst mean dev {worst_mean:.1e}, worst cov dev {worst_cov:.1e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 2. positive definiteness holds across the whole benchmark grid


def test_criterion_2_pd_preservation():
    t0 = time.perf_counter()
    rule = parse_rule("cubature")
    pd_failures = chol_failures = incomplete = checked = 0
    for model_id in MODEL_IDS:
        cases = [("none", 0.0)]
        cases += [("system", lv) for lv in SYSTEM_ERROR_GRID[model_id] if lv != 0.0]
        cases += [("outlier", lv) for lv in OUTLIER_GRID[model_id] if lv != 0.0]
        for kind, level in cases:
            cfg = ScenarioConfig(model=model_id, mismatch_kind=kind, mismatch_level=level,
                                 trials=20, horizon=100, seed=0)
            setup = scenario_models(cfg)
            for fid in ("nano", "nano-chol"):
                for trial in range(cfg.trials):
                    traj = make_trajectory(cfg, trial, setup)
                    run = run_filter(setup, fid, traj, rule)
                    pd_failures += sum(d.pd_failure for d in run.diagnostics)
                    incomplete += run.steps < cfg.horizon
                    for cov in run.covs:
                        checked += 1
                        try:
                            np.linalg.cholesky(cov)
                        except np.linalg.LinAlgError:
                            chol_failures += 1
    elapsed = time.perf_counter() - t0

    failures = []
    if pd_failures:
        failures.append(f"{pd_failures} PD failures")
    if chol_failures:
        failures.append(f"{chol_failures} posterior covariances fail Cholesky")
    if incomplete:
        failures.append(f"{incomplete} truncated runs")
    _verdict(
        2, "PD preservation over the full mismatch grid (nano, nano-chol)", failures,
        f"{checked} posteriors Cholesky-checked, 0 failures, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 3. the exact curvature can be indefinite where its Gauss-Newton part is PSD


def test_criterion_3_indefinite_curvature_witness():
    model = duffing_model()
    x, y = np.array([1.0, 0.0]), np.array([5.0])
    exact_min = float(np.linalg.eigvalsh(hess_loglik(x, y, model)).min())
    gn_min = float(np.linalg.eigvalsh(hess_loglik_gn(x, model)).min())
    failures = []
    if not exact_min < 0.0:
        failures.append(f"exact curvature eigmin {exact_min:.3g} not negative")
    if not gn_min >= -1e-10:
        failures.append(f"Gauss-Newton eigmin {gn_min:.3g} not PSD")
    _verdict(
        3, "indefinite exact curvature with PSD Gauss-Newton part", failures,
        f"exact eigmin {exact_min:.1f} < 0 <= GN eigmin {gn_min:.3g} at x={x.tolist()}, y={y.tolist()}",
    )


# ---------------------------------------------------------------------------
# 4. update-variant comparison at the nominal benchmark settings


def _effective_rmse(stats):
    # a variant that diverges on most trials ranks behind any finishing one
    return stats.mean_rmse if 2 * stats.divergences <= stats.trials else math.inf


def test_criterion_4_update_variant_comparison(mc_sweep):
    reports, elapsed = mc_sweep
    failures = []

    for model_id in ("attitude", "duffing"):
        stats = {fid: reports[model_id].stats(fid) for fid in VARIANTS}
        eff = {fid: _effective_rmse(stats[fid]) for fid in VARIANTS}
        div = {fid: stats[fid].divergences for fid in VARIANTS}
        if not eff["nano"] <= eff["nano-ekf"] <= eff["nano-nopd"]:
            failures.append(
                f"{model_id} rmse ordering {eff['nano']:.4g} <= {eff['nano-ekf']:.4g}"
                f" <= {eff['nano-nopd']:.4g} violated"
            )
        if not div["nano"] <= div["nano-ekf"] <= div["nano-nopd"]:
            failures.append(f"{model_id} divergence ordering {div} violated")

    fm_stats = {fid: reports["fm"].stats(fid) for fid in VARIANTS}
    fm_complete = all(
        (not r.diverged) and r.steps == 200 for r in reports["fm"].results["nano"]
    )
    if not fm_complete:
        failures.append("fm: nano did not complete every trial")
    if fm_stats["nano-nopd"].divergences < 1:
        failures.append("fm: nano-nopd recorded no divergence")

    for model_id in MODEL_IDS:
        t_nano = reports[model_id].stats("nano").mean_update_ms
        t_nopd = reports[model_id].stats("nano-nopd").mean_update_ms
        if not t_nano < t_nopd:
            failures.append(
                f"{model_id} update time {t_nano:.3f}ms >= exact-Hessian {t_nopd:.3f}ms"
            )
    if not elapsed < 600.0:
        failures.append(f"runtime {elapsed:.0f}s >= 600s")

    # magnitude report (ratios vs reference values; informational only)
    for model_id in MODEL_IDS:
        parts = []
        for fid in VARIANTS:
            st = reports[model_id].stats(fid)
            ref = REFERENCE_RMSE[model_id][fid]
            if st.label == "diverge" or ref is None:
                parts.append(f"{fid}={st.label} (ref {'diverge' if ref is None else ref})")
            else:
                parts.append(f"{fid}={st.mean_rmse:.4g} (ref {ref}, x{st.mean_rmse / ref:.2g})")
        t_nano = reports[model_id].stats("nano").mean_update_ms
        t_nopd = reports[model_id].stats("nano-nopd").mean_update_ms
        ref_nano, ref_nopd = REFERENCE_MS[model_id]
        parts.append(
            f"ms {t_nano:.3f}/{t_nopd:.3f} (ref {ref_nano}/{ref_nopd})"
        )
        print(f"    [criterion 4 report] {model_id}: " + ", ".join(parts))

    _verdict(
        4, "update-variant comparison (N=100, M=200, cubature)", failures,
        f"orderings, fm completion and timing all hold, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 5. natural-gradient filter vs classical baselines at nominal settings


def test_criterion_5_baseline_ordering(mc_sweep):
    reports, _ = mc_sweep
    failures = []
    for model_id in MODEL_IDS:
        nano = reports[model_id].stats("nano").mean_rmse
        for fid in BASELINES:
            st = reports[model_id].stats(fid)
            other = st.mean_rmse if not math.isnan(st.mean_rmse) else math.inf
            mark = "<=" if nano <= other else ">"
            print(f"    [criterion 5 report] {model_id}: nano {nano:.6g} {mark} {fid} {other:.6g}")
            if not nano <= other:
                failures.append(
                    f"{model_id}: nano {nano:.6g} > {fid} {other:.6g} (diff {nano - other:+.3g})"
                )
    _verdict(5, "mean RMSE of nano <= each classical baseline", failures,
             "nano lowest on every benchmark")


# ---------------------------------------------------------------------------
# 6. analytic derivatives against central finite differences


def _central_jac(fn, x, h=1e-6):
    cols = []
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        cols.append((np.asarray(fn(x + e)) - np.asarray(fn(x - e))) / (2 * h))
    return np.stack(cols, axis=-1)


def _rel_err(analytic, numeric):
    analytic, numeric = np.asarray(analytic, float), np.asarray(numeric, float)
    return float(np.linalg.norm((analytic - numeric).ravel())
                 / max(np.linalg.norm(numeric.ravel()), 1.0))


def test_criterion_6_derivative_consistency():
    t0 = time.perf_counter()
    worst = {}
    for maker in (fm_demodulator, attitude_model, duffing_model):
        model = maker()
        rng = np.random.default_rng(zlib.crc32(model.name.encode()))
        errs = []
        for k in range(100):
            x = rng.uniform(-1.0, 1.0, size=model.n)
            x2 = rng.uniform(-1.0, 1.0, size=model.n)
            y = np.asarray(model.g(x2), dtype=float)  # nonzero residual at x
            t = int(rng.integers(0, 50))
            u = model.control(t) if model.control is not None else None
            errs.append(_rel_err(model.jac_f(x, u, t), _central_jac(lambda s: model.f(s, u, t), x)))
            errs.append(_rel_err(model.jac_g(x), _central_jac(model.g, x)))
            errs.append(_rel_err(model.hess_g(x), _central_jac(model.jac_g, x)))
            errs.append(_rel_err(grad_loglik(x, y, model),
                                 _central_jac(lambda s: loglik(s, y, model), x)))
            errs.append(_rel_err(hess_loglik(x, y, model),
                                 _central_jac(lambda s: grad_loglik(s, y, model), x)))
        worst[model.name] = max(errs)
    elapsed = time.perf_counter() - t0

    failures = [
        f"{name}: worst relative error {err:.2e} >= 1e-4"
        for name, err in worst.items() if not err < 1e-4
    ]
    if not elapsed < 5.0:
        failures.append(f"runtime {elapsed:.1f}s >= 5s")
    detail = ", ".join(f"{name} {err:.1e}" for name, err in worst.items())
    _verdict(6, "derivatives vs central differences (100 points each)", failures,
             f"{detail}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 7. moment-matching exactness


def test_criterion_7_moment_matching_exactness():
    failures = []
    rng = np.random.default_rng(7)
    for rule_text in ("cubature", "unscented", "gh:3"):
        rule = parse_rule(rule_text)
        for _ in range(5):
            n, k = int(rng.integers(1, 5)), int(rng.integers(1, 4))
            mu = rng.standard_normal(n)
            s = rng.standard_normal((n, n))
            sigma = s @ s.T + 0.5 * np.eye(n)
            A, b = rng.standard_normal((k, n)), rng.standard_normal(k)
            mean, cov = propagate_moments(generate_points(rule, mu, sigma), lambda x: x @ A.T + b)
            want_mean, want_cov = A @ mu + b, A @ sigma @ A.T
            err = max(
                np.linalg.norm(mean - want_mean) / max(np.linalg.norm(want_mean), 1.0),
                np.linalg.norm(cov - want_cov) / max(np.linalg.norm(want_cov), 1.0),
            )
            if not err < 1e-9:
                failures.append(f"{rule_text}: affine error {err:.2e} >= 1e-9")

    for p in (2, 3, 4, 5):
        cset = generate_points(parse_rule(f"gh:{p}"), np.zeros(1), np.eye(1))
        nodes = cset.points[:, 0]
        for d in range(2 * p):  # all degrees <= 2p-1
            got = float(np.sum(cset.mean_weights * nodes**d))
            want = 0.0 if d % 2 else float(np.prod(np.arange(d - 1, 0, -2))) if d else 1.0
            if not abs(got - want) < 1e-9:
                failures.append(f"gh:{p} degree {d}: {got:.3g} != {want:.3g}")

    _verdict(7, "affine exactness (3 rules) and 1-D quadrature exactness", failures,
             "all rules exact to 1e-9")


# ---------------------------------------------------------------------------
# 8. command-line benchmark runs are reproducible byte for byte


def test_criterion_8_cli_determinism(tmp_path):
    outputs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        proc = subprocess.run(
            [sys.executable, "-m", "nanofilter", "run", "--model", "duffing",
             "--filter", "nano,ekf", "--trials", "10", "--seed", "42",
             "--out", str(out)],
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append((out / "trials.csv").read_bytes())
    failures = [] if outputs[0] == outputs[1] else ["trials.csv differs between invocations"]
    _verdict(8, "byte-identical CSV outputs across repeated runs", failures,
             f"{len(outputs[0])} bytes, identical")
