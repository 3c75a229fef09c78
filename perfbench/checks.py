"""Output check: stored reference outputs where a seed has them, invariants otherwise.

The unit of failure is what the workload attempts: one (filter, trial) run
for the Monte Carlo workloads, one filter step for ``online-step``.
References hold, per model and filter, every trial's (rmse, diverged, steps)
or the final posterior mean and covariance.  Floats compare at relative
``RTOL`` (the tolerance ROADMAP item 2 sets for a batched engine), flags and
step counts exactly.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from workloads import MODELS

RTOL = 1e-9
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
# The natural-gradient ids that must never diverge on the nominal scenarios.
NEVER_DIVERGE = ("nano", "nano-chol")


def reference_path(workload: str, seed: int) -> Path:
    return REFERENCE_DIR / f"{workload}-seed{seed}.json"


def load_reference(workload: str, seed: int) -> dict | None:
    path = reference_path(workload, seed)
    return json.loads(path.read_text()) if path.is_file() else None


def to_reference(w, result) -> dict:
    """JSON form of one pass's outputs (floats round-trip exactly through repr)."""
    models = {}
    for model, per in result.outputs.items():
        if w.kind == "mc":
            models[model] = {fid: [list(row) for row in rows] for fid, rows in per.items()}
        else:
            models[model] = {
                fid: {"mean": out["mean"].tolist(), "cov": out["cov"].tolist(), "steps": out["steps"]}
                for fid, out in per.items()
            }
    return {"workload": w.name, "outputs": models, "trials_csv_sha256": result.csv_sha256}


def units_per_pair(w) -> int:
    """Units one (model, filter) pair attempts per pass: trials, or online steps."""
    return w.trials if w.kind == "mc" else w.horizon


def attempted(w) -> int:
    """Units one pass attempts: (filter, trial) runs, or online filter steps."""
    return len(MODELS) * len(w.filters) * units_per_pair(w)


def _close(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return False
    scale = float(np.max(np.abs(b))) if b.size else 0.0
    return bool(np.all(np.abs(a - b) <= RTOL * scale))


def check_pass(w, result, reference: dict | None) -> tuple[int, list[str]]:
    """(failed units, messages) for one pass; compares or checks invariants."""
    failed, notes = 0, []
    per_model = units_per_pair(w)
    ref_outputs = reference["outputs"] if reference else None
    for model, per in result.outputs.items():
        if per is None:
            failed += len(w.filters) * per_model
            notes.append(f"{model}: pass raised")
            continue
        for fid, out in per.items():
            ref = ref_outputs[model][fid] if ref_outputs else None
            if w.kind == "online":
                if not _online_ok(out, ref, w.horizon):
                    failed += per_model
                    notes.append(f"{model}/{fid}: final posterior wrong or a step failed")
                continue
            if ref is not None and len(ref) != len(out):
                bad = list(range(len(out)))
            else:
                bad = [i for i, row in enumerate(out)
                       if not _mc_row_ok(w, fid, row, ref[i] if ref else None)]
            failed += len(bad)
            if bad:
                notes.append(f"{model}/{fid}: trials {bad[:5]} wrong")
    return failed, notes


def _mc_row_ok(w, fid: str, row, ref) -> bool:
    err, diverged, steps = row
    if ref is not None:
        ref_err, ref_div, ref_steps = ref
        if diverged != ref_div or steps != ref_steps:
            return False
        if ref_err is None or err is None:
            return ref_err is None and err is None
        return abs(err - ref_err) <= RTOL * abs(ref_err)
    if diverged:
        return fid not in NEVER_DIVERGE
    return steps == w.horizon and err is not None and math.isfinite(err)


def _online_ok(out: dict, ref, horizon: int) -> bool:
    if out["error"] or out["pd_failures"]:
        return False
    if ref is not None:
        return (out["steps"] == ref["steps"] and _close(out["mean"], ref["mean"])
                and _close(out["cov"], ref["cov"]))
    mean, cov = out["mean"], out["cov"]
    if out["steps"] != horizon or not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
        return False
    return bool(np.allclose(cov, cov.T) and np.all(np.linalg.eigvalsh(cov) > 0.0))


def csv_identical(result, reference: dict | None) -> bool | None:
    """Whether every trials.csv is byte-identical to the reference's (information only)."""
    if not reference or not result.csv_sha256:
        return None
    return result.csv_sha256 == reference.get("trials_csv_sha256")
