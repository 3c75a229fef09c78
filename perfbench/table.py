"""Serial ms/step baseline table, with predict and update split out.

Re-measures the ROADMAP baseline (cubature, 4 trials x 200 steps, seed 0,
one filter per ``run_monte_carlo`` call, one thread) under the coarse trace:
only the step, predict, update and simulation boundaries are wrapped, so
the trace adds a few microseconds to steps that take 0.1 ms or more.

Columns, all in ms per filter step:

* ``mc``      -- wall time of ``run_monte_carlo`` for that filter alone,
  divided by trials x horizon (what the ROADMAP table reports; it includes
  re-simulating the trajectory and rebuilding the scenario per trial);
* ``step``    -- time inside ``filter_step``;
* ``predict`` / ``update`` -- the two halves of it;
* ``roadmap`` -- the ROADMAP figure, for comparison.

The ``sim`` row of each model is ``simulate_trajectory`` time per simulated step.
"""

from __future__ import annotations

import time

import numpy as np

import spans

FILTERS = ("ekf", "iekf", "ukf", "plf", "nano", "nano-chol")
MODELS = ("fm", "attitude", "duffing")
TRIALS, HORIZON, SEED = 4, 200, 0

ROADMAP_MS = {
    "fm": {"sim": 0.029, "ekf": 0.14, "iekf": 0.78, "ukf": 0.32, "plf": 2.49, "nano": 0.71,
           "nano-chol": 3.44},
    "attitude": {"sim": 0.075, "ekf": 0.35, "iekf": 0.45, "ukf": 0.43, "plf": 0.87, "nano": 1.05,
                 "nano-chol": 1.48},
    "duffing": {"sim": 0.026, "ekf": 0.16, "iekf": 0.43, "ukf": 0.31, "plf": 1.57, "nano": 1.73,
                "nano-chol": 2.48},
}

UPDATE_SPAN = {"ekf": "filters.update.ekf", "iekf": "filters.update.iekf",
               "ukf": "filters.update.ukf", "plf": "filters.update.plf",
               "nano": "nano.nano_update", "nano-chol": "nano.nano_update"}
PREDICT_SPANS = ("filters.predict.ekf", "filters.predict.mm")


def measure() -> dict:
    """{(model, filter or 'sim'): {column: ms/step}} from one coarse-traced run."""
    from nanofilter.bench import run_monte_carlo
    from nanofilter.scenarios import ScenarioConfig

    rec = spans.SpanRecorder()
    rows: dict = {}
    with spans.Instrumentation(rec, "table", coarse=True):
        for model in MODELS:
            cfg = ScenarioConfig(model=model, trials=TRIALS, horizon=HORIZON, seed=SEED)
            run_monte_carlo(cfg, FILTERS[:1])            # warm-up, not recorded
            rec.clear()
            for fid in FILTERS:
                start = time.perf_counter()
                report = run_monte_carlo(cfg, (fid,))
                elapsed = time.perf_counter() - start
                steps = sum(r.steps for r in report.results[fid])
                rows[(model, fid)] = {"mc": 1e3 * elapsed / (TRIALS * HORIZON), "steps": steps}
            _fill(rec, model, rows)
    return rows


def _fill(rec: spans.SpanRecorder, model: str, rows: dict) -> None:
    arr = rec.arrays()
    dur = arr["end"] - arr["start"]
    names = np.array(rec.names)[arr["name"]]
    fids = np.array([r[2] for r in rec.requests])[arr["request"]]
    sim = names == "models.simulate_trajectory"
    rows[(model, "sim")] = {"step": 1e3 * dur[sim].sum() / (sim.sum() * HORIZON)}
    for fid in FILTERS:
        mine = fids == fid
        steps = rows[(model, fid)]["steps"]
        rows[(model, fid)].update(
            step=1e3 * dur[mine & (names == "filters.filter_step")].sum() / steps,
            predict=1e3 * dur[mine & np.isin(names, PREDICT_SPANS)].sum() / steps,
            update=1e3 * dur[mine & (names == UPDATE_SPAN[fid])].sum() / steps,
        )


def format_table(rows: dict) -> str:
    cols = ("mc", "step", "predict", "update", "roadmap")
    lines = ["model     filter       " + "".join(c.rjust(9) for c in cols) + "   mc/roadmap"]
    for model in MODELS:
        for fid in ("sim",) + FILTERS:
            row = dict(rows[(model, fid)], roadmap=ROADMAP_MS[model][fid])
            if fid == "sim":
                row["mc"] = row["step"]
            cells = "".join(
                (f"{row[c]:9.3f}" if c in row else " " * 9) for c in cols
            )
            lines.append(f"{model:9s} {fid:12s}{cells}   {row['mc'] / row['roadmap']:6.2f}")
    return "\n".join(lines)


def main() -> int:
    print(format_table(measure()))
    return 0
