"""In-memory span recorder, the wrappers that feed it, and per-layer metrics.

Spans are recorded from outside the package: :class:`Instrumentation` swaps
each layer's public function for a timing wrapper *at the site where the
caller looks the name up*.  ``from .x import y`` binds a private copy of
``y`` in the importing module, so patching ``x.y`` alone would miss every
call made through that copy; the table in :meth:`Instrumentation.install`
lists each binding that is replaced.

A span is (name, start, end, parent, request).  The request is the tuple
(workload, model, filter id, trial) current when the span opened.  A span's
self time is its duration minus the part of it covered by its child spans.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array
from pathlib import Path

import numpy as np

MODEL_CALLABLES = ("f", "jac_f", "g", "jac_g", "hess_g")
NANO_IDS = ("nano", "nano-nopd", "nano-ekf", "nano-chol")
UPDATE_IDS = ("ekf", "iekf", "ukf", "plf") + NANO_IDS
# Iterated updates, and the child span that marks one iteration of each.
ITERATION_MARKER = {"iekf": "model.jac_g", "plf": "quadrature.generate_points"}
ITERATION_MARKER.update({fid: "quadrature.generate_points" for fid in NANO_IDS})

_perf = time.perf_counter


class SpanRecorder:
    """Append-only span store; one open-span stack, so one thread only."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.requests: list[tuple] = [("", "", "", -1)]
        self._request_ids: dict[tuple, int] = {self.requests[0]: 0}
        self._request = 0
        self._stack: list[int] = []
        self.clear()

    def clear(self) -> None:
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self.error = array("b")
        # points for generate_points, completed steps for run_filter, the
        # filter id's index in UPDATE_IDS for filter_step
        self.value = array("d")
        self.extra: dict[int, float] = {}   # attempted steps per run_filter span

    def __len__(self) -> int:
        return len(self.name)

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def set_request(self, key: tuple) -> int:
        """Make ``key`` the request of spans opened from now on; returns the previous id."""
        if key not in self._request_ids:
            self._request_ids[key] = len(self.requests)
            self.requests.append(key)
        previous, self._request = self._request, self._request_ids[key]
        return previous

    def restore_request(self, previous: int) -> None:
        self._request = previous

    def open(self, nid: int) -> int:
        idx = len(self.name)
        stack = self._stack
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.request.append(self._request)
        self.error.append(0)
        self.value.append(0.0)
        self.end.append(0.0)
        stack.append(idx)
        self.start.append(_perf())
        return idx

    def close(self, idx: int, error: bool = False) -> None:
        self.end[idx] = _perf()
        self._stack.pop()
        if error:
            self.error[idx] = 1

    def wrap(self, name: str, fn, on_result=None, on_call=None):
        """Wrap ``fn`` so each call records one span named ``name``.

        ``on_call(idx, args)`` runs when the span opens and
        ``on_result(idx, args, result)`` after a call that returned.
        """
        nid = self.name_id(name)
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = rec.open(nid)
            if on_call is not None:
                on_call(idx, args)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec.close(idx, error=True)
                raise
            rec.close(idx)
            if on_result is not None:
                on_result(idx, args, result)
            return result

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "request": np.frombuffer(self.request, dtype=np.int32).copy(),
            "error": np.frombuffer(self.error, dtype=np.int8).copy(),
            "value": np.frombuffer(self.value, dtype=np.float64).copy(),
        }

    def write(self, path: Path) -> None:
        """Write the recorded spans, with their name and request tables, as .npz."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            requests=np.array(["/".join(map(str, r)) for r in self.requests]),
            **self.arrays(),
        )


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the union of its children's intervals.

    Child intervals are clipped to the parent's interval and merged before
    they are subtracted, so overlapping or overhanging children are counted
    once and only where they overlap the parent.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent)
    out = end - start
    children = np.flatnonzero(parent >= 0)
    if children.size == 0:
        return out
    order = children[np.lexsort((start[children], parent[children]))]
    i = 0
    while i < order.size:
        p = parent[order[i]]
        lo, hi = start[p], end[p]
        covered = 0.0
        cur_s = cur_e = None
        while i < order.size and parent[order[i]] == p:
            c = order[i]
            s, e = max(start[c], lo), min(end[c], hi)
            i += 1
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        out[p] -= covered
    return out


def _update_caps() -> dict[str, int]:
    """Iteration cap of each iterated update, read from the callee's defaults."""
    from nanofilter import filters, nano

    caps = {
        "iekf": inspect.signature(filters.iekf_update).parameters["max_iters"].default,
        "plf": inspect.signature(filters.plf_update).parameters["max_iters"].default,
    }
    caps.update({fid: nano.NANO_PRESETS[fid].max_iters for fid in NANO_IDS})
    return caps


def layer_metric_names() -> list[str]:
    """Every per-layer metric :func:`layer_metrics` reports, in a fixed order."""
    names = [f"model.{c}.{s}" for c in MODEL_CALLABLES for s in ("calls", "self_s")]
    names += ["models.simulate_trajectory.calls", "models.simulate_trajectory.self_s",
              "scenarios.scenario_models.calls", "scenarios.scenario_models.self_s",
              "quadrature.generate_points.calls", "quadrature.generate_points.self_s",
              "quadrature.generate_points.points",
              "quadrature.propagate.calls", "quadrature.propagate.self_s"]
    names += [f"linalg.{fn}.{s}" for fn in ("cholesky_factor", "spd_solve", "spd_inverse")
              for s in ("calls", "self_s")]
    names += ["linalg.cholesky_factor.errors"]
    names += [f"filters.predict.{p}.{s}" for p in ("ekf", "mm") for s in ("calls", "self_s")]
    names += [f"filters.update.{fid}.{s}" for fid in UPDATE_IDS for s in ("calls", "self_s")]
    names += [f"filters.update.{fid}.{s}" for fid in ITERATION_MARKER
              for s in ("iters_per_update", "early_stop_frac")]
    names += ["filters.filter_step.calls", "filters.filter_step.self_s",
              "nano.nano_update.calls", "nano.nano_update.self_s", "nano.nano_update.errors",
              "nano.chol_cov_step.calls", "nano.chol_cov_step.self_s",
              "bench.run_filter.calls", "bench.run_filter.self_s", "bench.run_filter.completed_frac",
              "bench.make_trajectory.self_s", "bench.emit.self_s"]
    return names


def metric_unit(name: str) -> str:
    if name.endswith("self_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("iters_per_update"):
        return "iters"
    if name.endswith(".points"):
        return "points"
    return "count"


def layer_metrics(rec: SpanRecorder) -> dict[str, float]:
    """Per-layer counts, self times and ratios over everything ``rec`` holds."""
    arr = rec.arrays()
    own = self_times(arr["start"], arr["end"], arr["parent"])
    span_names = np.array(rec.names + [""])[arr["name"]]
    out: dict[str, float] = {}

    def put(prefix: str, mask: np.ndarray) -> None:
        out[f"{prefix}.calls"] = int(mask.sum())
        out[f"{prefix}.self_s"] = float(own[mask].sum())

    def named(name: str) -> np.ndarray:
        return span_names == name

    for c in MODEL_CALLABLES:
        put(f"model.{c}", named(f"model.{c}"))
    for name in ("models.simulate_trajectory", "scenarios.scenario_models",
                 "quadrature.generate_points", "quadrature.propagate",
                 "linalg.cholesky_factor", "linalg.spd_solve", "linalg.spd_inverse",
                 "filters.predict.ekf", "filters.predict.mm", "filters.filter_step",
                 "nano.nano_update", "nano.chol_cov_step", "bench.run_filter"):
        put(name, named(name))
    out["quadrature.generate_points.points"] = int(arr["value"][named("quadrature.generate_points")].sum())
    out["linalg.cholesky_factor.errors"] = int(arr["error"][named("linalg.cholesky_factor")].sum())
    out["nano.nano_update.errors"] = int(arr["error"][named("nano.nano_update")].sum())

    # One update span per filter step: the baselines have their own span names;
    # the natural-gradient ids share nano.nano_update and take their id from
    # the enclosing filter_step span.
    parents = arr["parent"]
    step_fid = np.where(named("filters.filter_step"), arr["value"], -1.0)
    nano_fid = np.where(named("nano.nano_update") & (parents >= 0), step_fid[parents], -1.0)
    update_mask = {fid: named(f"filters.update.{fid}") for fid in ("ekf", "iekf", "ukf", "plf")}
    for fid in NANO_IDS:
        update_mask[fid] = nano_fid == UPDATE_IDS.index(fid)
    caps = _update_caps()
    for fid in UPDATE_IDS:
        mask = update_mask[fid]
        put(f"filters.update.{fid}", mask)
        if fid not in ITERATION_MARKER:
            continue
        spans = np.flatnonzero(mask)
        child = parents[named(ITERATION_MARKER[fid]) & (parents >= 0)]
        iters = np.bincount(child, minlength=len(rec))[spans] if spans.size else np.zeros(0)
        ok = arr["error"][spans] == 0
        out[f"filters.update.{fid}.iters_per_update"] = float(iters.mean()) if spans.size else 0.0
        out[f"filters.update.{fid}.early_stop_frac"] = (
            float(np.mean(ok & (iters < caps[fid]))) if spans.size else 0.0
        )

    runs = np.flatnonzero(named("bench.run_filter"))
    attempted = sum(rec.extra.get(int(i), 0.0) for i in runs)
    out["bench.run_filter.completed_frac"] = (
        float(arr["value"][runs].sum() / attempted) if attempted else 0.0
    )
    out["bench.make_trajectory.self_s"] = float(own[named("bench.make_trajectory")].sum())
    out["bench.emit.self_s"] = float(own[named("bench.emit")].sum())
    return {name: out[name] for name in layer_metric_names()}


def calls_by_filter(rec: SpanRecorder, name: str) -> dict[str, int]:
    """How many ``name`` spans each filter id's requests opened."""
    counts: dict[str, int] = {}
    nid = rec._name_ids.get(name)
    if nid is None:
        return counts
    for n, r in zip(rec.name, rec.request):
        if n == nid:
            fid = rec.requests[r][2]
            counts[fid] = counts.get(fid, 0) + 1
    return counts


class Instrumentation:
    """Installs span wrappers at every lookup site and removes them again.

    ``coarse=True`` wraps only the step, predict, update and simulation
    boundaries, which keeps the tracing cost small next to one filter step.
    """

    def __init__(self, rec: SpanRecorder, workload: str, coarse: bool = False):
        self.rec = rec
        self.workload = workload
        self.coarse = coarse
        self._saved: list[tuple[object, str, object]] = []

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap_attr(self, owner, attr: str, name: str, on_result=None, on_call=None) -> None:
        self._patch(owner, attr, self.rec.wrap(name, getattr(owner, attr), on_result, on_call))

    def wrap_model(self, model, restore: bool = True) -> None:
        """Wrap the filter model's callables (``hess_g`` only when present)."""
        if self.coarse:
            return
        for c in MODEL_CALLABLES:
            fn = getattr(model, c)
            if fn is None:
                continue
            wrapped = self.rec.wrap(f"model.{c}", fn)
            if restore:
                self._patch(model, c, wrapped)
            else:
                setattr(model, c, wrapped)

    def install(self) -> "Instrumentation":
        from nanofilter import bench, filters, models, nano, quadrature

        if bench._worker_count() != 1:
            raise RuntimeError("tracing needs a serial harness: set NANO_BENCH_THREADS=1")
        rec = self.rec

        def count_points(idx, args, cset):
            rec.value[idx] = len(cset.points)

        def count_steps(idx, args, run):
            rec.value[idx] = run.steps
            rec.extra[idx] = float(args[2].measurements.shape[0])

        def note_filter(idx, args):
            rec.value[idx] = UPDATE_IDS.index(args[0]) if args[0] in UPDATE_IDS else -1

        def wrap_setup(idx, args, setup):
            self.wrap_model(setup.filter_view, restore=False)

        # The harness: filter_step, scenario_models and simulate_trajectory are
        # bench's own copies of the names; run_trial/run_filter/make_trajectory
        # are looked up in bench's globals by run_monte_carlo and run_trial.
        self._wrap_attr(bench, "filter_step", "filters.filter_step", on_call=note_filter)
        self._wrap_attr(filters, "filter_step", "filters.filter_step", on_call=note_filter)
        self._wrap_attr(bench, "simulate_trajectory", "models.simulate_trajectory")
        self._wrap_attr(filters, "ekf_predict", "filters.predict.ekf")
        self._wrap_attr(filters, "mm_predict", "filters.predict.mm")
        for fid in ("ekf", "iekf", "ukf", "plf"):
            self._wrap_attr(filters, f"{fid}_update", f"filters.update.{fid}")
        # filter_step reaches the natural-gradient update as nano.nano_update.
        self._wrap_attr(nano, "nano_update", "nano.nano_update")
        self._patch(bench, "run_trial", self._request_scope(bench.run_trial))
        if self.coarse:
            return self

        self._wrap_attr(bench, "scenario_models", "scenarios.scenario_models", wrap_setup)
        self._wrap_attr(bench, "run_filter", "bench.run_filter", count_steps)
        self._wrap_attr(bench, "make_trajectory", "bench.make_trajectory")
        for owner in (filters, nano):
            self._wrap_attr(owner, "generate_points", "quadrature.generate_points", count_points)
        self._wrap_attr(filters, "propagate_moments", "quadrature.propagate")
        self._wrap_attr(filters, "propagate_with_cross", "quadrature.propagate")
        for owner in (quadrature, nano, models):
            self._wrap_attr(owner, "cholesky_factor", "linalg.cholesky_factor")
        self._wrap_attr(filters, "spd_solve", "linalg.spd_solve")
        for owner in (nano, models):
            self._wrap_attr(owner, "spd_inverse", "linalg.spd_inverse")
        self._wrap_attr(nano, "chol_cov_step", "nano.chol_cov_step")
        return self

    def _request_scope(self, run_trial):
        """Make every span under one ``run_trial`` call carry its request id."""
        rec, workload = self.rec, self.workload

        @functools.wraps(run_trial)
        def scoped(cfg, filter_id, trial, *args, **kwargs):
            previous = rec.set_request((workload, cfg.model, filter_id, trial))
            try:
                return run_trial(cfg, filter_id, trial, *args, **kwargs)
            finally:
                rec.restore_request(previous)

        return scoped

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Instrumentation":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()
