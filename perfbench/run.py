"""nanofilter benchmark: one workload, measured for a fixed window, checked against references.

    python3 perfbench/run.py --workload mc-classic --seed 0 --seconds 30 --trace 0

Run it from the root of a source checkout; it imports the package from
``src/``.  Thread counts are pinned to one before numpy loads.  With
``--trace 0`` the last stdout line is a JSON object holding the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of a traced run.
Other modes:

    python3 perfbench/run.py --write-reference --seed 0   # rewrite stored outputs
    python3 perfbench/run.py --table                      # ms/step baseline table

The exit code is 1 when an output check fails and 2 when the package source
is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NANO_BENCH_THREADS")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = Path.cwd() / ".perfbench_out"
SETUP_PROBES = 7
READY = "perfbench-setup-ready"


def _import_package() -> None:
    """Put the checkout's ``src/`` first on the path; exit 2 if it is missing."""
    if not (SRC / "nanofilter" / "__init__.py").is_file():
        print(f"perfbench: no package source under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import nanofilter

    if Path(nanofilter.__file__).resolve().parent != SRC / "nanofilter":
        print(f"perfbench: imported nanofilter from {nanofilter.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def _setup(workload: str, seed: int):
    """Scenario build, input generation and one warm-up step."""
    import workloads

    w = workloads.WORKLOADS[workload]
    inputs = workloads.make_inputs(w, seed)
    workloads.warm_up(w, inputs)
    return w, inputs


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh process to its finished warm-up step."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--probe-setup"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if line.strip() != READY or code != 0:
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    return elapsed


def environment() -> dict:
    """Versions, BLAS build, thread settings and commit the run measured."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration") if k in blas},
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "commit": commit,
        "source_sha256": source_digest(),
    }


def source_digest() -> str:
    """sha256 over the package's source files, which identifies a checkout without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "nanofilter").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def percentile_with_tail(samples: list[float], q: float, min_beyond: int = 10) -> tuple[float, float]:
    """The ``q``-quantile, lowered until at least ``min_beyond`` samples lie above it.

    Returns (quantile actually used, value).
    """
    import numpy as np

    data = np.sort(np.asarray(samples, dtype=float))
    n = data.size
    q_used = min(q, max(0.0, 1.0 - min_beyond / n)) if n else q
    return q_used, float(np.quantile(data, q_used)) if n else float("nan")


@dataclass
class PassStats:
    """What a run keeps of one pass, times in reference seconds (see speed.py).

    The pass's outputs and step samples are dropped once checked, so the
    benchmark's own memory does not grow with the number of passes and
    ``peak_rss_mb`` does not depend on how fast the program is.
    """

    wall_s: float
    raw_wall_s: float
    speed_factor: float
    steps: int
    step_us_p50: float
    step_us_p99: float
    p99_quantile: float
    step_samples: int
    csv_match: bool | None
    layers: dict | None = None
    gp_by_filter: dict | None = None


def run_window(w, inputs, seconds: float, reference: dict | None, tracer=None, probe=None):
    """Repeat passes until their measured wall times add up to ``seconds``.

    Every pass and every set-up probe sits between two runs of the speed
    kernel, which rescale its times to reference seconds.  ``probe``, when
    given, is called ``SETUP_PROBES`` times spread evenly over the window,
    between passes, so that set-up samples the same machine conditions as
    the passes.  Returns (passes, failed units, notes, probes as
    (reference seconds, measured seconds)).
    """
    import checks
    import spans
    import speed
    import workloads

    passes, failed, notes, probes = [], 0, [], []
    measured = 0.0
    kernel = speed.kernel_seconds()

    def take_probe():
        nonlocal kernel
        raw = probe()
        after = speed.kernel_seconds()
        probes.append((raw * speed.factor(kernel, after), raw))
        kernel = after

    while not passes or measured < seconds:
        if probe is not None and len(probes) < SETUP_PROBES and measured >= len(probes) * seconds / SETUP_PROBES:
            take_probe()
            continue
        if tracer is not None:
            tracer.clear()
        result = workloads.run_pass(w, inputs, OUT / w.name, tracer)
        after = speed.kernel_seconds()
        scale = speed.factor(kernel, after)
        kernel = after
        measured += result.wall_s
        bad, why = checks.check_pass(w, result, reference)
        failed += bad
        notes += why + result.errors
        step_us = [s * 1e6 * scale for s in result.step_s]
        _, p50 = percentile_with_tail(step_us, 0.50)
        q99, p99 = percentile_with_tail(step_us, 0.99)
        stats = PassStats(result.wall_s * scale, result.wall_s, scale, result.steps, p50, p99,
                          q99, len(step_us), checks.csv_identical(result, reference))
        if tracer is not None:
            stats.layers = {k: v * scale if k.endswith("self_s") else v
                            for k, v in spans.layer_metrics(tracer).items()}
            stats.gp_by_filter = spans.calls_by_filter(tracer, "quadrature.generate_points")
        passes.append(stats)
    while probe is not None and len(probes) < SETUP_PROBES:
        take_probe()
    return passes, failed, notes, probes


def end_to_end(passes: list[PassStats], probes: list[tuple[float, float]]) -> tuple[dict, dict]:
    """The end-to-end metrics: medians over the passes (set-up: over the probes)."""
    walls = [p.wall_s for p in passes]
    metrics = {
        "setup_s": (statistics.median(ref for ref, _ in probes), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "filter_steps_per_s": (statistics.median(p.steps / p.wall_s for p in passes), "steps/s"),
        "step_us_p50": (statistics.median(p.step_us_p50 for p in passes), "us"),
        "step_us_p99": (statistics.median(p.step_us_p99 for p in passes), "us"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    info = {"passes": len(passes), "step_samples_per_pass": min(p.step_samples for p in passes),
            "p99_quantile_used": min(p.p99_quantile for p in passes),
            "measured_wall_s": statistics.median(p.raw_wall_s for p in passes),
            "measured_setup_s": statistics.median(raw for _, raw in probes),
            "speed_factor": statistics.median(p.speed_factor for p in passes),
            "wall_s_min_max": [min(walls), max(walls)]}
    return {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}, info


def traced_run(w, inputs, seconds: float, reference: dict | None, seed: int):
    """Untraced passes for half the window, traced ones for the other half."""
    import spans

    passes, failed, notes, _ = run_window(w, inputs, seconds / 2.0, reference)
    untraced_wall = statistics.median(p.wall_s for p in passes)
    rec = spans.SpanRecorder()
    with spans.Instrumentation(rec, w.name) as inst:
        if w.kind == "online":
            for item in inputs:
                inst.wrap_model(item.setup.filter_view)
        traced, failed_t, notes_t, _ = run_window(w, inputs, seconds / 2.0, reference, rec)
    rec.write(OUT / f"spans-{w.name}-seed{seed}.npz")

    def counts(p):
        return {k: v for k, v in p.layers.items() if not k.endswith("self_s")}

    metrics = {}
    for name, value in traced[0].layers.items():
        if name.endswith("self_s"):
            value = statistics.median(p.layers[name] for p in traced)
        metrics[name] = {"value": float(value), "unit": spans.metric_unit(name)}
    traced_wall = statistics.median(p.wall_s for p in traced)
    metrics["trace_overhead_frac"] = {"value": traced_wall / untraced_wall - 1.0, "unit": "ratio"}
    info = {"untraced_passes": len(passes), "traced_passes": len(traced),
            "untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall,
            "speed_factor": statistics.median(p.speed_factor for p in passes + traced),
            "counts_repeat_across_passes": all(counts(p) == counts(traced[0]) for p in traced),
            "generate_points_calls_by_filter": traced[0].gp_by_filter}
    return passes + traced, failed + failed_t, notes + notes_t, metrics, info


def main_run(args) -> int:
    import checks

    w, inputs = _setup(args.workload, args.seed)
    env = environment()
    reference = checks.load_reference(w.name, args.seed)
    if args.trace:
        passes, failed, notes, metrics, info = traced_run(w, inputs, args.seconds, reference, args.seed)
    else:
        passes, failed, notes, probes = run_window(
            w, inputs, args.seconds, reference, probe=lambda: probe_setup(w.name, args.seed)
        )
        metrics, info = end_to_end(passes, probes)

    attempted = checks.attempted(w) * len(passes)
    csv_flags = {p.csv_match for p in passes if p.csv_match is not None}
    summary = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "reference": checks.reference_path(w.name, args.seed).name
        if reference else "none (invariants checked)",
        "failed_frac": failed / attempted,
        "trials_csv_identical": (csv_flags == {True}) if csv_flags else None,
        **info,
    }
    for name, m in metrics.items():
        print(f"{name:45s} {m['value']:.6g} {m['unit']}")
    print(f"{'failed_frac':45s} {summary['failed_frac']:.6g} ratio")
    for note in notes[:20]:
        print(f"check: {note}")
    print("info " + json.dumps(summary, default=str))
    print("env " + json.dumps(env))
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"env": env, "summary": summary, "metrics": metrics}, indent=1, default=str)
    )
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def write_references(seed: int) -> int:
    import checks
    import workloads

    checks.REFERENCE_DIR.mkdir(exist_ok=True)
    for name, w in workloads.WORKLOADS.items():
        result = workloads.run_pass(w, workloads.make_inputs(w, seed), OUT / name)
        failed, notes = checks.check_pass(w, result, None)
        if failed or result.errors:
            print(f"{name}: invariants fail, no reference written: {notes + result.errors}")
            return 1
        path = checks.reference_path(name, seed)
        path.write_text(json.dumps(checks.to_reference(w, result), indent=0) + "\n")
        print(f"wrote {path.relative_to(ROOT)}")
    return 0


def parse_args(argv=None):
    import workloads

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--write-reference", action="store_true")
    p.add_argument("--table", action="store_true")
    args = p.parse_args(argv)
    if not (args.write_reference or args.table or args.workload):
        p.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main() -> int:
    args = parse_args()
    # Before numpy is first imported, so that BLAS starts single-threaded.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    _import_package()
    if args.probe_setup:
        _setup(args.workload, args.seed)
        print(READY, flush=True)
        return 0
    if args.write_reference:
        return write_references(args.seed)
    if args.table:
        import table

        return table.main()
    return main_run(args)


if __name__ == "__main__":
    sys.exit(main())
