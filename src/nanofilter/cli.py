"""Command-line front end for the benchmark harness.

Subcommands::

    run    one scenario, one or more filters -> trials.csv + summary.txt
    sweep  one mismatch kind over its level grid -> sweep.csv
    ablate update-variant comparison on all benchmarks -> ablation.csv/.txt
    list   registered models, filters, sigma-point rules

Settings resolve as: built-in defaults < config file (``--config``) < explicit
command-line flags.  The config file is plain ``key = value`` text with
optional ``[section]`` headers acting as dotted-key prefixes, e.g.::

    model = duffing
    filter = nano,ekf
    [mismatch]
    kind = system
    level = 0.1

Exit codes: 0 success, 2 configuration/usage error, 1 runtime failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .bench import (
    ablate,
    emit_ablation,
    emit_report,
    emit_sweep,
    run_monte_carlo,
    sweep_mismatch,
)
from .errors import EstimationError, ModelNotLinear, UnknownLevel, UnknownScenario
from .filters import FILTER_IDS
from .scenarios import MISMATCH_KINDS, MODEL_IDS, OUTLIER_GRID, SYSTEM_ERROR_GRID, ScenarioConfig


class ConfigError(Exception):
    """Bad config file or flag combination; reported with exit code 2."""


# Recognized config keys and their value parsers.
_KEY_TYPES = {
    "model": str,
    "mismatch.kind": str,
    "mismatch.level": float,
    "horizon": int,
    "trials": int,
    "seed": int,
    "mm": str,
    "filter": str,
}


def parse_config_file(path) -> dict:
    """Parse ``key = value`` lines into a typed settings dict."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    settings: dict = {}
    prefix = ""
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            prefix = line[1:-1].strip()
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        full = f"{prefix}.{key}" if prefix else key
        if full not in _KEY_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown config key {full!r}")
        try:
            settings[full] = _KEY_TYPES[full](value.strip())
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {full!r}: {exc}") from exc
    return settings


def _merge_settings(args, keys: dict) -> dict:
    """Config-file settings overridden by explicitly given CLI flags."""
    settings = parse_config_file(args.config) if getattr(args, "config", None) else {}
    for key, attr in keys.items():
        value = getattr(args, attr, None)
        if value is not None:
            settings[key] = value
    return settings


def _scenario_from(settings: dict) -> ScenarioConfig:
    model = settings.get("model")
    if model is None:
        raise ConfigError("a model is required (--model or config file)")
    return ScenarioConfig(
        model=model,
        mismatch_kind=settings.get("mismatch.kind", "none"),
        mismatch_level=settings.get("mismatch.level", 0.0),
        horizon=settings.get("horizon", 200),
        trials=settings.get("trials", 100),
        seed=settings.get("seed", 0),
        mm=settings.get("mm", "cubature"),
    )


def _filters_from(settings: dict, default: str = "nano") -> tuple[str, ...]:
    names = tuple(f.strip() for f in settings.get("filter", default).split(",") if f.strip())
    if not names:
        raise ConfigError("empty filter list")
    for name in names:
        if name not in FILTER_IDS:
            raise ConfigError(f"unknown filter {name!r}; expected one of {FILTER_IDS}")
    return names


_RUN_KEYS = {
    "model": "model",
    "mismatch.kind": "mismatch",
    "mismatch.level": "level",
    "horizon": "horizon",
    "trials": "trials",
    "seed": "seed",
    "mm": "mm",
    "filter": "filter",
}


def _cmd_run(args) -> int:
    settings = _merge_settings(args, _RUN_KEYS)
    cfg = _scenario_from(settings)
    filters = _filters_from(settings)
    report = run_monte_carlo(cfg, filters)
    for path in emit_report(report, args.out, include_timing=args.timing):
        print(f"wrote {path}")
    for stats in report.summary():
        print(
            f"{stats.filter_id}: mean_rmse={stats.mean_rmse:.6g} "
            f"divergences={stats.divergences}/{stats.trials}"
        )
    return 0


def _cmd_sweep(args) -> int:
    settings = _merge_settings(args, _RUN_KEYS)
    settings.pop("mismatch.level", None)   # levels come from --levels / the grid
    kind = settings.pop("mismatch.kind", None)
    if kind is None:
        raise ConfigError("sweep requires --mismatch system|outlier")
    if kind not in ("system", "outlier"):
        raise ConfigError(f"sweep mismatch kind must be 'system' or 'outlier', got {kind!r}")
    cfg = _scenario_from(settings)
    grid = SYSTEM_ERROR_GRID[cfg.model] if kind == "system" else OUTLIER_GRID[cfg.model]
    if args.levels is not None:
        try:
            levels = tuple(float(v) for v in args.levels.split(","))
        except ValueError as exc:
            raise ConfigError(f"bad --levels: {exc}") from exc
    else:
        levels = grid
    table = sweep_mismatch(cfg, kind, levels, _filters_from(settings))
    for path in emit_sweep(table, args.out):
        print(f"wrote {path}")
    return 0


def _cmd_ablate(args) -> int:
    models = tuple(m.strip() for m in args.models.split(",") if m.strip())
    for model in models:
        if model not in MODEL_IDS:
            raise ConfigError(f"unknown model {model!r}; expected one of {MODEL_IDS}")
    table = ablate(models=models, trials=args.trials, horizon=args.horizon,
                   seed=args.seed, mm=args.mm)
    paths = emit_ablation(table, args.out)
    for path in paths:
        print(f"wrote {path}")
    print(paths[1].read_text(), end="")
    return 0


def _cmd_list(args) -> int:
    print("models: " + ", ".join(MODEL_IDS))
    print("filters: " + ", ".join(FILTER_IDS))
    print("mm rules: cubature, unscented, gh:<p> (p = 2..10 points per axis)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nanobench", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command")

    def add_common(p, with_mismatch=True):
        p.add_argument("--model", choices=MODEL_IDS)
        p.add_argument("--filter", help="comma-separated filter ids")
        p.add_argument("--trials", type=int)
        p.add_argument("--horizon", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--mm", help="cubature | unscented | gh:<p>")
        if with_mismatch:
            p.add_argument("--mismatch", choices=MISMATCH_KINDS)
        p.add_argument("--config", help="config file path")
        p.add_argument("--out", default="bench_out", help="output directory")

    p_run = sub.add_parser("run", help="run one scenario")
    add_common(p_run)
    p_run.add_argument("--level", type=float, help="mismatch level from the model's grid")
    p_run.add_argument("--timing", action="store_true",
                       help="include wall-clock update times in the outputs "
                            "(disabled by default so outputs are reproducible)")
    p_run.set_defaults(handler=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="sweep a mismatch level grid")
    add_common(p_sweep)
    p_sweep.add_argument("--levels", help="comma-separated levels (default: the full grid)")
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_ablate = sub.add_parser("ablate", help="compare natural-gradient update variants")
    p_ablate.add_argument("--models", default=",".join(MODEL_IDS))
    p_ablate.add_argument("--trials", type=int, default=100)
    p_ablate.add_argument("--horizon", type=int, default=200)
    p_ablate.add_argument("--seed", type=int, default=0)
    p_ablate.add_argument("--mm", default="cubature")
    p_ablate.add_argument("--out", default="bench_out")
    p_ablate.set_defaults(handler=_cmd_ablate)

    p_list = sub.add_parser("list", help="list models, filters and rules")
    p_list.set_defaults(handler=_cmd_list)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:      # argparse handles --help and usage errors
        return int(exc.code or 0)
    if getattr(args, "command", None) is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.handler(args)
    except (ConfigError, ModelNotLinear, UnknownScenario, UnknownLevel, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except EstimationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main_entry() -> None:
    raise SystemExit(main(sys.argv[1:]))
