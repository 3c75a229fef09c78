"""Command-line front end for the benchmark harness.

Subcommands::

    run    one scenario, one or more filters -> trials.csv + summary.txt
    sweep  one mismatch kind over its level grid -> sweep.csv
    ablate update-variant comparison on all benchmarks -> ablation.csv/.txt
    list   registered models, filters, sigma-point rules

Settings resolve as: the :class:`ScenarioConfig` defaults < config file
(``--config``) < explicit command-line flags.  The config file is plain
``key = value`` text with optional ``[section]`` headers acting as dotted-key
prefixes, e.g.::

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
from .errors import EstimationError
from .filters import FILTER_IDS
from .scenarios import MISMATCH_KINDS, MODEL_IDS, ScenarioConfig, mismatch_grid


class ConfigError(ValueError):
    """Bad config file or flag combination; reported with exit code 2."""


# Recognized config keys: value parser and the command-line flag that sets it.
# A scenario key names its ScenarioConfig field with "." for "_".
_KEYS = {
    "model": (str, "model"),
    "mismatch.kind": (str, "mismatch"),
    "mismatch.level": (float, "level"),
    "horizon": (int, "horizon"),
    "trials": (int, "trials"),
    "seed": (int, "seed"),
    "mm": (str, "mm"),
    "filter": (str, "filter"),
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
        if full not in _KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {full!r}")
        try:
            settings[full] = _KEYS[full][0](value.strip())
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {full!r}: {exc}") from exc
    return settings


def _merge_settings(args) -> dict:
    """Config-file settings overridden by explicitly given CLI flags."""
    settings = parse_config_file(args.config) if getattr(args, "config", None) else {}
    for key, (_, attr) in _KEYS.items():
        value = getattr(args, attr, None)
        if value is not None:
            settings[key] = value
    return settings


def _scenario_fields(settings: dict) -> dict:
    """ScenarioConfig keyword arguments for the scenario keys that are set."""
    return {key.replace(".", "_"): value for key, value in settings.items() if key != "filter"}


def _scenario_from(settings: dict) -> ScenarioConfig:
    if "model" not in settings:
        raise ConfigError("a model is required (--model or config file)")
    return ScenarioConfig(**_scenario_fields(settings))


def _filters_from(settings: dict) -> tuple[str, ...]:
    names = tuple(f.strip() for f in settings.get("filter", "nano").split(",") if f.strip())
    if not names:
        raise ConfigError("empty filter list")
    for name in names:
        if name not in FILTER_IDS:
            raise ConfigError(f"unknown filter {name!r}; expected one of {FILTER_IDS}")
    return names


def _cmd_run(args) -> int:
    settings = _merge_settings(args)
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
    settings = _merge_settings(args)
    settings.pop("mismatch.level", None)   # levels come from --levels / the grid
    kind = settings.pop("mismatch.kind", None)
    if kind is None:
        raise ConfigError("sweep requires --mismatch system|outlier")
    if kind not in ("system", "outlier"):
        raise ConfigError(f"sweep mismatch kind must be 'system' or 'outlier', got {kind!r}")
    cfg = _scenario_from(settings)
    if args.levels is not None:
        try:
            levels = tuple(float(v) for v in args.levels.split(","))
        except ValueError as exc:
            raise ConfigError(f"bad --levels: {exc}") from exc
    else:
        levels = mismatch_grid(cfg.model, kind)
    reports = sweep_mismatch(cfg, kind, levels, _filters_from(settings))
    for path in emit_sweep(reports, args.out):
        print(f"wrote {path}")
    return 0


def _cmd_ablate(args) -> int:
    models = tuple(m.strip() for m in args.models.split(",") if m.strip())
    reports = ablate(models, **_scenario_fields(_merge_settings(args)))
    paths = emit_ablation(reports, args.out)
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

    def add_common(p):
        p.add_argument("--model", choices=MODEL_IDS)
        p.add_argument("--filter", help="comma-separated filter ids")
        p.add_argument("--trials", type=int)
        p.add_argument("--horizon", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--mm", help="cubature | unscented | gh:<p>")
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
    p_ablate.add_argument("--trials", type=int)
    p_ablate.add_argument("--horizon", type=int)
    p_ablate.add_argument("--seed", type=int)
    p_ablate.add_argument("--mm")
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
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, EstimationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main_entry() -> None:
    raise SystemExit(main(sys.argv[1:]))
