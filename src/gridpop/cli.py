"""Command-line front end: run simulations, validate configs, export defaults.

Flags override config-file values, which override the built-in defaults.
Exit code 0 on success; 1 with a diagnostic on configuration, data or I/O
errors; 2 on bad command lines (argparse).
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .engine import (
    StepStatistics,
    build_initial_population,
    export_population,
    load_fertility_table,
    run_simulation,
    write_statistics,
)
from .params import (
    ConfigError,
    DataTables,
    ModelParameters,
    SimulationConfig,
    config_to_text,
    load_config,
)
from .population import collect_invariant_violations
from .stochastics import ClockSpec

logger = logging.getLogger(__name__)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gridpop",
                                     description="Agent-based demographic simulation on a town grid")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one simulation (or several replicates)")
    run_p.add_argument("--config", help="config file (key = value lines)")
    run_p.add_argument("--seed", type=int, help="RNG seed (replicates use seed..seed+R-1)")
    run_p.add_argument("--dt", help="clock: hourly|daily|weekly|monthly|custom:N")
    run_p.add_argument("--t0", type=int, help="start calendar year")
    run_p.add_argument("--tfinal", type=int, help="final calendar year")
    run_p.add_argument("--initial-pop", type=int, help="initial population size")
    run_p.add_argument("--fertility", help="fertility table file, or 'synthetic'")
    run_p.add_argument("--out", help="output directory")
    run_p.add_argument("--audit", action="store_true",
                       help="verify every invariant at every step (slow)")
    run_p.add_argument("--replicates", type=int, default=1,
                       help="number of replicate runs with consecutive seeds")

    val_p = sub.add_parser("validate", help="build the initial state and audit it")
    val_p.add_argument("--config", help="config file to validate")
    val_p.add_argument("--fertility", help="fertility table file, or 'synthetic'")

    exp_p = sub.add_parser("export-defaults", help="write the default config")
    exp_p.add_argument("--out", default="-", help="target file, or - for stdout")
    return parser


def _load(args) -> tuple[ModelParameters, SimulationConfig]:
    if args.config:
        params, config = load_config(args.config)
    else:
        params, config = ModelParameters(), SimulationConfig()
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "dt", None):
        try:
            overrides["clock"] = ClockSpec.parse(args.dt)
        except ValueError as err:
            raise ConfigError(f"bad value for --dt: {err}") from None
    if getattr(args, "t0", None) is not None:
        overrides["t0"] = args.t0
    if getattr(args, "tfinal", None) is not None:
        overrides["t_final"] = args.tfinal
    if getattr(args, "fertility", None):
        overrides["fertility"] = args.fertility
    if getattr(args, "out", None):
        overrides["output_dir"] = args.out
    if getattr(args, "audit", False):
        overrides["audit"] = True
    if overrides:
        config = replace(config, **overrides)
    if getattr(args, "initial_pop", None) is not None:
        params = replace(params, initial_pop=args.initial_pop)
    params.validate()
    config.validate()
    return params, config


def _cmd_run(args) -> int:
    params, config = _load(args)
    if args.replicates < 1:
        raise ConfigError("--replicates must be >= 1")
    tables = DataTables(fertility=load_fertility_table(config.fertility))
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    if args.replicates == 1:
        stats_path, pop_path = out_dir / "statistics.csv", out_dir / "population.txt"
        final = _run_and_write(config, params, tables, stats_path, pop_path)[-1]
        print(f"run complete: seed={config.seed} steps={config.total_steps} "
              f"alive={final.alive}")
        print(f"wrote {stats_path} and {pop_path}")
        return 0

    all_stats = []
    for i in range(args.replicates):
        rep_config = replace(config, seed=config.seed + i)
        all_stats.append(_run_and_write(rep_config, params, tables,
                                        out_dir / f"statistics_r{i:03d}.csv",
                                        out_dir / f"population_r{i:03d}.txt"))
        print(f"replicate {i} (seed {rep_config.seed}): "
              f"alive={all_stats[-1][-1].alive}")
    _write_replicate_summary(all_stats, out_dir / "summary.csv")
    print(f"wrote {args.replicates} replicate files and {out_dir / 'summary.csv'}")
    return 0


def _run_and_write(config: SimulationConfig, params: ModelParameters, tables: DataTables,
                   stats_path: Path, pop_path: Path) -> list[StepStatistics]:
    """Run once, write its statistics and population export, and return the
    statistics: the population is freed on return, so replicates hold one
    at a time."""
    result = run_simulation(config, params, tables)
    write_statistics(result.statistics, stats_path)
    export_population(result.store, result.space, pop_path)
    return result.statistics


def _write_replicate_summary(all_stats, path: Path) -> None:
    """Per-step mean and variance of every statistics column across replicates."""
    columns = StepStatistics._fields[1:]  # all but time
    header = "time," + ",".join(f"{c}_mean,{c}_var" for c in columns)
    n_rows = min(len(s) for s in all_stats)
    ddof = 1 if len(all_stats) > 1 else 0
    lines = [header]
    for row in range(n_rows):
        t = all_stats[0][row].time
        cells = [f"{t:.6f}"]
        for col in columns:
            values = np.array([getattr(stats[row], col) for stats in all_stats], dtype=float)
            cells.append(f"{values.mean():.6g}")
            cells.append(f"{values.var(ddof=ddof):.6g}")
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")


def _cmd_validate(args) -> int:
    params, config = _load(args)
    tables = DataTables(fertility=load_fertility_table(config.fertility))
    tables.validate()
    store, space, _ = build_initial_population(config, params)
    problems = collect_invariant_violations(store, space)
    if problems:
        print(f"INVALID: {len(problems)} invariant violations", file=sys.stderr)
        for p in problems[:20]:
            print(f"  {p}", file=sys.stderr)
        return 1
    print(f"valid: {store.alive_count} persons in {space.house_count} houses, "
          f"all invariants hold")
    return 0


def _cmd_export_defaults(args) -> int:
    text = config_to_text(ModelParameters(), SimulationConfig())
    if args.out == "-":
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    return 0


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "validate":
            return _cmd_validate(args)
        if args.command == "export-defaults":
            return _cmd_export_defaults(args)
        parser.error(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2


if __name__ == "__main__":
    sys.exit(main())
