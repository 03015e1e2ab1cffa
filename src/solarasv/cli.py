"""Command-line entry point.

    solarasv run --config mission.cfg [--output DIR]
    solarasv compare --config mission.cfg [--output DIR]
    solarasv barriers --config mission.cfg [--output DIR]

``run`` simulates one mission and writes trace.csv, iterations.csv,
summary.csv and daily.csv. ``compare`` runs every strategy in
sim.strategies over the shared source and writes comparison.csv and
distance_series.csv. ``barriers`` only builds the tightened-SOC envelope and
writes envelope.csv. All outputs land in sim.output_dir unless --output
overrides it.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .barrier import write_envelope_csv
from .config import ConfigError, load_compare_configs, load_sim_config
from .harness import (
    build_input_profile,
    build_mission_envelope,
    compare_strategies,
    export_comparison,
    export_traces,
    run_mission,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="solarasv",
        description="Energy-aware velocity planning for a solar surface vessel",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "simulate one mission and export traces"),
        ("compare", "run the strategies in sim.strategies and collate results"),
        ("barriers", "export the tightened-SOC envelope"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="key=value config file")
        cmd.add_argument("--output", default=None, help="override sim.output_dir")
    return parser


def _cmd_run(config: str, output: str | None) -> int:
    cfg = load_sim_config(config)
    if output is not None:
        cfg = replace(cfg, output_dir=output)
    result = run_mission(cfg)
    written = export_traces(result, cfg.output_dir)
    print(
        f"strategy={result.strategy} distance_m={result.distance:.1f} "
        f"terminal_soc_wh={result.terminal_soc:.1f} violation={result.violation:.3g} "
        f"wall_time_s={result.wall_time:.2f}"
    )
    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_compare(config: str, output: str | None) -> int:
    cfgs = load_compare_configs(config)
    if output is not None:
        cfgs = [replace(c, output_dir=output) for c in cfgs]
    comp = compare_strategies(cfgs)
    width = max(len(r.strategy) for r in comp.rows)
    print(
        f"{'strategy'.ljust(width)}  {'distance_m':>14}  {'terminal_soc_wh':>16}  "
        f"{'violation':>12}  {'wall_s':>8}"
    )
    for row in comp.rows:
        print(
            f"{row.strategy.ljust(width)}  {row.distance_m:>14.1f}  "
            f"{row.terminal_soc_wh:>16.1f}  {row.violation:>12.4g}  "
            f"{row.wall_time_s:>8.2f}"
        )
    for path in export_comparison(comp, cfgs[0].output_dir):
        print(f"wrote {path}")
    return 0


def _cmd_barriers(config: str, output: str | None) -> int:
    cfg = load_sim_config(config)
    if output is not None:
        cfg = replace(cfg, output_dir=output)
    profile = build_input_profile(cfg)
    env = build_mission_envelope(cfg, profile)
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    target = out_dir / "envelope.csv"
    write_envelope_csv(env, target)
    print(
        f"mode={cfg.barrier_mode} grid_points={env.times.size} "
        f"max_b_l_wh={float(env.lower.max()):.1f} min_b_u_wh={float(env.upper.min()):.1f}"
    )
    print(f"wrote {target}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args.config, args.output)
        if args.command == "compare":
            return _cmd_compare(args.config, args.output)
        return _cmd_barriers(args.config, args.output)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
