"""Seeded inputs for the benchmark workloads.

Each workload is a fixed sequence of ``solarasv`` CLI calls over inputs made
here from a seed: a per-day clear-sky table (``days.csv``, rows
``day,d0,d1``) and one ``.cfg`` file per call. The program under test sees
only these files. The same seed always writes the same bytes.

    python3 perfbench/workloads.py --workload year-run --seed 3 --out DIR

writes one workload's inputs into DIR and prints the CLI calls it expects.
"""

from __future__ import annotations

import argparse
import math
import random
from dataclasses import dataclass
from pathlib import Path

DAY_S = 86400
DT_S = 360
INITIAL_SOC_WH = 3250.0
SPELL_DAYS = 3       # length of one overcast spell
SPELL_BLOCK = 28     # one spell per four-week block ...
SPELL_SLACK = 21     # ... starting in its first three weeks, so spells never touch

# Vessel constants written into every config, so the output checks can redo
# the energy audit without importing the package.
VESSEL = {"k_h": 10.0, "k_m": 83.0, "b_min": 0.0, "b_max": 6500.0,
          "u_min": 0.0, "u_max": 2.315}

# Seeds whose horizon envelopes the self-tests confirm to be feasible.
DEFAULT_SEEDS = tuple(range(1, 11))


@dataclass(frozen=True)
class Call:
    """One CLI call of a workload and what its outputs must look like."""

    command: str                  # "run" or "compare"
    config: Path
    output: Path
    strategies: tuple[str, ...]   # one for run, the sim.strategies list for compare
    steps: int
    dt: float

    @property
    def argv(self) -> list[str]:
        return [self.command, "--config", str(self.config), "--output", str(self.output)]

    @property
    def files(self) -> tuple[str, ...]:
        if self.command == "run":
            return ("trace.csv", "iterations.csv", "summary.csv", "daily.csv")
        return ("comparison.csv", "distance_series.csv")


@dataclass(frozen=True)
class Spec:
    """A workload at its stated size: days simulated and its CLI calls."""

    days: int
    calls: tuple[tuple[str, str, tuple[str, ...]], ...]  # (command, cfg name, strategies)
    mpc: dict[str, float] | None = None
    why: str = ""


WORKLOADS: dict[str, Spec] = {
    "year-run": Spec(
        days=365,
        calls=(
            ("run", "run.cfg", ("ilc",)),
            ("compare", "compare.cfg",
             ("ilc", "constant-constrained", "constant-unconstrained")),
        ),
        why="harness loop and CSV export do the work; the MPC is never called",
    ),
    "mpc-day-ahead": Spec(
        days=3,
        calls=(("run", "run.cfg", ("mpc",)),),
        mpc={"horizon": DAY_S, "soc_grid": 3251, "u_grid": 48,
             "terminal_reward_slope": 5.1, "replan_interval": 240},
        why="few plans on the large 3251x48 lattice; the DP stage kernel decides wall time",
    ),
    "mpc-every-step": Spec(
        days=2,
        calls=(("run", "run.cfg", ("mpc",)),),
        mpc={"horizon": DAY_S // 2, "soc_grid": 131, "u_grid": 24,
             "terminal_reward_slope": 5.1, "replan_interval": 1},
        why="480 small plans; per-plan set-up and numpy dispatch dominate",
    ),
}

# Same calls on a few days and small lattices, for the self-tests.
TINY_DAYS = {"year-run": 4, "mpc-day-ahead": 2, "mpc-every-step": 1}
TINY_MPC = {"soc_grid": 41, "u_grid": 8}


def day_table(days: int, seed: int) -> list[tuple[float, float]]:
    """Seasonal (d0, d1) per day with seeded jitter and 3-day overcast spells.

    d0 follows the year fixture's cosine (330 +- 30 W); each day is scaled by
    a seeded factor in [0.97, 1.03], and each four-week block holds one
    spell at a seeded offset whose days are scaled by a seeded factor in
    [0.5, 0.6]. Spells are at least a week apart, which keeps the horizon
    envelope feasible for every seed.
    """
    rng = random.Random(seed)
    rows = []
    for d in range(days):
        jitter = rng.uniform(0.97, 1.03)
        d0 = (330.0 + 30.0 * math.cos(2.0 * math.pi * d / 365.0)) * jitter
        rows.append([d0, 500.0 * jitter])
    for block in range(0, days, SPELL_BLOCK):
        start = block + rng.randrange(SPELL_SLACK)
        dim = rng.uniform(0.5, 0.6)
        for d in range(start, min(start + SPELL_DAYS, days)):
            rows[d][0] *= dim
            rows[d][1] *= dim
    return [(d0, d1) for d0, d1 in rows]


def _config_text(days: int, command: str, strategies: tuple[str, ...],
                 mpc: dict[str, float] | None) -> str:
    lines = [
        f"sim.mission_length = {days * DAY_S}",
        f"sim.dt = {DT_S}",
        f"sim.initial_soc = {INITIAL_SOC_WH!r}",
        "solar.table = days.csv",
        "barrier.mode = horizon",
        f"controller.b_des = {INITIAL_SOC_WH!r}",
    ]
    lines += [f"vessel.{k} = {v!r}" for k, v in VESSEL.items()]
    if command == "run":
        lines.append(f"sim.strategy = {strategies[0]}")
    else:
        lines.append(f"sim.strategies = {', '.join(strategies)}")
    if mpc is not None:
        lines += [f"mpc.{k} = {v!r}" for k, v in mpc.items()]
    return "\n".join(lines) + "\n"


def generate(workload: str, seed: int, out_dir: Path, tiny: bool = False) -> list[Call]:
    """Write the workload's day table and configs into out_dir.

    Returns the CLI calls in the order the workload makes them. Outputs go to
    ``out_dir/out/<cfg stem>``.
    """
    spec = WORKLOADS[workload]
    days = TINY_DAYS[workload] if tiny else spec.days
    mpc = dict(spec.mpc) if spec.mpc is not None else None
    if tiny and mpc is not None:
        mpc.update(TINY_MPC)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    table = "\n".join(
        f"{d},{d0!r},{d1!r}" for d, (d0, d1) in enumerate(day_table(days, seed))
    )
    (out_dir / "days.csv").write_text("# day,d0,d1\n" + table + "\n", encoding="utf-8")
    calls = []
    for command, cfg_name, strategies in spec.calls:
        cfg = out_dir / cfg_name
        cfg.write_text(_config_text(days, command, strategies, mpc), encoding="utf-8")
        calls.append(Call(command, cfg, out_dir / "out" / cfg.stem, strategies,
                          steps=days * DAY_S // DT_S, dt=float(DT_S)))
    return calls


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    for call in generate(args.workload, args.seed, args.out):
        print("solarasv " + " ".join(call.argv))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
