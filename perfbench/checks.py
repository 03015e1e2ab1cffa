"""Output checks, read back from the CSV files each CLI call exported.

Every check is counted: ``Tally.attempted`` grows by one per check and
``Tally.failed`` by one per check that does not hold, so the benchmark's
``failed_ratio`` is failed / attempted. The checks use only the files and the
vessel constants the workload wrote into its configs.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

from workloads import VESSEL, Call

AUDIT_TOL_WH = 1e-6       # the audit residual is about 1e-10 Wh today
DISTANCE_RTOL = 1e-12     # distance_m is the running sum of u, times dt
SERIES_RTOL = 1e-9        # distance_series sums in numpy order, not the loop's
FLOOR_FREE = ("ilc", "mpc")  # constant-constrained may latch the floor, so it is exempt


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok


def _rows(path: Path) -> tuple[list[str], list[list[str]]]:
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _floats(rows: list[list[str]], start: int = 0) -> list[list[float]]:
    return [[float(x) for x in row[start:]] for row in rows]


def _finite(table: list[list[float]]) -> bool:
    return all(math.isfinite(x) for row in table for x in row)


def check_files(call: Call, exit_code: int | None, tally: Tally) -> bool:
    """The call exited 0 and wrote every file it should have."""
    tag = f"{call.command} {call.config.name}"
    tally.check(exit_code == 0, f"{tag}: exit code {exit_code}")
    missing = [f for f in call.files if not (call.output / f).is_file()]
    return tally.check(not missing, f"{tag}: missing {missing}")


def check_content(call: Call, tally: Tally) -> dict[str, float]:
    """Check the numbers in one call's exported files.

    Returns facts later checks and the report use: per-strategy distance and,
    for a run, its floor energy and audit residual.
    """
    tag = f"{call.command} {call.config.name}"
    try:
        if call.command == "run":
            return _check_run(call, tally, tag)
        return _check_compare(call, tally, tag)
    except (ValueError, IndexError, KeyError, StopIteration) as exc:
        tally.check(False, f"{tag}: unreadable output ({exc!r})")
        return {}


def _check_run(call: Call, tally: Tally, tag: str) -> dict[str, float]:
    s_header, s_rows = _rows(call.output / "summary.csv")
    summary = dict(zip(s_header, s_rows[0]))
    strategy = summary["strategy"]
    numbers = {k: float(v) for k, v in summary.items()
               if k not in ("strategy", "battery_failed")}
    dt = numbers["dt_s"]
    dtf = dt / 3600.0
    k_h, k_m = VESSEL["k_h"], VESSEL["k_m"]
    b_min, b_max = VESSEL["b_min"], VESSEL["b_max"]

    # One streaming pass, so the check adds no trace-sized memory to the peak.
    # Each row's SOC must be the previous row's plus one clamped Euler step;
    # the clamps are re-counted into the floor and curtailment ledgers.
    rows = finite = 0
    net = sum_u = floor = curtailed = step_residual = 0.0
    b = numbers["initial_soc_wh"]
    with (call.output / "trace.csv").open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        col = {name: i for i, name in enumerate(next(reader))}
        soc, vel, p_in = col["soc_wh"], col["velocity_ms"], col["p_in_w"]
        for row in reader:
            values = [float(x) for x in row]
            rows += 1
            finite += all(math.isfinite(x) for x in values)
            u = values[vel]
            step = (values[p_in] - k_h - k_m * u * u * u) * dtf
            net += step
            sum_u += u
            raw = b + step
            if raw < b_min:
                floor += b_min - raw
                raw = b_min
            elif raw > b_max:
                curtailed += raw - b_max
                raw = b_max
            b = values[soc]
            step_residual = max(step_residual, abs(b - raw))

    tally.check(strategy == call.strategies[0], f"{tag}: strategy {strategy}")
    tally.check(rows == call.steps and numbers["steps"] == call.steps,
                f"{tag}: {rows} trace rows, summary says {numbers['steps']:g}, "
                f"expected {call.steps}")
    tally.check(finite == rows and all(math.isfinite(v) for v in numbers.values()),
                f"{tag}: non-finite value")

    terminal = numbers["terminal_soc_wh"]
    residual = max(
        abs(numbers["initial_soc_wh"] + net + numbers["floor_added_wh"]
            - numbers["curtailed_wh"] - terminal),
        abs(floor - numbers["floor_added_wh"]),
        abs(curtailed - numbers["curtailed_wh"]),
        step_residual,
    )
    tally.check(residual <= AUDIT_TOL_WH and terminal == b,
                f"{tag}: energy audit residual {residual:.3g} Wh, terminal "
                f"{terminal!r}, last trace SOC {b!r}")

    distance = numbers["distance_m"]
    tally.check(abs(distance - sum_u * dt) <= DISTANCE_RTOL * max(1.0, abs(distance)),
                f"{tag}: distance {distance!r} != sum(u)*dt {sum_u * dt!r}")

    floor_wh = numbers["floor_added_wh"]
    if strategy in FLOOR_FREE:
        tally.check(floor_wh == 0.0 and summary["battery_failed"] == "false",
                    f"{tag}: {strategy} touched the floor ({floor_wh:.3g} Wh added)")
    return {f"distance.{strategy}": distance, f"floor_wh.{strategy}": floor_wh,
            f"audit_wh.{strategy}": residual}


def _check_compare(call: Call, tally: Tally, tag: str) -> dict[str, float]:
    _, rows = _rows(call.output / "comparison.csv")
    s_header, s_rows = _rows(call.output / "distance_series.csv")
    names = tuple(r[0] for r in rows)
    values = _floats(rows, start=1)
    series = _floats(s_rows)
    days = call.steps * call.dt / 86400.0
    tally.check(names == call.strategies, f"{tag}: strategies {names}")
    tally.check(len(series) == int(days) and len(s_header) == len(names) + 1,
                f"{tag}: distance_series has {len(series)} days, expected {int(days)}")
    tally.check(_finite(values) and _finite(series), f"{tag}: non-finite value")
    ok = bool(series) and all(
        abs(series[-1][i + 1] - v[0]) <= SERIES_RTOL * max(1.0, abs(v[0]))
        for i, v in enumerate(values)
    )
    tally.check(ok, f"{tag}: last distance_series row disagrees with comparison.csv")
    return {f"distance.{name}": v[0] for name, v in zip(names, values)}


def check_cross(facts: list[dict[str, float]], tally: Tally) -> None:
    """A strategy run twice on the same inputs must cover the same distance."""
    seen: dict[str, float] = {}
    for fact in facts:
        for key, value in fact.items():
            if not key.startswith("distance."):
                continue
            if key in seen:
                tally.check(seen[key] == value,
                            f"{key[9:]}: distance {value!r} differs from {seen[key]!r}")
            seen[key] = value


def digest(path: Path) -> str:
    """SHA-256 of a CSV with its wall_time_s column removed.

    Wall time is the only field that differs between two runs of the same
    inputs, so equal digests mean bitwise-equal simulated numbers.
    """
    data = path.read_bytes()
    columns = data.partition(b"\n")[0].split(b",")
    if b"wall_time_s" in columns:
        drop = columns.index(b"wall_time_s")
        data = b"\n".join(
            b",".join(f[:drop] + f[drop + 1:])
            for f in (line.split(b",") for line in data.split(b"\n"))
        )
    return hashlib.sha256(data).hexdigest()


def digests(calls: list[Call]) -> dict[str, str]:
    """Digest of every file the calls exported, keyed 'cfg stem/file name'."""
    return {
        f"{call.output.name}/{name}": digest(call.output / name)
        for call in calls
        for name in call.files
        if (call.output / name).is_file()
    }
