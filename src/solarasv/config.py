"""Mission configuration: the config objects and the flat key=value files.

:class:`SimConfig` holds one mission's settings (the solar source, the
vessel, the strategy and its gains) and checks them when it is built, the
way :class:`~solarasv.vessel.VesselParams` and
:class:`~solarasv.benchmark.MpcConfig` do: one :class:`ConfigError` lists
every problem. So any SimConfig that exists is valid, and neither the
loaders nor the harness check one again.

File format: one ``section.key = value`` assignment per line, ``#`` starts a
comment line, blank lines are ignored. ``_KEYS`` lists every key with the
function its text converts through; keys are namespaced by module:

    vessel.<field>                          every field of VesselParams
    solar.source (idealized | file)
    solar.d0 solar.d1 solar.period          idealized constants
    solar.table                             CSV of per-day rows day,d0,d1
    solar.file solar.scale solar.interpolation solar.periodic
    barrier.mode (horizon | periodic-day)
    controller.<field>                      every field of IlcSettings,
                                            b_des as a number or cycle-start
    mpc.<field>                             every field of MpcConfig
    sim.dt sim.mission_length sim.initial_soc sim.strategy sim.strategies
    sim.rng_seed sim.noise_std sim.output_dir

Each section's dataclass is built from the keys the file sets, so every
other field keeps its dataclass default. The loader itself supplies only
the defaults no field holds: solar.source = idealized, solar.periodic =
false and a period of DAY_S for a periodic log.

Unknown and duplicate keys are reported together by line number. Then the
file's value problems are reported together by key: every value its
converter rejects, every solar key the selected source does not read, a
missing solar.file and every rule the vessel.* and mpc.* keys break.
solar.d0, solar.d1 and solar.table belong to the idealized source, which
ignores solar.d0 and solar.d1 under a table;
solar.file, solar.scale, solar.interpolation and solar.periodic belong to
the file source, which reads solar.period only when solar.periodic is true.
A compare file lists at least two known strategies in sim.strategies, none
twice, and sets no sim.strategy; a single-run file sets no sim.strategies.
Relative paths (solar.file, solar.table, sim.output_dir) resolve against the
config file's directory.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, get_type_hints

from .barrier import MODES as BARRIER_MODES
from .benchmark import MpcConfig
from .controller import IlcSettings
from .solar import (
    NOT_FINITE, FileSource, IdealizedSource, broken_rules, integer_rule, read_rows,
    whole_steps,
)
from .vessel import VesselParams

STRATEGIES = ("ilc", "constant-unconstrained", "constant-constrained", "mpc")
DAY_S = 86400.0


class ConfigError(ValueError):
    """Raised when a SimConfig fails validation; message lists every failure."""


def _raise_problems(problems: list[str]) -> None:
    """Raise one ConfigError that lists every problem; do nothing if none."""
    if problems:
        raise ConfigError("invalid configuration:\n  " + "\n  ".join(problems))


def _keyed(section: str, pairs: list[tuple[str, str]]) -> list[str]:
    """Each (field, reason) pair as its 'section.field: reason' line."""
    return [f"{section}.{name}: {why}" for name, why in pairs]


@dataclass(frozen=True)
class SimConfig:
    """One mission's settings; raises ConfigError listing every problem when built."""

    mission_length: float = 31_536_000.0  # s (365 days)
    dt: float = 360.0
    initial_soc: float = 3250.0
    strategy: str = "ilc"
    solar: IdealizedSource | FileSource = field(default_factory=IdealizedSource)
    barrier_mode: str = "periodic-day"
    rng_seed: int = 0
    noise_std: float = 0.0
    output_dir: str = "out"
    vessel: VesselParams = field(default_factory=VesselParams)
    ilc: IlcSettings = field(default_factory=IlcSettings)
    mpc: MpcConfig = field(default_factory=MpcConfig)

    def __post_init__(self) -> None:
        _raise_problems(self._problems())

    def _problems(self) -> list[str]:
        """Every 'config.key: problem' string for these settings; [] if valid.

        A vessel or mpc the loader built unchecked names each rule it breaks
        as ``vessel.<field>`` or ``mpc.<field>``, and no rule that reads its
        values is checked then; every other rule still is. The sim.* fields'
        own rules go through the rule loop. A rule that reads several fields
        is checked only when the sim.* fields among them have no problem of
        their own.
        """
        dt, length, soc, noise = self.dt, self.mission_length, self.initial_soc, self.noise_std
        strategy, mode, source = self.strategy, self.barrier_mode, self.solar
        vessel, mpc = self.vessel.problems(), self.mpc.problems()
        p = None if vessel else self.vessel
        outside = f"{soc} outside battery window [{self.vessel.b_min}, {self.vessel.b_max}]"
        rules = (
            ("dt", dt > 0, "must be > 0"),
            ("mission_length", length > 0, "must be > 0"),
            ("initial_soc", p is None or p.b_min <= soc <= p.b_max, outside),
            ("strategy", strategy in STRATEGIES, f"{strategy!r} not one of {STRATEGIES}"),
            ("noise_std", noise >= 0, "must be >= 0"),
            integer_rule("rng_seed", self.rng_seed, 0),
        )
        floats = dict(dt=dt, mission_length=length, initial_soc=soc, noise_std=noise)
        own = broken_rules(floats, rules)
        errors = _keyed("vessel", vessel) + _keyed("mpc", mpc) + _keyed("sim", own)
        bad = {name for name, _ in own}
        if mode not in BARRIER_MODES:
            errors.append(f"barrier.mode: {mode!r} not one of {BARRIER_MODES}")
        elif mode == "periodic-day" and not source.periodic:
            errors.append(
                "barrier.mode: periodic-day repeats one period of the solar source, "
                "but a solar.table or a log without solar.periodic has none; use horizon"
            )
        elif mode == "periodic-day" and "dt" not in bad and 0 < source.period <= dt:
            errors.append(
                "barrier.mode: periodic-day needs sim.dt below the solar source's "
                f"period ({source.period} s); use horizon or a smaller sim.dt"
            )
        if "dt" not in bad:  # finite and > 0, so the step count rules can divide by it
            if "mission_length" not in bad and whole_steps(length, dt) is None:
                errors.append("sim.mission_length: must be a positive multiple of sim.dt")
            if strategy == "ilc" and whole_steps(DAY_S, dt) is None:
                errors.append("sim.dt: must divide 86400 s for the ilc strategy")
            horizon_ok = all(name != "horizon" for name, _ in mpc)
            if strategy == "mpc" and horizon_ok and whole_steps(self.mpc.horizon, dt) is None:
                errors.append("mpc.horizon: must be a positive multiple of sim.dt")
        # the learner's range rules hold under ilc only, but its settings are numbers
        errors += _keyed("controller", [
            (name, why) for name, why in self.ilc.problems(p)
            if strategy == "ilc" or why == NOT_FINITE
        ])
        solar = source.problems()
        if (
            isinstance(source, IdealizedSource)
            and not source.periodic
            and not solar
            and whole_steps(length, dt) is not None
        ):
            # the coverage rule of harness.tabulate_mission, on the table's profile
            end = source.table_steps(dt) * dt
            if end < length:
                errors.append(
                    f"solar.table: its days end at t={end} s, before "
                    f"sim.mission_length ({length} s)"
                )
        return errors + solar


def _field_keys(prefix: str, cls: type) -> dict[str, type]:
    """A ``prefix.<field>`` key for each field of dataclass cls, with its type."""
    return {f"{prefix}.{name}": kind for name, kind in get_type_hints(cls).items()}


_TRUE = ("true", "yes", "1")
_FALSE = ("false", "no", "0")


def _flag(text: str) -> bool:
    """true, yes or 1 as True; false, no or 0 as False (any case)."""
    if text.lower() not in _TRUE + _FALSE:
        raise ValueError(text)
    return text.lower() in _TRUE


def _b_des(text: str) -> float | None:
    """A fixed terminal SOC target in Wh, or None for cycle-start."""
    return None if text == "cycle-start" else float(text)


def _source(text: str) -> str:
    """The solar source kind: idealized or file."""
    if text not in ("idealized", "file"):
        raise ValueError(text)
    return text


# every key a file may set, with the function its text converts through
_KEYS: dict[str, Callable[[str], object]] = {
    **_field_keys("vessel", VesselParams),
    "solar.source": _source,
    "solar.d0": float,
    "solar.d1": float,
    "solar.period": float,
    "solar.table": str,
    "solar.file": str,
    "solar.scale": float,
    "solar.interpolation": str,
    "solar.periodic": _flag,
    "barrier.mode": str,
    **_field_keys("controller", IlcSettings),
    "controller.b_des": _b_des,
    **_field_keys("mpc", MpcConfig),
    "sim.dt": float,
    "sim.mission_length": float,
    "sim.initial_soc": float,
    "sim.strategy": str,
    "sim.strategies": str,
    "sim.rng_seed": int,
    "sim.noise_std": float,
    "sim.output_dir": str,
}
# what each converter that can fail expects, for its error message
_EXPECTED = {
    float: "a number",
    int: "an integer",
    _flag: f"one of {_TRUE + _FALSE}",
    _b_des: "a number or 'cycle-start'",
    _source: "'idealized' or 'file'",
}
# keys only one solar source reads; setting them under the other is an error
_IDEALIZED_KEYS = ("solar.d0", "solar.d1", "solar.table")
_FILE_KEYS = ("solar.file", "solar.scale", "solar.interpolation", "solar.periodic")


def parse_kv_file(path: str | Path) -> dict[str, str]:
    """Read the flat key=value format into a dict, validating key names."""
    p = Path(path)
    values: dict[str, str] = {}
    problems: list[str] = []
    with p.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                problems.append(f"line {lineno}: expected 'key = value'")
                continue
            key, _, value = stripped.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in _KEYS:
                problems.append(f"line {lineno}: unknown key {key!r}")
                continue
            if key in values:
                problems.append(f"line {lineno}: duplicate key {key!r}")
                continue
            values[key] = value
    if problems:
        raise ConfigError(f"{p}:\n  " + "\n  ".join(problems))
    return values


def _typed(values: dict[str, str], problems: list[str]) -> dict[str, object]:
    """Each value through its key's converter; a rejected one becomes a problem."""
    out: dict[str, object] = {}
    for key, raw in values.items():
        convert = _KEYS[key]
        try:
            out[key] = convert(raw)
        except ValueError:
            problems.append(f"{key}: expected {_EXPECTED[convert]}, got {raw!r}")
    return out


def _load_day_table(path: Path) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """(d0 by day, d1 by day) from a day table's rows day,d0,d1."""
    try:
        days, d0s, d1s = read_rows(path, "day,d0,d1")
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    for i, day in enumerate(days.tolist()):
        if day != i:
            raise ConfigError(
                f"{path}: data row {i + 1}: day indices must run 0,1,2,... "
                f"(got {day:g}, expected {i})"
            )
    return tuple(d0s.tolist()), tuple(d1s.tolist())


def _reject_keys(v: dict[str, object], keys: tuple[str, ...], condition: str) -> None:
    _raise_problems([f"{key}: only read when {condition}" for key in keys if key in v])


def _section(v: dict[str, object], prefix: str, *names: str) -> dict[str, object]:
    """Keyword arguments for the ``prefix.name`` keys among ``names`` that v sets."""
    return {name: v[f"{prefix}.{name}"] for name in names if f"{prefix}.{name}" in v}


def _unchecked(cls: type, v: dict[str, object], prefix: str):
    """Dataclass ``cls`` from the ``prefix.<field>`` keys v sets, unchecked.

    Its own checks are skipped, so its ``problems()`` can name every rule the
    values break; the SimConfig built from it reports them, or refuses it.
    Every field of ``cls`` has a plain default.
    """
    obj = object.__new__(cls)
    for f in fields(cls):
        object.__setattr__(obj, f.name, v.get(f"{prefix}.{f.name}", f.default))
    return obj


def build_sim_config(values: dict[str, str], base_dir: Path) -> SimConfig:
    """Assemble the SimConfig that parsed key=value strings describe.

    A field whose key ``values`` does not set keeps its dataclass default;
    sim.output_dir resolves against ``base_dir``. Raises ConfigError.
    """
    problems: list[str] = []
    v = _typed(values, problems)
    file_source = v.get("solar.source") == "file"
    periodic = v.get("solar.periodic", False)
    if file_source:
        unread = [(key, "solar.source = idealized") for key in _IDEALIZED_KEYS]
        if not periodic:
            unread.append(("solar.period", "solar.periodic = true"))
        if "solar.file" not in v:
            problems.append("solar.file: required when solar.source = file")
    else:
        unread = [(key, "solar.source = file") for key in _FILE_KEYS]
        if "solar.table" in v:
            unread += [(key, "there is no solar.table") for key in ("solar.d0", "solar.d1")]
    problems += [f"{key}: only read when {when}" for key, when in unread if key in values]
    vessel = _unchecked(VesselParams, v, "vessel")
    ilc = _unchecked(IlcSettings, v, "controller")
    mpc = _unchecked(MpcConfig, v, "mpc")
    if problems:  # no solar source to build; the vessel and mpc rules join these
        _raise_problems(problems + _keyed("vessel", vessel.problems())
                        + _keyed("mpc", mpc.problems()))

    solar: IdealizedSource | FileSource
    if file_source:
        solar = FileSource(
            path=str((base_dir / v["solar.file"]).resolve()),
            period=v.get("solar.period", DAY_S) if periodic else None,
            **_section(v, "solar", "scale", "interpolation"),
        )
    else:
        d0_by_day = d1_by_day = None
        if "solar.table" in v:
            table_path = (base_dir / v["solar.table"]).resolve()
            d0_by_day, d1_by_day = _load_day_table(table_path)
        solar = IdealizedSource(
            **_section(v, "solar", "d0", "d1", "period"),
            d0_by_day=d0_by_day,
            d1_by_day=d1_by_day,
        )

    sim = _section(v, "sim", *(f.name for f in fields(SimConfig)))
    sim["output_dir"] = str(base_dir / sim.get("output_dir", SimConfig.output_dir))
    if "barrier.mode" in v:
        sim["barrier_mode"] = v["barrier.mode"]
    return SimConfig(solar=solar, vessel=vessel, ilc=ilc, mpc=mpc, **sim)


def load_sim_config(path: str | Path) -> SimConfig:
    """Parse a config file into a single-run SimConfig.

    A file that sets sim.strategies is a compare file, and one mission run
    from it would silently ignore the list, so it is rejected.
    """
    p = Path(path)
    values = parse_kv_file(p)
    _reject_keys(values, ("sim.strategies",), "solarasv compare runs the file")
    return build_sim_config(values, p.parent.resolve())


def load_compare_configs(path: str | Path) -> list[SimConfig]:
    """Parse a config file into one SimConfig per entry in sim.strategies."""
    p = Path(path)
    values = parse_kv_file(p)
    _reject_keys(values, ("sim.strategy",), "one strategy runs, not a compare")
    raw = values.get("sim.strategies", "")
    names = [s.strip() for s in raw.split(",") if s.strip()]
    if len(names) < 2:
        raise ConfigError(
            "sim.strategies: compare needs a comma-separated list of at least "
            "two strategies"
        )
    problems = [
        f"sim.strategies: {s!r} not one of {STRATEGIES}"
        for s in names if s not in STRATEGIES
    ]
    problems += [
        f"sim.strategies: {s!r} listed twice"
        for s in dict.fromkeys(names) if names.count(s) > 1
    ]
    _raise_problems(problems)
    base = build_sim_config({**values, "sim.strategy": names[0]}, p.parent.resolve())
    return [base] + [replace(base, strategy=s) for s in names[1:]]
