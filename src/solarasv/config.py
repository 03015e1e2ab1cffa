"""Mission configuration: the config objects and the flat key=value files.

:class:`SimConfig` holds one mission's settings (the solar source, the
vessel, the strategy and its gains) and checks them when it is built, the
way :class:`~solarasv.vessel.VesselParams` and
:class:`~solarasv.benchmark.MpcConfig` do: one :class:`ConfigError` lists
every problem. So any SimConfig that exists is valid, and neither the
loaders nor the harness check one again.

File format: one ``section.key = value`` assignment per line, ``#`` starts a
comment line, blank lines are ignored. ``_KEYS`` lists every key with the
type its text converts to; keys are namespaced by module:

    vessel.<field>                          every field of VesselParams
    solar.source (idealized | file)
    solar.d0 solar.d1 solar.period          idealized constants
    solar.table                             CSV of per-day rows day,d0,d1
    solar.file solar.scale solar.interpolation solar.periodic
    barrier.mode (horizon | periodic-day)
    controller.k_p controller.k_d controller.delta controller.u_init
    controller.b_des (number | cycle-start)
    mpc.<field>                             every field of MpcConfig
    sim.dt sim.mission_length sim.initial_soc sim.strategy sim.strategies
    sim.rng_seed sim.noise_std sim.output_dir

Each section's dataclass is built from the keys the file sets, so every
other field keeps its dataclass default. The loader itself supplies only
the defaults no field holds: solar.source = idealized, solar.periodic =
false, a period of DAY_S for a periodic log and controller.b_des =
cycle-start.

Unknown and duplicate keys are reported together by line number; then type
mismatches together by key. A solar key the selected source does not read is
an error too: solar.d0, solar.d1 and solar.table belong to the idealized
source, which ignores solar.d0 and solar.d1 under a table; solar.file,
solar.scale, solar.interpolation and solar.periodic belong to the file
source, which reads solar.period only when solar.periodic is true. A
compare file lists at least two known strategies in sim.strategies, none
twice, and sets no sim.strategy; a single-run file sets no sim.strategies.
Relative paths (solar.file, solar.table, sim.output_dir) resolve against the
config file's directory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import get_type_hints

from .barrier import MODES as BARRIER_MODES
from .benchmark import MpcConfig
from .solar import FileSource, IdealizedSource
from .vessel import VesselParams

STRATEGIES = ("ilc", "constant-unconstrained", "constant-constrained", "mpc")
DAY_S = 86400.0


class ConfigError(ValueError):
    """Raised when a SimConfig fails validation; message lists every failure."""


def _raise_problems(problems: list[str]) -> None:
    """Raise one ConfigError that lists every problem; do nothing if none."""
    if problems:
        raise ConfigError("invalid configuration:\n  " + "\n  ".join(problems))


@dataclass(frozen=True)
class IlcSettings:
    """Learned-controller gains and buffer width."""

    k_p: float = 5e-5    # (m/s)/Wh per cycle
    k_d: float = 1e-5    # (m/s)/Wh per step
    delta: float = 100.0  # blending band, Wh
    u_init: float = 1.0   # initial velocity estimate, m/s
    b_des: float | None = None  # fixed terminal target; None tracks cycle start


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
        """Every 'config.key: problem' string for these settings; [] if valid."""
        errors = [
            f"{key}: must be finite"
            for key, value in self._numeric_fields()
            if not math.isfinite(value)
        ]
        p = self.vessel
        if self.dt <= 0:
            errors.append("sim.dt: must be > 0")
        if self.mission_length <= 0:
            errors.append("sim.mission_length: must be > 0")
        elif self.dt > 0 and math.isfinite(self.mission_length):
            steps = self.mission_length / self.dt
            if abs(steps - round(steps)) > 1e-9:
                errors.append(
                    "sim.mission_length: must be a positive multiple of sim.dt"
                )
        if not p.b_min <= self.initial_soc <= p.b_max:
            errors.append(
                f"sim.initial_soc: {self.initial_soc} outside battery window "
                f"[{p.b_min}, {p.b_max}]"
            )
        if self.strategy not in STRATEGIES:
            errors.append(f"sim.strategy: {self.strategy!r} not one of {STRATEGIES}")
        if self.barrier_mode not in BARRIER_MODES:
            errors.append(
                f"barrier.mode: {self.barrier_mode!r} not one of {BARRIER_MODES}"
            )
        elif self.barrier_mode == "periodic-day" and not self.solar.periodic:
            errors.append(
                "barrier.mode: periodic-day repeats one period of the solar source, "
                "but a solar.table or a log without solar.periodic has none; use horizon"
            )
        if self.noise_std < 0:
            errors.append("sim.noise_std: must be >= 0")
        if self.rng_seed < 0:
            errors.append("sim.rng_seed: must be >= 0")
        if self.strategy == "ilc":
            if self.dt > 0 and abs(DAY_S / self.dt - round(DAY_S / self.dt)) > 1e-9:
                errors.append("sim.dt: must divide 86400 s for the ilc strategy")
            if self.ilc.delta <= 0:
                errors.append("controller.delta: must be > 0")
            if not p.u_min <= self.ilc.u_init <= p.u_max:
                errors.append(
                    f"controller.u_init: {self.ilc.u_init} outside velocity limits"
                )
            b_des = self.ilc.b_des
            if b_des is not None and not p.b_min <= b_des <= p.b_max:
                errors.append(
                    f"controller.b_des: {b_des} outside battery window "
                    f"[{p.b_min}, {p.b_max}]"
                )
        if self.strategy == "mpc" and self.dt > 0 and math.isfinite(self.dt):
            steps = self.mpc.horizon / self.dt
            if round(steps) < 1 or abs(steps - round(steps)) > 1e-9:
                errors.append("mpc.horizon: must be a positive multiple of sim.dt")
        return errors + self.solar.problems()

    def _numeric_fields(self) -> list[tuple[str, float]]:
        """(config key, value) of every non-solar number _problems() checks."""
        ilc = self.ilc
        out = [
            ("sim.dt", self.dt),
            ("sim.mission_length", self.mission_length),
            ("sim.initial_soc", self.initial_soc),
            ("sim.noise_std", self.noise_std),
            ("controller.k_p", ilc.k_p),
            ("controller.k_d", ilc.k_d),
            ("controller.delta", ilc.delta),
            ("controller.u_init", ilc.u_init),
        ]
        if ilc.b_des is not None:
            out.append(("controller.b_des", ilc.b_des))
        return out


def _field_keys(prefix: str, cls: type) -> dict[str, type]:
    """A ``prefix.<field>`` key for each field of dataclass cls, with its type."""
    return {f"{prefix}.{name}": kind for name, kind in get_type_hints(cls).items()}


# every key a file may set, with the type its text converts to
_KEYS: dict[str, type] = {
    **_field_keys("vessel", VesselParams),
    "solar.source": str,
    "solar.d0": float,
    "solar.d1": float,
    "solar.period": float,
    "solar.table": str,
    "solar.file": str,
    "solar.scale": float,
    "solar.interpolation": str,
    "solar.periodic": str,
    "barrier.mode": str,
    "controller.k_p": float,
    "controller.k_d": float,
    "controller.delta": float,
    "controller.u_init": float,
    "controller.b_des": str,
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
_EXPECTED = {float: "a number", int: "an integer"}
# keys only one solar source reads; setting them under the other is an error
_IDEALIZED_KEYS = ("solar.d0", "solar.d1", "solar.table")
_FILE_KEYS = ("solar.file", "solar.scale", "solar.interpolation", "solar.periodic")
_TRUE = ("true", "yes", "1")
_FALSE = ("false", "no", "0")


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
    out: dict[str, object] = {}
    for key, raw in values.items():
        kind = _KEYS[key]
        try:
            out[key] = kind(raw)
        except ValueError:
            problems.append(f"{key}: expected {_EXPECTED[kind]}, got {raw!r}")
    return out


def _load_day_table(path: Path) -> tuple[tuple[float, ...], tuple[float, ...]]:
    d0s: list[float] = []
    d1s: list[float] = []
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            fields = stripped.split(",")
            if len(fields) != 3:
                raise ConfigError(
                    f"{path}: line {lineno}: expected 'day,d0,d1', got {stripped!r}"
                )
            try:
                day = int(fields[0])
                d0 = float(fields[1])
                d1 = float(fields[2])
            except ValueError as exc:
                raise ConfigError(
                    f"{path}: line {lineno}: non-numeric field in {stripped!r}"
                ) from exc
            if day != len(d0s):
                raise ConfigError(
                    f"{path}: line {lineno}: day indices must run 0,1,2,... "
                    f"(got {day}, expected {len(d0s)})"
                )
            d0s.append(d0)
            d1s.append(d1)
    if not d0s:
        raise ConfigError(f"{path}: no data rows")
    return tuple(d0s), tuple(d1s)


def _reject_keys(v: dict[str, object], keys: tuple[str, ...], condition: str) -> None:
    _raise_problems([f"{key}: only read when {condition}" for key in keys if key in v])


def _section(v: dict[str, object], prefix: str, *names: str) -> dict[str, object]:
    """Keyword arguments for the ``prefix.name`` keys among ``names`` that v sets."""
    return {name: v[f"{prefix}.{name}"] for name in names if f"{prefix}.{name}" in v}


def _fields_section(cls: type, v: dict[str, object], prefix: str):
    """``cls`` built from the ``prefix.<field>`` keys v sets; errors name the prefix."""
    try:
        return cls(**_section(v, prefix, *(f.name for f in fields(cls))))
    except ValueError as exc:
        raise ConfigError(f"{prefix}.*: {exc}") from exc


def build_sim_config(values: dict[str, str], base_dir: Path) -> SimConfig:
    """Assemble the SimConfig that parsed key=value strings describe.

    A field whose key ``values`` does not set keeps its dataclass default;
    sim.output_dir resolves against ``base_dir``. Raises ConfigError.
    """
    problems: list[str] = []
    v = _typed(values, problems)
    _raise_problems(problems)

    vessel = _fields_section(VesselParams, v, "vessel")

    source_kind = v.get("solar.source", "idealized")
    solar: IdealizedSource | FileSource
    if source_kind == "idealized":
        _reject_keys(v, _FILE_KEYS, "solar.source = file")
        d0_by_day = d1_by_day = None
        if "solar.table" in v:
            _reject_keys(v, ("solar.d0", "solar.d1"), "there is no solar.table")
            table_path = (base_dir / v["solar.table"]).resolve()
            d0_by_day, d1_by_day = _load_day_table(table_path)
        solar = IdealizedSource(
            **_section(v, "solar", "d0", "d1", "period"),
            d0_by_day=d0_by_day,
            d1_by_day=d1_by_day,
        )
    elif source_kind == "file":
        _reject_keys(v, _IDEALIZED_KEYS, "solar.source = idealized")
        if "solar.file" not in v:
            raise ConfigError("solar.file: required when solar.source = file")
        periodic = v.get("solar.periodic", "false").lower()
        if periodic not in _TRUE + _FALSE:
            raise ConfigError(
                f"solar.periodic: expected one of {_TRUE + _FALSE}, got {periodic!r}"
            )
        if periodic in _FALSE:
            _reject_keys(v, ("solar.period",), "solar.periodic = true")
        solar = FileSource(
            path=str((base_dir / v["solar.file"]).resolve()),
            period=v.get("solar.period", DAY_S) if periodic in _TRUE else None,
            **_section(v, "solar", "scale", "interpolation"),
        )
    else:
        raise ConfigError(
            f"solar.source: expected 'idealized' or 'file', got {source_kind!r}"
        )

    b_des_raw = v.get("controller.b_des", "cycle-start")
    if b_des_raw == "cycle-start":
        b_des = None
    else:
        try:
            b_des = float(b_des_raw)
        except ValueError:
            raise ConfigError(
                f"controller.b_des: expected a number or 'cycle-start', got {b_des_raw!r}"
            ) from None
    ilc = IlcSettings(
        **_section(v, "controller", "k_p", "k_d", "delta", "u_init"), b_des=b_des
    )
    mpc = _fields_section(MpcConfig, v, "mpc")

    sim = _section(
        v, "sim", "mission_length", "dt", "initial_soc", "strategy", "rng_seed",
        "noise_std", "output_dir",
    )
    sim["output_dir"] = str(base_dir / sim.get("output_dir", SimConfig.output_dir))
    if "barrier.mode" in v:
        sim["barrier_mode"] = v["barrier.mode"]
    return SimConfig(solar=solar, vessel=vessel, ilc=ilc, mpc=mpc, **sim)


def load_sim_config(path: str | Path, compare_file: bool = False) -> SimConfig:
    """Parse a config file into a single-run SimConfig.

    A file that sets sim.strategies is a compare file, and one mission run
    from it would silently ignore the list, so it is rejected unless
    ``compare_file`` says the caller reads only the keys its strategies
    share (the envelope does).
    """
    p = Path(path)
    values = parse_kv_file(p)
    if not compare_file:
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
