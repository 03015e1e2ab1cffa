"""Mission configuration: the config objects and the flat key=value files.

:class:`SimConfig` holds one mission's settings (the solar source, the
vessel, the strategy and its gains) and :meth:`SimConfig.validate` lists
every problem with them; the harness runs only configs that pass.

File format: one ``section.key = value`` assignment per line, ``#`` starts a
comment line, blank lines are ignored. Keys are namespaced by module:

    vessel.k_h vessel.k_m vessel.b_min vessel.b_max vessel.u_min vessel.u_max
    solar.source (idealized | file)
    solar.d0 solar.d1 solar.period          idealized constants
    solar.table                             CSV of per-day rows day,d0,d1
    solar.file solar.scale solar.interpolation solar.periodic
    barrier.mode (horizon | periodic-day)
    controller.k_p controller.k_d controller.delta controller.u_init
    controller.b_des (number | cycle-start)
    mpc.horizon mpc.soc_grid mpc.u_grid mpc.terminal_reward_slope
    mpc.replan_interval
    sim.dt sim.mission_length sim.initial_soc sim.strategy sim.strategies
    sim.rng_seed sim.noise_std sim.output_dir

Unknown keys, duplicate keys and type mismatches are reported together with
the offending key name. A solar key the selected source does not read is an
error too: solar.d0, solar.d1 and solar.table belong to the idealized
source, which ignores solar.d0 and solar.d1 under a table; solar.file,
solar.scale, solar.interpolation and solar.periodic belong to the file
source, which reads solar.period only when solar.periodic is true. Relative paths (solar.file, solar.table,
sim.output_dir) resolve against the config file's directory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

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

    def validate(self) -> list[str]:
        """Collect every validation failure as a 'field: problem' string."""
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
        if self.strategy == "mpc" and self.dt > 0 and math.isfinite(self.dt):
            steps = self.mpc.horizon / self.dt
            if round(steps) < 1 or abs(steps - round(steps)) > 1e-9:
                errors.append("mpc.horizon: must be a positive multiple of sim.dt")
        return errors + self.solar.problems()

    def check(self) -> None:
        """Raise ConfigError listing every :meth:`validate` failure, if any."""
        _raise_problems(self.validate())

    def _numeric_fields(self) -> list[tuple[str, float]]:
        """(config key, value) of every non-solar number validate() checks."""
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

_FLOAT_KEYS = {
    "vessel.k_h",
    "vessel.k_m",
    "vessel.b_min",
    "vessel.b_max",
    "vessel.u_min",
    "vessel.u_max",
    "solar.d0",
    "solar.d1",
    "solar.period",
    "solar.scale",
    "controller.k_p",
    "controller.k_d",
    "controller.delta",
    "controller.u_init",
    "mpc.horizon",
    "mpc.terminal_reward_slope",
    "sim.dt",
    "sim.mission_length",
    "sim.initial_soc",
    "sim.noise_std",
}
_INT_KEYS = {"mpc.soc_grid", "mpc.u_grid", "mpc.replan_interval", "sim.rng_seed"}
_STR_KEYS = {
    "solar.source",
    "solar.file",
    "solar.table",
    "solar.interpolation",
    "sim.strategy",
    "sim.strategies",
    "sim.output_dir",
    "barrier.mode",
    "controller.b_des",
    "solar.periodic",
}
_ALL_KEYS = _FLOAT_KEYS | _INT_KEYS | _STR_KEYS
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
            if key not in _ALL_KEYS:
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
        if key in _FLOAT_KEYS:
            try:
                out[key] = float(raw)
            except ValueError:
                problems.append(f"{key}: expected a number, got {raw!r}")
        elif key in _INT_KEYS:
            try:
                out[key] = int(raw)
            except ValueError:
                problems.append(f"{key}: expected an integer, got {raw!r}")
        else:
            out[key] = raw
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


def build_sim_config(
    values: dict[str, str], base_dir: Path, strategy: str | None = None
) -> SimConfig:
    """Assemble a SimConfig from parsed key=value strings."""
    problems: list[str] = []
    v = _typed(values, problems)
    _raise_problems(problems)

    def pick(key: str, default):
        return v.get(key, default)

    vessel = VesselParams()
    try:
        vessel = VesselParams(
            k_h=pick("vessel.k_h", vessel.k_h),
            k_m=pick("vessel.k_m", vessel.k_m),
            b_min=pick("vessel.b_min", vessel.b_min),
            b_max=pick("vessel.b_max", vessel.b_max),
            u_min=pick("vessel.u_min", vessel.u_min),
            u_max=pick("vessel.u_max", vessel.u_max),
        )
    except ValueError as exc:
        raise ConfigError(f"vessel.*: {exc}") from exc

    source_kind = pick("solar.source", "idealized")
    solar: IdealizedSource | FileSource
    if source_kind == "idealized":
        _reject_keys(v, _FILE_KEYS, "solar.source = file")
        d0_by_day = d1_by_day = None
        if "solar.table" in v:
            _reject_keys(v, ("solar.d0", "solar.d1"), "there is no solar.table")
            table_path = (base_dir / str(v["solar.table"])).resolve()
            d0_by_day, d1_by_day = _load_day_table(table_path)
        solar = IdealizedSource(
            d0=pick("solar.d0", 300.0),
            d1=pick("solar.d1", 500.0),
            period=pick("solar.period", 86400.0),
            d0_by_day=d0_by_day,
            d1_by_day=d1_by_day,
        )
    elif source_kind == "file":
        _reject_keys(v, _IDEALIZED_KEYS, "solar.source = idealized")
        if "solar.file" not in v:
            raise ConfigError("solar.file: required when solar.source = file")
        periodic = str(pick("solar.periodic", "false")).lower()
        if periodic not in _TRUE + _FALSE:
            raise ConfigError(
                f"solar.periodic: expected one of {_TRUE + _FALSE}, got {periodic!r}"
            )
        if periodic in _FALSE:
            _reject_keys(v, ("solar.period",), "solar.periodic = true")
        period = pick("solar.period", 86400.0) if periodic in _TRUE else None
        solar = FileSource(
            path=str((base_dir / str(v["solar.file"])).resolve()),
            scale=pick("solar.scale", 1.0),
            interpolation=str(pick("solar.interpolation", "linear")),
            period=period,
        )
    else:
        raise ConfigError(
            f"solar.source: expected 'idealized' or 'file', got {source_kind!r}"
        )

    b_des_raw = str(pick("controller.b_des", "cycle-start"))
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
        k_p=pick("controller.k_p", 5e-5),
        k_d=pick("controller.k_d", 1e-5),
        delta=pick("controller.delta", 100.0),
        u_init=pick("controller.u_init", 1.0),
        b_des=b_des,
    )
    try:
        mpc = MpcConfig(
            horizon=pick("mpc.horizon", 172800.0),
            soc_grid=pick("mpc.soc_grid", 131),
            u_grid=pick("mpc.u_grid", 24),
            terminal_reward_slope=pick("mpc.terminal_reward_slope", 5.0),
            replan_interval=pick("mpc.replan_interval", 1),
        )
    except ValueError as exc:
        raise ConfigError(f"mpc.*: {exc}") from exc

    out_dir = str(pick("sim.output_dir", "out"))
    if not Path(out_dir).is_absolute():
        out_dir = str(base_dir / out_dir)

    cfg = SimConfig(
        mission_length=pick("sim.mission_length", 31_536_000.0),
        dt=pick("sim.dt", 360.0),
        initial_soc=pick("sim.initial_soc", 3250.0),
        strategy=strategy if strategy is not None else str(pick("sim.strategy", "ilc")),
        solar=solar,
        barrier_mode=str(pick("barrier.mode", "periodic-day")),
        rng_seed=pick("sim.rng_seed", 0),
        noise_std=pick("sim.noise_std", 0.0),
        output_dir=out_dir,
        vessel=vessel,
        ilc=ilc,
        mpc=mpc,
    )
    cfg.check()
    return cfg


def load_sim_config(path: str | Path) -> SimConfig:
    """Parse a config file into a single-run SimConfig."""
    p = Path(path)
    return build_sim_config(parse_kv_file(p), p.parent.resolve())


def load_compare_configs(path: str | Path) -> list[SimConfig]:
    """Parse a config file into one SimConfig per entry in sim.strategies."""
    p = Path(path)
    values = parse_kv_file(p)
    raw = values.get("sim.strategies", "")
    names = [s.strip() for s in raw.split(",") if s.strip()]
    if len(names) < 2:
        raise ConfigError(
            "sim.strategies: compare needs a comma-separated list of at least "
            "two strategies"
        )
    return [build_sim_config(values, p.parent.resolve(), strategy=s) for s in names]
