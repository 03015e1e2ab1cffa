"""Closed-loop mission harness: tabulation, policies, stepping loop, exports.

A mission runs from a :class:`~solarasv.config.SimConfig`. A SimConfig
checks its settings when it is built, so the mission functions check none
of them again; :func:`simulate`, which also runs without a config, checks
its own ``dt`` and ``initial_soc``.
Its solar source builds the input profile itself. The mission is tabulated
once (:func:`tabulate_mission`): the input profile, the envelope, and
read-only arrays of the input power at each step start and the bounds at
each step boundary. Tabulation makes the one check that needs the source's
data: a non-periodic profile must cover the mission. :func:`compare_strategies`
runs strategies on one mission: it refuses configs that differ in solar
source, mission length, dt, vessel or barrier mode, builds one tabulation for
them all and returns one result per config. A forked child
(:mod:`solarasv._fork`) runs the first config while the caller runs the rest
in order, unless the process may use one CPU only; the results are the same
either way.

Every strategy runs through one step loop, :func:`simulate`. Each step it
hands the measured SOC and the envelope bounds to the strategy's
:class:`Policy`, then applies the forward-Euler step, the clamp ledgers and
the violation integral. The loop holds its inputs and traces as Python
floats for one block of steps at a time (``_BLOCK``), so its working set
does not grow with the mission; the finished traces are float arrays.
:func:`build_policy` maps a config onto a policy: the learned controller
(:class:`~solarasv.controller.IlcPolicy`, built from the config's IlcSettings
and returning each cycle's record), the switching law around the
energy-balance constant, the bare constant, or the receding-horizon planner.

The exports write each float as its ``repr``, so a CSV reads back bit for
bit; every table goes through :mod:`solarasv.csvout`, which streams the
per-step and per-day ones to disk in fixed-size row chunks and formats the
second half of a large table (a long mission's trace.csv) in a forked child.

Conventions
-----------
* The mission clock starts at t = 0 (local midnight) and advances in fixed
  steps of ``dt`` s; mission_length is a whole number of them (``whole_steps``).
* Step i spans [i*dt, (i+1)*dt). The input power used by the forward-Euler
  step is sampled at the step start; the commanded velocity is constant over
  the step. Trace arrays have one entry per step: velocity_trace[i] and
  p_in_trace[i] belong to the step start, soc_trace[i] is the SOC at the step
  END, so soc_trace[-1] is the terminal SOC.
* Iteration (learning-cycle) boundaries align with solar-cycle boundaries
  by construction: the learner's cycle and a periodic source's period are
  both ``solar.DAY_S`` (86400 s) of mission time.
* distance = sum(velocity_trace) * dt exactly (the discretized path length).
* The controller sees the measured SOC (true SOC plus optional seeded
  Gaussian noise), including the cycle-end SOC the learner updates from;
  the battery and the violation integral use the true SOC. Identical
  config and seed reproduce the simulation payload bit-for-bit.
* Energy bookkeeping is audited: terminal = initial + sum((p_in - draw) *
  dt/3600) + floor_added - curtailed, where the last two are the clamp
  ledgers in Wh.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from ._fork import beside
from .barrier import BarrierEnvelope, build_envelope
from .benchmark import MpcController, energy_balance_velocity
from .config import ConfigError, SimConfig
from .controller import IlcPolicy, IterationRecord, _switching_velocity, validate_buffer
from .csvout import write_columns
from .solar import DAY_S, SolarProfile, day_grid, sample_array, whole_steps
from .vessel import VesselParams


@dataclass
class SimResult:
    """One simulated mission.

    wall_time is the host time of the call that made it: :func:`simulate`
    alone, or :func:`run_mission`, which adds the policy build and, unless it
    was handed a shared tabulation, building the tabulation.
    """

    strategy: str
    dt: float
    initial_soc: float
    soc_trace: np.ndarray       # Wh at step end
    velocity_trace: np.ndarray  # m/s commanded per step
    p_in_trace: np.ndarray      # W sampled at step start
    distance: float             # m
    terminal_soc: float         # Wh
    violation: float            # Wh^2 * s
    per_iteration: list[IterationRecord]
    wall_time: float            # s
    curtailed_wh: float         # energy clamped away at b_max
    floor_added_wh: float       # phantom energy added by the b_min clamp
    battery_failed: bool


def build_input_profile(cfg: SimConfig) -> SolarProfile:
    """Tabulate or load the mission's P_in signal."""
    return cfg.solar.profile(cfg.dt)


def _step_times(cfg: SimConfig) -> np.ndarray:
    """The mission's step boundaries 0, dt, ..., mission_length."""
    return np.arange(whole_steps(cfg.mission_length, cfg.dt) + 1) * float(cfg.dt)


def build_mission_envelope(cfg: SimConfig, profile: SolarProfile) -> BarrierEnvelope:
    """The tightened-SOC envelope built from the mission's own input profile.

    horizon mode evaluates the barriers on the mission grid; periodic-day
    mode on one day of the profile, and repeats them.
    """
    if cfg.barrier_mode == "horizon":
        grid = _step_times(cfg)
    else:
        grid = day_grid(cfg.dt)
    return build_envelope(profile, cfg.vessel, grid, mode=cfg.barrier_mode)


class MissionTabulation(NamedTuple):
    """What every strategy of one mission reads, built by :func:`tabulate_mission`.

    p_in holds the input power at each step start (n values); lower and
    upper the envelope at each step boundary (n + 1 values, the last one
    ends the mission). The three arrays are read-only, so strategies that
    share a tabulation cannot alter each other's input. key holds the config
    values the tabulation depends on.
    """

    key: tuple
    profile: SolarProfile
    env: BarrierEnvelope
    p_in: np.ndarray
    lower: np.ndarray
    upper: np.ndarray


def _tabulation_key(cfg: SimConfig) -> tuple:
    return (cfg.solar, cfg.mission_length, cfg.dt, cfg.vessel, cfg.barrier_mode)


def tabulate_mission(cfg: SimConfig) -> MissionTabulation:
    """Build the mission's profile and envelope and tabulate them on its steps.

    Raises ConfigError when a non-periodic profile does not cover the
    mission, which only the source's data can show.
    """
    profile = build_input_profile(cfg)
    if not profile.periodic and (
        profile.start > 0 or profile.end < cfg.mission_length
    ):
        raise ConfigError(
            f"solar source does not cover the mission (data spans t={profile.start}"
            f"..{profile.end}, mission spans t=0..{cfg.mission_length})"
        )
    env = build_mission_envelope(cfg, profile)
    times = _step_times(cfg)
    lower, upper = env.bounds_arrays(times)
    # the full step grid, like the envelope's: read on the profile's own knots,
    # it comes back as the profile's array, and p_in a view of it
    p_in = sample_array(profile, times)[:-1]
    for arr in (p_in, lower, upper):
        arr.setflags(write=False)
    return MissionTabulation(_tabulation_key(cfg), profile, env, p_in, lower, upper)


class Policy(NamedTuple):
    """A strategy as the step loop (:func:`simulate`) runs it.

    control(b_meas, b_l, b_u, step) -> velocity is called once per step with
    the measured SOC and the envelope bounds at the step start. When
    end_cycle is set, it is called after every ``cycle_steps`` steps with the
    measured and the true cycle-end SOC and returns the cycle's record.
    """

    strategy: str
    control: Callable[[float, float, float, int], float]
    cycle_steps: int = 0
    end_cycle: Callable[[float, float], IterationRecord] | None = None


def build_policy(cfg: SimConfig, tab: MissionTabulation) -> Policy:
    """The configured strategy's control law, ready for :func:`simulate`.

    tab is the mission's :func:`tabulate_mission`; the planner reads its
    arrays as its forecast.
    """
    p = cfg.vessel
    if cfg.strategy == "ilc":
        validate_buffer(tab.env, cfg.ilc.delta)
        ilc = IlcPolicy(cfg.ilc, p, whole_steps(DAY_S, cfg.dt), cfg.initial_soc)
        return Policy(cfg.strategy, ilc.velocity, ilc.cycle_steps, ilc.end_cycle)

    if cfg.strategy == "mpc":
        planner = MpcController(cfg.mpc, tab.p_in, tab.lower, tab.upper, p, cfg.dt)
        return Policy(cfg.strategy, planner)

    u_const = energy_balance_velocity(tab.profile, cfg.mission_length, p)
    if cfg.strategy == "constant-constrained":
        u_min, u_max = p.u_min, p.u_max

        def switched(b: float, b_l: float, b_u: float, i: int) -> float:
            return _switching_velocity(b, b_l, b_u, u_const, u_min, u_max)

        return Policy(cfg.strategy, switched)
    return Policy(cfg.strategy, lambda b, b_l, b_u, i: u_const)


# steps per block of the loop's Python-float inputs and outputs (about 32 B a
# value, six values a step): enough to amortise the per-block slicing, few
# enough that a block's lists stay under 1 MB whatever the mission length
_BLOCK = 4096


def simulate(
    policy: Policy,
    p_in: Sequence[float],
    lower: Sequence[float],
    upper: Sequence[float],
    initial_soc: float,
    params: VesselParams,
    dt: float,
    noise: Sequence[float] | None = None,
) -> SimResult:
    """Step the battery under ``policy``: the one forward-Euler loop.

    p_in, lower and upper hold one value per step, taken at the step start
    (ValueError otherwise); arrays or lists alike, they are never written.
    The loop reads them, and writes the velocity and SOC traces, one block
    of ``_BLOCK`` steps at a time, so its Python floats cover one block, not
    the mission. p_in comes back as the result's p_in_trace (the same array
    when it is a float array). noise, if given, holds one value more:
    noise[i] is added to the SOC the controller sees at the start of step
    i, and noise[i + 1] to the cycle-end SOC handed to end_cycle after step
    i (so the last cycle-end measurement uses noise[n]). The battery, the
    clamp ledgers and the violation integral use the true SOC. A noise of
    another length, an end_cycle without cycle_steps >= 1, a dt that is not
    finite and > 0, a non-finite initial_soc or a NaN or infinite value in
    p_in, lower or upper raises ValueError before the first control call.
    wall_time covers this call only.
    """
    wall0 = time.perf_counter()
    p_in_trace = np.asarray(p_in, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    n = p_in_trace.size
    if lower.size != n or upper.size != n:
        raise ValueError("p_in, lower and upper must hold one value per step")
    if noise is not None:
        noise = np.asarray(noise, dtype=float)
        if noise.shape != (n + 1,):
            raise ValueError("noise must hold one value per step and one more")
    if policy.end_cycle is not None and policy.cycle_steps < 1:
        raise ValueError("a policy with end_cycle must set cycle_steps >= 1")
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and > 0, got {dt}")
    if not math.isfinite(initial_soc):
        raise ValueError(f"initial_soc must be finite, got {initial_soc}")
    for name, values in (("p_in", p_in_trace), ("lower", lower), ("upper", upper)):
        if not np.all(np.isfinite(values)):
            raise ValueError(f"{name} must be finite")
    control = policy.control
    end_cycle = policy.end_cycle
    cycle = policy.cycle_steps
    next_end = cycle - 1 if end_cycle is not None else n
    k_h, k_m = params.k_h, params.k_m
    b_min, b_max = params.b_min, params.b_max
    dtf = dt / 3600.0
    velocity_trace = np.empty(n)
    soc_trace = np.empty(n)
    b = float(initial_soc)
    x2 = 0.0
    sum_u = 0.0
    curtailed = 0.0
    floor_added = 0.0
    failed = False
    per_iter: list[IterationRecord] = []
    for first in range(0, n, _BLOCK):
        stop = min(first + _BLOCK, n)
        # meas[i - first] is noise[i]; a cycle end reads one past the block
        meas = None if noise is None else noise[first:stop + 1].tolist()
        vel: list[float] = []
        soc: list[float] = []
        for i, power, b_l, b_u in zip(
            range(first, stop),
            p_in_trace[first:stop].tolist(),
            lower[first:stop].tolist(),
            upper[first:stop].tolist(),
        ):
            u = control(b if meas is None else b + meas[i - first], b_l, b_u, i)
            # violation measured on the true SOC at the step start
            if b < b_l:
                d = b_l - b
                x2 += d * d * dt
            elif b > b_u:
                d = b - b_u
                x2 += d * d * dt
            raw = b + (power - k_h - k_m * u * u * u) * dtf
            if raw < b_min:
                floor_added += b_min - raw
                raw = b_min
                failed = True
            elif raw > b_max:
                curtailed += raw - b_max
                raw = b_max
            vel.append(u)
            sum_u += u
            b = raw
            soc.append(b)
            if i == next_end:
                next_end += cycle
                per_iter.append(
                    end_cycle(b if meas is None else b + meas[i - first + 1], b)
                )
        velocity_trace[first:stop] = vel
        soc_trace[first:stop] = soc

    return SimResult(
        strategy=policy.strategy,
        dt=dt,
        initial_soc=float(initial_soc),
        soc_trace=soc_trace,
        velocity_trace=velocity_trace,
        p_in_trace=p_in_trace,
        distance=sum_u * dt,
        terminal_soc=b,
        violation=x2,
        per_iteration=per_iter,
        wall_time=time.perf_counter() - wall0,
        curtailed_wh=curtailed,
        floor_added_wh=floor_added,
        battery_failed=failed,
    )


def run_mission(
    cfg: SimConfig, tabulation: MissionTabulation | None = None
) -> SimResult:
    """Simulate one mission under the configured strategy.

    tabulation, if given, is :func:`tabulate_mission` of a config that
    agrees with ``cfg`` in solar, mission_length, dt, vessel and
    barrier_mode; :func:`compare_strategies` shares one this way. Without
    it the call builds its own. The result's wall_time covers this call:
    the tabulation when it is built here, the policy build and the step
    loop always. ``cfg`` checked its settings when it was built, so the
    call checks none; building the tabulation checks the source covers
    the mission.
    """
    wall0 = time.perf_counter()
    tab = tabulate_mission(cfg) if tabulation is None else tabulation
    if tab.key != _tabulation_key(cfg):
        raise ValueError("tabulation was built for a different mission")
    noise = None
    if cfg.noise_std > 0:
        rng = np.random.default_rng(cfg.rng_seed)
        noise = rng.normal(0.0, cfg.noise_std, tab.p_in.size + 1)
    result = simulate(
        build_policy(cfg, tab),
        tab.p_in,
        tab.lower[:-1],
        tab.upper[:-1],
        cfg.initial_soc,
        cfg.vessel,
        float(cfg.dt),
        noise,
    )
    return replace(result, wall_time=time.perf_counter() - wall0)


# ---------------------------------------------------------------------------
# strategy comparison
# ---------------------------------------------------------------------------

def _steps_per_day(result: SimResult) -> int:
    """Steps in a day; more than the mission has when they do not tile one."""
    return whole_steps(DAY_S, result.dt) or result.velocity_trace.size + 1


def daily_cumulative_distance(result: SimResult) -> np.ndarray:
    """Cumulative distance (m) at the end of each full mission day.

    Empty when the mission is shorter than a day or its steps do not tile one.
    """
    spd = _steps_per_day(result)
    return (np.cumsum(result.velocity_trace) * result.dt)[spd - 1::spd]


def compare_strategies(cfgs: Sequence[SimConfig]) -> list[SimResult]:
    """Run each config on one mission; one result per config, in order.

    Every config must agree with the first in solar source, mission length,
    dt, vessel and barrier_mode, so the strategies run the same mission and
    their distances are comparable; the first config that differs raises
    ConfigError, before anything is tabulated or run. The configs share one
    :func:`tabulate_mission`, so a result's wall_time covers its policy
    build and step loop but not that tabulation, and each result's
    p_in_trace is its p_in. A forked child runs the first config while this
    process runs the rest, in order (:func:`solarasv._fork.beside`); on a
    single CPU this process runs them all. The results are the same either
    way.
    """
    if len(cfgs) < 2:
        raise ConfigError("compare needs at least two configurations")
    fields = ("solar source", "mission length", "dt", "vessel", "barrier mode")
    first = _tabulation_key(cfgs[0])
    for i, cfg in enumerate(cfgs[1:], start=2):
        for name, a, b in zip(fields, _tabulation_key(cfg), first):
            if a != b:
                raise ConfigError(
                    f"compare: config {i} has a different {name} than config 1"
                )
    tab = tabulate_mission(cfgs[0])
    forked, rest = beside(
        # p_in_trace is the tabulation's p_in: the child does not send it back
        lambda: replace(run_mission(cfgs[0], tab), p_in_trace=None),
        lambda: [run_mission(cfg, tab) for cfg in cfgs[1:]],
    )
    return [replace(forked, p_in_trace=tab.p_in), *rest]


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def export_traces(result: SimResult, out_dir: str | Path) -> list[Path]:
    """Write trace.csv, iterations.csv, summary.csv (and daily.csv) to a dir.

    Output is deterministic: identical results produce byte-identical files.
    trace.csv and daily.csv stream to disk in row chunks.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    n = result.velocity_trace.size

    trace = out / "trace.csv"
    write_columns(
        trace,
        "time_s,soc_wh,velocity_ms,p_in_w",
        (
            np.arange(n) * result.dt,
            result.soc_trace,
            result.velocity_trace,
            result.p_in_trace,
        ),
    )
    written.append(trace)

    iters = out / "iterations.csv"
    write_columns(
        iters,
        "iteration,u_hat,p1,terminal_soc_wh",
        [[getattr(rec, f) for rec in result.per_iteration]
         for f in IterationRecord._fields],
    )
    written.append(iters)

    summary = out / "summary.csv"
    row = {
        "strategy": result.strategy,
        "distance_m": result.distance,
        "terminal_soc_wh": result.terminal_soc,
        "violation_wh2s": result.violation,
        "wall_time_s": result.wall_time,
        "curtailed_wh": result.curtailed_wh,
        "floor_added_wh": result.floor_added_wh,
        "battery_failed": str(result.battery_failed).lower(),
        "steps": n,
        "dt_s": result.dt,
        "initial_soc_wh": result.initial_soc,
    }
    write_columns(summary, ",".join(row), [[value] for value in row.values()])
    written.append(summary)

    # one row per full day; none when the steps do not tile a day
    daily = out / "daily.csv"
    series = daily_cumulative_distance(result)
    days, spd = series.size, _steps_per_day(result)

    def day_means(trace: np.ndarray) -> np.ndarray:
        return trace[: days * spd].reshape(days, spd).mean(axis=1)

    write_columns(
        daily,
        "day,mean_velocity_ms,mean_soc_wh,distance_m",
        (
            np.arange(days),
            day_means(result.velocity_trace),
            day_means(result.soc_trace),
            series,
        ),
    )
    written.append(daily)
    return written


def export_comparison(results: Sequence[SimResult], out_dir: str | Path) -> list[Path]:
    """Write comparison.csv (one row per result) and distance_series.csv."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    comparison = out / "comparison.csv"
    write_columns(
        comparison,
        "strategy,distance_m,terminal_soc_wh,violation_wh2s,wall_time_s",
        [
            [getattr(r, name) for r in results]
            for name in ("strategy", "distance", "terminal_soc", "violation", "wall_time")
        ],
    )

    # one row per whole day of the mission, which every result shares
    series = out / "distance_series.csv"
    daily = [daily_cumulative_distance(r) for r in results]
    write_columns(
        series,
        "day," + ",".join(f"distance_m_{r.strategy}" for r in results),
        (np.arange(daily[0].size if daily else 0), *daily),
    )
    return [comparison, series]
