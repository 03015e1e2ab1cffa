"""Tests for solarasv.harness — config validation, missions, comparison, exports."""

from __future__ import annotations

import dataclasses
import hashlib
import os
import re
import struct
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solarasv.benchmark import MpcConfig
from solarasv.config import ConfigError, IlcSettings, SimConfig
from solarasv.harness import (
    Policy,
    SimResult,
    build_input_profile,
    build_mission_envelope,
    compare_strategies,
    daily_cumulative_distance,
    export_comparison,
    export_envelope,
    export_traces,
    run_mission,
    simulate,
    tabulate_mission,
)
from solarasv import _fork, harness
from solarasv.barrier import build_envelope
from solarasv.solar import (
    DAY_S, FileSource, IdealizedSource, load_profile, sample_array, whole_steps,
)
from solarasv.vessel import VesselParams

from conftest import PERIODIC_LOG, simulate_whole_lists

DAY = 86400.0
NAN, INF = float("nan"), float("inf")


def _cfg(**kw) -> SimConfig:
    base = dict(
        mission_length=2 * DAY,
        dt=360.0,
        initial_soc=3250.0,
        strategy="ilc",
        solar=IdealizedSource(d0=300.0, d1=500.0),
        barrier_mode="periodic-day",
    )
    base.update(kw)
    return SimConfig(**base)


def _energy_audit(result, params: VesselParams) -> float:
    """Terminal SOC recomputed from the traces; must match exactly."""
    dtf = result.dt / 3600.0
    draws = params.k_h + params.k_m * result.velocity_trace**3
    net = float(np.sum((result.p_in_trace - draws) * dtf))
    return result.initial_soc + net + result.floor_added_wh - result.curtailed_wh


@st.composite
def _whole_run(draw) -> SimConfig:
    """A 1-3 day horizon-mode mission of a drawn strategy, day table,
    u_min and measurement noise.

    Every day peaks at d0 + d1 <= 1000 W, below the 1040 W full-speed draw,
    so b_u stays at b_max and every envelope is feasible.
    """
    days = draw(st.integers(1, 3))
    dt = draw(st.sampled_from([360.0, 720.0, 1800.0, 3600.0]))
    watts = st.floats(0.0, 500.0)
    horizon = 43200.0
    return SimConfig(
        mission_length=days * DAY,
        dt=dt,
        initial_soc=draw(st.floats(0.0, 6500.0)),
        strategy=draw(st.sampled_from(
            ["ilc", "mpc", "constant-constrained", "constant-unconstrained"]
        )),
        solar=IdealizedSource(
            d0_by_day=tuple(draw(st.lists(watts, min_size=days, max_size=days))),
            d1_by_day=tuple(draw(st.lists(watts, min_size=days, max_size=days))),
        ),
        barrier_mode="horizon",
        rng_seed=draw(st.integers(0, 2**32 - 1)),
        noise_std=draw(st.sampled_from([0.0, 5.0])),
        vessel=VesselParams(u_min=draw(st.sampled_from([0.0, 0.5]))),
        mpc=MpcConfig(
            horizon=horizon,
            soc_grid=41,
            u_grid=8,
            replan_interval=draw(st.sampled_from([1, int(horizon / dt)])),
        ),
    )


@settings(max_examples=30, deadline=None)
@given(_whole_run())
def test_whole_runs_keep_the_ledgers(cfg):
    """On the executed path: the audit closes, the failure flag is the floor
    ledger, and the SOC stays inside the battery window. A learner or planner
    run that starts inside the envelope, with u_min = 0 and no noise, never
    reaches the battery floor (constant-constrained still can: it drains the
    battery; noise can push the SOC below b_l, and u_min > 0 keeps the
    velocity floor's residue)."""
    params = cfg.vessel
    tab = tabulate_mission(cfg)
    result = run_mission(cfg, tab)
    assert result.terminal_soc == pytest.approx(_energy_audit(result, params), abs=1e-6)
    assert result.battery_failed == (result.floor_added_wh > 0)
    assert np.all(result.soc_trace >= params.b_min)
    assert np.all(result.soc_trace <= params.b_max)
    floor_free = params.u_min == 0.0 and cfg.noise_std == 0.0
    if cfg.strategy in ("ilc", "mpc") and floor_free and tab.lower[0] <= cfg.initial_soc:
        assert result.floor_added_wh == 0.0
        assert not result.battery_failed


# ======================================================================
# Config validation
# ======================================================================


class TestValidation:
    @pytest.mark.parametrize(
        "kw, fragment",
        [
            pytest.param({"dt": 0.0}, "sim.dt: must be > 0", id="dt-zero"),
            pytest.param(
                {"mission_length": 0.0}, "sim.mission_length: must be > 0",
                id="mission_length-zero",
            ),
            pytest.param(
                {"mission_length": DAY + 1.0}, "multiple of sim.dt",
                id="mission_length-not-whole-steps",
            ),
            pytest.param(
                {"initial_soc": 9999.0}, "outside battery window", id="initial_soc-outside",
            ),
            pytest.param({"strategy": "sail"}, "sim.strategy", id="strategy-unknown"),
            pytest.param({"barrier_mode": "weekly"}, "barrier.mode", id="barrier_mode-unknown"),
            pytest.param({"noise_std": -1.0}, "sim.noise_std", id="noise_std-negative"),
            pytest.param(
                {"ilc": IlcSettings(delta=0.0)}, "controller.delta", id="delta-zero",
            ),
            pytest.param(
                {"ilc": IlcSettings(u_init=5.0)}, "controller.u_init", id="u_init-above-u_max",
            ),
            pytest.param({"solar": IdealizedSource(d1=-1.0)}, "solar.d1", id="d1-negative"),
            pytest.param(
                {"solar": IdealizedSource(d0_by_day=[100.0])},
                "must come together",
                id="table-d0-alone",
            ),
            pytest.param(
                {"solar": IdealizedSource(d0_by_day=[1.0], d1_by_day=[1.0, 2.0])},
                "lengths differ",
                id="table-lengths-differ",
            ),
            pytest.param(
                {"solar": FileSource(path="x.csv", scale=0.0)}, "solar.scale",
                id="scale-zero",
            ),
            pytest.param({"dt": NAN}, "sim.dt: must be finite", id="dt-nan"),
            pytest.param(
                {"mission_length": INF}, "sim.mission_length: must be finite",
                id="mission_length-inf",
            ),
            pytest.param(
                {"mission_length": NAN}, "sim.mission_length: must be finite",
                id="mission_length-nan",
            ),
            pytest.param(
                {"initial_soc": NAN}, "sim.initial_soc: must be finite", id="initial_soc-nan",
            ),
            pytest.param(
                {"noise_std": INF}, "sim.noise_std: must be finite", id="noise_std-inf",
            ),
            pytest.param(
                {"ilc": IlcSettings(k_p=NAN)}, "controller.k_p: must be finite", id="k_p-nan",
            ),
            pytest.param(
                {"ilc": IlcSettings(k_d=INF)}, "controller.k_d: must be finite", id="k_d-inf",
            ),
            pytest.param(
                {"ilc": IlcSettings(delta=INF)}, "controller.delta: must be finite",
                id="delta-inf",
            ),
            pytest.param(
                {"ilc": IlcSettings(u_init=NAN)}, "controller.u_init: must be finite",
                id="u_init-nan",
            ),
            pytest.param(
                {"ilc": IlcSettings(b_des=-INF)}, "controller.b_des: must be finite",
                id="b_des-minus-inf",
            ),
            pytest.param(
                {"solar": IdealizedSource(d0=NAN)}, "solar.d0: must be finite", id="d0-nan",
            ),
            pytest.param(
                {"solar": IdealizedSource(d1=INF)}, "solar.d1: must be finite", id="d1-inf",
            ),
            pytest.param(
                {"solar": IdealizedSource(d0_by_day=(1.0, NAN), d1_by_day=(1.0, 1.0))},
                "solar.table: must be finite",
                id="table-nan",
            ),
            pytest.param(
                {"solar": FileSource(path="x.csv", scale=INF)}, "solar.scale: must be finite",
                id="scale-inf",
            ),
            pytest.param({"rng_seed": -1}, "sim.rng_seed", id="rng_seed-negative"),
            pytest.param(
                {"strategy": "mpc", "mpc": MpcConfig(horizon=900.0)},
                "mpc.horizon: must be a positive multiple of sim.dt",
                id="mpc-horizon-not-whole-steps",
            ),
            pytest.param(
                {"solar": FileSource(path="x.csv", interpolation="cubic")},
                "solar.interpolation: 'cubic' not one of ('hold', 'linear')",
                id="interpolation-unknown",
            ),
            pytest.param(
                {"solar": IdealizedSource(d0_by_day=(1.0,), d1_by_day=(-1.0,))},
                "solar.table: d1 values must be >= 0",
                id="table-d1-negative",
            ),
            pytest.param(
                {"solar": IdealizedSource(d0_by_day=(), d1_by_day=())}, "solar.table: no days",
                id="table-empty",
            ),
            pytest.param(
                {"ilc": IlcSettings(b_des=99999.0)},
                "controller.b_des: 99999.0 outside battery window [0.0, 6500.0]",
                id="b_des-outside",
            ),
            pytest.param(
                {"solar": IdealizedSource(d0_by_day=(300.0,), d1_by_day=(500.0,))},
                "barrier.mode: periodic-day",
                id="periodic-day-on-a-table",
            ),
            pytest.param(
                {"solar": FileSource(path="absent.csv")}, "barrier.mode: periodic-day",
                id="periodic-day-on-a-log",
            ),
            # numpy would raise a TypeError from inside run_mission
            pytest.param(
                {"rng_seed": 1.5, "noise_std": 1.0}, "sim.rng_seed: must be an integer >= 0",
                id="rng_seed-not-integer",
            ),
            pytest.param(
                {"dt": DAY, "mission_length": 2 * DAY},
                "barrier.mode: periodic-day needs sim.dt below",
                id="periodic-day-dt-a-day",
            ),
            pytest.param(
                {"dt": DAY, "mission_length": 2 * DAY,
                 "solar": FileSource(path="x.csv", periodic=True)},
                "barrier.mode: periodic-day needs sim.dt below",
                id="periodic-day-dt-a-day-periodic-log",
            ),
            pytest.param(
                {"ilc": IlcSettings(k_p=-5e-5, b_des=4590.0)}, "controller.k_p: must be >= 0",
                id="k_p-negative",
            ),
            pytest.param(
                {"ilc": IlcSettings(k_d=-1.0)}, "controller.k_d: must be >= 0",
                id="k_d-negative",
            ),
        ],
    )
    def test_each_field_reports_itself(self, kw, fragment):
        with pytest.raises(ConfigError, match=re.escape(fragment)):
            _cfg(**kw)

    @pytest.mark.parametrize(
        "kw, key",
        [
            ({"initial_soc": NAN}, "sim.initial_soc"),
            ({"ilc": IlcSettings(u_init=NAN)}, "controller.u_init"),
            ({"ilc": IlcSettings(b_des=NAN)}, "controller.b_des"),
            ({"ilc": IlcSettings(k_p=NAN)}, "controller.k_p"),
            ({"ilc": IlcSettings(k_d=-INF)}, "controller.k_d"),
            ({"ilc": IlcSettings(delta=-INF)}, "controller.delta"),
        ],
    )
    def test_each_bad_key_is_named_once(self, kw, key):
        """A non-finite value is reported as such, not also as out of range."""
        with pytest.raises(ConfigError) as exc:
            _cfg(strategy="ilc", **kw)
        assert str(exc.value).count(f"{key}:") == 1

    def test_ilc_needs_day_aligned_dt(self):
        with pytest.raises(ConfigError, match="must divide 86400"):
            _cfg(dt=700.0, mission_length=700.0 * 1000)
        # the same grid is fine for strategies without a daily cycle
        _cfg(
            dt=700.0,
            mission_length=700.0 * 1000,
            strategy="mpc",
            mpc=MpcConfig(horizon=700.0 * 240),
        )

    def test_valid_config_is_clean(self):
        _cfg()  # raises ConfigError if any setting is invalid

    def test_numpy_integer_seed_is_an_integer(self):
        noisy = dict(strategy="constant-constrained", noise_std=1.0)
        seeded = run_mission(_cfg(rng_seed=np.int64(3), **noisy))
        _assert_same_run(seeded, run_mission(_cfg(rng_seed=3, **noisy)))

    def test_periodic_day_takes_two_steps_per_period(self):
        # the largest dt that leaves two grid points in the period builds
        tabulate_mission(_cfg(dt=DAY / 2, strategy="constant-unconstrained"))

    def test_construction_joins_all_errors(self):
        with pytest.raises(ConfigError) as exc:
            _cfg(dt=0.0, strategy="sail", noise_std=-1.0)
        msg = str(exc.value)
        assert "sim.dt" in msg and "sim.strategy" in msg and "sim.noise_std" in msg


# ======================================================================
# The step loop
# ======================================================================


def _bits(value):
    """value with every float, in lists and records too, as its IEEE bytes."""
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    if isinstance(value, float):
        return struct.pack("<d", value)
    return value


def _assert_same_run(a: SimResult, b: SimResult) -> None:
    """Every simulated number of two results, bitwise; wall time aside."""
    for name in ("soc_trace", "velocity_trace", "p_in_trace"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    for name in (
        "strategy", "dt", "initial_soc", "distance", "terminal_soc", "violation",
        "per_iteration", "curtailed_wh", "floor_added_wh", "battery_failed",
    ):
        assert _bits(getattr(a, name)) == _bits(getattr(b, name)), name


def _block_case(n: int, cycle: int):
    """A stateful policy and inputs that clamp at the ceiling, then the floor.

    Steps below one block get 3000 W and a slow cruise, so the battery fills
    and is curtailed; later steps get no sun and full speed, so it runs to
    the floor. The velocity follows the measured SOC and a speed the cycle
    ends learn from it, so noise and every cycle end show in the traces.
    """
    params = VesselParams()
    edge = harness._BLOCK
    state = {"u": 1.0, "k": 0}

    def control(b, b_l, b_u, i):
        if i >= edge:
            return params.u_max
        return min(max(state["u"] + 1e-4 * (b - b_l) - 1e-4 * (b_u - b), 0.0), 1.5)

    def end_cycle(b_meas, b):
        state["k"] += 1
        state["u"] = min(max(state["u"] + 1e-5 * (b_meas - 3250.0), 0.0), 1.5)
        return harness.IterationRecord(state["k"], state["u"], b_meas, b)

    steps = np.arange(n)
    p_in = np.where(steps < edge, 3000.0, 0.0)
    lower = 1000.0 + 500.0 * np.sin(steps / 50.0)
    upper = 5500.0 + 500.0 * np.cos(steps / 70.0)
    policy = Policy("learner", control, cycle, end_cycle)
    return policy, p_in, lower, upper, params


class TestStepLoop:
    @pytest.mark.parametrize("noisy", [False, True])
    @pytest.mark.parametrize("cycle", [1, 7, harness._BLOCK, harness._BLOCK + 1])
    @pytest.mark.parametrize(
        "n",
        [1, harness._BLOCK - 1, harness._BLOCK, harness._BLOCK + 1, 2 * harness._BLOCK + 17],
    )
    def test_blocks_match_the_whole_list_loop(self, n, cycle, noisy):
        """The block loop gives the whole-list loop's numbers, bitwise.

        A cycle of 1 ends on both sides of every block edge, one of _BLOCK
        ends on each block's last step (its measurement reads the noise one
        past the block) and one of _BLOCK + 1 on the step after the edge.
        """
        noise = np.random.default_rng(n).normal(0.0, 5.0, n + 1) if noisy else None
        runs = []
        for loop in (simulate, simulate_whole_lists):
            policy, p_in, lower, upper, params = _block_case(n, cycle)
            runs.append(loop(policy, p_in, lower, upper, 3250.0, params, 360.0, noise))
        block, whole = runs
        _assert_same_run(block, whole)
        assert len(block.per_iteration) == n // cycle
        if n > 2 * harness._BLOCK:
            edge = harness._BLOCK
            assert block.soc_trace[:edge].max() == params.b_max
            assert block.soc_trace[edge:].min() == params.b_min
            assert block.curtailed_wh > 0 and block.floor_added_wh > 0

    def test_bounds_must_match_the_steps(self, params):
        policy = Policy("still", lambda b, b_l, b_u, i: 0.0)
        with pytest.raises(ValueError, match="one value per step"):
            simulate(policy, [0.0] * 3, [0.0] * 2, [6500.0] * 3, 3000.0, params, 360.0)

        # noise holds n + 1 values, and a cycle end needs a cycle length;
        # both are refused before the first control call
        def never(b, b_l, b_u, i):
            raise AssertionError("control called")

        n = 30
        args = ([0.0] * n, [0.0] * n, [6500.0] * n, 3000.0, params, 360.0)
        learner = Policy("learner", never, 10, lambda b_meas, b: None)
        for size in (n, n - 5, n + 2):
            with pytest.raises(ValueError, match="noise must hold"):
                simulate(learner, *args, [0.0] * size)
        for cycle in (0, -1):
            with pytest.raises(ValueError, match="cycle_steps >= 1"):
                simulate(learner._replace(cycle_steps=cycle), *args)
        # a step that is not a positive, finite time, or a non-finite start SOC
        # (unchecked, they give a negative, zero or NaN distance, or a NaN SOC)
        fixed = Policy("never", never)
        for dt in (-360.0, 0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="dt must be finite and > 0"):
                simulate(fixed, *args[:5], dt)
        for soc in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="initial_soc must be finite"):
                simulate(fixed, *args[:3], soc, params, 360.0)
        # a NaN input ends in a NaN SOC with no failure, a NaN bound charges
        # no violation: each array is named before the first control call
        for k, name in enumerate(("p_in", "lower", "upper")):
            for bad in (np.nan, np.inf, -np.inf):
                arrays = [np.array(a) for a in args[:3]]
                arrays[k][n // 2] = bad
                with pytest.raises(ValueError, match=f"^{name} must be finite$"):
                    simulate(fixed, *arrays, *args[3:])

    def test_loop_memory_does_not_grow_with_the_mission(self):
        """A year of ilc steps peaks under 4 MB of traced heap.

        The two float64 traces take 1.4 MB; the loop's Python floats cover
        one block. The whole-list loop (``simulate_whole_lists``) peaks near
        15 MB on the same mission.
        """
        cfg = SimConfig(noise_std=5.0)
        tab = tabulate_mission(cfg)
        policy = harness.build_policy(cfg, tab)
        noise = np.random.default_rng(0).normal(0.0, 5.0, tab.p_in.size + 1)
        tracemalloc.start()
        try:
            result = simulate(
                policy, tab.p_in, tab.lower[:-1], tab.upper[:-1],
                cfg.initial_soc, cfg.vessel, float(cfg.dt), noise,
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.soc_trace.size == 87_600
        assert peak < 4 * 2**20, peak

    def test_cycle_hook_gets_measured_and_true_soc(self, params):
        seen = []

        def end_cycle(b_meas, b):
            seen.append((b_meas, b))
            return len(seen)

        policy = Policy("hooked", lambda b, b_l, b_u, i: 0.0, 2, end_cycle)
        noise = [0.0, 0.0, 1.0, 0.0, 2.0]
        r = simulate(
            policy, [10.0] * 4, [0.0] * 4, [6500.0] * 4, 3000.0, params, 360.0, noise
        )
        assert seen == [(3001.0, 3000.0), (3002.0, 3000.0)]
        assert r.per_iteration == [1, 2]


# ======================================================================
# Profile and envelope assembly
# ======================================================================


class TestAssembly:
    def test_idealized_profile_is_periodic(self):
        prof = build_input_profile(_cfg())
        assert prof.periodic
        assert sample_array(prof, [0.0])[0] == 800.0

    @pytest.mark.parametrize("dt", [360.0, 3600.0 / 7])
    def test_sources_and_learner_share_one_day(self, tmp_path, dt):
        """Each periodic source repeats every DAY_S, the learner's cycle too."""
        log = tmp_path / "day.csv"
        log.write_text("0,0\n30000,0\n43200,400\n56400,0\n")
        for source in (IdealizedSource(), FileSource(path=str(log), periodic=True)):
            assert source.profile(dt).periodic
        cfg = _cfg(dt=dt)
        policy = harness.build_policy(cfg, tabulate_mission(cfg))
        assert policy.cycle_steps == whole_steps(DAY_S, dt)
        assert policy.cycle_steps * dt == pytest.approx(DAY_S, rel=1e-12)

    def test_seasonal_table_switches_by_day(self):
        cfg = _cfg(
            solar=IdealizedSource(d0_by_day=[100.0, 200.0], d1_by_day=[0.0, 0.0]),
            barrier_mode="horizon",
        )
        prof = build_input_profile(cfg)
        assert sample_array(prof, [0.5 * DAY, 1.5 * DAY]).tolist() == [100.0, 200.0]

    def test_file_source_loads_and_scales(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("0,100\n86400,100\n")
        cfg = _cfg(solar=FileSource(path=str(f), scale=3.0), barrier_mode="horizon")
        prof = build_input_profile(cfg)
        assert sample_array(prof, [1000.0])[0] == 300.0

    def test_periodic_day_envelope_comes_from_the_periodic_file(self, tmp_path, params):
        # an overcast day: a short low midday peak, nothing like the clear sky
        f = tmp_path / "day.csv"
        f.write_text("0,0\n30000,0\n43200,400\n56400,0\n")
        cfg = _cfg(solar=FileSource(path=str(f), periodic=True))
        env = build_mission_envelope(cfg, build_input_profile(cfg))
        want = build_envelope(
            dataclasses.replace(load_profile(f), periodic=True), params,
            np.arange(0.0, DAY, 360.0), mode="periodic-day",
        )
        assert env.periodic
        np.testing.assert_array_equal(env.times, want.times)
        np.testing.assert_array_equal(env.lower, want.lower)
        np.testing.assert_array_equal(env.upper, want.upper)
        clear = build_mission_envelope(_cfg(), build_input_profile(_cfg()))
        assert env.lower.max() > clear.lower.max()

    def test_horizon_envelope_covers_mission_grid(self):
        cfg = _cfg(barrier_mode="horizon")
        env = build_mission_envelope(cfg, build_input_profile(cfg))
        assert not env.periodic
        assert env.times[0] == 0.0 and env.times[-1] == cfg.mission_length

    def test_horizon_envelope_needs_coverage(self, tmp_path):
        f = tmp_path / "short.csv"
        f.write_text("0,300\n3600,300\n")
        cfg = _cfg(solar=FileSource(path=str(f)), barrier_mode="horizon")
        prof = build_input_profile(cfg)
        with pytest.raises(ValueError, match="profile does not cover the requested grid"):
            build_mission_envelope(cfg, prof)

    def test_mission_needs_profile_coverage(self, tmp_path):
        short = tmp_path / "short.csv"
        short.write_text("0,300\n3600,300\n")
        late = tmp_path / "late.csv"
        late.write_text(f"360,300\n{3 * DAY},300\n")
        for f in (short, late):
            with pytest.raises(ConfigError, match="does not cover the mission"):
                run_mission(_cfg(solar=FileSource(path=str(f)), barrier_mode="horizon"))


# ======================================================================
# ILC missions
# ======================================================================


class TestIlcMission:
    def test_shapes_and_bookkeeping(self, params):
        result = run_mission(_cfg())
        n = int(2 * DAY / 360.0)
        assert result.soc_trace.size == n
        assert result.velocity_trace.size == n
        assert result.p_in_trace.size == n
        assert result.terminal_soc == result.soc_trace[-1]
        assert result.distance == pytest.approx(
            float(np.sum(result.velocity_trace)) * 360.0, rel=1e-12
        )
        assert result.wall_time > 0.0
        assert np.all(result.velocity_trace >= params.u_min)
        assert np.all(result.velocity_trace <= params.u_max)

    def test_energy_audit_closes(self, params):
        result = run_mission(_cfg())
        assert result.terminal_soc == pytest.approx(
            _energy_audit(result, params), abs=1e-6
        )

    def test_iteration_records(self, params):
        result = run_mission(_cfg())
        assert [r.iteration for r in result.per_iteration] == [1, 2]
        spd = int(DAY / 360.0)
        assert result.per_iteration[0].terminal_soc == result.soc_trace[spd - 1]
        for rec in result.per_iteration:
            assert params.u_min <= rec.u_hat <= params.u_max
            assert rec.p1 < 0.0

    def test_learning_raises_velocity_after_surplus_day(self):
        # abundant input and a fixed target: day 1 ends above b_des,
        # so the learned velocity must step up from its initial 1.0
        result = run_mission(_cfg(ilc=IlcSettings(b_des=3250.0)))
        assert result.per_iteration[0].terminal_soc > 3250.0
        assert result.per_iteration[0].u_hat > 1.0

    def test_deterministic_without_noise(self):
        a = run_mission(_cfg())
        b = run_mission(_cfg())
        assert a.soc_trace.tolist() == b.soc_trace.tolist()
        assert a.distance == b.distance

    def test_noise_reproducible_by_seed(self):
        a = run_mission(_cfg(noise_std=5.0, rng_seed=7))
        b = run_mission(_cfg(noise_std=5.0, rng_seed=7))
        c = run_mission(_cfg(noise_std=5.0, rng_seed=8))
        assert a.velocity_trace.tolist() == b.velocity_trace.tolist()
        assert a.velocity_trace.tolist() != c.velocity_trace.tolist()

    def test_learner_updates_from_measured_cycle_end_soc(self):
        """u_hat follows the measured, not the true, cycle-end SOC."""
        cfg = _cfg(mission_length=4 * DAY, noise_std=25.0, rng_seed=5)
        result = run_mission(cfg)
        n = result.soc_trace.size
        noise = np.random.default_rng(5).normal(0.0, 25.0, n + 1)
        spd = int(DAY / cfg.dt)
        p = cfg.vessel
        u_hat, b_des = cfg.ilc.u_init, cfg.initial_soc
        expected = []
        for end in range(spd - 1, n, spd):
            b_meas = result.soc_trace[end] + noise[end + 1]
            u_hat = min(max(u_hat + cfg.ilc.k_p * (b_meas - b_des), p.u_min), p.u_max)
            b_des = b_meas
            expected.append(u_hat)
        assert [r.u_hat for r in result.per_iteration] == expected
        # the records keep the true terminal SOC
        ends = [result.soc_trace[e] for e in range(spd - 1, n, spd)]
        assert [r.terminal_soc for r in result.per_iteration] == ends

    def test_raised_battery_floor_is_kept_clear(self):
        """The lower barrier sits above vessel.b_min, so the floor is never hit."""
        cfg = _cfg(
            mission_length=10 * DAY,
            vessel=VesselParams(b_min=1500.0),
            ilc=IlcSettings(b_des=3250.0),
        )
        result = run_mission(cfg)
        assert tabulate_mission(cfg).lower.min() >= 1500.0
        assert result.floor_added_wh == 0.0 and not result.battery_failed
        assert result.soc_trace.min() > 1500.0

    def test_noise_perturbs_commands_not_truth(self):
        clean = run_mission(_cfg())
        noisy = run_mission(_cfg(noise_std=5.0, rng_seed=1))
        assert clean.velocity_trace.tolist() != noisy.velocity_trace.tolist()
        # the audit is on the true SOC, so it still closes under noise
        assert noisy.terminal_soc == pytest.approx(
            _energy_audit(noisy, VesselParams()), abs=1e-6
        )


# ======================================================================
# Constant-velocity missions
# ======================================================================


class TestConstantMissions:
    def test_unconstrained_holds_one_velocity(self):
        result = run_mission(_cfg(strategy="constant-unconstrained"))
        us = set(result.velocity_trace.tolist())
        assert len(us) == 1
        assert result.per_iteration == []

    def test_constrained_switches_between_three_levels(self, params):
        result = run_mission(_cfg(strategy="constant-constrained"))
        unconstrained = run_mission(_cfg(strategy="constant-unconstrained"))
        (u_const,) = set(unconstrained.velocity_trace.tolist())
        levels = set(result.velocity_trace.tolist())
        assert levels <= {params.u_min, u_const, params.u_max}
        assert u_const in levels

    def test_constrained_respects_envelope_better(self):
        free = run_mission(_cfg(strategy="constant-unconstrained"))
        clamped = run_mission(_cfg(strategy="constant-constrained"))
        assert clamped.violation <= free.violation

    def test_energy_audit_closes(self, params):
        for strategy in ("constant-unconstrained", "constant-constrained"):
            result = run_mission(_cfg(strategy=strategy))
            assert result.terminal_soc == pytest.approx(
                _energy_audit(result, params), abs=1e-6
            )


# ======================================================================
# Receding-horizon missions
# ======================================================================


def _mpc_cfg(**kw) -> SimConfig:
    return _cfg(
        strategy="mpc",
        mission_length=DAY,
        mpc=MpcConfig(horizon=21600.0, soc_grid=66, u_grid=8, replan_interval=10),
        **kw,
    )


class TestMpcMission:
    def test_shapes_and_audit(self, params):
        result = run_mission(_mpc_cfg())
        assert result.velocity_trace.size == int(DAY / 360.0)
        assert result.per_iteration == []
        assert np.all(result.velocity_trace >= params.u_min)
        assert np.all(result.velocity_trace <= params.u_max)
        assert result.terminal_soc == pytest.approx(
            _energy_audit(result, params), abs=1e-6
        )

    def test_deterministic(self):
        a = run_mission(_mpc_cfg())
        b = run_mission(_mpc_cfg())
        assert a.velocity_trace.tolist() == b.velocity_trace.tolist()

    def test_planner_never_drains_battery(self):
        result = run_mission(_mpc_cfg())
        assert not result.battery_failed
        assert result.floor_added_wh == 0.0


# ======================================================================
# Strategy comparison
# ======================================================================


@pytest.fixture
def tabulations(monkeypatch):
    """The configs tabulate_mission is called with, in call order."""
    seen = []
    original = harness.tabulate_mission

    def counting(cfg):
        seen.append(cfg)
        return original(cfg)

    monkeypatch.setattr(harness, "tabulate_mission", counting)
    return seen


class TestCompare:
    def test_needs_two_configs(self):
        with pytest.raises(ConfigError, match="at least two"):
            compare_strategies([_cfg()])

    @pytest.mark.parametrize(
        "changes, index, field",
        [
            ([{"solar": IdealizedSource(d0=200.0, d1=500.0)}], 2, "solar source"),
            ([{}, {"mission_length": DAY}], 3, "mission length"),
            ([{"dt": 720.0}], 2, "dt"),
            # its steps do not tile a day, so it would have no daily distances
            ([{"dt": 2 * DAY / 37}], 2, "dt"),
            ([{}, {"vessel": VesselParams(k_h=12.0)}], 3, "vessel"),
            ([{"barrier_mode": "horizon"}], 2, "barrier mode"),
        ],
        ids=["solar", "mission_length", "dt", "dt-without-whole-days", "vessel",
             "barrier_mode"],
    )
    def test_refuses_a_config_of_another_mission(
        self, tabulations, forks, changes, index, field
    ):
        cfgs = [_cfg()] + [
            _cfg(strategy="constant-unconstrained", **change) for change in changes
        ]
        with pytest.raises(
            ConfigError,
            match=f"^compare: config {index} has a different {field} than config 1$",
        ):
            compare_strategies(cfgs)
        assert tabulations == []
        assert forks == []

    def test_rows_align_with_results(self):
        results = compare_strategies(
            [_cfg(strategy="constant-unconstrained"), _cfg()]
        )
        assert [r.strategy for r in results] == ["constant-unconstrained", "ilc"]
        for res in results:
            series = daily_cumulative_distance(res)
            assert series.size == 2
            assert series[-1] == pytest.approx(res.distance, rel=1e-12)


class TestSharedTabulation:
    def test_rows_equal_separate_runs(self, tabulations):
        base = _cfg(
            mission_length=3 * DAY,
            solar=_GATE_SOLAR,
            barrier_mode="horizon",
            ilc=IlcSettings(b_des=3250.0),
        )
        cfgs = [
            dataclasses.replace(base, noise_std=5.0, rng_seed=3),
            dataclasses.replace(base, strategy="constant-constrained"),
            dataclasses.replace(base, strategy="constant-unconstrained"),
            dataclasses.replace(
                base,
                strategy="mpc",
                mpc=MpcConfig(horizon=21600.0, soc_grid=66, u_grid=8, replan_interval=10),
            ),
        ]
        results = compare_strategies(cfgs)
        assert tabulations == [cfgs[0]]
        for cfg, res in zip(cfgs, results):
            _assert_same_run(res, run_mission(cfg))

    def test_shared_arrays_are_read_only(self, params):
        tab = tabulate_mission(_cfg())
        for arr in (tab.p_in, tab.lower, tab.upper):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0

        def scribble(b, b_l, b_u, i):
            tab.lower[i] = b  # a policy must not move the shared floor
            return 0.0

        with pytest.raises(ValueError, match="read-only"):
            simulate(
                Policy("scribble", scribble), tab.p_in, tab.lower[:-1],
                tab.upper[:-1], 3250.0, params, 360.0,
            )
        results = compare_strategies([_cfg(), _cfg(strategy="constant-constrained")])
        shared = results[0].p_in_trace
        assert results[1].p_in_trace is shared
        with pytest.raises(ValueError, match="read-only"):
            shared[0] = 0.0

    def test_day_table_tabulates_without_copies(self):
        # a table that ends at the mission end: the profile's knots, the
        # envelope grid and the step grid are the same times
        days = IdealizedSource(d0_by_day=(300.0,) * 3, d1_by_day=(500.0,) * 3)
        tab = tabulate_mission(
            _cfg(mission_length=3 * DAY, solar=days, barrier_mode="horizon")
        )
        assert tab.profile.end == 3 * DAY
        assert np.shares_memory(tab.lower, tab.env.lower)
        assert np.shares_memory(tab.upper, tab.env.upper)
        assert np.shares_memory(tab.p_in, tab.profile.powers)
        assert tab.p_in.size == tab.lower.size - 1

    def test_foreign_tabulation_is_refused(self):
        tab = tabulate_mission(_cfg())
        with pytest.raises(ValueError, match="different mission"):
            run_mission(_cfg(dt=720.0), tab)
        # the strategy is not part of the tabulation
        run_mission(_cfg(strategy="constant-constrained"), tab)


class TestDailyCumulativeDistance:
    def test_dt_within_tolerance_of_dividing_a_day(self, tmp_path):
        # 86400 / (3600 / 7) is 167.99999999999997, which counts as 168 steps
        result = run_mission(_cfg(dt=3600.0 / 7.0))
        series = daily_cumulative_distance(result)
        assert series.size == 2
        assert series[-1] == result.distance
        export_traces(result, tmp_path)
        daily = (tmp_path / "daily.csv").read_text().splitlines()
        assert len(daily) == 1 + 2
        assert float(daily[-1].split(",")[-1]) == result.distance

    def test_steps_that_do_not_tile_a_day_give_no_days(self, tmp_path):
        result = run_mission(
            _cfg(dt=700.0, mission_length=700.0 * 300, strategy="constant-unconstrained")
        )
        assert daily_cumulative_distance(result).size == 0
        export_traces(result, tmp_path)
        assert (tmp_path / "daily.csv").read_text().splitlines() == [
            "day,mean_velocity_ms,mean_soc_wh,distance_m"
        ]

    def test_partial_day_is_dropped(self):
        result = run_mission(
            _cfg(mission_length=1.5 * DAY, strategy="constant-unconstrained")
        )
        series = daily_cumulative_distance(result)
        assert series.size == 1
        spd = int(DAY / 360.0)
        expected = float(np.sum(result.velocity_trace[:spd])) * 360.0
        assert series[0] == pytest.approx(expected, rel=1e-12)

    def test_sub_day_mission_gives_empty_series(self):
        result = run_mission(
            _cfg(mission_length=7200.0, strategy="constant-unconstrained")
        )
        assert daily_cumulative_distance(result).size == 0


class TestForkedShare:
    """A year's export and a compare split work with a forked child.

    The single-CPU path runs everything in-process; both must give the
    same bytes and numbers.
    """

    def test_year_export_bytes_match_single_cpu(self, tmp_path, forks, monkeypatch):
        result = run_mission(_cfg(mission_length=365 * DAY))
        export_traces(result, tmp_path / "two")
        assert len(forks) == 1  # trace.csv; daily.csv is 365 rows
        monkeypatch.setattr(_fork, "_two_cpus", lambda: False)
        export_traces(result, tmp_path / "one")
        assert len(forks) == 1
        for name in ("trace.csv", "iterations.csv", "summary.csv", "daily.csv"):
            assert (tmp_path / "two" / name).read_bytes() == (
                tmp_path / "one" / name
            ).read_bytes(), name

    def test_compare_matches_single_cpu(self, forks, monkeypatch, tmp_path):
        self._compare_both_ways(forks, monkeypatch, tmp_path, slow_first=False)

    def test_compare_with_slow_first_config_matches_single_cpu(
        self, forks, monkeypatch, tmp_path
    ):
        # the placement is fixed: a caller held up on its first config does
        # not hand any of its configs to the child
        self._compare_both_ways(forks, monkeypatch, tmp_path, slow_first=True)

    def _compare_both_ways(self, forks, monkeypatch, tmp_path, slow_first: bool) -> None:
        tabs = []
        original = harness.tabulate_mission

        def keeping(cfg):
            tabs.append(original(cfg))
            return tabs[-1]

        monkeypatch.setattr(harness, "tabulate_mission", keeping)
        me, ran = os.getpid(), tmp_path / "ran.log"
        original_run = harness.run_mission

        def logging_run(cfg, tab):
            """run_mission, logging which process ran which config; with
            slow_first the caller is held up on the first config it runs."""
            if slow_first and os.getpid() == me and not ran.exists():
                time.sleep(0.5)
            fd = os.open(ran, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
            try:
                os.write(fd, f"{os.getpid()} {cfgs.index(cfg)}\n".encode())
            finally:
                os.close(fd)
            return original_run(cfg, tab)

        monkeypatch.setattr(harness, "run_mission", logging_run)
        base = _cfg(mission_length=3 * DAY, solar=_GATE_SOLAR, barrier_mode="horizon")
        cfgs = [
            dataclasses.replace(base, noise_std=5.0, rng_seed=3),
            dataclasses.replace(base, strategy="constant-constrained"),
            dataclasses.replace(base, strategy="constant-unconstrained"),
            dataclasses.replace(
                base,
                strategy="mpc",
                mpc=MpcConfig(horizon=21600.0, soc_grid=66, u_grid=8, replan_interval=10),
            ),
        ]
        runs = {}
        for two in (True, False):
            monkeypatch.setattr(_fork, "_two_cpus", lambda: two)
            tabs.clear()
            ran.unlink(missing_ok=True)
            runs[two] = compare_strategies(cfgs)
            assert len(forks) == 1  # the two-CPU compare forks once, the other never
            assert [r.strategy for r in runs[two]] == [c.strategy for c in cfgs]
            (tab,) = tabs  # one tabulation, shared by all four
            for r in runs[two]:
                assert r.p_in_trace is tab.p_in
            by = [line.split() for line in ran.read_text().splitlines()]
            assert sorted(int(i) for _, i in by) == [0, 1, 2, 3]  # each config once
            in_child = [int(i) for pid, i in by if int(pid) != me]
            in_caller = [int(i) for pid, i in by if int(pid) == me]
            # the child runs config 0 and the caller the rest in order; on one
            # CPU the caller runs its own share first, then the child's
            assert in_child == ([0] if two else [])
            assert in_caller == ([1, 2, 3] if two else [1, 2, 3, 0])
        for a, b in zip(runs[True], runs[False]):
            _assert_same_run(a, b)


# ======================================================================
# Exports
# ======================================================================


class TestExports:
    def test_trace_files(self, tmp_path):
        result = run_mission(_cfg())
        written = export_traces(result, tmp_path)
        names = [p.name for p in written]
        assert names == ["trace.csv", "iterations.csv", "summary.csv", "daily.csv"]

        trace = (tmp_path / "trace.csv").read_text().splitlines()
        assert trace[0] == "time_s,soc_wh,velocity_ms,p_in_w"
        assert len(trace) == result.velocity_trace.size + 1
        t, soc, u, p_in = (float(x) for x in trace[1].split(","))
        assert (t, soc, u, p_in) == (
            0.0, result.soc_trace[0], result.velocity_trace[0], result.p_in_trace[0]
        )

        iters = (tmp_path / "iterations.csv").read_text().splitlines()
        assert iters[0] == "iteration,u_hat,p1,terminal_soc_wh"
        assert len(iters) == len(result.per_iteration) + 1

        daily = (tmp_path / "daily.csv").read_text().splitlines()
        assert daily[0] == "day,mean_velocity_ms,mean_soc_wh,distance_m"
        assert len(daily) == 3  # 2 full days

        summary = (tmp_path / "summary.csv").read_text().splitlines()
        assert summary[1].startswith("ilc,")
        assert len(summary) == 2

    def test_export_is_deterministic(self, tmp_path):
        result = run_mission(_cfg())
        export_traces(result, tmp_path / "a")
        export_traces(result, tmp_path / "b")
        for name in ("trace.csv", "iterations.csv", "summary.csv", "daily.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_comparison_files(self, tmp_path):
        results = compare_strategies(
            [_cfg(strategy="constant-unconstrained"), _cfg()]
        )
        written = export_comparison(results, tmp_path)
        assert [p.name for p in written] == ["comparison.csv", "distance_series.csv"]

        rows = (tmp_path / "comparison.csv").read_text().splitlines()
        assert rows[0] == "strategy,distance_m,terminal_soc_wh,violation_wh2s,wall_time_s"
        assert len(rows) == 3

        series = (tmp_path / "distance_series.csv").read_text().splitlines()
        assert series[0] == "day,distance_m_constant-unconstrained,distance_m_ilc"
        assert len(series) == 2 + 1  # header and two full days

    def test_comparison_rows_are_the_summary_rows_first_five_fields(self, tmp_path):
        """comparison.csv and summary.csv take their columns from one result table."""
        results = compare_strategies(
            [_cfg(strategy="constant-unconstrained"), _cfg()]
        )
        export_comparison(results, tmp_path)
        comparison = [
            line.split(",") for line in (tmp_path / "comparison.csv").read_text().splitlines()
        ]
        assert len(comparison) == 1 + len(results)
        for row, result in zip(comparison[1:], results):
            export_traces(result, tmp_path / result.strategy)
            header, fields = (
                line.split(",")
                for line in (tmp_path / result.strategy / "summary.csv").read_text().splitlines()
            )
            assert comparison[0] == header[:5]
            # wall_time_s included: both rows are the same result's
            assert row == fields[:5]

    def test_comparison_of_different_day_counts_is_refused(self, tmp_path):
        """Results of missions with different day counts are not one table."""
        results = [
            run_mission(_cfg()),
            run_mission(_cfg(mission_length=DAY, strategy="constant-unconstrained")),
        ]
        with pytest.raises(
            ValueError,
            match=r"^day,distance_m_ilc,distance_m_constant-unconstrained: "
            r"columns differ in length \(2, 2, 1\)$",
        ):
            export_comparison(results, tmp_path)


class TestExportEnvelope:
    def test_roundtrip(self, tmp_path, params, canonical_day):
        grid = np.arange(0.0, 86400.0, 360.0)
        env = build_envelope(canonical_day, params, grid, mode="periodic-day")
        path = tmp_path / "envelope.csv"
        assert export_envelope(env, tmp_path) == [path]
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "time_s,b_l_wh,b_u_wh"
        assert len(rows) == grid.size + 1
        t0, lo0, hi0 = (float(x) for x in rows[1].split(","))
        assert (t0, lo0, hi0) == (0.0, env.lower[0], env.upper[0])


# ======================================================================
# Simulated numbers pinned across refactors
# ======================================================================

_GATE_SOLAR = IdealizedSource(
    d0_by_day=(330.0, 165.0, 330.0, 360.0), d1_by_day=(500.0, 250.0, 500.0, 500.0)
)
# sha256 of soc/velocity/p_in trace bytes, then (distance, terminal_soc,
# violation, curtailed_wh, floor_added_wh, battery_failed)
_P_IN = "b221661d722f51b28dd86348db9628b1dc2be84e5dbe362338b3fde7ff5e84bc"
_GATE = {
    "ilc": (
        "2cbe70b52aabd6aaa482d84578a9fd40538c926eccc9e025c580bdd4b0be9c94",
        "61b092d2cbacd892ff241bf472dd13d7f887634bc23f2c378e90cba2ec2c55da",
        _P_IN,
        (487381.0540610551, 6481.750471212287, 0.0, 0.0, 0.0, False),
    ),
    "constant-constrained": (
        "079d762415800178139dfa6c6d2aac5f68d2a2bd5a9e9a16dc641f7bde479e41",
        "4176ab61608b0af35977a5f132da184fb2356fb9ed8046aa76721d6d24356d54",
        _P_IN,
        (529956.2384985588, 3133.196107638208, 37126.86184889681, 0.0,
         138.85851904897237, True),
    ),
    "constant-unconstrained": (
        "5a67263ddd8163e302e0d1d37b136d9e5fb35bc3e943aa3e417cd1ef1db920c4",
        "72abbad930cf0869cc007b6778a393e362016447931214c3c6b950f0f8958ecb",
        _P_IN,
        (542385.9157341324, 3121.2150741968053, 132548.00559133547, 0.0,
         832.7150741967959, True),
    ),
    "mpc": (
        "81cbea90fa735a29b977352ddf4ca354ae8e5309e84f7f4eedaf629f64124669",
        "0fa93514a34968ef812b0d07e1fcdbbf72642cf5ea2bf2ea36ca6a3561770a5f",
        _P_IN,
        (509026.22608695604, 2253.9070217078197, 0.0, 0.0, 0.0, False),
    ),
}
_GATE_U_HAT = [
    1.1618563307066458, 1.3126605167039191, 1.474313708213052, 1.6359012317736663
]


def test_simulated_numbers_match_recorded_digests():
    """Four noise-free 4-day runs, one per strategy, bitwise as recorded."""
    for strategy, (soc, vel, p_in, scalars) in _GATE.items():
        cfg = _cfg(
            mission_length=4 * DAY,
            strategy=strategy,
            solar=_GATE_SOLAR,
            barrier_mode="horizon",
            ilc=IlcSettings(b_des=3250.0),
            mpc=MpcConfig(
                horizon=43200.0, soc_grid=131, u_grid=24,
                terminal_reward_slope=5.1, replan_interval=24,
            ),
        )
        r = run_mission(cfg)
        got = tuple(
            hashlib.sha256(a.tobytes()).hexdigest()
            for a in (r.soc_trace, r.velocity_trace, r.p_in_trace)
        )
        assert got == (soc, vel, p_in), strategy
        assert (
            r.distance, r.terminal_soc, r.violation,
            r.curtailed_wh, r.floor_added_wh, r.battery_failed,
        ) == scalars, strategy
        if strategy == "ilc":
            assert [rec.u_hat for rec in r.per_iteration] == _GATE_U_HAT


def test_holed_lattice_matches_recorded_digest():
    """Two days of the planner on 3251 x 48, bitwise as recorded.

    The 131 x 24 lattice above has no stage whose run of shifts has a hole;
    on 2 Wh cells the fast velocities land several cells apart, so here
    every stage skips windows no velocity lands on.
    """
    mpc = MpcConfig(horizon=86400.0, soc_grid=3251, u_grid=48, replan_interval=240)
    cfg = _cfg(
        mission_length=2 * DAY, strategy="mpc", solar=_GATE_SOLAR,
        barrier_mode="horizon", mpc=mpc,
    )
    r = run_mission(cfg)
    v = cfg.vessel
    draws = v.k_h + v.k_m * np.linspace(v.u_max, v.u_min, mpc.u_grid) ** 3
    res = (v.b_max - v.b_min) / (mpc.soc_grid - 1)
    shifts = np.floor((r.p_in_trace[:, None] - draws) * cfg.dt / 3600.0 / res)
    distinct = 1 + (np.diff(shifts, axis=1) != 0).sum(axis=1)
    assert (shifts[:, -1] - shifts[:, 0] + 1 > distinct).all()
    got = tuple(
        hashlib.sha256(a.tobytes()).hexdigest()
        for a in (r.soc_trace, r.velocity_trace, r.p_in_trace)
    )
    assert got == (
        "a9953b03ea013dc5ea87185ae1dad5bd7e3492fdd4e27e37f574916f1467de2f",
        "03ea7322cfa40b41e3c6ea80c734e5f25cc0fa4b706b5125d4c7ef4d4a7a153c",
        "ed6727b615a49bc1988a0dae91617d27f57d649a7c6d03aa9a54bdf5f8c172e9",
    )
    assert (
        r.distance, r.terminal_soc, r.violation,
        r.curtailed_wh, r.floor_added_wh, r.battery_failed,
    ) == (270482.62978723523, 105.08851302206298, 0.0, 0.0, 0.0, False)


# ======================================================================
# Result container hygiene
# ======================================================================


class TestSimResult:
    def test_fields_present(self):
        result = run_mission(_cfg(mission_length=DAY))
        d = dataclasses.asdict(result)
        for key in (
            "strategy", "distance", "terminal_soc", "violation",
            "wall_time", "curtailed_wh", "floor_added_wh", "battery_failed",
        ):
            assert key in d
        assert result.strategy == "ilc"
        assert result.battery_failed in (False, True)


# ======================================================================
# Exported bytes pinned across refactors
# ======================================================================

_EXPORT_SOLAR = IdealizedSource(
    d0_by_day=tuple(165.0 if d % 6 == 2 else 330.0 + d for d in range(20)),
    d1_by_day=tuple(250.0 if d % 6 == 2 else 500.0 for d in range(20)),
)
# sha256 of each exported file, wall_time_s column removed
_EXPORT_DIGESTS = {
    "run/trace.csv": (
        "8d248d2751eb9985a9327c8c3b72eabc5ef9a129aee54f2209e50ca5d71822f7"
    ),
    "run/iterations.csv": (
        "a84e1929cbcc829b9ddfdbbb814169126b41b5eecaa6fd0f64abdd4c1b7ad264"
    ),
    "run/summary.csv": (
        "47c6e3ef8d74c8ebbf844c6b6e5374e30ec5cbf536fc031d70eb0387bd88c536"
    ),
    "run/daily.csv": (
        "d33d549762b4ae68787d780550e8363b2a02b1e8b04bd0bef1ce252e2ccefb9f"
    ),
    "compare/comparison.csv": (
        "f2215c17922a1cbe4eea9433dd9d3f8a6718ee5a1b10a8936046d50ee3ad8439"
    ),
    "compare/distance_series.csv": (
        "46a9a563a9956b9f561d86a11975d2edaa1ca8b24ae7980bbac63141a52594e8"
    ),
    "envelope.csv": (
        "9999ba3b0d30b9eceee010b5c069cf449c60cc1197d4326d7b72ad82323aef43"
    ),
}


def _digest_without_wall_time(path) -> str:
    lines = path.read_bytes().decode("utf-8").split("\n")
    header = lines[0].split(",")
    if "wall_time_s" in header:
        col = header.index("wall_time_s")
        lines = [
            ",".join(f[:col] + f[col + 1:])
            for f in (line.split(",") for line in lines)
        ]
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def test_exported_bytes_match_recorded_digests(tmp_path):
    """A 20-day run's CSVs, byte for byte as recorded.

    trace.csv has 4800 rows and envelope.csv 4801, so both span more than
    one write chunk and end in a partial one.
    """
    base = _cfg(mission_length=20 * DAY, solar=_EXPORT_SOLAR, barrier_mode="horizon")
    export_traces(run_mission(base), tmp_path / "run")
    results = compare_strategies(
        [
            dataclasses.replace(base, strategy=s)
            for s in ("ilc", "constant-constrained", "constant-unconstrained")
        ]
    )
    export_comparison(results, tmp_path / "compare")
    export_envelope(build_mission_envelope(base, build_input_profile(base)), tmp_path)
    got = {name: _digest_without_wall_time(tmp_path / name) for name in _EXPORT_DIGESTS}
    assert got == _EXPORT_DIGESTS


# sha256 of envelope.csv, then of tabulate_mission's lower, upper and p_in
_PERIODIC_DIGESTS = {
    "clear-sky": (
        "9c15c72f5c9c3c58fe56e32c11d716c241e2abc5b2e1d80c0b6838e111736ec2",
        "7afa0c1b86fa7630cc881af26e63f8840834cc62645e701d36822cd24f3d27f4",
        "a361a8993d097afc88ed9566a9a97bfa7a19a0008c4a3835a6360e9631020caf",
        "53444566e6742a86598e31a4143ec04fed61d4a06c7031d3912f32ef52d2b411",
    ),
    "linear": (
        "20135a67b3f581c808a64bb23672788997c0059cc54a1bbf1f04b51d9e2f9782",
        "8f22a4da5420fa9e14b4b6e27bad0a15ff143c68efc6a24c853026686b218b72",
        "ca9e54149f1e8c9042dbc32fd1a9774189e2cd807c0a58dc4b04a3f8efc2158b",
        "9f9799bad8387488c588e315196cab170cf9ee269e00b572ddc796466506343f",
    ),
    "hold": (
        "80138ce5b9a8c1cdf4e09add69459b88d222ad045e092fa7c6cf594316d049dd",
        "8ff5a9d01931e5e18942421cadd79e3656944dce2286cbbaded090ea6573a81e",
        "56d8e0e2cc8f64e5eec6c23cbfb43d20dbf82579eae7e0f02ef0190d3a3f31fa",
        "d4415a9e1111268ecb79d861c24f2817d02af6d4e7623549c95544002a8aa365",
    ),
}


@pytest.mark.parametrize("source", sorted(_PERIODIC_DIGESTS))
def test_periodic_day_bytes_match_recorded_digests(tmp_path, source):
    """A 3-day periodic-day mission's envelope and tabulation, bitwise as recorded.

    u_max = 1.8 m/s puts the full-speed draw below the midday input, so the
    upper barrier leaves b_max and both curves are pinned.
    """
    log = tmp_path / "log.csv"
    log.write_text(PERIODIC_LOG)
    solar = {
        "clear-sky": IdealizedSource(d0=300.0, d1=500.0),
        "linear": FileSource(path=str(log), periodic=True),
        "hold": FileSource(path=str(log), periodic=True, interpolation="hold"),
    }[source]
    cfg = _cfg(mission_length=3 * DAY, solar=solar, vessel=VesselParams(u_max=1.8))
    tab = tabulate_mission(cfg)
    export_envelope(tab.env, tmp_path)
    got = (hashlib.sha256((tmp_path / "envelope.csv").read_bytes()).hexdigest(),) + tuple(
        hashlib.sha256(a.tobytes()).hexdigest() for a in (tab.lower, tab.upper, tab.p_in)
    )
    assert got == _PERIODIC_DIGESTS[source]
