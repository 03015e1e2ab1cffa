"""Tests for solarasv.benchmark — constant-velocity baselines and the lattice planner."""

from __future__ import annotations

import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solarasv.benchmark import (
    MpcConfig,
    MpcController,
    _progressions,
    _stage_windows,
    energy_balance_velocity,
)
from solarasv.config import SimConfig, load_sim_config
from solarasv.controller import _switching_velocity
from solarasv.harness import (
    Policy,
    build_policy,
    simulate,
    tabulate_mission,
)
from solarasv.solar import IdealizedSource, SolarProfile, integrate_power
from solarasv.vessel import VesselParams

from conftest import dp_enum_bruteforce, dp_enum_value, dp_gather_plan, random_dp_instance


def _const_profile(power: float, end: float = 1e7) -> SolarProfile:
    return SolarProfile(times=np.array([0.0, end]), powers=np.array([power, power]))


def _flat(power: float, steps: int, lower: float = 0.0, upper: float | None = None):
    """(p_in, lower, upper) of a constant input under constant bounds."""
    upper = VesselParams().b_max if upper is None else upper
    return (
        np.full(steps, power),
        np.full(steps + 1, lower),
        np.full(steps + 1, upper),
    )


# ======================================================================
# Constant-velocity baselines
# ======================================================================


class TestEnergyBalanceVelocity:
    def test_exact_fixed_point_without_hotel(self, params):
        # k_m * 1^3 == 83 W, so a constant 83 W input balances u = 1 exactly
        u = energy_balance_velocity(_const_profile(83.0), 86400.0, params)
        assert u == 1.0

    def test_defining_balance_on_shaped_day(self, params, canonical_day):
        t_f = 86400.0
        u = energy_balance_velocity(canonical_day, t_f, params)
        e_in = integrate_power(canonical_day, 0.0, t_f)
        assert params.k_m * u**3 * t_f == pytest.approx(e_in, rel=1e-12)

    def test_projection(self, params):
        assert energy_balance_velocity(_const_profile(5000.0), 3600.0, params) == params.u_max
        u = energy_balance_velocity(_const_profile(0.0), 3600.0, params)
        assert u == params.u_min  # no input: cube root of 0

    def test_window_validation(self, params):
        table = IdealizedSource(d0_by_day=(300.0, 200.0), d1_by_day=(500.0, 400.0))
        for profile in (_const_profile(100.0), table.profile(360.0)):
            for t_f in (0.0, -3600.0, math.nan, math.inf):
                message = f"^t_f must be finite and > 0, got {t_f}$"
                with pytest.raises(ValueError, match=message):
                    energy_balance_velocity(profile, t_f, params)


class TestConstrainedConstantController:
    def test_switching_behavior(self, params):
        cfg = SimConfig(strategy="constant-constrained", mission_length=86400.0)
        tab = tabulate_mission(cfg)
        u_const = energy_balance_velocity(tab.profile, cfg.mission_length, params)
        control = build_policy(cfg, tab).control
        assert control(3000.0, 1000.0, 5000.0, 0) == u_const
        assert control(999.0, 1000.0, 5000.0, 0) == params.u_min
        assert control(5001.0, 1000.0, 5000.0, 0) == params.u_max


# ======================================================================
# Planner configuration
# ======================================================================


def _integer(v, least: int) -> bool:
    return isinstance(v, (int, np.integer)) and v >= least


_MPC_FLOATS = ("horizon", "terminal_reward_slope")
_MPC_RULES = {
    "horizon": lambda v: v > 0,
    "soc_grid": lambda v: _integer(v, 2),
    "u_grid": lambda v: _integer(v, 2),
    "terminal_reward_slope": lambda v: v >= 0,
    "replan_interval": lambda v: _integer(v, 1),
}


@st.composite
def _mpc_fields(draw):
    """Each field NaN, +-inf, negative, on its boundary or in range; sizes may be floats."""
    special = st.sampled_from([math.nan, math.inf, -math.inf, -1.0, 0.0])
    sizes = special | st.sampled_from([2.0, 2.5, np.int64(2)]) | st.integers(-2, 300)
    return {
        "horizon": draw(special | st.floats(-10.0, 3e5)),
        "soc_grid": draw(sizes),
        "u_grid": draw(sizes),
        "terminal_reward_slope": draw(special | st.floats(-1.0, 10.0)),
        "replan_interval": draw(sizes),
    }


class TestMpcConfig:
    def test_defaults(self):
        cfg = MpcConfig()
        assert cfg.horizon == 172800.0
        assert cfg.soc_grid == 131
        assert cfg.u_grid == 24
        assert cfg.terminal_reward_slope == 5.0
        assert cfg.replan_interval == 1

    @pytest.mark.parametrize(
        "kw",
        [
            {"horizon": 0.0},
            {"soc_grid": 1},
            {"u_grid": 1},
            {"terminal_reward_slope": -0.1},
            {"replan_interval": 0},
            {"horizon": float("nan")},
            {"horizon": float("inf")},
            {"terminal_reward_slope": float("nan")},
            {"terminal_reward_slope": float("inf")},
            {"soc_grid": 10.5},
            {"u_grid": 4.0},
            {"replan_interval": 1.5},
        ],
    )
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            MpcConfig(**kw)

    @settings(max_examples=100, deadline=None)
    @given(_mpc_fields())
    def test_every_broken_rule_is_named_once(self, fields):
        """MpcConfig raises exactly when a rule of the table breaks, naming each field once."""
        not_finite = {name for name in _MPC_FLOATS if not math.isfinite(fields[name])}
        broken = not_finite | {
            name for name, holds in _MPC_RULES.items()
            if name not in not_finite and not holds(fields[name])
        }
        try:
            MpcConfig(**fields)
            parts = []
        except ValueError as exc:
            parts = str(exc).split("; ")
        assert sorted(part.split()[0] for part in parts) == sorted(broken)
        assert {f"{name} must be finite" for name in not_finite} <= set(parts)

    def test_lattice_sizes_may_be_numpy_integers(self):
        cfg = MpcConfig(
            soc_grid=np.int64(11), u_grid=np.int32(4), replan_interval=np.int8(2)
        )
        assert (cfg.soc_grid, cfg.u_grid, cfg.replan_interval) == (11, 4, 2)

    def test_controller_construction_validation(self, params):
        cfg = MpcConfig(horizon=3600.0)
        for dt in (0.0, -360.0, math.nan, math.inf):
            with pytest.raises(ValueError, match=f"^dt must be finite and > 0, got {dt}$"):
                MpcController(cfg, *_flat(100.0, 10), params, dt=dt)
        with pytest.raises(ValueError, match="cover at least one step"):
            MpcController(cfg, *_flat(100.0, 10), params, dt=7200.0)
        with pytest.raises(ValueError, match="p_in must cover at least one step"):
            MpcController(cfg, *_flat(100.0, 0), params, dt=360.0)
        p_in, lower, upper = _flat(100.0, 10)
        with pytest.raises(ValueError, match="one entry more than p_in"):
            MpcController(cfg, p_in, lower[:-1], upper[:-1], params, dt=360.0)
        # off the step grid: 2.5 and 3.5 steps used to round half to even
        for horizon in (900.0, 1260.0):
            with pytest.raises(ValueError, match="whole number of steps"):
                MpcController(MpcConfig(horizon=horizon), p_in, lower, upper, params, 360.0)


# ======================================================================
# Plan values against independent enumeration
# ======================================================================


def _make_controller(p_in, lower, upper, dt, n_soc, n_u, slope, params):
    k_steps = len(p_in)
    cfg = MpcConfig(
        horizon=k_steps * dt,
        soc_grid=n_soc,
        u_grid=n_u,
        terminal_reward_slope=slope,
        replan_interval=k_steps,
    )
    return MpcController(cfg, p_in, lower, upper, params, dt)


class TestPlanValues:
    def test_matches_memoized_enumeration(self, params):
        rng = np.random.default_rng(21)
        for _ in range(8):
            k_steps = int(rng.integers(2, 12))
            n_soc = int(rng.integers(5, 25))
            n_u = int(rng.integers(2, 6))
            p_seq, lower, upper, dt = random_dp_instance(rng, k_steps, n_soc, n_u)
            ctl = _make_controller(p_seq, lower, upper, dt, n_soc, n_u, 5.0, params)
            root = int(rng.integers(0, n_soc - 1))
            b = min(ctl.lattice[root] + 0.5 * ctl.res, params.b_max)
            got, _ = ctl.plan(b, 0)
            want = dp_enum_value(
                root, ctl.lattice, ctl.u_desc, ctl.draw_desc,
                p_seq, lower[1:], upper[1:], ctl.res, dt, 5.0,
            )
            assert got == want  # same lattice arithmetic: exact equality

    def test_matches_brute_force_enumeration(self, params):
        rng = np.random.default_rng(22)
        for _ in range(4):
            k_steps = 4
            n_soc = 10
            n_u = 3
            p_seq, lower, upper, dt = random_dp_instance(rng, k_steps, n_soc, n_u)
            ctl = _make_controller(p_seq, lower, upper, dt, n_soc, n_u, 2.0, params)
            root = int(rng.integers(0, n_soc - 1))
            b = min(ctl.lattice[root] + 0.5 * ctl.res, params.b_max)
            got, _ = ctl.plan(b, 0)
            want = dp_enum_bruteforce(
                root, ctl.lattice, ctl.u_desc, ctl.draw_desc,
                p_seq, lower[1:], upper[1:], ctl.res, dt, 2.0,
            )
            # brute force sums rewards head-first, the DP tail-first, so the
            # totals can differ in the last ulp
            assert got == pytest.approx(want, rel=1e-12)

    def test_matches_gather_reference(self, params):
        """Window kernel against the gather loop: bitwise value and actions.

        Instances mix truncated rollouts (replan_interval < K), mid- and
        end-of-mission plans, a 1 Wh lattice whose shifts pass the top cell
        and fall below cell 0, crossed envelopes, and roots outside the
        envelope or the battery window. Both run regimes occur: velocities
        that share a cell shift at a stage, and stages whose run of shifts
        has holes no velocity lands on. Each instance plans at step, step +
        R, ... in order, so rows that a block solved ahead of their call are
        read too, rows cut short by the mission end among them; then
        ``__call__`` drives a fresh controller through the mission with a
        crossed envelope, and each plan after a fallback is checked.
        """
        rng = np.random.default_rng(24)
        # a separate stream for the drives leaves the plan instances unchanged
        drive_rng = np.random.default_rng(25)
        seen = {
            "truncated": 0, "clamp": 0, "underflow": 0, "outside": 0, "infeasible": 0,
            "shared": 0, "gap": 0, "ahead": 0, "after_fallback": 0,
        }
        for _ in range(60):
            n_soc = int(rng.choice([2, 17, 131, 6501, 6501]))
            n_u = int(rng.integers(2, 49))
            k_steps = int(rng.integers(1, 25))
            n = k_steps + int(rng.integers(0, 10))
            dt = 360.0
            p_in = rng.uniform(0.0, 1500.0, size=n) * (rng.random(n) < 0.7)
            # near-constant envelopes near the battery window keep most
            # roots feasible, so clamps and underflows reach the policy
            lower = rng.uniform(-100.0, 50.0) + rng.uniform(0.0, 20.0, size=n + 1)
            upper = params.b_max - rng.uniform(-100.0, 150.0) - rng.uniform(0.0, 20.0, n + 1)
            if rng.random() < 0.2:  # a crossed envelope at one boundary
                j = int(rng.integers(0, n + 1))
                upper[j] = lower[j] - 1.0
            cfg = MpcConfig(
                horizon=k_steps * dt,
                soc_grid=n_soc,
                u_grid=n_u,
                terminal_reward_slope=float(rng.uniform(0.0, 10.0)),
                replan_interval=int(rng.integers(1, k_steps + 3)),
            )
            ctl = MpcController(cfg, p_in, lower, upper, params, dt)
            step = int(rng.integers(0, n))
            roots = (
                float(rng.uniform(-50.0, params.b_max + 50.0)),
                params.b_max - float(rng.uniform(0.0, 30.0)),
                float(rng.uniform(0.0, 30.0)),
            )
            interval = cfg.replan_interval
            for i, s in enumerate(range(step, n, interval)):
                for b in roots:
                    got, actions = ctl.plan(b, s)
                    want, ref_actions = dp_gather_plan(ctl, b, s)
                    assert got == want
                    seen["ahead"] += i % ctl._rows > 0
                    if ref_actions is None:
                        assert actions is None
                        seen["infeasible"] += 1
                        continue
                    assert actions.dtype == ref_actions.dtype
                    assert np.array_equal(actions, ref_actions)
                    root = ctl._snap(b)
                    shifts = np.floor(
                        (p_in[s] - ctl.draw_desc) * dt / 3600.0 / ctl.res
                    )
                    seen["truncated"] += len(actions) < min(k_steps, n - s)
                    seen["clamp"] += n_soc == 6501 and root + shifts.max() > n_soc - 1
                    seen["underflow"] += n_soc == 6501 and root + shifts.min() < 0
                    seen["outside"] += not lower[s] <= b <= upper[s]
                    stop = min(s + k_steps, n)
                    run = np.floor(
                        (p_in[s:stop, None] - ctl.draw_desc) * dt / 3600.0 / ctl.res
                    )
                    distinct = 1 + (np.diff(run, axis=1) != 0).sum(axis=1)
                    seen["shared"] += bool((distinct < n_u).any())
                    seen["gap"] += bool((run[:, -1] - run[:, 0] + 1 > distinct).any())
            if n_soc < 6501:  # keeps the gather oracle cheap over a whole drive
                seen["after_fallback"] += _drive_matches_gather(ctl, drive_rng)
        assert min(seen.values()) >= 3, seen

    def test_exact_ties_go_to_the_higher_velocity(self):
        """Every stage ties exactly; the plan takes the faster of the tied pair.

        1 Wh cells, dt = 1 h and draws of 0, 1 and 8 W for u = 0, 0.5 and 1
        m/s move the state by 0, -1 and -8 cells. At a terminal slope of 1800
        m/Wh one cell is worth exactly the 1800 m that 0.5 m/s gains over
        drifting, so those two tie at the root and at every later stage while
        1 m/s loses. All the sums are small integers, hence exact.
        """
        params = VesselParams(k_h=0.0, k_m=8.0, b_min=0.0, b_max=32.0, u_min=0.0, u_max=1.0)
        k_steps = 6
        cfg = MpcConfig(
            horizon=k_steps * 3600.0,
            soc_grid=33,
            u_grid=3,
            terminal_reward_slope=1800.0,
            replan_interval=k_steps,
        )
        ctl = MpcController(cfg, *_flat(0.0, k_steps, 0.0, 32.0), params, 3600.0)
        for root in (6, 20, 32):
            value, actions = ctl.plan(float(root), 0)
            assert value == 1800.0 * root
            assert actions.tolist() == [0.5] * k_steps
            want, ref_actions = dp_gather_plan(ctl, float(root), 0)
            assert value == want
            assert np.array_equal(actions, ref_actions)
        # from cell 3, three steps at 0.5 m/s reach cell 0; the tie holds only
        # while the lower cell exists, then drifting is the one feasible action
        value, actions = ctl.plan(3.0, 0)
        assert actions.tolist() == [0.5, 0.5, 0.5, 0.0, 0.0, 0.0]
        assert np.array_equal(actions, dp_gather_plan(ctl, 3.0, 0)[1])

    def test_lockstep_rows_reach_both_pads(self):
        """Every row of a seven-row sweep, at every root, against the gather loop.

        1 Wh cells and dt = 1 h: 3-6 W of input against draws of 0, 1 and
        8 W move the state by +3..+5, +2..+4 and -5..-3 cells, so at every
        stage each row's run of windows reaches below cell 0 (the ``-inf``
        underflow) and past the top cell (its repeat). Both pads decide
        plans: at 2000 m/Wh a cell is worth more than the 1800 m that 1 m/s
        gains over 0.5 m/s, so from the top cell 0.5 m/s clamped there is
        best while the ceiling is at the top; where it dips to cell 2, the
        low cells have only 1 m/s left, and it underflows. A pad that leaked
        between rows or was left stale changes a plan here. Plans at 0, 2,
        ..., 12 with an 8-step horizon on a 13-step mission stop at 8, 10, 12
        and 13 (the last four): one sweep holds all seven, more than the four
        any stage's band holds. It starts with four rows, the others enter
        one by one, and each leaves at its start while the later rows go on.
        The rows are read in start order and then in reverse: a stored
        vector that a later row's stages or rollout overwrote shows only in
        a row read after a later one.
        """
        params = VesselParams(k_h=0.0, k_m=8.0, b_min=0.0, b_max=32.0, u_min=0.0, u_max=1.0)
        rng = np.random.default_rng(7)
        n = 13
        p_in = rng.uniform(3.0, 6.0, n)
        lower = np.zeros(n + 1)
        upper = np.full(n + 1, 32.0)
        upper[[6, 12]] = 2.0  # each row's horizon holds a dip
        cfg = MpcConfig(
            horizon=8 * 3600.0,
            soc_grid=33,
            u_grid=3,
            terminal_reward_slope=2000.0,
            replan_interval=2,
        )
        ctl = MpcController(cfg, p_in, lower, upper, params, 3600.0)
        shifts = np.floor(p_in[:, None] - ctl.draw_desc)
        assert (shifts[:, 0] < 0).all() and (shifts[:, -1] > 0).all()
        ctl.plan(0.0, 0)
        assert ctl._starts == [0, 2, 4, 6, 8, 10, 12]
        assert ctl._stops == [8, 10, 12, 13, 13, 13, 13]
        feasible = 0
        for s in ctl._starts + ctl._starts[::-1]:
            for root in range(33):
                got, actions = ctl.plan(float(root), s)
                want, ref_actions = dp_gather_plan(ctl, float(root), s)
                assert got == want
                if ref_actions is None:
                    assert actions is None
                    continue
                feasible += 1
                assert np.array_equal(actions, ref_actions)
        assert ctl._step == 0  # every plan read a row of the one sweep
        assert feasible >= 70, feasible

    @pytest.mark.parametrize(
        "k_m, p_in, stage_runs",
        [
            # 1 Wh cells: the draws 3.75 u^3 for u = 1.75 ... 1.0 lie 3.5 to
            # 1.3 cells apart, so a stage lands on 0,3,6,9 | 11,13,15 | 16
            # (p a quarter into its cell), 0,4 | 7,10 | 12,14 | 15,17 (p at
            # a cell edge) or 0,4 | 7,9 | 12,14 | 15,17 (three quarters in):
            # stride-3 and stride-2 runs and a lone window; fast velocities
            # more than two cells apart leave no stage without holes
            (
                3.75,
                [20.25, 10.0, 5.375, 24.75, 12.5, 0.0, 30.125, 8.875, 14.5, 3.25],
                [
                    ((0, 10, 3, 0, 4), (11, 16, 2, 4, 7), (16, 17, 1, 7, 8)),
                    ((0, 5, 4, 0, 2), (7, 11, 3, 2, 4), (12, 15, 2, 4, 6), (15, 18, 2, 6, 8)),
                    ((0, 5, 4, 0, 2), (7, 10, 2, 2, 4), (12, 15, 2, 4, 6), (15, 18, 2, 6, 8)),
                ],
            ),
            # 1.5 u^3 lies at most 1.4 cells apart: a stage lands on every
            # shift of 0..6 (p an eighth into its cell), or skips shift 1 (p
            # at a cell edge) or 3 (three eighths in); one sweep mixes them
            (
                1.5,
                [20.125, 10.0, 5.25, 24.375, 12.0, 0.125, 30.375, 8.25, 14.0, 3.125],
                [
                    ((0, 7, 1, 0, 7),),
                    ((0, 3, 2, 0, 2), (3, 8, 1, 2, 7)),
                    ((0, 3, 1, 0, 3), (4, 7, 1, 3, 6)),
                ],
            ),
        ],
        ids=["strides-2-and-3", "with-and-without-holes"],
    )
    def test_holed_stages_match_gather_reference(self, k_m, p_in, stage_runs):
        """Stages whose runs of shifts have holes, every row and root, bitwise.

        Each instance's stages split into the runs listed beside it. Plans at
        0, 3, 6 and 9 with an 8-step horizon are one sweep of four rows, up
        to three in a stage's band, so the strided runs read bands across
        rows. The terminal slope, near the distance a Wh buys, makes plans
        mix velocities.
        """
        params = VesselParams(k_h=0.0, k_m=k_m, b_min=0.0, b_max=40.0, u_min=1.0, u_max=1.75)
        p_in = np.array(p_in)
        n = p_in.size
        lower = np.full(n + 1, 2.0)
        upper = np.full(n + 1, 40.0)
        upper[[4, 8]] = 12.0
        cfg = MpcConfig(
            horizon=8 * 3600.0, soc_grid=41, u_grid=8,
            terminal_reward_slope=180.0, replan_interval=3,
        )
        ctl = MpcController(cfg, p_in, lower, upper, params, 3600.0)
        shifts = np.floor((p_in[:, None] - ctl.draw_desc) / ctl.res)  # dt = 1 h
        runs = [_progressions(np.unique(row - row[0]).astype(int).tolist()) for row in shifts]
        assert set(runs) == set(stage_runs)
        feasible = 0
        taken = set()
        starts = list(range(0, n, 3))
        for s in starts + starts[::-1]:
            for root in range(41):
                got, actions = ctl.plan(float(root), s)
                want, ref_actions = dp_gather_plan(ctl, float(root), s)
                assert got == want
                if ref_actions is None:
                    assert actions is None
                    continue
                feasible += 1
                taken.update(actions.tolist())
                assert np.array_equal(actions, ref_actions)
        assert ctl._rows == 4 and ctl._step == 0
        assert feasible >= 60 and len(taken) >= 6, (feasible, taken)

    def test_zero_terminal_slope_goes_full_throttle(self, params):
        """Stored energy worth nothing and inputs abundant: run at u_max."""
        ctl = _make_controller(*_flat(1200.0, 10), 360.0, 131, 24, 0.0, params)
        _, actions = ctl.plan(3000.0, 0)
        assert actions is not None
        assert all(u == params.u_max for u in actions)

    def test_huge_terminal_slope_drifts_in_darkness(self, params):
        # 1 Wh cells: the lattice resolves the drift cost, so with stored
        # energy valued this highly every extra velocity level is a net loss
        ctl = _make_controller(*_flat(0.0, 10), 360.0, 6501, 24, 1e9, params)
        _, actions = ctl.plan(6000.0, 0)
        assert actions is not None
        assert all(u == params.u_min for u in actions)

    def test_executed_trajectory_covers_planned_lattice_path(self, params):
        """Floor quantization: true SOC dominates the planned lattice path."""
        rng = np.random.default_rng(23)
        checked = 0
        for _ in range(12):
            k_steps = int(rng.integers(3, 15))
            n_soc = int(rng.integers(8, 40))
            n_u = int(rng.integers(2, 6))
            p_seq, lower, upper, dt = random_dp_instance(rng, k_steps, n_soc, n_u)
            ctl = _make_controller(p_seq, lower, upper, dt, n_soc, n_u, 5.0, params)
            b0 = float(rng.uniform(2000.0, 5000.0))
            value, actions = ctl.plan(b0, 0)
            if actions is None:
                continue
            checked += 1
            dtf = dt / 3600.0
            i = ctl._snap(b0)
            assert b0 >= ctl.lattice[i]
            planned = []
            for k, u in enumerate(actions):
                draw = params.k_h + params.k_m * u**3
                shift = math.floor((p_seq[k] - draw) * dtf / ctl.res)
                i = min(i + shift, n_soc - 1)
                assert i >= 0
                planned.append(ctl.lattice[i])
            # roll the plan out through the harness's step loop
            u_plan = actions.tolist()
            executed = simulate(
                Policy("plan", lambda b, b_l, b_u, j: u_plan[j]),
                p_seq.tolist(), lower[:-1].tolist(), upper[:-1].tolist(), b0, params, dt,
            )
            assert not executed.battery_failed
            assert np.all(executed.soc_trace >= np.asarray(planned) - 1e-9)
        assert checked >= 6  # most random draws must be feasible


def _drive_matches_gather(ctl: MpcController, rng: np.random.Generator) -> int:
    """Drive ``__call__`` through ctl's mission with a crossed envelope.

    A fresh controller on ctl's inputs, with the envelope crossed at one
    random boundary, is called at every step from a random SOC. The gather
    loop replays it: a plan whenever the last one's actions are spent, the
    switching fallback when a plan is infeasible, and a new plan at the next
    step after a fallback. Returns how many such plans after a fallback were
    feasible and matched.
    """
    n = len(ctl.p_in)
    upper = ctl.upper.copy()
    j = int(rng.integers(1, n + 1))
    upper[j] = ctl.lower[j] - 1.0
    live = MpcController(ctl.cfg, ctl.p_in, ctl.lower, upper, ctl.params, ctl.dt)
    p = ctl.params
    actions: list[float] = []
    fell_back = False
    matched = 0
    for s in range(n):
        b = float(rng.uniform(p.b_min, p.b_max))
        if not actions:
            _, ref_actions = dp_gather_plan(live, b, s)
            if ref_actions is None:
                fell_back = True
                want = _switching_velocity(b, live.lower[s], upper[s], p.u_min, p.u_min, p.u_max)
                assert live(b, live.lower[s], upper[s], s) == want
                continue
            matched += fell_back
            fell_back = False
            actions = ref_actions.tolist()
        assert live(b, live.lower[s], upper[s], s) == actions.pop(0)
    return matched


@st.composite
def _plan_instance(draw):
    """A random planner instance, a plan step and three roots."""
    params = VesselParams()
    # 6501 cells of 1 Wh: runs of shifts wider than U, with holes; fewer
    # stages there keep the oracle's (U, 6501) gathers cheap
    n_soc = draw(st.integers(2, 300) | st.just(6501))
    n_u = draw(st.integers(2, 48))
    k_steps = draw(st.integers(1, 30 if n_soc < 6501 else 8))
    n = k_steps + draw(st.integers(0, 5))
    p_in = np.array(draw(st.lists(st.floats(0.0, 1500.0), min_size=n, max_size=n)))
    # bounds may reach past the battery window and cross at one boundary
    lower = np.array(draw(st.lists(st.floats(-100.0, 1500.0), min_size=n + 1, max_size=n + 1)))
    upper = np.array(draw(st.lists(
        st.floats(params.b_max - 1500.0, params.b_max + 100.0), min_size=n + 1, max_size=n + 1
    )))
    crossed = draw(st.none() | st.integers(0, n))
    if crossed is not None:
        upper[crossed] = lower[crossed] - 1.0
    cfg = MpcConfig(
        horizon=k_steps * 360.0,
        soc_grid=n_soc,
        u_grid=n_u,
        terminal_reward_slope=draw(st.floats(0.0, 10.0)),
        replan_interval=draw(st.integers(1, k_steps + 2)),
    )
    ctl = MpcController(cfg, p_in, lower, upper, params, 360.0)
    step = draw(st.integers(0, n - 1))
    roots = draw(st.lists(st.floats(-50.0, params.b_max + 50.0), min_size=3, max_size=3))
    return ctl, step, roots


@settings(max_examples=60, deadline=None)
@given(_plan_instance())
def test_plan_matches_gather_reference_property(instance):
    """Bitwise value and actions against the gather loop, on every row of a block.

    The plans at step, step + R, ... are the rows of the block swept for
    step; a pad cell leaking between rows of the flat buffer shows in one.
    They are read in start order and then in reverse, so a write that
    reached a row's stored vectors after it left the band shows too.
    """
    ctl, step, roots = instance
    interval = ctl.cfg.replan_interval
    rows = range(step, min(step + ctl._rows * interval, len(ctl.p_in)), interval)
    for s in [*rows, *reversed(rows)]:
        for b in roots:
            got, actions = ctl.plan(b, s)
            want, ref_actions = dp_gather_plan(ctl, b, s)
            assert got == want
            if ref_actions is None:
                assert actions is None
            else:
                assert np.array_equal(actions, ref_actions)
    assert ctl._step == step  # one sweep served every row


@given(st.lists(st.integers(0, 200), min_size=1, unique=True).map(sorted))
def test_progressions_cover_the_offsets_in_order(offsets):
    """Runs cover exactly the ascending offsets, in order, without overlap."""
    runs = _progressions(offsets)
    assert [w for o, e, d, _, _ in runs for w in range(o, e, d)] == offsets
    assert [r for *_, r, _ in runs] == [0] + [s for *_, s in runs[:-1]]
    for o, e, d, r, s in runs:
        assert d >= 1
        assert offsets[r:s] == list(range(o, e, d))
        # greedy from the left: only the last run may hold one window
        assert s - r >= 2 or s == len(offsets)


@st.composite
def _stage_row(draw):
    """A stage's shift offsets (ascending from 0, with repeats) and rewards (descending)."""
    steps = draw(st.lists(st.integers(0, 4), min_size=1, max_size=47).filter(lambda d: 0 in d))
    offsets = np.cumsum([0, *steps])
    rewards = draw(st.lists(
        st.floats(0.0, 1e4), min_size=offsets.size, max_size=offsets.size
    ).map(lambda r: sorted(r, reverse=True)))
    return offsets, np.array(rewards)


@given(_stage_row())
def test_stage_windows_hold_the_best_reward_of_each_landed_offset(row):
    """Runs cover the distinct offsets in order; each carries its largest reward."""
    offsets, rewards = row
    runs, best, distinct, fastest = _stage_windows(offsets, rewards)
    landed = np.unique(offsets).tolist()
    assert [w for o, e, d, _, _ in runs for w in range(o, e, d)] == landed
    assert distinct.tolist() == landed
    # each offset's first velocity, the fastest, which carries its reward
    assert fastest.tolist() == [offsets.tolist().index(w) for w in landed]
    assert best.shape == (len(landed), 1)
    assert np.array_equal(best[:, 0], rewards[fastest])
    # the per-stage row of the table a sweep used to scatter: the fastest
    # velocity of each equal-offset group, -inf where none lands
    fastest = np.ones(offsets.size, dtype=bool)
    fastest[1:] = offsets[1:] != offsets[:-1]
    table = np.full(offsets[-1] + 1, -np.inf)
    table[offsets[fastest]] = rewards[fastest]
    for o, e, d, r, s in runs:
        assert np.array_equal(best[r:s, 0], table[o:e:d])
    assert best[:, 0].tolist() == [rewards[offsets == w].max() for w in landed]


# ======================================================================
# Receding-horizon mechanics
# ======================================================================


class TestRecedingHorizon:
    def test_infeasible_root_falls_back(self, params):
        # a floor the planner cannot clear from a nearly empty battery
        ctl = MpcController(
            MpcConfig(horizon=3600.0), *_flat(0.0, 20, 6000.0, 6500.0), params, 360.0
        )
        value, actions = ctl.plan(100.0, 0)
        assert value == -math.inf and actions is None
        assert ctl(100.0, 6000.0, 6500.0, 0) == params.u_min  # below the floor: drift
        # above a sunken ceiling the fallback sheds energy instead
        ctl_hi = MpcController(
            MpcConfig(horizon=3600.0), *_flat(1200.0, 20, 0.0, 100.0), params, 360.0
        )
        assert ctl_hi(6000.0, 0.0, 100.0, 0) == params.u_max

    def test_plan_rejects_step_outside_mission(self, params):
        ctl = MpcController(MpcConfig(horizon=3600.0), *_flat(500.0, 12), params, 360.0)
        for step in (12, 13, -1, -3):
            with pytest.raises(ValueError, match=r"step must lie in \[0, 12\)"):
                ctl.plan(3000.0, step)
        _, actions = ctl.plan(3000.0, 11)
        assert len(actions) == 1  # the last step still plans

    def test_mission_end_truncates_horizon(self, params):
        ctl = MpcController(
            MpcConfig(horizon=86400.0, replan_interval=50),
            *_flat(500.0, 12),
            params,
            360.0,
        )
        _, actions = ctl.plan(3000.0, 0)
        assert len(actions) == 12  # the whole mission is shorter than the horizon
        _, actions = ctl.plan(3000.0, 10)
        assert len(actions) == 2  # only two steps remain

    def test_every_step_block_memory_is_capped(self, params):
        """Every-step plans on a large lattice keep one plan's memory.

        On 3251 x 48 with a 240-step horizon and replan_interval = 1, a sweep
        of all 240 overlapping plans would allocate about 330 MB of buffers;
        the byte budget leaves one row there, about 1.3 MB. The buffers are
        allocated with the controller, so its construction is traced too.
        """
        cfg = MpcConfig(horizon=240 * 360.0, soc_grid=3251, u_grid=48, replan_interval=1)
        p_in, lower, upper = _flat(800.0, 480, 500.0, 6000.0)
        tracemalloc.start()
        try:
            ctl = MpcController(cfg, p_in, lower, upper, params, 360.0)
            _, actions = ctl.plan(3000.0, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(actions) == 1
        assert peak < 16 * 2**20, peak

    @pytest.mark.parametrize("budget", [2**21, 2**18], ids=["one-sweep", "sweep-edges"])
    @pytest.mark.parametrize("interval", [1, 3])
    def test_sweep_across_horizons_matches_one_row_sweeps(
        self, params, monkeypatch, interval, budget
    ):
        """Sweeps holding many horizons of plans, bitwise as one plan per sweep.

        480 steps on 131 x 24 with a 20-step horizon: a stage lies in at most
        B = ceil(20 / R) plans, and a sweep holds many more, so rows enter
        and leave its band all the way down, taking turns in a ring of
        2B - 1 slots. Bands this narrow leave the stored vectors as the part
        of the budget that bounds a sweep's plans: a 2 MiB budget holds the
        whole mission in one sweep; 256 KiB holds 250 plans at R = 1 and 83
        at R = 3, so the mission crosses a sweep edge. Each plan's value and
        actions, at three roots, equal those of a controller whose budget
        holds one row per sweep.
        """
        rng = np.random.default_rng(5)
        n = 480
        p_in = rng.uniform(0.0, 1200.0, n)
        lower = rng.uniform(0.0, 800.0, n + 1)
        upper = params.b_max - rng.uniform(0.0, 800.0, n + 1)
        cfg = MpcConfig(horizon=20 * 360.0, replan_interval=interval)
        monkeypatch.setattr("solarasv.benchmark._SWEEP_BYTES", budget)
        wide = MpcController(cfg, p_in, lower, upper, params, 360.0)
        monkeypatch.setattr("solarasv.benchmark._SWEEP_BYTES", 1)
        alone = MpcController(cfg, p_in, lower, upper, params, 360.0)
        band = -(-20 // interval)
        assert alone._rows == alone._slots == 1
        assert wide._rows == min(-(-n // interval), budget // 8 // (min(interval, 20) * 131))
        assert wide._slots == 2 * band - 1 and wide._rows > 2 * band
        feasible = 0
        sweeps = set()
        for s in range(0, n, interval):
            for b in (500.0, 3250.0, 6400.0):
                got, actions = wide.plan(b, s)
                want, ref_actions = alone.plan(b, s)
                sweeps.add(wide._step)
                assert got == want
                if ref_actions is None:
                    assert actions is None
                    continue
                feasible += 1
                assert np.array_equal(actions, ref_actions)
        assert len(sweeps) == -(-n // (interval * wide._rows))
        assert (len(sweeps) == 1) == (budget == 2**21)
        assert feasible >= n // interval, feasible

    @pytest.mark.parametrize("interval", [1, 3])
    def test_ring_moves_the_band_up_many_times(self, params, monkeypatch, interval):
        """A sweep whose ring of band rows is copied up many times, bitwise.

        480 steps on 131 x 24 with a 20-step horizon, in one sweep: its
        rows take turns in a ring of 2B - 1 slots, B = ceil(20 / R), so the
        band reaches slot 0 and is copied up to the top slots again and
        again. Each copy makes room for at most slots - 1 rows, so a sweep
        of more than four rings' worth of rows copies at least four times.
        Every plan is read at two feasible roots and at an empty battery
        under an envelope whose floor it cannot reach, whose value is
        ``-inf``, against a controller that sweeps each plan alone.
        """
        rng = np.random.default_rng(11)
        n = 480
        p_in = rng.uniform(0.0, 1200.0, n)
        lower = rng.uniform(100.0, 800.0, n + 1)
        upper = params.b_max - rng.uniform(0.0, 800.0, n + 1)
        cfg = MpcConfig(horizon=20 * 360.0, replan_interval=interval)
        ring = MpcController(cfg, p_in, lower, upper, params, 360.0)
        monkeypatch.setattr("solarasv.benchmark._SWEEP_BYTES", 1)
        alone = MpcController(cfg, p_in, lower, upper, params, 360.0)
        assert ring._rows == n // interval
        assert ring._slots == 2 * -(-20 // interval) - 1
        assert ring._rows > 4 * ring._slots
        counts = {"feasible": 0, "infeasible": 0}
        for s in range(0, n, interval):
            for b in (0.0, 3250.0, 6400.0):
                got, actions = ring.plan(b, s)
                want, ref_actions = alone.plan(b, s)
                assert got == want
                if ref_actions is None:
                    assert got == -math.inf and actions is None
                    counts["infeasible"] += 1
                    continue
                counts["feasible"] += 1
                assert np.array_equal(actions, ref_actions)
        assert ring._step == 0  # one sweep served every plan
        assert counts["infeasible"] >= n // interval // 2, counts
        assert counts["feasible"] >= n // interval, counts

    def test_every_step_example_plans_from_one_sweep(self, params, monkeypatch):
        """configs/mpc.cfg: 480 every-step plans on 131 x 24 from one sweep.

        The benchmark's every-step shape (2 days, 131 x 24, a 120-step
        horizon, R = 1): the stored vectors of all 480 plans and a 120-row
        band in a 239-slot ring fit the budget, so the first plan's sweep
        serves every later one. Each plan's value and actions, at three
        roots, equal those of one-plan sweeps.
        """
        cfg = load_sim_config(Path(__file__).resolve().parents[1] / "configs" / "mpc.cfg")
        tab = tabulate_mission(cfg)
        assert (cfg.mpc.soc_grid, cfg.mpc.u_grid, cfg.mpc.replan_interval) == (131, 24, 1)
        args = (cfg.mpc, tab.p_in, tab.lower, tab.upper, cfg.vessel, cfg.dt)
        ctl = MpcController(*args)
        monkeypatch.setattr("solarasv.benchmark._SWEEP_BYTES", 1)
        alone = MpcController(*args)
        assert ctl.horizon_steps == 120 and len(ctl.p_in) == 480
        assert ctl._rows == 480 and ctl._slots == 239
        feasible = 0
        for s in range(480):
            for b in (1000.0, 3250.0, 6000.0):
                got, actions = ctl.plan(b, s)
                want, ref_actions = alone.plan(b, s)
                assert got == want
                if ref_actions is None:
                    assert actions is None
                    continue
                feasible += 1
                assert np.array_equal(actions, ref_actions)
        assert ctl._step == 0
        assert feasible >= 480, feasible

    def test_mid_lattice_keeps_its_band(self, params, monkeypatch, tmp_path):
        """On 651 x 24 the band's cells, not the stored vectors, bound a sweep.

        A 1-day every-step mission (configs/mpc.cfg at 651 cells): a 120-row
        band would not fit, so a sweep holds as many plans as one band of
        that many rows fits, each row its own slot: at least 14, and no more
        than the 14 that keep the band's cells in the budget. Its plans
        equal one-plan sweeps.
        """
        text = (Path(__file__).resolve().parents[1] / "configs" / "mpc.cfg").read_text()
        text = text.replace("mpc.soc_grid = 131", "mpc.soc_grid = 651")
        text = text.replace("sim.mission_length = 172800", "sim.mission_length = 86400")
        path = tmp_path / "mid.cfg"
        path.write_text(text)
        cfg = load_sim_config(path)
        assert (cfg.mpc.soc_grid, cfg.mission_length) == (651, 86400.0)
        tab = tabulate_mission(cfg)
        args = (cfg.mpc, tab.p_in, tab.lower, tab.upper, cfg.vessel, cfg.dt)
        ctl = MpcController(*args)
        monkeypatch.setattr("solarasv.benchmark._SWEEP_BYTES", 1)
        alone = MpcController(*args)
        assert ctl._rows == ctl._slots == 14
        sweeps = set()
        for s in range(len(ctl.p_in)):
            for b in (1000.0, 3250.0):
                got, actions = ctl.plan(b, s)
                want, ref_actions = alone.plan(b, s)
                sweeps.add(ctl._step)
                assert got == want
                assert (actions is None) == (ref_actions is None)
                if actions is not None:
                    assert np.array_equal(actions, ref_actions)
        assert len(sweeps) == -(-240 // 14)

    def test_replan_interval_past_the_horizon(self, params):
        """R > H: the stages between two plans belong to neither, one plan a sweep.

        A 4-step horizon replanned every 6 steps: each plan matches the
        gather loop and yields its 4 actions, so the policy plans again when
        they run out, 4 steps on, and each of those plans is a sweep of its own.
        """
        rng = np.random.default_rng(8)
        n = 20
        p_in = rng.uniform(0.0, 1200.0, n)
        lower = np.full(n + 1, 500.0)
        upper = np.full(n + 1, params.b_max - 500.0)
        cfg = MpcConfig(horizon=4 * 360.0, replan_interval=6)
        ctl = MpcController(cfg, p_in, lower, upper, params, 360.0)
        assert ctl._rows == 1
        for s in range(0, n, 6):
            for b in (1000.0, 3250.0, 6000.0):
                got, actions = ctl.plan(b, s)
                want, ref_actions = dp_gather_plan(ctl, b, s)
                assert got == want
                assert np.array_equal(actions, ref_actions)
                assert len(actions) == min(4, n - s)
            assert ctl._starts == [s]
        live = MpcController(cfg, p_in, lower, upper, params, 360.0)
        solves = []
        orig = live.plan
        live.plan = lambda b, step: solves.append(step) or orig(b, step)
        for i in range(n):
            live(3250.0, lower[i], upper[i], i)
        assert solves == [0, 4, 8, 12, 16]
        assert _drive_matches_gather(ctl, np.random.default_rng(9)) >= 0

    def test_replan_interval_batches_solves(self, params):
        ctl = MpcController(
            MpcConfig(horizon=7200.0, replan_interval=3),
            *_flat(500.0, 40),
            params,
            360.0,
        )
        solves = []
        orig = ctl.plan
        ctl.plan = lambda b, step: solves.append(step) or orig(b, step)
        for i in range(6):
            u = ctl(3000.0, 0.0, params.b_max, i)
            assert params.u_min <= u <= params.u_max
        assert solves == [0, 3]
