"""Acceptance gate: the numbered end-to-end criteria for this library.

Each test prints one ``criterion N: PASS/FAIL`` line (collected and echoed in
the terminal summary) and then asserts it. The year-long strategy comparison
is shared by criteria 5, 9 and 11 through a module-scoped fixture; expect the
whole module to take about 14 s on a 2-core machine (Python 3.11, numpy 2.4),
about 11 s of it in that fixture.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from solarasv.barrier import barrier_curves
from solarasv.benchmark import MpcConfig, MpcController
from solarasv.controller import (
    Costate,
    IlcPolicy,
    stationarity_residual,
    velocity_from_costate,
)
from solarasv.config import IlcSettings, SimConfig
from solarasv.harness import (
    Policy,
    build_input_profile,
    compare_strategies,
    run_mission,
    simulate,
)
from solarasv.solar import IdealizedSource, SolarProfile, integrate_power, sample_array
from solarasv.vessel import VesselParams

from conftest import ACCEPTANCE_LINES, dp_enum_value, random_dp_instance

DAY = 86400.0


def _record(n: int, ok: bool, detail: str) -> None:
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


# ======================================================================
# 1. costate/velocity duality point value
# ======================================================================


def test_criterion_1_costate_velocity_duality():
    params = VesselParams()
    u = velocity_from_costate(Costate(p1=-0.0012), params)
    rel = abs(u - 1.83) / 1.83
    _record(1, rel < 0.005, f"velocity_from_costate(-0.0012) = {u:.6f} m/s, "
                            f"{100 * rel:.3f}% from 1.83 (tol 0.5%)")


# ======================================================================
# 2. learned velocity converges on a calibrated repeated day
# ======================================================================


def test_criterion_2_ilc_convergence():
    params = VesselParams()
    # daily-mean input exactly balances the hotel-aware draw at 1.83 m/s
    d0 = params.k_h + params.k_m * 1.83**3
    # start (and retarget every cycle to) the balanced-day rail-contact SOC:
    # the upper barrier sits at b_max and the sine swing has amplitude
    # d1 * period / (2 pi * 3600) Wh, so this start kisses the ceiling once
    # per day, which is what makes the per-cycle map a contraction
    b_des = params.b_max - 500.0 * DAY / (2.0 * math.pi * 3600.0)
    cfg = SimConfig(
        mission_length=20 * DAY,
        dt=360.0,
        initial_soc=b_des,
        strategy="ilc",
        solar=IdealizedSource(d0=d0, d1=500.0),
        barrier_mode="periodic-day",
        ilc=IlcSettings(k_p=5e-5, k_d=1e-5, u_init=1.0, b_des=b_des),
    )
    result = run_mission(cfg)
    # the speed whose draw, hotel load included, uses a day's input exactly
    e_in = integrate_power(build_input_profile(cfg), 0.0, DAY)
    oracle = ((e_in - params.k_h * DAY) / (params.k_m * DAY)) ** (1.0 / 3.0)
    rel = [abs(r.u_hat - oracle) / oracle for r in result.per_iteration]
    settled = [
        i + 1
        for i in range(len(rel))
        if all(r <= 0.01 for r in rel[i:])
    ]
    first = settled[0] if settled else None
    ok = first is not None and first <= 15 and result.wall_time < 1.0
    _record(2, ok, f"oracle {oracle:.4f} m/s, within 1% from iteration {first} "
                   f"of {len(rel)} (limit 15), wall {result.wall_time:.3f}s < 1s")


# ======================================================================
# 3. persistent feasibility property suite
# ======================================================================


def test_criterion_3_persistent_feasibility():
    params = VesselParams()
    rng = np.random.default_rng(1234)
    dt = 600.0
    grid = np.arange(0.0, 2 * DAY + dt / 2, dt)
    n = grid.size
    dtf = dt / 3600.0
    full_draw = params.k_h + params.k_m * params.u_max**3
    worst_lo = math.inf
    worst_hi = -math.inf
    for _ in range(100):
        n_seg = int(rng.integers(4, 24))
        edges = np.sort(rng.uniform(0.0, 2 * DAY, size=n_seg))
        times = np.concatenate([[0.0], edges])
        powers = rng.uniform(0.0, 1500.0, size=n_seg + 1)
        prof = SolarProfile(times=times, powers=powers, interpolation="hold")

        deficit, surplus, lo, hi = barrier_curves(prof, params, grid)

        # O(n) suffix-sup curves equal the O(n^2) definition, bitwise
        lo_brute = np.array(
            [max(0.0, float(np.max(deficit[i:] - deficit[i]))) for i in range(n)]
        )
        hi_brute = params.b_max - np.array(
            [max(0.0, float(np.max(surplus[i:] - surplus[i]))) for i in range(n)]
        )
        assert lo.tolist() == lo_brute.tolist()
        assert hi.tolist() == hi_brute.tolist()

        # forward-Euler rollouts from the barrier; the trapezoid-built
        # barrier and the left-sample rollout differ by a telescoping
        # (p_start - p_t) * dt / 7200, never more than one step's swing
        p_s = sample_array(prof, grid)
        bound = float(p_s.max() - p_s.min()) * dtf / 2.0 + 1e-9
        drift = np.concatenate([[0.0], np.cumsum((p_s[:-1] - params.k_h) * dtf)])
        burn = np.concatenate([[0.0], np.cumsum((p_s[:-1] - full_draw) * dtf)])
        for i in range(n):
            soc_min = float(np.min(lo[i] + drift[i:] - drift[i]))
            soc_max = float(np.max(hi[i] + burn[i:] - burn[i]))
            worst_lo = min(worst_lo, soc_min)
            worst_hi = max(worst_hi, soc_max)
            assert soc_min >= params.b_min - bound
            assert soc_max <= params.b_max + bound
    _record(3, True, "100 random 48h profiles: O(n) == O(n^2) bitwise; "
                     f"drift rollout min {worst_lo:.2f} Wh, full-speed rollout "
                     f"max {worst_hi:.2f} Wh, within one-step bounds")


# ======================================================================
# 4. stationarity of the dual velocity
# ======================================================================


def test_criterion_4_pmp_stationarity():
    params = VesselParams()
    rng = np.random.default_rng(4321)
    lo_exp = math.log10(7.6e-4)  # keeps the dual velocity strictly interior
    worst = 0.0
    for _ in range(1000):
        p1 = -(10.0 ** rng.uniform(lo_exp, 1.0))
        c = Costate(p1=p1)
        u = velocity_from_costate(c, params)
        assert params.u_min < u < params.u_max
        worst = max(worst, abs(stationarity_residual(u, c, params)))
    _record(4, worst < 1e-12,
            f"1000 interior costates: max |dH/du| = {worst:.2e} < 1e-12")


# ======================================================================
# 5, 9 and 11 share one year-long comparison
# ======================================================================


@pytest.fixture(scope="module")
def year_comparison():
    days = 365
    d = np.arange(days)
    d0 = 330.0 + 30.0 * np.cos(2.0 * np.pi * d / 365.0)
    d1 = np.full(days, 500.0)
    cloudy = (d >= 10) & ((d - 10) % 28 < 3)  # 3 overcast days every 4 weeks
    d0[cloudy] *= 0.5
    d1[cloudy] *= 0.5
    solar = IdealizedSource(d0_by_day=tuple(d0), d1_by_day=tuple(d1))
    base = dict(
        mission_length=days * DAY,
        dt=360.0,
        initial_soc=3250.0,
        solar=solar,
        barrier_mode="horizon",
    )
    cfgs = [
        SimConfig(strategy="constant-constrained", **base),
        SimConfig(strategy="ilc", ilc=IlcSettings(b_des=3250.0), **base),
        SimConfig(
            strategy="mpc",
            mpc=MpcConfig(
                horizon=DAY,
                soc_grid=3251,
                u_grid=48,
                terminal_reward_slope=5.1,
                replan_interval=240,
            ),
            **base,
        ),
        SimConfig(strategy="constant-unconstrained", **base),
    ]
    return compare_strategies(cfgs)


def test_criterion_5_strategy_ranking(year_comparison):
    dist = {r.strategy: r.distance for r in year_comparison}
    cc = dist["constant-constrained"]
    ilc = dist["ilc"]
    mpc = dist["mpc"]
    cu = dist["constant-unconstrained"]
    ratio = ilc / mpc
    ok = cc <= ilc <= mpc <= cu and ratio >= 0.95
    _record(5, ok, f"year distances (Mm): constrained-const {cc / 1e6:.3f} <= "
                   f"ilc {ilc / 1e6:.3f} <= mpc {mpc / 1e6:.3f} <= "
                   f"unconstrained-const {cu / 1e6:.3f}; ilc/mpc = {ratio:.4f} >= 0.95")


# ======================================================================
# 6. planner value equals exhaustive enumeration
# ======================================================================


def test_criterion_6_dp_oracle_equivalence():
    params = VesselParams()
    rng = np.random.default_rng(99)
    finite = 0
    total = 30
    for _ in range(total):
        k_steps = int(rng.integers(2, 21))
        n_soc = int(rng.integers(2, 21))
        n_u = int(rng.integers(2, 6))
        p_seq, lower, upper, dt = random_dp_instance(rng, k_steps, n_soc, n_u)
        cfg = MpcConfig(
            horizon=k_steps * dt,
            soc_grid=n_soc,
            u_grid=n_u,
            terminal_reward_slope=5.0,
            replan_interval=k_steps,
        )
        ctl = MpcController(cfg, p_seq, lower, upper, params, dt)
        root = int(rng.integers(0, n_soc - 1))
        b = min(ctl.lattice[root] + 0.5 * ctl.res, params.b_max)
        got, _ = ctl.plan(b, 0)
        want = dp_enum_value(
            root, ctl.lattice, ctl.u_desc, ctl.draw_desc,
            p_seq, lower[1:], upper[1:], ctl.res, dt, 5.0,
        )
        assert got == want, f"plan {got!r} != enumeration {want!r}"
        if math.isfinite(want):
            finite += 1
    _record(6, finite >= 10,
            f"{total} instances up to 20 steps x 20 SOC x 5 velocities: "
            f"exact value match, {finite} with feasible plans")


# ======================================================================
# 7. throughput of the year-long simulation
# ======================================================================


def test_criterion_7_throughput():
    cfg = SimConfig(
        mission_length=365 * DAY,
        dt=360.0,
        initial_soc=3250.0,
        strategy="ilc",
        solar=IdealizedSource(d0=300.0, d1=500.0),
        barrier_mode="periodic-day",
        ilc=IlcSettings(b_des=3250.0),
    )
    result = run_mission(cfg)
    ok = result.soc_trace.size == 87_600 and result.wall_time < 2.0
    _record(7, ok, f"one-year ilc run, {result.soc_trace.size} steps in "
                   f"{result.wall_time:.2f}s (required < 20s, target < 2s)")


# ======================================================================
# 8. buffered law continuity under a fine SOC sweep
# ======================================================================


def test_criterion_8_buffer_continuity():
    params = VesselParams()
    b_l, b_u, delta = 1000.0, 5000.0, 100.0
    inc = 1e-3
    u_star = velocity_from_costate(Costate(p1=-0.0012), params)
    bs = np.arange(b_l - delta, b_u + delta + inc / 2, inc)
    # the learner's own step, point by point: in its first cycle it passes
    # u_init through the buffered law uncorrected
    settings = IlcSettings(delta=delta, u_init=u_star)
    velocity = IlcPolicy(settings, params, 1, 3000.0).velocity
    us = np.array([velocity(b, b_l, b_u, 0) for b in bs.tolist()])
    max_jump = float(np.max(np.abs(np.diff(us))))
    bound = inc * (params.u_max - params.u_min) / delta
    _record(8, max_jump < bound,
            f"{bs.size} samples across [b_l-delta, b_u+delta]: max jump "
            f"{max_jump:.3e} m/s < {bound:.3e}")


# ======================================================================
# 9. violation accumulator over the year runs
# ======================================================================


def test_criterion_9_violation_accumulator(year_comparison):
    params = VesselParams()
    dt = 360.0
    mission = 365 * DAY
    peak_in = max(
        float(np.max(r.p_in_trace)) for r in year_comparison
    )
    full_draw = params.k_h + params.k_m * params.u_max**3
    step_wh = max(full_draw, peak_in - params.k_h) * dt / 3600.0
    bound = step_wh**2 * mission  # one-step excursion held for every step
    x2 = {r.strategy: r.violation for r in year_comparison}
    respecting = ("ilc", "constant-constrained", "mpc")
    ok = all(x2[s] < bound for s in respecting) and x2["constant-unconstrained"] > 0.0
    _record(9, ok, "x2: " + ", ".join(f"{s}={x2[s]:.3g}" for s in x2)
                   + f"; barrier-respecting < {bound:.3g}, unconstrained > 0")


# ======================================================================
# 11. pointwise limits alone lose feasibility
# (10 is kept for the offline optimum)
# ======================================================================


def test_criterion_11_pointwise_limits_lose_feasibility(year_comparison):
    """The learner on the year's input, stepped once inside the tightened
    envelope (the fixture's run) and once inside the raw battery limits.

    Only the envelope keeps it off the floor: on the raw limits it meets the
    night with too little stored energy and the b_min clamp adds energy.
    """
    params = VesselParams()
    tightened = next(r for r in year_comparison if r.strategy == "ilc")
    ilc = IlcPolicy(IlcSettings(b_des=3250.0), params, 240, 3250.0)
    n = tightened.p_in_trace.size
    raw = simulate(
        Policy("ilc", ilc.velocity, ilc.cycle_steps, ilc.end_cycle),
        tightened.p_in_trace,
        np.full(n, params.b_min),
        np.full(n, params.b_max),
        3250.0,
        params,
        360.0,
    )
    at_floor = int(np.count_nonzero(raw.soc_trace == params.b_min))
    ok = (
        tightened.floor_added_wh == 0.0 and not tightened.battery_failed
        and raw.floor_added_wh > 0.0 and raw.battery_failed
    )
    _record(11, ok, f"ilc year: tightened envelope {tightened.distance / 1e6:.4f} Mm, "
                    f"{tightened.floor_added_wh:.1f} Wh at the floor; raw limits "
                    f"{raw.distance / 1e6:.4f} Mm, {raw.floor_added_wh:.1f} Wh at the "
                    f"floor, SOC at b_min on {at_floor} steps")
