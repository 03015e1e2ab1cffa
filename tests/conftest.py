"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from solarasv.harness import Policy, SimResult, simulate
from solarasv.solar import IdealizedSolarParams, SolarProfile, tabulate_idealized
from solarasv.vessel import VesselParams


# one "criterion N: PASS/FAIL - detail" line per acceptance criterion,
# echoed after the run summary so they are visible without -s
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def step_fixed(
    params: VesselParams,
    b0: float,
    us: list[float],
    p_in: list[float],
    dt: float = 360.0,
    lower: list[float] | None = None,
    upper: list[float] | None = None,
) -> SimResult:
    """Run the harness step loop with a fixed velocity per step.

    The bounds default to the battery window, where they never bind.
    """
    n = len(us)
    lower = [params.b_min] * n if lower is None else lower
    upper = [params.b_max] * n if upper is None else upper
    policy = Policy("fixed", lambda b, b_l, b_u, i: us[i])
    return simulate(policy, p_in, lower, upper, b0, params, dt)


@pytest.fixture
def params() -> VesselParams:
    return VesselParams()


@pytest.fixture
def canonical_day() -> SolarProfile:
    """One idealized clear-sky day, mean input above the hotel load."""
    return tabulate_idealized(IdealizedSolarParams(d0=300.0, d1=500.0), dt=360.0)


# ======================================================================
# Independent lattice-DP oracles (mirror the documented MPC semantics:
# floor-quantized cell shifts, clamp at the top, underflow infeasible,
# envelope check at the next stage, reward u*dt, terminal slope*soc)
# ======================================================================


def dp_enum_value(
    root_idx: int,
    lattice: np.ndarray,
    u_levels: np.ndarray,
    draws: np.ndarray,
    p_seq: np.ndarray,
    bl_seq: np.ndarray,
    bu_seq: np.ndarray,
    res: float,
    dt: float,
    slope: float,
) -> float:
    """Optimal K-stage value from a lattice cell, by memoized recursion."""
    k_steps = len(p_seq)
    n_soc = lattice.size
    dtf = dt / 3600.0
    memo: dict[tuple[int, int], float] = {}

    def value(i: int, k: int) -> float:
        if k == k_steps:
            return slope * lattice[i]
        key = (i, k)
        if key in memo:
            return memo[key]
        best = -math.inf
        for u, draw in zip(u_levels, draws):
            shift = math.floor((p_seq[k] - draw) * dtf / res)
            raw = i + shift
            if raw < 0:
                continue
            j = min(raw, n_soc - 1)
            soc = lattice[j]
            if soc < bl_seq[k] or soc > bu_seq[k]:
                continue
            cand = u * dt + value(j, k + 1)
            if cand > best:
                best = cand
        memo[key] = best
        return best

    return value(root_idx, 0)


def dp_enum_bruteforce(
    root_idx: int,
    lattice: np.ndarray,
    u_levels: np.ndarray,
    draws: np.ndarray,
    p_seq: np.ndarray,
    bl_seq: np.ndarray,
    bu_seq: np.ndarray,
    res: float,
    dt: float,
    slope: float,
) -> float:
    """Same value by brute force over every action sequence (tiny instances)."""
    k_steps = len(p_seq)
    n_soc = lattice.size
    dtf = dt / 3600.0
    best = -math.inf
    for seq in itertools.product(range(u_levels.size), repeat=k_steps):
        i = root_idx
        total = 0.0
        ok = True
        for k, a in enumerate(seq):
            shift = math.floor((p_seq[k] - draws[a]) * dtf / res)
            raw = i + shift
            if raw < 0:
                ok = False
                break
            j = min(raw, n_soc - 1)
            soc = lattice[j]
            if soc < bl_seq[k] or soc > bu_seq[k]:
                ok = False
                break
            total += u_levels[a] * dt
            i = j
        if ok:
            total += slope * lattice[i]
            if total > best:
                best = total
    return best


def random_dp_instance(rng: np.random.Generator, k_steps: int, n_soc: int, n_u: int):
    """A random lattice instance in the planner's array form.

    Returns (p_seq, lower, upper, dt): k_steps input powers, one per stage,
    and the envelope at the k_steps + 1 stage boundaries.
    """
    dt = 360.0
    p_seq = rng.uniform(0.0, 1200.0, size=k_steps)
    params = VesselParams()
    lower = rng.uniform(0.0, 800.0, size=k_steps + 1)
    upper = params.b_max - rng.uniform(0.0, 800.0, size=k_steps + 1)
    return p_seq, lower, upper, dt
