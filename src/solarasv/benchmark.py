"""Benchmark velocity strategies: energy-balance constants and a DP lookahead.

Three reference strategies bracket the learned controller:

* constant-unconstrained: the velocity whose propulsive energy over the whole
  mission equals the solar energy collected, ignoring SOC limits entirely.
  Physically unrealizable in general; it upper-bounds achievable distance.
* constant-constrained: the same velocity, but commanded through the hard
  switching law so the tightened SOC bounds are respected.
* mpc: a receding-horizon planner with a perfect forecast. At each step it
  solves a finite-horizon distance maximization by backward dynamic
  programming on a (SOC x step) lattice with velocities from a small grid,
  then executes the plan prefix.

Lattice semantics (shared with the exhaustive-enumeration test oracle, which
must match the DP value exactly):

* SOC states are ``soc_grid`` evenly spaced levels on [b_min, b_max] with
  resolution ``res``; velocities are ``u_grid`` evenly spaced levels on
  [u_min, u_max].
* At stage k with input power p_k, taking velocity u_j moves the state by a
  whole number of cells: shift = floor((p_k - power_draw(u_j)) * dt/3600 / res).
  Rounding is toward energy loss on purpose (charging rounds down, discharging
  rounds up): with round-to-nearest the optimizer systematically picks
  velocities whose quantization error fabricates stored energy, and the
  executed battery then runs below the plan. Floor rounding keeps every
  executed trajectory at or above its planned SOC path.
* A shift below cell 0 is a battery underflow and the transition is
  infeasible; a shift past the top cell clamps there (curtailment).
* The post state must lie inside the tightened envelope [b_l, b_u] sampled at
  the next stage time, otherwise the transition is infeasible.
* Stage reward is u * dt meters; the terminal state earns
  terminal_reward_slope * soc (m per Wh). Ties break toward the higher
  velocity.

If no action is feasible from the current state the controller falls back to
the switching branches (u_min below the lower barrier, u_max above the upper,
u_min otherwise).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .barrier import BarrierEnvelope
from .solar import SolarProfile, integrate_power, sample_array
from .vessel import VesselParams


def energy_balance_velocity(
    profile: SolarProfile,
    t_f: float,
    params: VesselParams,
    include_hotel: bool = False,
) -> float:
    """Constant velocity that balances propulsive energy against solar input.

    Solves k_m * u^3 * t_f = E_in (include_hotel=False) or
    k_m * u^3 * t_f = E_in - k_h * t_f (include_hotel=True), both projected
    onto the vessel's velocity limits. E_in is the exact integral of the
    profile over [0, t_f].
    """
    if t_f <= 0:
        raise ValueError("t_f must be > 0")
    e_in = integrate_power(profile, 0.0, t_f)  # J
    if include_hotel:
        e_in -= params.k_h * t_f
    u = (max(0.0, e_in) / (params.k_m * t_f)) ** (1.0 / 3.0)
    return min(max(u, params.u_min), params.u_max)


@dataclass(frozen=True)
class MpcConfig:
    """Receding-horizon planner knobs.

    horizon: lookahead in seconds (truncated at the mission end).
    soc_grid / u_grid: lattice sizes (>= 2 each).
    terminal_reward_slope: value of terminal stored energy, m per Wh.
    replan_interval: steps executed from each plan before re-solving.
    """

    horizon: float = 172800.0
    soc_grid: int = 131
    u_grid: int = 24
    terminal_reward_slope: float = 5.0
    replan_interval: int = 1

    def __post_init__(self) -> None:
        if not 0 < self.horizon < math.inf:
            raise ValueError("horizon must be finite and > 0")
        if self.soc_grid < 2 or self.u_grid < 2:
            raise ValueError("soc_grid and u_grid must be >= 2")
        if not 0 <= self.terminal_reward_slope < math.inf:
            raise ValueError("terminal_reward_slope must be finite and >= 0")
        if self.replan_interval < 1:
            raise ValueError("replan_interval must be >= 1")


class MpcController:
    """Callable (soc_wh, t_s) -> velocity; plans on a quantized SOC lattice."""

    def __init__(
        self,
        cfg: MpcConfig,
        forecast: SolarProfile,
        env: BarrierEnvelope,
        params: VesselParams,
        dt: float,
        t_end: float | None = None,
    ) -> None:
        if dt <= 0:
            raise ValueError("dt must be > 0")
        if cfg.horizon < dt:
            raise ValueError("horizon must cover at least one step")
        self.cfg = cfg
        self.forecast = forecast
        self.env = env
        self.params = params
        self.dt = float(dt)
        self.t_end = t_end
        self.lattice = np.linspace(params.b_min, params.b_max, cfg.soc_grid)
        self.res = (params.b_max - params.b_min) / (cfg.soc_grid - 1)
        # descending so argmax resolves value ties toward the higher velocity
        self.u_desc = np.linspace(params.u_min, params.u_max, cfg.u_grid)[::-1].copy()
        self.draw_desc = params.k_h + params.k_m * self.u_desc ** 3
        self.horizon_steps = max(1, int(round(cfg.horizon / dt)))
        self._queue: list[float] = []

    def _snap(self, b: float) -> int:
        # floor, not nearest: the root cell must never hold more energy
        # than the real battery does
        b = min(max(b, self.params.b_min), self.params.b_max)
        return int(np.floor((b - self.params.b_min) / self.res))

    def _stage_count(self, t: float) -> int:
        k = self.horizon_steps
        if self.t_end is not None:
            k = min(k, int(round((self.t_end - t) / self.dt)))
        return k

    def plan(self, b: float, t: float) -> tuple[float, np.ndarray | None]:
        """Solve the lookahead DP from (b, t).

        Returns (optimal lattice value, planned velocities) or (-inf, None)
        when no feasible action sequence exists from the snapped state.
        """
        k_steps = self._stage_count(t)
        if k_steps <= 0:
            return 0.0, np.asarray([])
        dtf = self.dt / 3600.0
        stage_times = t + self.dt * np.arange(k_steps + 1)
        if not self.forecast.periodic and stage_times[-2] > self.forecast.end + 1e-9:
            raise ValueError("forecast does not cover the lookahead window")
        p = sample_array(self.forecast, stage_times[:-1])
        bl, bu = self.env.bounds_arrays(stage_times[1:])

        lattice = self.lattice
        n_soc = lattice.size
        idx = np.arange(n_soc)
        # quantized per-stage cell shifts, one row per stage, u descending;
        # floor biases toward energy loss so the plan stays physically coverable
        shifts = np.floor(
            (p[:, None] - self.draw_desc[None, :]) * dtf / self.res
        ).astype(np.int64)

        value = self.cfg.terminal_reward_slope * lattice
        policy = np.empty((k_steps, n_soc), dtype=np.int32)
        stage_reward = self.u_desc * self.dt
        for k in range(k_steps - 1, -1, -1):
            raw = idx[None, :] + shifts[k][:, None]          # (U, S)
            fail = raw < 0
            landed = np.clip(raw, 0, n_soc - 1)
            soc_next = lattice[landed]
            feasible = ~fail & (soc_next >= bl[k]) & (soc_next <= bu[k])
            vals = stage_reward[:, None] + value[landed]
            vals = np.where(feasible, vals, -np.inf)
            value = vals.max(axis=0)
            policy[k] = vals.argmax(axis=0)

        root = self._snap(b)
        if not np.isfinite(value[root]):
            return float("-inf"), None

        take = min(self.cfg.replan_interval, k_steps)
        actions = np.empty(take)
        state = root
        for k in range(take):
            j = int(policy[k, state])
            actions[k] = self.u_desc[j]
            state = int(np.clip(state + shifts[k, j], 0, n_soc - 1))
        return float(value[root]), actions

    def _fallback(self, b: float, t: float) -> float:
        b_l, b_u = (float(x[0]) for x in self.env.bounds_arrays(np.asarray([t])))
        if b <= b_l:
            return self.params.u_min
        if b >= b_u:
            return self.params.u_max
        return self.params.u_min

    def __call__(self, b: float, t: float) -> float:
        if not self._queue:
            _, actions = self.plan(b, t)
            if actions is None:
                return self._fallback(b, t)
            if len(actions) == 0:
                return self.params.u_min
            self._queue = [float(u) for u in actions]
        return self._queue.pop(0)

