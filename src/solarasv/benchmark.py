"""Benchmark velocity strategies: energy-balance constants and a DP lookahead.

Three reference strategies bracket the learned controller:

* constant-unconstrained: the velocity whose propulsive energy over the whole
  mission equals the solar energy collected, ignoring SOC limits entirely.
  Physically unrealizable in general; it upper-bounds achievable distance.
* constant-constrained: the same velocity, but commanded through the hard
  switching law so the tightened SOC bounds are respected.
* mpc: a receding-horizon planner with a perfect forecast: its forecast is
  the mission's tabulated input power, the same per-step values the battery
  integrates. At each replan it solves a finite-horizon distance
  maximization by backward dynamic programming on a (SOC x step) lattice
  with velocities from a small grid, then executes the plan prefix. The
  horizon is truncated at the mission's last step.

Lattice semantics (shared with the exhaustive-enumeration test oracle, which
must match the DP value exactly):

* SOC states are ``soc_grid`` evenly spaced levels on [b_min, b_max] with
  resolution ``res``; velocities are ``u_grid`` evenly spaced levels on
  [u_min, u_max].
* At stage k with input power p_k, taking velocity u_j moves the state by a
  whole number of cells: shift = floor((p_k - k_h - k_m * u_j**3) * dt/3600 / res).
  Rounding is toward energy loss on purpose (charging rounds down, discharging
  rounds up): with round-to-nearest the optimizer systematically picks
  velocities whose quantization error fabricates stored energy, and the
  executed battery then runs below the plan. Floor rounding keeps every
  executed trajectory at or above its planned SOC path.
* A shift below cell 0 is a battery underflow and the transition is
  infeasible; a shift past the top cell clamps there (curtailment).
* The post state must lie inside the tightened envelope [b_l, b_u] at the
  next step boundary, otherwise the transition is infeasible.
* Stage reward is u * dt meters; the terminal state earns
  terminal_reward_slope * soc (m per Wh). Ties break toward the higher
  velocity.

The DP never gathers: each action moves the state by a whole number of
cells, so every velocity's successor values form a shifted window of one
padded value vector (``-inf`` below cell 0, the top cell repeated above it).
The shift falls as u rises, so a stage's velocities land on one contiguous
run of shifts, and velocities sharing a shift share a window; only the
fastest of them can win. A stage masks the vector to the envelope, reads the
run of windows (a view), adds each shift's best reward (``-inf`` for a shift
no velocity lands on) and takes the max; no stage keeps an argmax. The
stages the controller executes before it replans keep the value vector they
read, and the rollout re-derives each action from the U candidates at the
current state alone.

If no action is feasible from the current state the controller falls back to
the switching law on the step loop's bounds with u_min as the interior
velocity: u_max at or above the upper barrier, u_min otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .controller import _switching_velocity
# sample_array is not called here; it stays importable because perfbench
# hooks solarasv.benchmark.sample_array and its self-tests resolve every hook
from .solar import SolarProfile, integrate_power, sample_array  # noqa: F401
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

    horizon: lookahead in seconds (truncated at the mission's last step); it
      must be a whole number of steps, and ``MpcController`` rejects any
      other horizon.
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
    """Policy control (soc_wh, b_l, b_u, step) -> velocity; plans on a SOC lattice.

    p_in holds the mission's input power at each step start, the same values
    the battery integrates, so the planner's forecast is perfect. lower and
    upper hold the envelope at every step boundary, one entry more than p_in:
    entry k is the bound at the start of step k, and the last entry the bound
    after the final step. Plans stop at the last step.
    """

    def __init__(
        self,
        cfg: MpcConfig,
        p_in: np.ndarray,
        lower: np.ndarray,
        upper: np.ndarray,
        params: VesselParams,
        dt: float,
    ) -> None:
        if dt <= 0:
            raise ValueError("dt must be > 0")
        if cfg.horizon < dt:
            raise ValueError("horizon must cover at least one step")
        steps = cfg.horizon / dt
        if abs(steps - round(steps)) > 1e-9:
            raise ValueError("horizon must be a whole number of steps")
        if len(p_in) == 0:
            raise ValueError("p_in must cover at least one step")
        if not len(lower) == len(upper) == len(p_in) + 1:
            raise ValueError("lower and upper need one entry more than p_in")
        self.cfg = cfg
        self.p_in = np.asarray(p_in, dtype=float)
        self.lower = np.asarray(lower, dtype=float)
        self.upper = np.asarray(upper, dtype=float)
        self.params = params
        self.dt = float(dt)
        self.lattice = np.linspace(params.b_min, params.b_max, cfg.soc_grid)
        self.res = (params.b_max - params.b_min) / (cfg.soc_grid - 1)
        # descending so argmax resolves value ties toward the higher velocity
        self.u_desc = np.linspace(params.u_min, params.u_max, cfg.u_grid)[::-1].copy()
        self.draw_desc = params.k_h + params.k_m * self.u_desc ** 3
        self.horizon_steps = round(steps)
        # the mission's extreme cell shifts bound every plan's (same floor
        # arithmetic as plan), so one padded value vector serves all plans;
        # the top pad has room for a stage's run of windows past the highest
        # shift: the floors of two draws d cells apart differ by at most
        # floor(d) + 1, and one more covers rounding
        dtf = self.dt / 3600.0
        draw_max, draw_min = self.draw_desc.max(), self.draw_desc.min()
        self._lo = max(0, -math.floor((self.p_in.min() - draw_max) * dtf / self.res))
        hi = max(0, math.floor((self.p_in.max() - draw_min) * dtf / self.res))
        width = math.floor((draw_max - draw_min) * dtf / self.res) + 2
        self._padded = np.full(self._lo + cfg.soc_grid + hi + width, -np.inf)
        self._windows = sliding_window_view(self._padded, cfg.soc_grid)
        self._middle = self._padded[self._lo:self._lo + cfg.soc_grid]
        self._actions: list[float] = []
        self._next = 0

    def _snap(self, b: float) -> int:
        # floor, not nearest: the root cell must never hold more energy
        # than the real battery does
        b = min(max(b, self.params.b_min), self.params.b_max)
        return math.floor((b - self.params.b_min) / self.res)

    def plan(self, b: float, step: int) -> tuple[float, np.ndarray | None]:
        """Solve the lookahead DP from SOC b at the start of ``step``.

        Each backward stage copies the next stage's values inside the
        envelope [b_l, b_u] into the middle of one padded vector (``-inf`` at
        the other cells); the cells below it hold ``-inf`` (underflow) and
        those above it copies of the top cell (the clamp). Velocity j's
        candidate row is the length-S window of that vector starting at its
        cell shift. u descends, so each stage's shifts ascend and span a run
        of W windows (W is the widest run of the plan); a (K, W) table holds
        the largest reward landing on each shift, ``-inf`` where none does.
        A stage is then one basic-slice read of the W windows, one add of
        that table's row and a max over them. Dropping the slower velocities
        of a shared shift leaves the max bitwise unchanged, since float
        addition of a larger reward never rounds below a smaller one. The
        vector is allocated once per controller, padded for the mission's
        extreme shifts and the widest run. No stage keeps an argmax: each of
        the first ``take = min(replan_interval, K)`` stages keeps a reference
        to the value vector it reads, and the rollout loads that vector again
        and takes the argmax over all U candidates at the current state, the
        same float64 sums the stage maxed over; the first maximum is always
        the fastest velocity of its shift. Ties go to the higher velocity.

        ``step`` must lie in [0, len(p_in)); anything else is a ValueError.
        Returns (optimal lattice value, the first ``take`` planned velocities)
        or (-inf, None) when no feasible action sequence exists from the
        snapped state.
        """
        if not 0 <= step < len(self.p_in):
            raise ValueError(f"step must lie in [0, {len(self.p_in)}), got {step}")
        stop = min(step + self.horizon_steps, len(self.p_in))
        k_steps = stop - step
        take = min(self.cfg.replan_interval, k_steps)
        dtf = self.dt / 3600.0
        p = self.p_in[step:stop]
        bl = self.lower[step + 1:stop + 1]
        bu = self.upper[step + 1:stop + 1]

        lattice = self.lattice
        n_soc = lattice.size
        # quantized per-stage cell shifts, one row per stage, u descending;
        # floor biases toward energy loss so the plan stays physically coverable
        shifts = np.floor(
            (p[:, None] - self.draw_desc[None, :]) * dtf / self.res
        ).astype(np.int64)

        # u descends, so each row of shifts ascends: stage k's velocities land
        # in the run of shifts lo[k] + [0, width), and best[k, w] is the
        # largest reward among those landing on lo[k] + w (-inf if none does)
        rewards = self.u_desc * self.dt
        lo = shifts[:, 0]
        offset = shifts - lo[:, None]
        width = int(offset[:, -1].max()) + 1
        fastest = np.empty(shifts.shape, dtype=bool)
        fastest[:, 0] = True
        np.not_equal(shifts[:, 1:], shifts[:, :-1], out=fastest[:, 1:])
        rows, cols = np.nonzero(fastest)
        best = np.full((k_steps, width, 1), -np.inf)
        best[rows, offset[rows, cols], 0] = rewards[cols]
        run = (lo + self._lo).tolist()

        # the lattice ascends, so stage k's envelope [b_l, b_u] is the cell
        # range [first[k], end[k])
        first = np.searchsorted(lattice, bl, side="left").tolist()
        end = np.searchsorted(lattice, bu, side="right").tolist()

        value = self.cfg.terminal_reward_slope * lattice
        # next_value[k] is V_{k+1}, the unmasked value stage k reads
        next_value = [value] * take
        windows = self._windows
        for k in range(k_steps - 1, -1, -1):
            if k < take:
                next_value[k] = value
            self._load(value, first[k], end[k])
            start = run[k]
            value = (windows[start:start + width] + best[k]).max(axis=0)

        root = self._snap(b)
        if not np.isfinite(value[root]):
            return float("-inf"), None

        # each executed action is the argmax over all U candidates at the
        # current state: the same padded vector, the same float64 sums
        starts = shifts + self._lo
        actions = np.empty(take)
        state = root
        for k in range(take):
            self._load(next_value[k], first[k], end[k])
            j = int((self._padded[starts[k] + state] + rewards).argmax())
            actions[k] = self.u_desc[j]
            state = min(max(state + int(shifts[k, j]), 0), n_soc - 1)
        return float(value[root]), actions

    def _load(self, value: np.ndarray, first: int, end: int) -> None:
        """Pad ``value`` masked to the cells [first, end) for a window read."""
        middle = self._middle
        middle.fill(-np.inf)
        middle[first:end] = value[first:end]
        self._padded[self._lo + middle.size:] = middle[-1]

    def __call__(self, b: float, b_l: float, b_u: float, step: int) -> float:
        if self._next == len(self._actions):
            _, actions = self.plan(b, step)
            if actions is None:
                p = self.params
                return _switching_velocity(b, b_l, b_u, p.u_min, p.u_min, p.u_max)
            self._actions = actions.tolist()
            self._next = 0
        u = self._actions[self._next]
        self._next += 1
        return u
