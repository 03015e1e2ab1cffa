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
Only the fastest velocity landing on a window can win there, and a window no
velocity lands on cannot win at all, so a stage adds the best reward of each
landed window and maxes in place; no stage keeps an argmax. A plan's DP
depends only on its start step, never on the SOC, so the planner solves the
plans at step, step + R, ... (R the replan interval) in one backward sweep,
and every plan is bitwise the plan it would be alone. A sweep may span many
horizons of plans; each stage adds to the at most ceil(H / R) of them that
contain it, its band, whose padded rows take turns in a ring of slots.
``MpcController._sweep`` describes the mechanism. The stages a plan executes
before its next replan store the masked vector they read, and the rollout
re-derives the plan's value and each action from the stage's landed windows
at the current state, applying the pads by index.

If no action is feasible from the current state the controller falls back
on the step loop's upper bound: u_max at or above the upper barrier, u_min
otherwise.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# sample_array is not called here; it stays importable because perfbench
# hooks solarasv.benchmark.sample_array and its self-tests resolve every hook
from .solar import SolarProfile, integrate_power, sample_array, whole_steps  # noqa: F401
from .solar import broken_rules, integer_rule, raise_broken
from .vessel import VesselParams

# bytes the planner may give each of two parts of a sweep (see
# MpcController): what a stage touches (its band's ring of padded rows, the
# overhang of the view over them and the work array), and what the sweep
# stores for its rollouts (one masked vector per executed stage). The first
# keeps a stage's band in cache: it alone bounds a mid-size lattice's band,
# and doubling it (28 plans a sweep in place of 14 on 651 x 24) ran a 1-day
# every-step mission 4-12 % slower. The second bounds the plans of a sweep
# where bands are narrow. With replan_interval = 1 and a 12 h horizon a
# sweep holds all 480 plans of a 2-day mission on 131 x 24, 14 on 651 x 24
# and 4 on 1301 x 24; with a 48-step horizon, one on 3251 x 48.
_SWEEP_BYTES = 2 ** 20 + 2 ** 14


def energy_balance_velocity(
    profile: SolarProfile, t_f: float, params: VesselParams
) -> float:
    """Constant velocity that balances propulsive energy against solar input.

    Solves k_m * u^3 * t_f = E_in, projected onto the vessel's velocity
    limits. E_in is the exact integral of the profile over [0, t_f]. A t_f
    that is not finite and > 0 raises ValueError.
    """
    if not (math.isfinite(t_f) and t_f > 0):
        raise ValueError(f"t_f must be finite and > 0, got {t_f}")
    e_in = integrate_power(profile, 0.0, t_f)  # J
    u = (max(0.0, e_in) / (params.k_m * t_f)) ** (1.0 / 3.0)
    return min(max(u, params.u_min), params.u_max)


# runs of windows (o, e, d, r, s): windows range(o, e, d) into work rows r:s
_Runs = tuple[tuple[int, int, int, int, int], ...]
# a stage's windows: runs, best rewards (n, 1), landed offsets, fastest velocities
_Windows = tuple[_Runs, np.ndarray, np.ndarray, np.ndarray]


def _progressions(offsets: list[int]) -> _Runs:
    """Split ascending window offsets into arithmetic runs, in order.

    Each run (o, e, d, r, s) is ``offsets[r:s] == range(o, e, d)``, so one
    strided basic slice reads its windows and the runs fill rows 0, 1, ... of
    a work array in offset order. Greedy from the left: a run takes the step
    to its second offset and extends while the step holds; a lone last offset
    is a run of step 1.
    """
    runs = []
    r = 0
    while r < len(offsets):
        s = r + 1
        d = offsets[s] - offsets[r] if s < len(offsets) else 1
        while s < len(offsets) and offsets[s] - offsets[s - 1] == d:
            s += 1
        runs.append((offsets[r], offsets[s - 1] + 1, d, r, s))
        r = s
    return tuple(runs)


def _stage_windows(offsets: np.ndarray, rewards: np.ndarray) -> _Windows:
    """A stage's landed windows as runs, and the best velocity landing on each.

    ``offsets`` ascend from 0, velocity j (u descending) landing on window
    ``offsets[j]``. Returns the runs (see ``_progressions``) over the n
    distinct offsets in order, the (n, 1) rewards, the n offsets and the n
    velocity indices: entry i is the i-th distinct offset, its first
    velocity, the fastest, and that velocity's reward, the largest landing
    there, so ties go to the higher velocity.
    """
    landed, fastest = np.unique(offsets, return_index=True)
    return _progressions(landed.tolist()), rewards[fastest][:, None], landed, fastest


@dataclass(frozen=True)
class MpcConfig:
    """Receding-horizon planner knobs.

    horizon: lookahead in seconds (truncated at the mission's last step); it
      must be a whole number of steps, and ``MpcController`` rejects any
      other horizon.
    soc_grid / u_grid: lattice sizes (integers >= 2 each).
    terminal_reward_slope: value of terminal stored energy, m per Wh.
    replan_interval: whole steps executed from each plan before re-solving.
    """

    horizon: float = 172800.0
    soc_grid: int = 131
    u_grid: int = 24
    terminal_reward_slope: float = 5.0
    replan_interval: int = 1

    def __post_init__(self) -> None:
        raise_broken(self.problems())

    def problems(self) -> list[tuple[str, str]]:
        """A (field, reason) pair for each rule these knobs break; [] if valid."""
        horizon, slope = self.horizon, self.terminal_reward_slope
        rules = (
            ("horizon", horizon > 0, "must be > 0"),
            integer_rule("soc_grid", self.soc_grid, 2),
            integer_rule("u_grid", self.u_grid, 2),
            ("terminal_reward_slope", slope >= 0, "must be >= 0"),
            integer_rule("replan_interval", self.replan_interval, 1),
        )
        return broken_rules({"horizon": horizon, "terminal_reward_slope": slope}, rules)


class MpcController:
    """Policy control (soc_wh, b_l, b_u, step) -> velocity; plans on a SOC lattice.

    p_in holds the mission's input power at each step start, the same values
    the battery integrates, so the planner's forecast is perfect. lower and
    upper hold the envelope at every step boundary, one entry more than p_in:
    entry k is the bound at the start of step k, and the last entry the bound
    after the final step. Plans stop at the last step.

    Plans are solved in sweeps (see ``_sweep``), and the controller keeps
    the last sweep's stored vectors, which its rollouts read. Its buffers
    are allocated here, once, for the most rows a sweep can have, with n the
    mission's steps, H the horizon in steps (capped at the mission) and R
    the replan interval. With R >= H no stage is shared, so each plan is
    swept alone. A stage lies in at most B = ceil(H / R) plans, its band;
    let b = min(rows, B), W the widest run of shifts the mission allows, U
    the velocities and S the lattice size. Padded rows are L = lo pad + S +
    hi pad + W cells long. Only a band's rows have one: they take turns in a
    ring of b to 2b - 1 slots that lie back to back in one flat buffer, read
    through one sliding-window view of windows (b - 1) * L + S long. Those
    run up to (b - 1) * L cells past the last slot, into cells no stage
    reads, where the rows * min(R, H) * S stored cells lie. A stage adds at
    most min(W, U) windows, so a (min(W, U), (b - 1) * L + S) array takes
    its sums. ``_SWEEP_BYTES`` is charged twice, in float64 cells: what a
    stage touches, slots * L + (b - 1) * L + min(W, U) * ((b - 1) * L + S),
    and what the sweep stores, rows * min(R, H) * S. Rows are the most
    plans, at least one and at most the mission's ceil(n / R), for which
    both parts fit with b slots; the ring then takes as many slots up to
    2b - 1 as the first part has room for.
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
        if not (math.isfinite(dt) and dt > 0):
            raise ValueError(f"dt must be finite and > 0, got {dt}")
        self.horizon_steps = whole_steps(cfg.horizon, dt)
        if self.horizon_steps is None:
            raise ValueError(
                "horizon must be a whole number of steps and cover at least one step"
            )
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
        # the mission's extreme cell shifts bound every plan's (same floor
        # arithmetic as _sweep), so one padded row layout serves all plans;
        # the top pad has room for a stage's run of windows past the highest
        # shift: the floors of two draws d cells apart differ by at most
        # floor(d) + 1, and one more covers rounding
        dtf = self.dt / 3600.0
        draw_max, draw_min = self.draw_desc.max(), self.draw_desc.min()
        self._lo = max(0, -math.floor((self.p_in.min() - draw_max) * dtf / self.res))
        hi = max(0, math.floor((self.p_in.max() - draw_min) * dtf / self.res))
        width = math.floor((draw_max - draw_min) * dtf / self.res) + 2
        # a sweep holds the plans at step, step + R, ...: each stores the
        # vectors its rollout reads. A stage lies in at most ceil(H / R) of
        # them, its band of rows, however many the sweep holds, and adds at
        # most min(W, U) windows: W bounds its run of shifts and each window
        # it adds has a velocity landing on it
        n_soc = cfg.soc_grid
        interval = cfg.replan_interval
        span = min(self.horizon_steps, len(self.p_in))
        band = -(-span // interval)
        added = min(width, cfg.u_grid)
        take = min(interval, span)
        length = self._lo + n_soc + hi + width
        budget = _SWEEP_BYTES // 8

        def touched(slots: int, b: int) -> int:
            # float64 cells a stage's band of b rows touches: a ring of
            # slots padded rows, the view's overhang past it and _tmp
            return slots * length + (b - 1) * length + added * ((b - 1) * length + n_soc)

        def cells(plans: int) -> int:
            # the larger part of a sweep of plans: its band in the least
            # ring, or its stored vectors; each must fit the budget
            b = min(plans, band)
            return max(touched(b, b), plans * take * n_soc)

        # with R >= H no stage is shared, and those between plans belong to
        # none, so each plan is swept alone
        most = -(-len(self.p_in) // interval) if band > 1 else 1
        rows = max(1, bisect_right(range(1, most + 1), budget, key=cells))
        # the ring: 2b - 1 slots copy fewer rows when the band moves up than
        # enter before it moves again, and more would only add cells
        b = min(rows, band)
        slots = max(b, min(rows, 2 * b - 1, (budget - touched(0, b)) // length))
        # a band of b rows from slot a reads windows (b - 1) * L + S long, so
        # the view's widest windows end up to (b - 1) * L cells past the last
        # slot, in cells no stage reads: the stored vectors lie there
        widest = (b - 1) * length + n_soc
        stored = rows * take * n_soc
        flat = np.empty(slots * length + max((b - 1) * length, stored))
        # no stage reads a cell it has not written (see _sweep), but a ring
        # filled here measured faster than one first written by the sweep
        flat[:slots * length] = -np.inf
        self._rows = rows
        self._slots = slots
        self._padded = flat[:slots * length].reshape(slots, length)
        self._values = flat[self._lo:]  # slot r's values: S cells from r * L
        self._stored = flat[slots * length:][:stored].reshape(rows, take, n_soc)
        self._bands = sliding_window_view(flat, widest)
        self._tmp = np.empty((added, widest))
        self._rewards = self.u_desc * self.dt
        # a stage's windows (see _stage_windows) by its row of shift offsets
        self._windows: dict[bytes, _Windows] = {}
        # the sweep run last (see _sweep): its first step and row starts
        self._step = 0
        self._starts: list[int] = []
        self._actions: list[float] = []
        self._next = 0

    def _snap(self, b: float) -> int:
        # floor, not nearest: the root cell must never hold more energy
        # than the real battery does
        b = min(max(b, self.params.b_min), self.params.b_max)
        return math.floor((b - self.params.b_min) / self.res)

    def plan(self, b: float, step: int) -> tuple[float, np.ndarray | None]:
        """Solve the lookahead DP from SOC b at the start of ``step``.

        The plan is one row of a sweep (see ``_sweep``): if ``step`` is not a
        row of the sweep solved last, a new sweep starting at ``step`` runs
        first. The root snaps down to a lattice cell. No stage keeps an
        argmax: for each of the first ``take = min(replan_interval, K)``
        stages the rollout reads, at the current state, each of the stage's
        landed windows from its stored masked vector, applying the pads by
        index (``-inf`` below cell 0, the top cell above it), adds the best
        reward landing there (``_stage_windows``) and takes the argmax of the
        same float64 sums the stage maxed over. At the root, the first
        stage's maximum is the plan's value, bitwise the root value the
        sweep computed. A slower velocity on a shared window never beats the
        fastest, and the first maximum is the lowest window, so ties go to
        the higher velocity, as over all U. A plan writes no buffer.

        ``step`` must lie in [0, len(p_in)); anything else is a ValueError.
        Returns (optimal lattice value, the first ``take`` planned velocities)
        or (-inf, None) when no feasible action sequence exists from the
        snapped state.
        """
        if not 0 <= step < len(self.p_in):
            raise ValueError(f"step must lie in [0, {len(self.p_in)}), got {step}")
        row, skip = divmod(step - self._step, self.cfg.replan_interval)
        if skip or not 0 <= row < len(self._starts):
            self._sweep(step)
            row = 0
        # each executed action is the argmax over the stage's landed windows
        # at the current state: the stage's masked vector with its pads
        # applied by index, plus the best reward landing there, the same
        # float64 sums the stage maxed over; at the root their max is the
        # plan's value
        k0 = step - self._step
        take = min(self.cfg.replan_interval, self._stops[row] - step)
        top = self.lattice.size - 1
        actions = np.empty(take)
        state = self._snap(b)
        for i in range(take):
            _, best, landed, fastest = self._executed[k0 + i]
            low = state + self._low[k0 + i]  # the cell the fastest velocity reaches
            cells = landed + low
            sums = self._stored[row, i].take(cells, mode="clip") + best[:, 0]
            if low < 0:
                sums[cells < 0] = -np.inf
            j = int(sums.argmax())
            if i == 0:
                value = float(sums[j])
                if not math.isfinite(value):
                    return value, None
            actions[i] = self.u_desc[fastest[j]]
            state = min(max(low + int(landed[j]), 0), top)
        return value, actions

    def _sweep(self, step: int) -> None:
        """Solve the sweep of plans at step, step + R, ... in one backward pass.

        Plan b covers the stages [s_b, stop_b), stop_b = min(s_b + H, n), and
        every plan containing stage k sees the same shifts, rewards and
        envelope there, since a plan's DP does not depend on its root. So
        the sweep's rows step back through their shared stages in lockstep:
        at stage k the rows with s_b <= k < stop_b, at most ceil(H / R) of
        them, form one slice a:z (starts and stops both ascend); a row enters
        at the low end with the terminal values at k = stop_b - 1 and leaves
        at the high end at k = s_b, its root values computed. A sweep spans
        many horizons when its budget allows; with R < H every stage lies in
        some plan.

        Only the band's rows have padded rows, in a ring of slots: row r
        lies in slot r - off. The first band takes the top slots; each row
        that enters takes the slot below the band, and a row that leaves
        frees its slot at the top. When a row would enter below slot 0, the
        band's rows are copied up to the top slots and off moves with them,
        so a band is always one run of consecutive slots. With 2b - 1 slots,
        the most a ring gets (see ``MpcController``), a copy moves fewer rows
        than enter before the next one.

        Each row's values live in the middle of its padded row. Before stage
        k's add, two writes over rows a:z set ``-inf`` up to the envelope's
        first cell (underflow) and past its last cell, or, if it reaches the
        top cell, copies of that cell across the high pad (the clamp).
        Velocity j's candidate row is the length-S window starting at its
        cell shift. u descends, so stage k's shifts ascend from lo[k], and
        the stage reads one window per distinct offset, with the largest
        reward landing on it (``_stage_windows``, memoised per controller by
        the stage's row of offsets). Dropping the slower velocities of a
        shared offset leaves the max bitwise unchanged, since float addition
        of a larger reward never rounds below a smaller one. Skipping an
        offset no velocity lands on leaves it unchanged too: values are
        finite or ``-inf``, never NaN, so with a ``-inf`` reward that
        window's sums could not raise the max.

        The slots lie L cells apart in one flat buffer, so offset w's
        windows over rows a:z are one contiguous run of it, m = (z - a - 1)
        * L + S cells from (a - off) * L + start + w. A stage reads each
        arithmetic run (o, e, d, r, s) of its offsets as one strided basic
        slice of the sliding-window view, ``start + o:start + e:d``, a view,
        adds its rewards into work rows r:s, and takes one max over the rows
        filled, written to the middles of rows a:z. A stage whose offsets
        leave no gap is the one run (0, W_k, 1): on 131 x 24 every stage, 3-4
        windows. On 3251 x 48 fast velocities land cells apart, and a stage
        adds about 31 windows of a run about 52 wide, in about 7 runs.
        Positions between two rows' S valid cells read one row's high pad
        and the next row's low pad and middle; their maxes land in those
        pads, which the next stage sets again before reading. Neither the
        max nor the pad writes reach past row z - 1, and no stage reads a
        cell of the band that it or an earlier stage has not written, so a
        slot's stale cells never reach a value. Each valid cell gets the
        float64 adds and maxes of a one-plan DP in its order, so every plan
        is bitwise the same whichever sweep solves it. After stage k's pad
        writes, the row whose first ``take`` stages include k stores its
        masked V_{k+1} for the rollout, and the stage's windows are kept for
        it too: a row's root values are the max of its first stored vector's
        sums, which ``plan`` forms anyway, so they are not kept.
        """
        n = len(self.p_in)
        interval = self.cfg.replan_interval
        starts = list(range(step, min(step + self._rows * interval, n), interval))
        stops = [min(s + self.horizon_steps, n) for s in starts]
        stop = stops[-1]
        p = self.p_in[step:stop]
        bl = self.lower[step + 1:stop + 1]
        bu = self.upper[step + 1:stop + 1]

        lattice = self.lattice
        n_soc = lattice.size
        # quantized per-stage cell shifts, one row per stage, u descending;
        # floor biases toward energy loss so the plan stays physically coverable
        shifts = np.floor(
            (p[:, None] - self.draw_desc[None, :]) * (self.dt / 3600.0) / self.res
        ).astype(np.int64)

        # u descends, so each row of shifts ascends from lo[k]; a stage's
        # windows follow from its offsets alone, which follow p's position
        # within a cell, so few distinct rows occur and each is worked out
        # once per controller
        lo = shifts[:, 0].tolist()
        run = (shifts[:, 0] + self._lo).tolist()
        offsets = np.subtract(shifts, shifts[:, :1], out=shifts)
        memo = self._windows
        rewards = self._rewards

        # the lattice ascends, so stage k's envelope [b_l, b_u] is the cell
        # range [first[k], end[k])
        first = np.searchsorted(lattice, bl, side="left").tolist()
        end = np.searchsorted(lattice, bu, side="right").tolist()

        count = len(starts)
        # stage k's band is rows [entered[k], ends[k]): the plans containing it
        ks = np.arange(step, stop)
        entered = np.searchsorted(stops, ks, side="right").tolist()
        ends = np.searchsorted(starts, ks, side="right").tolist()
        lo_pad = self._lo
        high = lo_pad + n_soc  # the high pad's first cell
        padded = self._padded
        values = self._values
        slots, length = padded.shape
        bands = self._bands
        tmp = self._tmp
        terminal = self.cfg.terminal_reward_slope * lattice
        executed: dict[int, _Windows] = {}  # the windows of each stage a plan executes
        a = count
        off = count - slots  # row r lies in slot r - off
        for k in range(stop - step - 1, -1, -1):
            z = ends[k]
            if entered[k] < a:
                if entered[k] < off:
                    # a row would enter below slot 0: copy the band's rows
                    # up to the top slots
                    padded[a - z + slots:slots] = padded[a - off:z - off]
                    off = z - slots
                padded[entered[k] - off:a - off, lo_pad:high] = terminal
                a = entered[k]
            rows = padded[a - off:z - off]
            rows[:, :lo_pad + first[k]] = -np.inf
            if end[k] < n_soc:
                rows[:, lo_pad + end[k]:] = -np.inf
            else:
                rows[:, high:] = rows[:, high - 1:high]
            key = offsets[k].tobytes()
            windows = memo.get(key)
            if windows is None:
                windows = memo[key] = _stage_windows(offsets[k], rewards)
            row, i = divmod(k, interval)
            if row < count:
                self._stored[row, i] = padded[row - off, lo_pad:high]
                executed[k] = windows
            m = (z - a - 1) * length + n_soc
            base = (a - off) * length
            start = base + run[k]
            runs, best, _, _ = windows
            for o, e, d, r, s in runs:
                np.add(bands[start + o:start + e:d, :m], best[r:s], out=tmp[r:s, :m])
            np.maximum.reduce(tmp[:len(best), :m], axis=0, out=values[base:base + m])

        self._step = step
        self._starts = starts
        self._stops = stops
        self._low = lo
        self._executed = executed

    def __call__(self, b: float, b_l: float, b_u: float, step: int) -> float:
        if self._next == len(self._actions):
            _, actions = self.plan(b, step)
            if actions is None:
                return self.params.u_max if b >= b_u else self.params.u_min
            self._actions = actions.tolist()
            self._next = 0
        u = self._actions[self._next]
        self._next += 1
        return u
