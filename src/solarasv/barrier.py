"""Constraint tightening: SOC barrier curves from energy deficit/surplus.

The battery limits [b_min, b_max] alone do not guarantee a feasible future:
a SOC that is legal at dusk may still be too low to cover the night's hotel
load even with the motor off. The envelope computed here tightens the limits
so that feasibility, once achieved, can be kept with the saturated controls:

* energy_deficit(t) accumulates (k_h - P_in) / 3600 Wh: the energy the vessel
  must supply from the battery if it drifts (u = 0) from time 0 to t.
  The minimum SOC that survives every future drift window sits that deficit
  above the battery floor:

      b_l(t1) = b_min + max(0, sup_{t2 >= t1} (deficit(t2) - deficit(t1)))

* energy_surplus(t) accumulates (P_in - k_h - k_m u_max^3) / 3600 Wh: the
  energy that cannot be burned even at full speed. The headroom that must be
  kept free so charging never has to be curtailed is the matching suffix sup,
  and the tightened ceiling is b_u(t1) = b_max - headroom(t1).

Both curves are cumulative trapezoids on the caller's grid; the suffix sup is
a reverse running maximum, so construction is O(n). The simulation integrates
with forward Euler instead, which bounds the disagreement by one step of
worst-case net power (the telescoped trapezoid-vs-rectangle remainder).

:func:`build_envelope` has one body; its two modes differ only in the window
the curves are evaluated on before being cut back to the grid:

* "horizon": the grid itself, which the profile must cover (used when the
  true future input is available, e.g. oracle tests and benchmark runs). The
  lower barrier always ends at b_min: nothing after t_f needs protecting.
* "periodic-day": the grid is one period of the mission's own periodic
  profile (the clear-sky day, or a log declared periodic), the window two
  periods, and the envelope is declared periodic. Only a profile whose net
  drift per period is non-positive for both curves has a bounded periodic
  envelope (checked). A day table or a non-periodic log has no period to
  repeat and needs "horizon".
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .csvout import write_columns
from .solar import SolarProfile, _resample, sample_array
from .vessel import VesselParams

MODES = ("horizon", "periodic-day")


def _cumtrapz(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    out = np.empty_like(y)
    out[0] = 0.0
    np.cumsum((y[1:] + y[:-1]) * 0.5 * np.diff(x), out=out[1:])
    return out


def _suffix_sup_excess(curve: np.ndarray) -> np.ndarray:
    """max(0, sup_{j >= i} curve[j] - curve[i]) for every i, in O(n)."""
    suffix_max = np.maximum.accumulate(curve[::-1])[::-1]
    return np.maximum(0.0, suffix_max - curve)


def _check_grid(grid: np.ndarray) -> np.ndarray:
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or g.size < 2:
        raise ValueError("grid must be 1-D with at least two points")
    if not np.all(np.diff(g) > 0):
        raise ValueError("grid must be strictly increasing")
    return g


def energy_deficit(
    profile: SolarProfile, params: VesselParams, grid: np.ndarray
) -> np.ndarray:
    """Cumulative drift-mode energy deficit in Wh on ``grid``."""
    g = _check_grid(grid)
    p = sample_array(profile, g)
    return _cumtrapz(params.k_h - p, g) / 3600.0


def lower_barrier(
    profile: SolarProfile, params: VesselParams, grid: np.ndarray
) -> np.ndarray:
    """Tightened SOC floor in Wh on ``grid``: b_min plus the drift deficit."""
    return params.b_min + _suffix_sup_excess(energy_deficit(profile, params, grid))


def energy_surplus(
    profile: SolarProfile, params: VesselParams, grid: np.ndarray
) -> np.ndarray:
    """Cumulative full-throttle energy surplus in Wh on ``grid``."""
    g = _check_grid(grid)
    p = sample_array(profile, g)
    full_draw = params.k_h + params.k_m * params.u_max ** 3
    return _cumtrapz(p - full_draw, g) / 3600.0


def upper_barrier(
    profile: SolarProfile, params: VesselParams, grid: np.ndarray
) -> np.ndarray:
    """Tightened SOC ceiling in Wh on ``grid``: b_max minus required headroom."""
    headroom = _suffix_sup_excess(energy_surplus(profile, params, grid))
    return params.b_max - headroom


@dataclass(frozen=True)
class BarrierEnvelope:
    """Tightened SOC bounds on a time grid.

    lower/upper are Wh curves aligned with ``times``. Queries between grid
    points interpolate linearly; periodic envelopes wrap with ``period``.
    Invariant (checked): 0 <= lower <= upper everywhere on the grid.
    """

    times: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    period: float | None = None

    def __post_init__(self) -> None:
        times = _check_grid(self.times)
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        if lower.shape != times.shape or upper.shape != times.shape:
            raise ValueError("lower/upper must match the grid shape")
        if self.period is not None and times[-1] - times[0] >= self.period:
            raise ValueError("periodic envelope must span less than one period")
        if np.any(lower < 0):
            raise ValueError("lower barrier must be >= 0")
        if np.any(lower > upper):
            raise ValueError(
                "infeasible envelope: lower barrier exceeds upper barrier"
            )
        for arr, name in ((times, "times"), (lower, "lower"), (upper, "upper")):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def periodic(self) -> bool:
        return self.period is not None

    def bounds_arrays(self, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(lower, upper) in Wh at each query time."""
        t = np.asarray(times, dtype=float)
        if not self.periodic and np.any((t < self.times[0]) | (t > self.times[-1])):
            raise ValueError("query time outside the envelope grid")
        return _resample(t, self.times, (self.lower, self.upper), self.period)


def build_envelope(
    profile: SolarProfile,
    params: VesselParams,
    grid: np.ndarray,
    mode: str = "horizon",
) -> BarrierEnvelope:
    """Construct the tightened-SOC envelope for a mission.

    horizon mode evaluates both barriers on ``grid``, which must lie inside
    the profile's domain. periodic-day mode treats ``grid`` as one period of a
    periodic profile (span < period required), evaluates them on two periods
    and returns a periodic envelope.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    g = _check_grid(grid)
    n = g.size
    period = None
    if mode == "horizon":
        if not profile.periodic and g[-1] > profile.end:
            raise ValueError("profile does not cover the requested grid")
        window = g
    elif not profile.periodic:
        raise ValueError("periodic-day mode requires a periodic profile")
    else:
        period = float(profile.period)
        if g[-1] - g[0] >= period:
            raise ValueError("periodic-day grid must span less than one period")
        window = np.concatenate([g, g + period, [g[0] + 2.0 * period]])

    deficit = energy_deficit(profile, params, window)
    surplus = energy_surplus(profile, params, window)
    if period is not None:
        tol = 1e-9 * max(1.0, np.abs(deficit).max(), np.abs(surplus).max())
        if deficit[n] - deficit[0] > tol:
            raise ValueError(
                "profile cannot sustain the hotel load over one period; "
                "no bounded periodic lower barrier exists"
            )
        if surplus[n] - surplus[0] > tol:
            raise ValueError(
                "profile oversupplies even at full speed over one period; "
                "no bounded periodic upper barrier exists"
            )
    lower = params.b_min + _suffix_sup_excess(deficit)[:n]
    upper = params.b_max - _suffix_sup_excess(surplus)[:n]
    return BarrierEnvelope(times=g, lower=lower, upper=upper, period=period)


def write_envelope_csv(env: BarrierEnvelope, path: str | Path) -> None:
    """Write the envelope as a delimited table (time_s, b_l_wh, b_u_wh)."""
    write_columns(path, "time_s,b_l_wh,b_u_wh", (env.times, env.lower, env.upper))
