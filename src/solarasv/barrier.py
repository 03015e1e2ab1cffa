"""Constraint tightening: SOC barrier curves from energy deficit/surplus.

The battery limits [b_min, b_max] alone do not guarantee a feasible future:
a SOC that is legal at dusk may still be too low to cover the night's hotel
load even at the slowest speed. The envelope computed here tightens the limits
so that feasibility, once achieved, can be kept with the saturated controls:

* deficit(t) accumulates (k_h + k_m u_min^3 - P_in) / 3600 Wh: the energy
  the vessel must supply from the battery if it drifts at u_min (the motor
  off when u_min = 0) from time 0 to t. The minimum SOC that survives every
  future drift window sits that deficit above the battery floor:

      b_l(t1) = b_min + max(0, sup_{t2 >= t1} (deficit(t2) - deficit(t1)))

* surplus(t) accumulates (P_in - k_h - k_m u_max^3) / 3600 Wh: the
  energy that cannot be burned even at full speed. The headroom that must be
  kept free so charging never has to be curtailed is the matching suffix sup,
  and the tightened ceiling is b_u(t1) = b_max - headroom(t1).

:func:`barrier_curves` is the one body of these formulas: it samples the
profile once on the caller's grid, builds both curves as cumulative
trapezoids and both barriers from them; the suffix sup is a reverse running
maximum, so construction is O(n). The simulation integrates with forward
Euler instead, which bounds the disagreement by one step of worst-case net
power (the telescoped trapezoid-vs-rectangle remainder).

:func:`build_envelope` calls it once; its two modes differ only in the window
the curves are evaluated on before being cut back to the grid:

* "horizon": the grid itself, which the profile must cover (used when the
  true future input is available, e.g. oracle tests and benchmark runs). The
  lower barrier always ends at b_min: nothing after t_f needs protecting.
* "periodic-day": the grid is one day of the mission's own periodic profile
  (the clear-sky day, or a log declared periodic), the window two days, and
  the envelope is declared periodic. Only a profile whose net drift per day
  is non-positive for both curves has a bounded periodic envelope (checked).
  A day table or a non-periodic log does not repeat and needs "horizon".
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .csvout import write_columns
from .solar import DAY_S, SolarProfile, _resample, sample_array
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


class BarrierCurves(NamedTuple):
    """The cumulative curves and the barriers they tighten, in Wh on a grid."""

    deficit: np.ndarray
    surplus: np.ndarray
    lower: np.ndarray
    upper: np.ndarray


def barrier_curves(
    profile: SolarProfile, params: VesselParams, grid: np.ndarray
) -> BarrierCurves:
    """Drift deficit, full-throttle surplus and the barriers b_l, b_u on ``grid``.

    The profile is sampled once; the deficit is taken at the draw at u_min,
    the surplus at the draw at u_max. lower = b_min + the deficit's
    suffix-sup excess and upper = b_max - the surplus's.
    """
    g = _check_grid(grid)
    p = sample_array(profile, g)
    drift_draw = params.k_h + params.k_m * params.u_min ** 3
    full_draw = params.k_h + params.k_m * params.u_max ** 3
    deficit = _cumtrapz(drift_draw - p, g) / 3600.0
    surplus = _cumtrapz(p - full_draw, g) / 3600.0
    return BarrierCurves(
        deficit,
        surplus,
        params.b_min + _suffix_sup_excess(deficit),
        params.b_max - _suffix_sup_excess(surplus),
    )


@dataclass(frozen=True)
class BarrierEnvelope:
    """Tightened SOC bounds on a time grid.

    lower/upper are Wh curves aligned with ``times``. Queries between grid
    points interpolate linearly; periodic envelopes repeat every
    :data:`~solarasv.solar.DAY_S`.
    Invariant (checked): 0 <= lower <= upper everywhere on the grid.
    """

    times: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    periodic: bool = False

    def __post_init__(self) -> None:
        times = _check_grid(self.times)
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        if lower.shape != times.shape or upper.shape != times.shape:
            raise ValueError("lower/upper must match the grid shape")
        if self.periodic and times[-1] - times[0] >= DAY_S:
            raise ValueError("periodic envelope must span less than one day")
        if np.any(lower < 0):
            raise ValueError("lower barrier must be >= 0")
        if np.any(lower > upper):
            raise ValueError(
                "infeasible envelope: lower barrier exceeds upper barrier"
            )
        for arr, name in ((times, "times"), (lower, "lower"), (upper, "upper")):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def bounds_arrays(self, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(lower, upper) in Wh at each query time.

        Queried at the envelope's own grid, its read-only arrays come back.
        """
        t = np.asarray(times, dtype=float)
        if not self.periodic and np.any((t < self.times[0]) | (t > self.times[-1])):
            raise ValueError("query time outside the envelope grid")
        return _resample(t, self.times, (self.lower, self.upper), self.periodic)


def build_envelope(
    profile: SolarProfile,
    params: VesselParams,
    grid: np.ndarray,
    mode: str = "horizon",
) -> BarrierEnvelope:
    """Construct the tightened-SOC envelope for a mission.

    horizon mode evaluates both barriers on ``grid``, which must lie inside
    the profile's domain. periodic-day mode treats ``grid`` as one day of a
    periodic profile (span < DAY_S required), evaluates them on two days and
    returns a periodic envelope.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    g = _check_grid(grid)
    n = g.size
    periodic = mode == "periodic-day"
    if not periodic:
        if not profile.periodic and g[-1] > profile.end:
            raise ValueError("profile does not cover the requested grid")
        window = g
    elif not profile.periodic:
        raise ValueError("periodic-day mode requires a periodic profile")
    elif g[-1] - g[0] >= DAY_S:
        raise ValueError("periodic-day grid must span less than one day")
    else:
        window = np.concatenate([g, g + DAY_S, [g[0] + 2.0 * DAY_S]])

    deficit, surplus, lower, upper = barrier_curves(profile, params, window)
    if periodic:
        tol = 1e-9 * max(1.0, np.abs(deficit).max(), np.abs(surplus).max())
        if deficit[n] - deficit[0] > tol:
            raise ValueError(
                "profile cannot sustain the hotel load over one day; "
                "no bounded periodic lower barrier exists"
            )
        if surplus[n] - surplus[0] > tol:
            raise ValueError(
                "profile oversupplies even at full speed over one day; "
                "no bounded periodic upper barrier exists"
            )
    return BarrierEnvelope(times=g, lower=lower[:n], upper=upper[:n], periodic=periodic)


def write_envelope_csv(env: BarrierEnvelope, path: str | Path) -> None:
    """Write the envelope as a delimited table (time_s, b_l_wh, b_u_wh)."""
    write_columns(path, "time_s,b_l_wh,b_u_wh", (env.times, env.lower, env.upper))
