"""Solar input power: idealized clear-sky cycle and tabulated profiles.

Two sources of the input-power signal P_in(t):

1. An idealized clear-sky day, a clipped cosine

       P_in(t) = max(0, d0 + d1 * cos(2*pi*t / period))

   d0 and d1 are configuration constants in W (optionally varied per day by
   the harness to model seasons); nothing is derived from latitude or date.

2. A tabulated :class:`SolarProfile`: sampled (time_s, power_w) pairs with
   zero-order-hold or linear interpolation, optionally periodic with a stated
   period. Measured irradiance logs are loaded into this form by
   :func:`load_profile`.

All powers are W, all times are seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

_TWO_PI = 2.0 * math.pi

INTERPOLATIONS = ("hold", "linear")


@dataclass(frozen=True)
class IdealizedSolarParams:
    """Clipped-cosine clear-sky model constants."""

    d0: float = 300.0        # mean term, W
    d1: float = 500.0        # oscillation amplitude, W
    period: float = 86400.0  # s

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ValueError("period must be > 0")
        if self.d1 < 0:
            raise ValueError("d1 must be >= 0")


def idealized_irradiance(t: float, params: IdealizedSolarParams) -> float:
    """Clear-sky input power in W at time ``t`` (s). Never negative."""
    return max(0.0, params.d0 + params.d1 * math.cos(_TWO_PI * t / params.period))


def idealized_irradiance_array(
    times: np.ndarray, params: IdealizedSolarParams
) -> np.ndarray:
    """Vectorized :func:`idealized_irradiance`."""
    t = np.asarray(times, dtype=float)
    return np.maximum(0.0, params.d0 + params.d1 * np.cos(_TWO_PI * t / params.period))


@dataclass(frozen=True)
class SolarProfile:
    """Sampled input-power signal.

    times: sample instants in s, strictly increasing.
    powers: input power in W at each instant, >= 0.
    interpolation: "hold" (zero-order hold) or "linear".
    period: repeat period in s for periodic profiles, None otherwise. A
        periodic profile must span strictly less than one period; sampling
        wraps t into [times[0], times[0] + period).
    """

    times: np.ndarray
    powers: np.ndarray
    interpolation: str = "linear"
    period: float | None = None

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        powers = np.asarray(self.powers, dtype=float)
        if times.ndim != 1 or powers.ndim != 1:
            raise ValueError("times and powers must be 1-D")
        if times.size == 0:
            raise ValueError("profile has no samples")
        if times.size != powers.size:
            raise ValueError("times and powers must have equal length")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(powers))):
            raise ValueError("times and powers must be finite")
        if times.size > 1 and not np.all(np.diff(times) > 0):
            raise ValueError("times must be strictly increasing")
        if np.any(powers < 0):
            raise ValueError("powers must be >= 0")
        if self.interpolation not in INTERPOLATIONS:
            raise ValueError(
                f"interpolation must be one of {INTERPOLATIONS}, got {self.interpolation!r}"
            )
        if self.period is not None:
            if not 0 < self.period < math.inf:
                raise ValueError("period must be finite and > 0")
            if times[-1] - times[0] >= self.period:
                raise ValueError("periodic profile must span less than one period")
        times.setflags(write=False)
        powers.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "powers", powers)

    @property
    def periodic(self) -> bool:
        return self.period is not None

    @property
    def start(self) -> float:
        return float(self.times[0])

    @property
    def end(self) -> float:
        return float(self.times[-1])


def load_profile(
    source: str | Path,
    scale: float = 1.0,
    interpolation: str = "linear",
    period: float | None = None,
) -> SolarProfile:
    """Read a two-column delimited power log into a :class:`SolarProfile`.

    The format is comma-delimited rows ``time_s,power`` with optional blank
    lines and full-line comments starting with ``#``. Powers are multiplied by
    ``scale`` after parsing. Malformed rows raise ValueError naming the
    offending line; non-monotone timestamps and empty files are rejected.
    """
    path = Path(source)
    times: list[float] = []
    powers: list[float] = []
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            fields = stripped.split(",")
            if len(fields) != 2:
                raise ValueError(
                    f"{path}: line {lineno}: expected 'time_s,power', got {stripped!r}"
                )
            try:
                t = float(fields[0])
                p = float(fields[1])
            except ValueError as exc:
                raise ValueError(
                    f"{path}: line {lineno}: non-numeric field in {stripped!r}"
                ) from exc
            if not (math.isfinite(t) and math.isfinite(p)):
                raise ValueError(
                    f"{path}: line {lineno}: non-finite value in {stripped!r}"
                )
            times.append(t)
            powers.append(p)
    if not times:
        raise ValueError(f"{path}: no data rows")
    t_arr = np.asarray(times, dtype=float)
    if t_arr.size > 1 and not np.all(np.diff(t_arr) > 0):
        raise ValueError(f"{path}: timestamps must be strictly increasing")
    p_arr = np.asarray(powers, dtype=float) * scale
    return SolarProfile(
        times=t_arr, powers=p_arr, interpolation=interpolation, period=period
    )


def _wrap_times(profile: SolarProfile, t: np.ndarray) -> np.ndarray:
    t0 = profile.times[0]
    if profile.periodic:
        return t0 + np.mod(t - t0, profile.period)
    if np.any(t < t0):
        raise ValueError(
            f"cannot sample non-periodic profile before its first sample (t0={t0})"
        )
    return t


def sample_array(profile: SolarProfile, times: Iterable[float]) -> np.ndarray:
    """Sample the profile at each time in ``times``; returns W as float64.

    Hold mode returns the most recent sample's value (held past the last
    sample on non-periodic profiles). Linear mode interpolates between
    bracketing samples; past the last sample the value is held for
    non-periodic profiles and wraps to the first sample for periodic ones.
    """
    t = _wrap_times(profile, np.asarray(times, dtype=float))
    xp = profile.times
    fp = profile.powers
    if profile.interpolation == "hold":
        idx = np.searchsorted(xp, t, side="right") - 1
        # periodic wrap can land in [t0, t0+period) beyond xp[-1]; hold last
        return fp[np.clip(idx, 0, xp.size - 1)]
    if profile.periodic:
        # close the loop so interpolation is continuous across the wrap
        xp = np.concatenate([xp, [profile.times[0] + profile.period]])
        fp = np.concatenate([fp, [profile.powers[0]]])
    return np.interp(t, xp, fp)


def sample(profile: SolarProfile, t: float) -> float:
    """Scalar convenience wrapper around :func:`sample_array`."""
    return float(sample_array(profile, np.asarray([t], dtype=float))[0])


def tabulate_idealized(
    params: IdealizedSolarParams,
    dt: float,
    duration: float | None = None,
    periodic: bool = True,
) -> SolarProfile:
    """Sample the idealized model onto a uniform grid.

    With ``periodic=True`` (default) one period is tabulated and the profile
    is marked periodic, so it extends to all t. Otherwise ``duration`` seconds
    are tabulated as a plain non-periodic profile.
    """
    if dt <= 0:
        raise ValueError("dt must be > 0")
    if periodic:
        times = np.arange(0.0, params.period, dt)
        return SolarProfile(
            times=times,
            powers=idealized_irradiance_array(times, params),
            interpolation="linear",
            period=params.period,
        )
    if duration is None or duration <= 0:
        raise ValueError("duration must be > 0 for a non-periodic tabulation")
    times = np.arange(0.0, duration + dt / 2, dt)
    return SolarProfile(
        times=times,
        powers=idealized_irradiance_array(times, params),
        interpolation="linear",
    )


def tabulate_seasonal(
    d0_by_day: Sequence[float],
    d1_by_day: Sequence[float],
    dt: float,
    period: float = 86400.0,
) -> SolarProfile:
    """Tabulate the idealized model with per-day (d0, d1) constants.

    Day k (t in [k*period, (k+1)*period)) uses d0_by_day[k], d1_by_day[k].
    """
    d0 = np.asarray(d0_by_day, dtype=float)
    d1 = np.asarray(d1_by_day, dtype=float)
    if d0.size == 0 or d0.shape != d1.shape:
        raise ValueError("d0_by_day and d1_by_day must be equal-length and non-empty")
    if np.any(d1 < 0):
        raise ValueError("d1 values must be >= 0")
    if dt <= 0 or period <= 0:
        raise ValueError("dt and period must be > 0")
    times = np.arange(0.0, d0.size * period + dt / 2, dt)
    day = np.minimum((times // period).astype(int), d0.size - 1)
    powers = np.maximum(
        0.0, d0[day] + d1[day] * np.cos(_TWO_PI * np.mod(times, period) / period)
    )
    return SolarProfile(times=times, powers=powers, interpolation="linear")


def integrate_power(profile: SolarProfile, t0: float, t1: float) -> float:
    """Exact integral of the interpolated profile over [t0, t1], in joules.

    Exact for the profile's own interpolation rule: rectangles for hold mode,
    trapezoids for linear mode, with periodic wrapping handled by splitting
    whole periods.
    """
    if t1 < t0:
        raise ValueError("t1 must be >= t0")
    if t1 == t0:
        return 0.0
    if profile.periodic:
        start = profile.times[0]
        period = float(profile.period)
        per_period = _integral_in_base(profile, start, start + period)
        # split [t0, t1] into whole periods plus a partial wrap segment
        n0 = math.floor((t0 - start) / period)
        n1 = math.floor((t1 - start) / period)
        a = t0 - n0 * period
        b = t1 - n1 * period
        whole = (n1 - n0) * per_period
        return whole + _integral_in_base(profile, start, b) - _integral_in_base(
            profile, start, a
        )
    if t0 < profile.start:
        raise ValueError("integration window starts before the profile domain")
    return _integral_in_base(profile, t0, t1)


def _integral_in_base(profile: SolarProfile, a: float, b: float) -> float:
    """Integral over [a, b] with b allowed past the last sample (held value).

    For periodic profiles a and b must lie within [start, start + period].
    """
    if b <= a:
        return 0.0
    xp = profile.times
    fp = profile.powers
    if profile.periodic:
        xp = np.concatenate([xp, [profile.times[0] + profile.period]])
        if profile.interpolation == "linear":
            fp = np.concatenate([fp, [profile.powers[0]]])
        else:
            fp = np.concatenate([fp, [profile.powers[-1]]])
    # knots strictly inside (a, b), plus the endpoints
    lo = np.searchsorted(xp, a, side="right")
    hi = np.searchsorted(xp, b, side="left")
    knots = np.concatenate([[a], xp[lo:hi], [b]])
    if profile.interpolation == "hold":
        idx = np.clip(np.searchsorted(xp, knots[:-1], side="right") - 1, 0, fp.size - 1)
        return float(np.sum(fp[idx] * np.diff(knots)))
    vals = np.interp(knots, xp, fp)
    return float(np.sum((vals[1:] + vals[:-1]) * 0.5 * np.diff(knots)))
