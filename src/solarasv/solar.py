"""Solar input power: the sources of a mission and tabulated profiles.

A :class:`SolarProfile` holds sampled (time_s, power_w) pairs with
zero-order-hold or linear interpolation, optionally periodic with a stated
period. Each solar source turns its settings into one with
``profile(dt)``, lists what is wrong with those settings with
``problems()``, and says with ``periodic`` whether that profile repeats:

1. :class:`IdealizedSource`, a clear-sky day, the clipped cosine

       P_in(t) = max(0, d0 + d1 * cos(2*pi*t / period))

   d0 and d1 are configuration constants in W, optionally given per day by a
   day table to model seasons; nothing is derived from latitude or date.

2. :class:`FileSource`, a measured power log read by :func:`load_profile`.

All powers are W, all times are seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

_TWO_PI = 2.0 * math.pi

INTERPOLATIONS = ("hold", "linear")


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


def period_grid(period: float, dt: float) -> np.ndarray:
    """Times 0, dt, 2*dt, ... below ``period``: one period of a uniform grid.

    ``np.arange(0, period, dt)`` alone may end on t = period itself by
    rounding (e.g. dt = 86400 / 61), which a periodic profile cannot hold.
    """
    times = np.arange(0.0, period, dt)
    return times[times < period]


def _finite_problems(values: Iterable[tuple[str, float]]) -> list[str]:
    """'key: must be finite' once for each key with a NaN or infinite value."""
    bad = (key for key, v in values if not math.isfinite(v))
    return list(dict.fromkeys(f"{key}: must be finite" for key in bad))


@dataclass(frozen=True)
class IdealizedSource:
    """Clear-sky input: the clipped cosine, optionally with per-day constants.

    Without a day table, d0 and d1 hold for every day and :meth:`profile`
    tabulates one period, marked periodic. With d0_by_day and d1_by_day, day
    k (t in [k*period, (k+1)*period)) uses row k instead, and the profile
    covers the table's n days, non-periodic; the sample at t = n*period uses
    the last row.
    """

    d0: float = 300.0        # mean term, W
    d1: float = 500.0        # oscillation amplitude, W
    period: float = 86400.0  # s
    d0_by_day: tuple[float, ...] | None = None
    d1_by_day: tuple[float, ...] | None = None

    @property
    def periodic(self) -> bool:
        """Whether :meth:`profile` repeats one period: true without a day table."""
        return self.d0_by_day is None

    def problems(self) -> list[str]:
        """Every 'solar.key: problem' message for these settings; [] if valid."""
        numbers = [
            ("solar.d0", self.d0), ("solar.d1", self.d1), ("solar.period", self.period)
        ]
        for days in (self.d0_by_day, self.d1_by_day):
            numbers += [("solar.table", v) for v in days or ()]
        out = _finite_problems(numbers)
        if self.period <= 0:
            out.append("solar.period: must be > 0")
        if self.d1 < 0:
            out.append("solar.d1: must be >= 0")
        d0s, d1s = self.d0_by_day, self.d1_by_day
        if (d0s is None) != (d1s is None):
            out.append("solar.table: d0_by_day and d1_by_day must come together")
        elif d0s is not None:
            if len(d0s) != len(d1s):
                out.append("solar.table: d0_by_day and d1_by_day lengths differ")
            elif not d0s:
                out.append("solar.table: no days")
            if any(v < 0 for v in d1s):
                out.append("solar.table: d1 values must be >= 0")
        return out

    def profile(self, dt: float) -> SolarProfile:
        """The clipped cosine sampled every ``dt`` seconds from t = 0.

        Raises ValueError if :meth:`problems` finds any, or dt is not > 0.
        """
        problems = self.problems()
        if not dt > 0:
            problems.append(f"dt must be > 0, got {dt}")
        if problems:
            raise ValueError("; ".join(problems))
        if self.periodic:
            times = period_grid(self.period, dt)
            d0, d1, period = self.d0, self.d1, self.period
        else:
            n = len(self.d0_by_day)
            times = np.arange(0.0, n * self.period + dt / 2, dt)
            day = np.minimum((times // self.period).astype(int), n - 1)
            d0 = np.asarray(self.d0_by_day, dtype=float)[day]
            d1 = np.asarray(self.d1_by_day, dtype=float)[day]
            period = None
        phase = _TWO_PI * np.mod(times, self.period) / self.period
        return SolarProfile(
            times=times,
            powers=np.maximum(0.0, d0 + d1 * np.cos(phase)),
            interpolation="linear",
            period=period,
        )


@dataclass(frozen=True)
class FileSource:
    """Input power read from a two-column time_s,power file."""

    path: str
    scale: float = 1.0
    interpolation: str = "linear"
    period: float | None = None  # s; None reads the log as non-periodic

    @property
    def periodic(self) -> bool:
        """Whether :meth:`profile` repeats one period: true when period is set."""
        return self.period is not None

    def problems(self) -> list[str]:
        """Every 'solar.key: problem' message for these settings; [] if valid."""
        numbers = [("solar.scale", self.scale)]
        if self.period is not None:
            numbers.append(("solar.period", self.period))
        out = _finite_problems(numbers)
        if self.period is not None and self.period <= 0:
            out.append("solar.period: must be > 0")
        if self.scale <= 0:
            out.append("solar.scale: must be > 0")
        if self.interpolation not in INTERPOLATIONS:
            out.append(
                f"solar.interpolation: {self.interpolation!r} not one of {INTERPOLATIONS}"
            )
        return out

    def profile(self, dt: float) -> SolarProfile:
        """The log as :func:`load_profile` reads it, on its own grid (dt unused)."""
        return load_profile(
            self.path,
            scale=self.scale,
            interpolation=self.interpolation,
            period=self.period,
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
