"""Solar input power: the sources of a mission and tabulated profiles.

A :class:`SolarProfile` holds sampled (time_s, power_w) pairs with
zero-order-hold or linear interpolation, optionally repeating every
:data:`DAY_S`. Each solar source turns its settings into one with
``profile(dt)``, lists what is wrong with those settings with
``problems()``, and says with ``periodic`` whether that profile repeats.
A source that repeats does so every :data:`DAY_S`, the one solar cycle the
learner and the daily exports count in too:

1. :class:`IdealizedSource`, a clear-sky day, the clipped cosine

       P_in(t) = max(0, d0 + d1 * cos(2*pi*t / DAY_S))

   d0 and d1 are configuration constants in W, optionally given per day by a
   day table to model seasons; nothing is derived from latitude or date.

2. :class:`FileSource`, a measured power log read by :func:`load_profile`.

All powers are W, all times are seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from numbers import Integral
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

_TWO_PI = 2.0 * math.pi

DAY_S = 86400.0  # s, one solar cycle

INTERPOLATIONS = ("hold", "linear")


@dataclass(frozen=True)
class SolarProfile:
    """Sampled input-power signal.

    times: sample instants in s, strictly increasing.
    powers: input power in W at each instant, >= 0.
    interpolation: "hold" (zero-order hold) or "linear".
    periodic: whether the profile repeats every :data:`DAY_S`. A periodic
        profile must span strictly less than one day; sampling wraps t into
        [times[0], times[0] + DAY_S).
    """

    times: np.ndarray
    powers: np.ndarray
    interpolation: str = "linear"
    periodic: bool = False

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
        if self.periodic and times[-1] - times[0] >= DAY_S:
            raise ValueError("periodic profile must span less than one day")
        times.setflags(write=False)
        powers.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "powers", powers)

    @property
    def start(self) -> float:
        return float(self.times[0])

    @property
    def end(self) -> float:
        return float(self.times[-1])


def read_rows(path: str | Path, columns: str) -> np.ndarray:
    """The columns of a comma-delimited numeric file, one array row per column.

    ``columns`` names a line's fields, e.g. ``"time_s,power"``; blank lines and
    ``#`` comment lines are skipped. A wrong field count, a non-numeric or
    non-finite field and a file without data rows raise ValueError naming the
    file and the line.
    """
    width = columns.count(",") + 1
    rows: list[list[float]] = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            where = f"{path}: line {lineno}"
            fields = stripped.split(",")
            if len(fields) != width:
                raise ValueError(f"{where}: expected {columns!r}, got {stripped!r}")
            try:
                row = [float(f) for f in fields]
            except ValueError:
                raise ValueError(f"{where}: non-numeric field in {stripped!r}") from None
            if not all(map(math.isfinite, row)):
                raise ValueError(f"{where}: non-finite value in {stripped!r}")
            rows.append(row)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return np.array(rows).T.copy()


def load_profile(
    source: str | Path, scale: float = 1.0, interpolation: str = "linear"
) -> SolarProfile:
    """Read a power log of :func:`read_rows` lines ``time_s,power``.

    Powers are multiplied by ``scale``. Timestamps must strictly increase.
    The profile is non-periodic.
    """
    times, powers = read_rows(source, "time_s,power")
    if times.size > 1 and not np.all(np.diff(times) > 0):
        raise ValueError(f"{source}: timestamps must be strictly increasing")
    return SolarProfile(times=times, powers=powers * scale, interpolation=interpolation)


def whole_steps(span: float, dt: float) -> int | None:
    """How many steps of ``dt`` make up ``span``; None unless a whole number >= 1.

    A quotient within 1e-9 of an integer counts as whole, so dt = 3600 / 7
    divides a day although 86400 / dt is 167.99999999999997 in floats.
    """
    ratio = span / dt if dt > 0 else math.nan
    steps = round(ratio) if math.isfinite(ratio) else 0
    return steps if steps >= 1 and abs(ratio - steps) <= 1e-9 else None


def day_grid(dt: float) -> np.ndarray:
    """Times 0, dt, 2*dt, ... below :data:`DAY_S`: one day of a uniform grid.

    ``np.arange(0, DAY_S, dt)`` alone may end on t = DAY_S itself by
    rounding (e.g. dt = 86400 / 61), which a periodic profile cannot hold.
    """
    times = np.arange(0.0, DAY_S, dt)
    return times[times < DAY_S]


NOT_FINITE = "must be finite"


def broken_rules(
    values: dict[str, float | None], rules: Sequence[tuple[str, bool, str]]
) -> list[tuple[str, str]]:
    """A ``(field, reason)`` pair for each rule that does not hold; [] if all do.

    The one rule loop of every settings class. ``values`` holds each float
    field of the class, None for an optional one left unset; each row
    ``(field, holds, reason)`` states one rule. A NaN or infinite value is
    named once, as :data:`NOT_FINITE`, and no row of its field is checked.
    Pairs come in the order of ``values``, then of the rows of other fields.
    """
    out = []
    for name, value in values.items():
        if value is not None and not math.isfinite(value):
            out.append((name, NOT_FINITE))
        else:
            out += [(name, why) for f, holds, why in rules if f == name and not holds]
    rest = [(f, why) for f, holds, why in rules if f not in values and not holds]
    return out + rest


def integer_rule(name: str, n: object, least: int) -> tuple[str, bool, str]:
    """The rule row: field ``name``, valued n, is an integer (numpy's too) >= least."""
    holds = isinstance(n, Integral) and n >= least
    return name, holds, f"must be an integer >= {least}, got {n!r}"


def raise_broken(problems: list[tuple[str, str]]) -> None:
    """Raise one ValueError naming each ``(field, reason)`` pair; do nothing if none."""
    if problems:
        raise ValueError("; ".join(f"{name} {why}" for name, why in problems))


@dataclass(frozen=True)
class IdealizedSource:
    """Clear-sky input: the clipped cosine, optionally with per-day constants.

    Without a day table, d0 and d1 hold for every day and :meth:`profile`
    tabulates one day, marked periodic. With d0_by_day and d1_by_day, day
    k (t in [k*DAY_S, (k+1)*DAY_S)) uses row k instead, and the profile
    covers the table's n days, non-periodic; the sample at t = n*DAY_S uses
    the last row.
    """

    d0: float = 300.0        # mean term, W
    d1: float = 500.0        # oscillation amplitude, W
    d0_by_day: tuple[float, ...] | None = None
    d1_by_day: tuple[float, ...] | None = None

    @property
    def periodic(self) -> bool:
        """Whether :meth:`profile` repeats one day: true without a day table."""
        return self.d0_by_day is None

    def problems(self) -> list[tuple[str, str]]:
        """A ``(field, reason)`` pair for each broken rule; [] if valid.

        The day table's pairs name ``table``, after its config key solar.table.
        """
        rules = (("d1", self.d1 >= 0, "must be >= 0"),)
        out = broken_rules({"d0": self.d0, "d1": self.d1}, rules)
        d0s, d1s = self.d0_by_day, self.d1_by_day
        finite = all(map(math.isfinite, (*(d0s or ()), *(d1s or ()))))
        if not finite:
            out.append(("table", NOT_FINITE))
        if (d0s is None) != (d1s is None):
            out.append(("table", "d0_by_day and d1_by_day must come together"))
        elif d0s is not None:
            if len(d0s) != len(d1s):
                out.append(("table", "d0_by_day and d1_by_day lengths differ"))
            elif not d0s:
                out.append(("table", "no days"))
            if finite and any(v < 0 for v in d1s):
                out.append(("table", "d1 values must be >= 0"))
        return out

    def table_steps(self, dt: float) -> int:
        """Steps of ``dt`` that :meth:`profile` spans with a day table.

        The profile samples t = 0, dt, ... up to the last grid point below
        the table's n days plus dt / 2, so it ends at ``table_steps(dt) * dt``.
        Needs a valid table (:meth:`problems` empty) and a finite dt > 0.
        """
        return math.ceil((len(self.d0_by_day) * DAY_S + dt / 2) / dt) - 1

    def profile(self, dt: float) -> SolarProfile:
        """The clipped cosine sampled every ``dt`` seconds from t = 0.

        Raises ValueError if :meth:`problems` finds any, or dt is not > 0.
        """
        problems = self.problems()
        if not dt > 0:
            problems.append(("dt", f"must be > 0, got {dt}"))
        raise_broken(problems)
        if self.periodic:
            times = day_grid(dt)
            in_day = np.mod(times, DAY_S)
            d0, d1 = self.d0, self.d1
        else:
            n = len(self.d0_by_day)
            times = np.arange(self.table_steps(dt) + 1) * dt
            # one pass gives both: bitwise the same as // and np.mod
            day, in_day = np.divmod(times, DAY_S)
            day = np.minimum(day.astype(int), n - 1)
            d0 = np.asarray(self.d0_by_day, dtype=float)[day]
            d1 = np.asarray(self.d1_by_day, dtype=float)[day]
        phase = _TWO_PI * in_day / DAY_S
        return SolarProfile(
            times=times,
            powers=np.maximum(0.0, d0 + d1 * np.cos(phase)),
            interpolation="linear",
            periodic=self.periodic,
        )


@dataclass(frozen=True)
class FileSource:
    """Input power read from a two-column time_s,power file.

    periodic: whether the log repeats every :data:`DAY_S`; a periodic log
        must span less than one day.
    """

    path: str
    scale: float = 1.0
    interpolation: str = "linear"
    periodic: bool = False

    def problems(self) -> list[tuple[str, str]]:
        """A ``(field, reason)`` pair for each broken rule; [] if valid."""
        unknown = f"{self.interpolation!r} not one of {INTERPOLATIONS}"
        rules = (
            ("scale", self.scale > 0, "must be > 0"),
            ("interpolation", self.interpolation in INTERPOLATIONS, unknown),
        )
        return broken_rules({"scale": self.scale}, rules)

    def profile(self, dt: float) -> SolarProfile:
        """The log as :func:`load_profile` reads it, on its own grid (dt unused).

        A periodic log repeats every day. Raises ValueError if
        :meth:`problems` finds any, and one naming solar.periodic and the log
        when a periodic log spans a whole day or more.
        """
        raise_broken(self.problems())
        log = load_profile(self.path, scale=self.scale, interpolation=self.interpolation)
        if not self.periodic:
            return log
        if log.end - log.start >= DAY_S:
            raise ValueError(
                f"solar.periodic: {self.path} spans {log.end - log.start} s, but a "
                f"periodic log must span less than one day ({DAY_S} s)"
            )
        return replace(log, periodic=True)


def _closed(
    xp: np.ndarray, curves: Iterable[np.ndarray]
) -> tuple[np.ndarray, list[np.ndarray]]:
    """``xp`` and each curve with the daily loop closed: the first value again."""
    return np.append(xp, xp[0] + DAY_S), [np.append(c, c[0]) for c in curves]


def _resample(
    t: np.ndarray, xp: np.ndarray, curves: Iterable[np.ndarray],
    periodic: bool, hold: bool = False,
) -> tuple[np.ndarray, ...]:
    """Each curve, sampled at the increasing times ``xp``, read at the times ``t``.

    Periodic curves wrap ``t`` into [xp[0], xp[0] + DAY_S) first. Linear
    reading interpolates, closing a periodic curve's loop with its first value
    at xp[0] + DAY_S; hold reading takes the latest sample at or before ``t``.
    Outside [xp[0], xp[-1]] a non-periodic curve holds its end values. Read
    at its own knots (``t`` equal to ``xp``), a curve is returned as it is:
    both rules give back each knot's value exactly, so there is nothing to
    copy.
    """
    if periodic:
        t = xp[0] + np.mod(t - xp[0], DAY_S)
    if np.array_equal(t, xp):
        return tuple(curves)
    if hold:
        idx = np.clip(np.searchsorted(xp, t, side="right") - 1, 0, xp.size - 1)
        return tuple(c[idx] for c in curves)
    if periodic:
        xp, curves = _closed(xp, curves)
    return tuple(np.interp(t, xp, c) for c in curves)


def sample_array(profile: SolarProfile, times: Iterable[float]) -> np.ndarray:
    """Sample the profile at each time in ``times``; returns W as float64.

    Hold mode returns the most recent sample's value (held past the last
    sample on non-periodic profiles). Linear mode interpolates between
    bracketing samples; past the last sample the value is held for
    non-periodic profiles and wraps to the first sample for periodic ones.
    Sampled at its own sample times, the profile's read-only ``powers`` array
    itself comes back.
    """
    t = np.asarray(times, dtype=float)
    if not profile.periodic and np.any(t < profile.times[0]):
        raise ValueError(
            "cannot sample non-periodic profile before its first sample "
            f"(t0={profile.times[0]})"
        )
    hold = profile.interpolation == "hold"
    return _resample(t, profile.times, (profile.powers,), profile.periodic, hold)[0]


def integrate_power(profile: SolarProfile, t0: float, t1: float) -> float:
    """Exact integral of the interpolated profile over [t0, t1], in joules.

    Exact for the profile's own interpolation rule: rectangles for hold mode,
    trapezoids for linear mode, with periodic wrapping handled by splitting
    whole days.
    """
    if t1 < t0:
        raise ValueError("t1 must be >= t0")
    if t1 == t0:
        return 0.0
    if profile.periodic:
        start = profile.times[0]
        per_day = _integral_in_base(profile, start, start + DAY_S)
        # split [t0, t1] into whole days plus a partial wrap segment
        n0 = math.floor((t0 - start) / DAY_S)
        n1 = math.floor((t1 - start) / DAY_S)
        a = t0 - n0 * DAY_S
        b = t1 - n1 * DAY_S
        whole = (n1 - n0) * per_day
        return whole + _integral_in_base(profile, start, b) - _integral_in_base(
            profile, start, a
        )
    if t0 < profile.start:
        raise ValueError("integration window starts before the profile domain")
    return _integral_in_base(profile, t0, t1)


def _integral_in_base(profile: SolarProfile, a: float, b: float) -> float:
    """Integral over [a, b] with b allowed past the last sample (held value).

    For periodic profiles a and b must lie within [start, start + DAY_S].
    """
    if b <= a:
        return 0.0
    xp, fp = profile.times, profile.powers
    if profile.periodic:
        # hold reads the closing sample only past start + DAY_S, where the
        # periodic profile is back at its first value
        xp, (fp,) = _closed(xp, (fp,))
    # knots strictly inside (a, b), plus the endpoints
    lo = np.searchsorted(xp, a, side="right")
    hi = np.searchsorted(xp, b, side="left")
    knots = np.concatenate([[a], xp[lo:hi], [b]])
    if profile.interpolation == "hold":
        idx = np.clip(np.searchsorted(xp, knots[:-1], side="right") - 1, 0, fp.size - 1)
        return float(np.sum(fp[idx] * np.diff(knots)))
    vals = np.interp(knots, xp, fp)
    return float(np.sum((vals[1:] + vals[:-1]) * 0.5 * np.diff(knots)))
