"""Vessel energy model: the parameters of the cubic drag power law.

Electrical load at cruise is a constant hotel draw plus a motor term cubic in
speed through water:

    draw(u) = k_h + k_m * u**3        [W]

The battery integrates net power with forward Euler, SOC in Wh, clamped to
the physical window [b_min, b_max]; that step lives in
:func:`solarasv.harness.simulate`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .solar import broken_rules, raise_broken


@dataclass(frozen=True)
class VesselParams:
    """Vessel energy constants. Defaults are the 4.8 m survey-vessel values."""

    k_h: float = 10.0      # hotel load, W
    k_m: float = 83.0      # motor constant, kg/m
    b_min: float = 0.0     # battery floor, Wh
    b_max: float = 6500.0  # battery capacity, Wh
    u_min: float = 0.0     # m/s
    u_max: float = 2.315   # m/s

    def __post_init__(self) -> None:
        raise_broken(self.problems())

    def problems(self) -> list[tuple[str, str]]:
        """A (field, reason) pair for each rule these constants break; [] if valid.

        ``b_max`` and ``u_max`` are checked against their minimum only when
        every constant is finite.
        """
        rules = [
            ("k_h", self.k_h >= 0, "must be >= 0"),
            ("k_m", self.k_m > 0, "must be > 0"),
            ("b_min", self.b_min >= 0, "must be >= 0"),
            ("u_min", self.u_min >= 0, "must be >= 0"),
        ]
        if all(map(math.isfinite, vars(self).values())):
            rules += [
                ("b_max", self.b_min < self.b_max, "must be above b_min"),
                ("u_max", self.u_min < self.u_max, "must be above u_min"),
            ]
        return broken_rules(vars(self), rules)
