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
from dataclasses import dataclass, fields


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
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        if self.k_h < 0:
            raise ValueError("k_h must be >= 0")
        if self.k_m <= 0:
            raise ValueError("k_m must be > 0")
        if not self.b_min < self.b_max:
            raise ValueError("b_min must be strictly below b_max")
        if not 0.0 <= self.u_min < self.u_max:
            raise ValueError("velocity limits must satisfy 0 <= u_min < u_max")

