"""Velocity control: switching law, buffered blending, and iterative learning.

The minimum-principle analysis of the distance-maximization problem yields a
bang/learn/bang structure. Away from the tightened SOC bounds the optimal
velocity is constant and dual to a constant (negative) costate:

    u* = sqrt(-1 / (3 * k_m * p1))        p1 = -1 / (3 * k_m * u*^2)

which is exactly the stationary point of the control Hamiltonian: the
stationarity residual -1 - 3 * k_m * p1 * u^2 vanishes at u*. At the bounds
the control saturates (:func:`_switching_velocity`):

    u = u_max   if b >= b_u(t)     (burn: avoid curtailing charge)
    u = u_min   if b <= b_l(t)     (hold: protect the feasible future)
    u = u*      otherwise

The learner runs the buffered variant (``IlcPolicy.velocity``), which
linearly blends between the saturated and interior commands over a band of
width delta Wh inside each bound; that removes chattering and makes the
commanded velocity continuous in b.

The interior velocity itself is learned across daily cycles instead of being
solved from a forecast (:class:`IlcPolicy`):

* once per cycle (measured terminal SOC b_tf, target b_des):
      u_hat <- u_hat + k_p * (b_tf - b_des)
* each step, a rate correction against the previous cycle's SOC trace:
      u_cmd(t) = u_hat + k_d * (b(t) - b_prev(t))
  applied to the cycle-frozen u_hat (corrections do not compound).

Both updates project onto [u_min, u_max]. :class:`IlcSettings` configures the
learner, which reports each cycle as an :class:`IterationRecord`. The step
loop calls these laws with the measured SOC; they are the only implementations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .solar import broken_rules, raise_broken
from .vessel import VesselParams


@dataclass(frozen=True)
class Costate:
    """Battery-SOC adjoint of the distance-maximization Hamiltonian.

    p1 must be negative (stored energy has positive value, the Hamiltonian
    sign convention makes the adjoint negative).
    """

    p1: float

    def __post_init__(self) -> None:
        if not self.p1 < 0:
            raise ValueError("p1 must be < 0")


def velocity_from_costate(costate: Costate, params: VesselParams) -> float:
    """Interior optimal velocity for a given costate, projected onto limits."""
    u = math.sqrt(-1.0 / (3.0 * params.k_m * costate.p1))
    return min(max(u, params.u_min), params.u_max)


def costate_from_velocity(u: float, params: VesselParams) -> Costate:
    """Inverse duality map. Requires u > 0 (p1 diverges as u -> 0)."""
    if u <= 0:
        raise ValueError("u must be > 0 to map to a finite costate")
    return Costate(p1=-1.0 / (3.0 * params.k_m * u * u))


def stationarity_residual(u: float, costate: Costate, params: VesselParams) -> float:
    """dH/du of the interior Hamiltonian; zero at the dual velocity."""
    return -1.0 - 3.0 * params.k_m * costate.p1 * u * u


# ---------------------------------------------------------------------------
# switching control
# ---------------------------------------------------------------------------

def _switching_velocity(
    b: float, b_l: float, b_u: float, u_hat: float, u_min: float, u_max: float
) -> float:
    """Hard three-branch switching law; the upper branch wins at b_l == b_u."""
    if b >= b_u:
        return u_max
    if b <= b_l:
        return u_min
    return u_hat


def validate_buffer(lower: np.ndarray, upper: np.ndarray, delta: float) -> None:
    """Reject buffer widths whose bands would overlap anywhere between the bounds.

    lower and upper hold the barriers b_l and b_u in Wh, entry by entry, such
    as an envelope's arrays; both bands of width delta must fit inside the
    narrowest gap.
    """
    if delta <= 0:
        raise ValueError("delta must be > 0")
    min_gap = float(np.min(upper - lower))
    if not 2.0 * delta < min_gap:
        raise ValueError(
            f"buffer width delta={delta} Wh does not fit: envelope gap narrows "
            f"to {min_gap} Wh and the two bands (2*delta) would overlap"
        )


# ---------------------------------------------------------------------------
# iterative learning
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IlcSettings:
    """Learned-controller gains and buffer width."""

    k_p: float = 5e-5    # (m/s)/Wh per cycle
    k_d: float = 1e-5    # (m/s)/Wh per step
    delta: float = 100.0  # blending band, Wh
    u_init: float = 1.0   # initial velocity estimate, m/s
    b_des: float | None = None  # fixed terminal target; None tracks cycle start

    def problems(self, params: VesselParams | None) -> list[tuple[str, str]]:
        """A (field, reason) pair for each rule these settings break; [] if valid.

        The one statement of the learner's rules: ``SimConfig`` reports each
        pair as ``controller.<field>: <reason>`` and :class:`IlcPolicy`
        raises them. A NaN or infinite field is reported only as not finite.
        Without ``params`` (a vessel whose own values are bad) the rules that
        read its limits, those of u_init and b_des, are left out.
        """
        p, u_init, b_des = params, self.u_init, self.b_des
        rules = [
            # a negative gain learns away from the target, down to u_min
            ("k_p", self.k_p >= 0, "must be >= 0"),
            ("k_d", self.k_d >= 0, "must be >= 0"),
            ("delta", self.delta > 0, "must be > 0"),
        ]
        if p is not None:
            rules += [
                ("u_init", p.u_min <= u_init <= p.u_max, f"{u_init} outside velocity limits"),
                (
                    "b_des",
                    b_des is None or p.b_min <= b_des <= p.b_max,
                    f"{b_des} outside battery window [{p.b_min}, {p.b_max}]",
                ),
            ]
        return broken_rules(vars(self), rules)


class IterationRecord(NamedTuple):
    """One closed cycle: the updated u_hat, its costate and the true terminal SOC."""

    iteration: int
    u_hat: float
    p1: float  # nan when u_hat == 0, where the costate diverges
    terminal_soc: float


class IlcPolicy:
    """The learned-velocity controller as the step loop runs it.

    ``velocity(b, b_l, b_u, step)`` is called once per step with the measured
    SOC: it stores the measurement in the running cycle's trace, applies the
    rate correction against the previous cycle's trace and passes the result
    through the buffered law, which blends linearly over a band of width
    delta Wh inside each bound: u_min at and below b_l, the corrected u_hat
    from b_l + delta to b_u - delta, u_max at and above b_u. It is the one
    body of that law, built once per policy with the gains, the limits and
    delta bound in, so a step reads none of them from the instance. The
    caller must ensure the bands fit between the bounds it passes
    (:func:`validate_buffer` checks them as arrays).
    :meth:`end_cycle` is called once per cycle with the measured and the
    true cycle-end SOC, applies the proportional update and returns the
    cycle's record. Settings that break a rule of
    :meth:`IlcSettings.problems` raise one ValueError naming each, and so
    does cycle_steps < 1.

    u_hat: current interior velocity estimate, m/s (within vessel limits).
    b_des: terminal-SOC target of the running cycle, Wh. When the settings'
        b_des is None it starts at the initial SOC and moves to each cycle's
        measured terminal SOC.
    prev_soc: the previous cycle's measured SOC per step, None during the
        first cycle.
    iteration: completed cycles.
    """

    __slots__ = (
        "cycle_steps", "k_p", "u_min", "u_max", "retarget", "params", "velocity",
        "u_hat", "b_des", "prev_soc", "cycle_soc", "iteration",
    )

    def __init__(
        self, settings: IlcSettings, params: VesselParams, cycle_steps: int, initial_soc: float
    ) -> None:
        problems = settings.problems(params)
        if cycle_steps < 1:
            problems.append(("cycle_steps", "must be >= 1"))
        raise_broken(problems)
        self.cycle_steps = cycle_steps
        self.k_p = settings.k_p
        self.u_min = params.u_min
        self.u_max = params.u_max
        self.params = params
        self.retarget = settings.b_des is None
        self.u_hat = float(settings.u_init)
        self.b_des = float(initial_soc if self.retarget else settings.b_des)
        self.prev_soc: list[float] | None = None
        self.cycle_soc = [0.0] * cycle_steps
        self.iteration = 0
        self.velocity = self._buffered_law(settings.k_d, settings.delta)

    def _buffered_law(
        self, k_d: float, delta: float
    ) -> Callable[[float, float, float, int], float]:
        """``velocity`` with the settings bound; it reads only per-cycle state."""
        cycle_steps, u_min, u_max = self.cycle_steps, self.u_min, self.u_max

        def velocity(b: float, b_l: float, b_u: float, step: int) -> float:
            """Commanded velocity at mission step ``step`` from the measured SOC."""
            j = step % cycle_steps
            self.cycle_soc[j] = b
            if b <= b_l:
                return u_min
            if b >= b_u:
                return u_max
            prev = self.prev_soc
            if prev is None:
                u_star = self.u_hat
            else:
                u_star = self.u_hat + k_d * (b - prev[j])
                if u_star < u_min:
                    u_star = u_min
                elif u_star > u_max:
                    u_star = u_max
            gap_l = b - b_l
            if gap_l < delta:
                w = gap_l / delta
                return w * u_star + (1.0 - w) * u_min
            gap_u = b_u - b
            if gap_u < delta:
                w = gap_u / delta
                return w * u_star + (1.0 - w) * u_max
            return u_star

        return velocity

    def end_cycle(self, b_meas: float, b: float) -> IterationRecord:
        """Close one cycle: update on the measured SOC, record the true one."""
        u = self.u_hat + self.k_p * (b_meas - self.b_des)
        if u < self.u_min:
            u = self.u_min
        elif u > self.u_max:
            u = self.u_max
        self.u_hat = u
        self.prev_soc = self.cycle_soc
        self.cycle_soc = [0.0] * self.cycle_steps
        if self.retarget:
            self.b_des = b_meas
        self.iteration += 1
        p1 = costate_from_velocity(u, self.params).p1 if u > 0 else math.nan
        return IterationRecord(self.iteration, u, p1, b)
