"""Tests for solarasv.controller — duality map, switching laws, the learning policy."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solarasv.barrier import BarrierEnvelope
from solarasv.controller import (
    Costate,
    IlcPolicy,
    IlcSettings,
    _switching_velocity,
    costate_from_velocity,
    stationarity_residual,
    validate_buffer,
    velocity_from_costate,
)
from solarasv.config import ConfigError, SimConfig
from solarasv.harness import Policy, simulate
from solarasv.vessel import VesselParams

from conftest import step_fixed


def _flat_env(b_l: float = 1000.0, b_u: float = 5000.0) -> BarrierEnvelope:
    return BarrierEnvelope(
        times=np.array([0.0, 86400.0]),
        lower=np.array([b_l, b_l]),
        upper=np.array([b_u, b_u]),
    )


# ======================================================================
# Costate duality
# ======================================================================


class TestCostateDuality:
    def test_costate_sign_enforced(self):
        with pytest.raises(ValueError, match="p1 must be < 0"):
            Costate(p1=0.0)
        with pytest.raises(ValueError, match="p1 must be < 0"):
            Costate(p1=1e-3)

    def test_frozen_velocity_value(self, params):
        # sqrt(1 / (3 * 83 * 0.0012)), checked by hand
        u = velocity_from_costate(Costate(p1=-0.0012), params)
        assert u == pytest.approx(1.829404333161506, abs=1e-12)

    def test_frozen_costate_value(self, params):
        # -1 / (3 * 83 * 1.83^2), checked by hand
        c = costate_from_velocity(1.83, params)
        assert c.p1 == pytest.approx(-0.001199218924729945, abs=1e-15)

    def test_round_trip(self, params):
        for u in (0.3, 1.0, 1.83, 2.3):
            back = velocity_from_costate(costate_from_velocity(u, params), params)
            assert back == pytest.approx(u, abs=1e-12)

    def test_projection_onto_limits(self, params):
        # p1 near zero values energy at almost nothing: full speed
        assert velocity_from_costate(Costate(p1=-1e-9), params) == params.u_max
        # a raised floor forces projection from below
        slow = VesselParams(u_min=1.0)
        assert velocity_from_costate(Costate(p1=-1.0), slow) == 1.0

    def test_costate_requires_positive_velocity(self, params):
        with pytest.raises(ValueError, match="u must be > 0"):
            costate_from_velocity(0.0, params)

    def test_stationarity_zero_at_dual_pair(self, params):
        for u in (0.5, 1.0, 1.83, 2.0):
            c = costate_from_velocity(u, params)
            assert abs(stationarity_residual(u, c, params)) < 1e-12

    def test_stationarity_sign_off_optimum(self, params):
        c = costate_from_velocity(1.83, params)
        # below the dual velocity the Hamiltonian still increases in u
        assert stationarity_residual(1.0, c, params) < 0.0
        assert stationarity_residual(2.3, c, params) > 0.0


# ======================================================================
# Hard switching law
# ======================================================================


class TestSwitchingControl:
    def _u(self, b, params, b_l=1000.0, b_u=5000.0):
        return _switching_velocity(b, b_l, b_u, 1.83, params.u_min, params.u_max)

    def test_three_branches(self, params):
        assert self._u(6000.0, params) == params.u_max
        assert self._u(500.0, params) == params.u_min
        assert self._u(3000.0, params) == 1.83

    def test_boundary_membership(self, params):
        assert self._u(5000.0, params) == params.u_max
        assert self._u(1000.0, params) == params.u_min

    def test_upper_branch_wins_degenerate_envelope(self, params):
        assert self._u(3000.0, params, b_l=3000.0, b_u=3000.0) == params.u_max

    def test_time_varying_bounds(self, params):
        # the step loop hands the law each step's bounds: the same SOC gets
        # different verdicts as the floor rises
        policy = Policy("switching", lambda b, b_l, b_u, i: self._u(b, params, b_l, b_u))
        draw = params.k_h + params.k_m * 1.83**3
        r = simulate(
            policy, [draw, 0.0], [0.0, 2000.0], [6500.0, 6500.0], 1000.0, params, 360.0
        )
        assert r.soc_trace[0] == pytest.approx(1000.0)
        assert r.velocity_trace.tolist() == [1.83, params.u_min]


# ======================================================================
# Buffered switching law
# ======================================================================


def _buffered(b, params, u_star=1.83, delta=100.0, b_l=1000.0, b_u=5000.0):
    """The learner's step in its first cycle: u_init through the buffered law."""
    settings = IlcSettings(delta=delta, u_init=u_star)
    return IlcPolicy(settings, params, 1, 3000.0).velocity(b, b_l, b_u, 0)


class TestBufferedControl:
    def test_band_anchors(self, params):
        u_star = 1.83
        assert _buffered(1000.0, params) == params.u_min
        assert _buffered(1100.0, params) == u_star
        assert _buffered(3000.0, params) == u_star
        assert _buffered(4900.0, params) == u_star
        assert _buffered(5000.0, params) == params.u_max

    def test_band_midpoints_blend_linearly(self, params):
        u_star = 1.83
        assert _buffered(1050.0, params) == pytest.approx(0.5 * u_star + 0.5 * params.u_min)
        assert _buffered(4950.0, params) == pytest.approx(0.5 * u_star + 0.5 * params.u_max)

    def test_outside_envelope_saturates(self, params):
        assert _buffered(500.0, params) == params.u_min
        assert _buffered(6400.0, params) == params.u_max

    def test_small_scale_continuity(self, params):
        """Velocity is Lipschitz in SOC with constant max(span)/delta."""
        d = 100.0
        u_star = 1.83
        bs = np.linspace(900.0, 5100.0, 42001)  # 0.105 Wh spacing
        us = np.array([_buffered(b, params) for b in bs.tolist()])
        lipschitz = max(u_star - params.u_min, params.u_max - u_star) / d
        max_jump = float(np.max(np.abs(np.diff(us))))
        assert max_jump <= lipschitz * float(bs[1] - bs[0]) + 1e-12

    def test_delta_validation(self, params):
        with pytest.raises(ValueError, match="delta must be > 0"):
            _policy(params, delta=0.0)
        with pytest.raises(ValueError, match="delta must be > 0"):
            _policy(params, delta=-1.0)

    @pytest.mark.parametrize("gain", ["k_p", "k_d"])
    def test_negative_gain_validation(self, params, gain):
        with pytest.raises(ValueError, match=f"{gain} must be >= 0"):
            _policy(params, **{gain: -5e-5})
        _policy(params, **{gain: 0.0})  # a zero gain switches that update off

    @pytest.mark.parametrize(
        "setting, match",
        [
            ({"u_init": 5.0}, "u_init 5.0 outside velocity limits"),
            ({"u_init": -0.1}, "outside velocity limits"),
            ({"u_init": math.nan}, "u_init must be finite"),
            ({"k_p": math.nan}, "k_p must be finite"),
            ({"k_d": math.nan}, "k_d must be finite"),
            ({"k_p": math.inf}, "k_p must be finite"),
            ({"delta": math.nan}, "delta must be finite"),
            ({"delta": math.inf}, "delta must be finite"),
            ({"b_des": math.nan}, "b_des must be finite"),
            ({"b_des": 6500.5}, "b_des 6500.5 outside battery window"),
            ({"b_des": -1.0}, "outside battery window"),
        ],
    )
    def test_settings_follow_the_config_rules(self, params, setting, match):
        """What SimConfig rejects for controller.* the policy rejects too."""
        with pytest.raises(ValueError, match=match):
            _policy(params, **setting)
        (key,) = setting
        with pytest.raises(ConfigError, match=f"controller.{key}: "):
            SimConfig(strategy="ilc", ilc=IlcSettings(**{"b_des": 3000.0, **setting}))

    def test_settings_on_the_limits_are_allowed(self, params):
        _policy(params, u_init=params.u_max, b_des=params.b_min)
        _policy(params, u_init=params.u_min, b_des=params.b_max)

    def test_every_broken_rule_is_named(self, params):
        bad = IlcSettings(k_p=-1.0, delta=math.inf, u_init=9.0, b_des=math.nan)
        assert [name for name, _ in bad.problems(params)] == ["k_p", "delta", "u_init", "b_des"]
        with pytest.raises(ValueError) as exc:
            IlcPolicy(bad, params, 0, 3000.0)
        assert str(exc.value) == (
            "k_p must be >= 0; delta must be finite; u_init 9.0 outside velocity "
            "limits; b_des must be finite; cycle_steps must be >= 1"
        )

    def test_validate_buffer(self):
        env = _flat_env(b_l=1000.0, b_u=1100.0)  # gap 100
        validate_buffer(env.lower, env.upper, 49.9)
        with pytest.raises(ValueError, match="would overlap"):
            validate_buffer(env.lower, env.upper, 50.0)
        with pytest.raises(ValueError, match="delta must be > 0"):
            validate_buffer(env.lower, env.upper, 0.0)


@st.composite
def _settings_case(draw):
    """IlcSettings with NaN, +-inf, negative, boundary and in-range values, and a vessel."""
    b_min = draw(st.floats(0.0, 1000.0))
    u_min = draw(st.floats(0.0, 1.0))
    params = VesselParams(
        b_min=b_min,
        b_max=b_min + draw(st.floats(1.0, 6500.0)),
        u_min=u_min,
        u_max=u_min + draw(st.floats(0.1, 3.0)),
    )

    def value(low, high, *limits):
        special = [math.nan, math.inf, -math.inf, -1.0, 0.0, *limits]
        return draw(st.sampled_from(special) | st.floats(low, high))

    ilc = IlcSettings(
        k_p=value(-1e-4, 1e-4),
        k_d=value(-1e-4, 1e-4),
        delta=value(-10.0, 200.0),
        u_init=value(u_min - 1.0, params.u_max + 1.0, u_min, params.u_max),
        b_des=draw(st.none())
        if draw(st.booleans())
        else value(b_min - 100.0, params.b_max + 100.0, b_min, params.b_max),
    )
    return ilc, params


@settings(max_examples=150, deadline=None)
@given(_settings_case())
def test_config_and_policy_reject_the_same_settings(case):
    """SimConfig and IlcPolicy read one set of rules: same verdict, same fields."""
    ilc, params = case
    config_names = policy_names = set()
    try:
        SimConfig(strategy="ilc", ilc=ilc, vessel=params, initial_soc=params.b_min)
    except ConfigError as exc:
        lines = str(exc).splitlines()[1:]
        config_names = {line.strip().split(":")[0] for line in lines}
    try:
        IlcPolicy(ilc, params, 1, params.b_min)
    except ValueError as exc:
        policy_names = {"controller." + part.split()[0] for part in str(exc).split("; ")}
    assert config_names == policy_names
    assert config_names == {f"controller.{name}" for name, _ in ilc.problems(params)}


# ======================================================================
# Iterative learning policy
# ======================================================================

WIDE = (-1e12, 1e12)  # bounds far from any SOC used here: the law returns u_star


def _policy(params, cycle_steps=2, initial_soc=3000.0, **kw) -> IlcPolicy:
    settings = dict(u_init=1.0, k_p=5e-5, k_d=1e-5, delta=100.0, b_des=3000.0)
    settings.update(kw)
    return IlcPolicy(IlcSettings(**settings), params, cycle_steps, initial_soc)


class TestIlcUpdates:
    def test_daily_update_proportional(self, params):
        pol = _policy(params)
        pol.end_cycle(3400.0, 3400.0)
        assert pol.u_hat == pytest.approx(1.0 + 5e-5 * 400.0)
        assert pol.iteration == 1
        assert pol.b_des == 3000.0

    def test_daily_update_fixed_point(self, params):
        pol = _policy(params)
        pol.end_cycle(3000.0, 3000.0)
        assert pol.u_hat == 1.0

    def test_daily_update_clamps(self, params):
        pol = _policy(params, u_init=2.3)
        pol.end_cycle(1e9, 1e9)
        assert pol.u_hat == params.u_max
        pol = _policy(params, u_init=0.01)
        pol.end_cycle(-1e9, -1e9)
        assert pol.u_hat == params.u_min

    def test_daily_update_stores_trace_and_retargets(self, params):
        pol = _policy(params, cycle_steps=3, b_des=None)
        for i, b in enumerate((3000.0, 3100.0, 3200.0)):
            pol.velocity(b, *WIDE, i)
        pol.end_cycle(3333.0, 3333.0)
        assert pol.prev_soc == [3000.0, 3100.0, 3200.0]
        assert pol.b_des == 3333.0

    def test_target_starts_at_initial_soc_without_b_des(self, params):
        pol = _policy(params, b_des=None, initial_soc=3200.0)
        assert pol.b_des == 3200.0
        pol.end_cycle(3400.0, 3400.0)
        assert pol.u_hat == pytest.approx(1.0 + 5e-5 * 200.0)

    def test_record_carries_true_soc_update_uses_measured(self, params):
        pol = _policy(params, b_des=None)
        rec = pol.end_cycle(3400.0, 3100.0)
        assert rec.iteration == 1 == pol.iteration
        assert rec.u_hat == pol.u_hat == pytest.approx(1.0 + 5e-5 * 400.0)
        assert rec.terminal_soc == 3100.0
        assert pol.b_des == 3400.0  # retargets on the measurement too

    def test_record_costate_is_the_dual_of_u_hat(self, params):
        pol = _policy(params)
        rec = pol.end_cycle(3400.0, 3400.0)
        assert rec.p1 == costate_from_velocity(rec.u_hat, params).p1
        # clamped to u_min = 0 the costate diverges: the record holds nan
        assert params.u_min == 0.0
        rec = pol.end_cycle(-1e9, -1e9)
        assert rec.u_hat == 0.0
        assert np.isnan(rec.p1)
        assert rec.iteration == 2

    def test_rate_update_first_cycle_passthrough(self, params):
        pol = _policy(params)
        assert pol.velocity(9999.0, *WIDE, 0) == 1.0
        assert pol.velocity(1.0, *WIDE, 1) == 1.0

    def test_rate_update_tracks_previous_cycle(self, params):
        pol = _policy(params)
        pol.velocity(3000.0, *WIDE, 0)
        pol.velocity(3100.0, *WIDE, 1)
        pol.end_cycle(3000.0, 3000.0)  # on target: u_hat stays 1.0
        assert pol.velocity(3150.0, *WIDE, 3) == pytest.approx(1.0 + 1e-5 * 50.0)
        # deficit versus the previous cycle slows the vessel down
        assert pol.velocity(2900.0, *WIDE, 2) == pytest.approx(1.0 - 1e-5 * 100.0)

    def test_rate_update_clamps(self, params):
        pol = _policy(params, u_init=2.3, cycle_steps=1)
        pol.velocity(3000.0, *WIDE, 0)
        pol.end_cycle(3000.0, 3000.0)
        assert pol.velocity(3000.0 + 1e9, *WIDE, 1) == params.u_max
        assert pol.velocity(3000.0 - 1e9, *WIDE, 2) == params.u_min

    def test_command_passes_through_buffered_law(self, params):
        pol = _policy(params)
        assert pol.velocity(1000.0, 1000.0, 5000.0, 0) == params.u_min
        assert pol.velocity(1050.0, 1000.0, 5000.0, 1) == pytest.approx(0.5)
        assert pol.velocity(5000.0, 1000.0, 5000.0, 2) == params.u_max


# ======================================================================
# Violation integral (accumulated by the harness step loop)
# ======================================================================


class TestViolationAccumulator:
    def _one_step(self, params, b):
        # u = 0 and p_in = k_h: the SOC holds still for the step
        return step_fixed(params, b, [0.0], [10.0], lower=[1000.0], upper=[5000.0])

    def test_inside_envelope_is_free(self, params):
        assert self._one_step(params, 3000.0).violation == 0.0

    def test_quadratic_excursion_below(self, params):
        assert self._one_step(params, 990.0).violation == pytest.approx(10.0**2 * 360.0)

    def test_quadratic_excursion_above(self, params):
        assert self._one_step(params, 5025.0).violation == pytest.approx(25.0**2 * 360.0)

    def test_accumulates_across_steps(self, params):
        # the SOC holds at 3000 Wh while the bounds move past it
        r = step_fixed(
            params, 3000.0, [0.0] * 3, [10.0] * 3, dt=100.0,
            lower=[3010.0, 0.0, 0.0], upper=[6500.0, 6500.0, 2990.0],
        )
        assert r.violation == pytest.approx(100.0 * 100.0 * 2.0)

    def test_dt_validation(self):
        with pytest.raises(ValueError, match="sim.dt: must be > 0"):
            SimConfig(dt=0.0)
