"""Tests for solarasv.vessel, and for the SOC step the harness loop applies."""

from __future__ import annotations

import pytest

import numpy as np

from solarasv.config import ConfigError, SimConfig
from solarasv.harness import run_mission
from solarasv.solar import SolarProfile
from solarasv.vessel import VesselParams

from conftest import step_fixed


class TestVesselParams:
    def test_defaults(self):
        p = VesselParams()
        assert p.k_h == 10.0
        assert p.k_m == 83.0
        assert p.b_min == 0.0
        assert p.b_max == 6500.0
        assert p.u_min == 0.0
        assert p.u_max == 2.315

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k_h": -1.0},
            {"k_m": 0.0},
            {"k_m": -5.0},
            {"b_min": 6500.0, "b_max": 6500.0},
            {"b_min": 7000.0},
            {"u_min": -0.1},
            {"u_min": 2.315},
            {"u_max": 0.0, "u_min": 0.0},
            {"k_m": float("nan")},
            {"k_h": float("inf")},
            {"b_min": float("-inf")},
            {"b_max": float("nan")},
            {"u_min": float("nan")},
            {"u_max": float("inf")},
            {"b_min": -1.0},
        ],
    )
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(ValueError):
            VesselParams(**kwargs)


def _draw(u: float, params: VesselParams) -> float:
    """Total electrical draw in W at speed u: k_h + k_m * u^3."""
    return params.k_h + params.k_m * u**3


class TestPowerDraw:
    """The cubic draw law, and the same draw as the step loop charges it."""

    @staticmethod
    def _loop_draw(u: float, params: VesselParams) -> float:
        # one dark hour at speed u: the SOC falls by the draw in Wh
        return 3000.0 - step_fixed(params, 3000.0, [u], [0.0], dt=3600.0).soc_trace[0]

    def test_hotel_only_at_rest(self, params):
        assert _draw(0.0, params) == 10.0
        assert self._loop_draw(0.0, params) == 10.0

    def test_one_meter_per_second(self, params):
        # 10 + 83 * 1^3
        assert _draw(1.0, params) == 93.0
        assert self._loop_draw(1.0, params) == 93.0

    def test_full_speed(self, params):
        # 10 + 83 * 2.315^3; the mission-critical worst-case draw
        for draw in (_draw(params.u_max, params), self._loop_draw(params.u_max, params)):
            assert draw == pytest.approx(1039.748287625, abs=1e-9)

    def test_cruise_speed(self, params):
        for draw in (_draw(1.83, params), self._loop_draw(1.83, params)):
            assert draw == pytest.approx(518.664421, abs=1e-6)


class TestStepSoc:
    """The forward-Euler SOC step and its clamps, as harness.simulate runs them."""

    def test_exact_euler_arithmetic(self, params):
        # b' = b + (p_in - draw) * dt/3600, no clamp active
        r = step_fixed(params, 1000.0, [1.0], [500.0])
        assert r.soc_trace[0] == 1000.0 + (500.0 - 93.0) * 0.1
        assert r.battery_failed is False
        assert r.distance == 360.0

    def test_zero_net_power_is_a_fixed_point(self, params):
        r = step_fixed(params, 3000.0, [1.0], [93.0])
        assert r.soc_trace[0] == 3000.0

    def test_ceiling_clamp_models_curtailment(self, params):
        r = step_fixed(params, 6499.0, [0.0], [1000.0], dt=3600.0)
        assert r.soc_trace[0] == params.b_max
        assert r.curtailed_wh == 6499.0 + 990.0 - params.b_max
        assert r.battery_failed is False and r.floor_added_wh == 0.0

    def test_floor_clamp_latches_failure(self, params):
        r = step_fixed(params, 5.0, [params.u_max], [0.0], dt=3600.0)
        assert r.soc_trace[0] == params.b_min
        assert r.battery_failed is True
        assert r.floor_added_wh == pytest.approx(_draw(params.u_max, params) - 5.0)

    def test_failure_flag_is_sticky(self, params):
        r = step_fixed(params, 5.0, [params.u_max, 0.0], [0.0, 800.0], dt=3600.0)
        assert r.soc_trace[1] > 0.0
        assert r.battery_failed is True

    def test_soc_stays_in_physical_window(self, params):
        rng = np.random.default_rng(7)
        us = rng.uniform(params.u_min, params.u_max, 500).tolist()
        p_in = rng.uniform(0.0, 1500.0, 500).tolist()
        r = step_fixed(params, 3000.0, us, p_in)
        assert np.all(r.soc_trace >= params.b_min)
        assert np.all(r.soc_trace <= params.b_max)
        assert r.velocity_trace.tolist() == us

    def test_invalid_dt_rejected(self):
        # the loop trusts its inputs: they are rejected before it runs
        with pytest.raises(ConfigError, match="sim.dt: must be > 0"):
            run_mission(SimConfig(dt=0.0))

    def test_negative_input_power_rejected(self):
        with pytest.raises(ValueError, match="powers must be >= 0"):
            SolarProfile(times=np.array([0.0, 1.0]), powers=np.array([1.0, -1.0]))
