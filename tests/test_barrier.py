"""Tests for solarasv.barrier — tightened SOC envelopes."""

from __future__ import annotations

import numpy as np
import pytest

from solarasv import barrier
from solarasv.barrier import (
    BarrierEnvelope,
    barrier_curves,
    build_envelope,
    write_envelope_csv,
)
from solarasv.solar import DAY_S, SolarProfile, sample_array
from solarasv.vessel import VesselParams


def _const_profile(power: float, end: float = 200_000.0) -> SolarProfile:
    return SolarProfile(
        times=np.array([0.0, end]),
        powers=np.array([power, power]),
    )


# ======================================================================
# Cumulative curves, hand-checked
# ======================================================================


class TestCumulativeCurves:
    def test_deficit_in_darkness(self, params):
        """Zero input: drift mode loses exactly k_h per hour."""
        grid = np.array([0.0, 3600.0, 7200.0])
        out = barrier_curves(_const_profile(0.0), params, grid).deficit
        assert out.tolist() == [0.0, 10.0, 20.0]

    def test_deficit_vanishes_at_hotel_break_even(self, params):
        grid = np.array([0.0, 3600.0, 7200.0])
        out = barrier_curves(_const_profile(params.k_h), params, grid).deficit
        assert out.tolist() == [0.0, 0.0, 0.0]

    def test_surplus_under_strong_sun(self, params):
        """Input above full-throttle draw accumulates at the rate difference."""
        grid = np.array([0.0, 3600.0, 7200.0])
        full_draw = params.k_h + params.k_m * params.u_max**3
        rate = 1200.0 - full_draw
        out = barrier_curves(_const_profile(1200.0), params, grid).surplus
        assert out == pytest.approx([0.0, rate, 2.0 * rate], abs=1e-9)

    def test_trapezoid_is_exact_on_linear_segments(self, params):
        """Piecewise-linear input, grid on the knots: integral is exact."""
        prof = SolarProfile(
            times=np.array([0.0, 3600.0, 7200.0]),
            powers=np.array([0.0, 720.0, 0.0]),
        )
        grid = prof.times
        out = barrier_curves(prof, params, grid).deficit
        # hour 1: mean input 360 W vs 10 W hotel -> -350 Wh; hour 2 the same
        assert out == pytest.approx([0.0, -350.0, -700.0], abs=1e-9)

    def test_grid_validation(self, params):
        with pytest.raises(ValueError, match="at least two"):
            barrier_curves(_const_profile(0.0), params, np.array([0.0]))
        with pytest.raises(ValueError, match="strictly increasing"):
            barrier_curves(_const_profile(0.0), params, np.array([0.0, 0.0]))


# ======================================================================
# Barrier curves
# ======================================================================


class TestBarrierCurves:
    def test_lower_barrier_covers_remaining_darkness(self, params):
        """In the dark, the floor at time t is the hotel energy still to come."""
        grid = np.array([0.0, 3600.0, 7200.0])
        out = barrier_curves(_const_profile(0.0), params, grid).lower
        assert out.tolist() == [20.0, 10.0, 0.0]

    def test_upper_barrier_reserves_absorption_headroom(self, params):
        grid = np.array([0.0, 3600.0, 7200.0])
        full_draw = params.k_h + params.k_m * params.u_max**3
        rate = 1200.0 - full_draw
        out = barrier_curves(_const_profile(1200.0), params, grid).upper
        assert out == pytest.approx(
            [params.b_max - 2.0 * rate, params.b_max - rate, params.b_max], abs=1e-9
        )

    def test_drift_at_u_min_keeps_criterion_3(self):
        """Criterion 3's lower half for a vessel that cannot stop (u_min > 0):
        b_l is b_min plus the suffix-sup of the deficit at the draw at u_min,
        and a forward-Euler rollout at u_min from b_l stays within one step
        of the floor."""
        params = VesselParams(b_min=100.0, u_min=1.0)
        drift_draw = params.k_h + params.k_m * params.u_min**3
        rng = np.random.default_rng(1234)
        dt = 600.0
        grid = np.arange(0.0, 2 * DAY_S + dt / 2, dt)
        dtf = dt / 3600.0
        for _ in range(50):
            n_seg = int(rng.integers(4, 24))
            edges = np.sort(rng.uniform(0.0, 2 * DAY_S, size=n_seg))
            times = np.concatenate([[0.0], edges])
            powers = rng.uniform(0.0, 1500.0, size=n_seg + 1)
            prof = SolarProfile(times=times, powers=powers, interpolation="hold")
            deficit, _, lo, _ = barrier_curves(prof, params, grid)

            p_s = sample_array(prof, grid)
            net = drift_draw - p_s
            trapezoids = np.cumsum((net[1:] + net[:-1]) * 0.5 * dt) / 3600.0
            assert deficit.tolist() == [0.0, *trapezoids.tolist()]
            lo_brute = params.b_min + np.array(
                [max(0.0, float(np.max(deficit[i:] - deficit[i]))) for i in range(grid.size)]
            )
            assert lo.tolist() == lo_brute.tolist()

            bound = float(p_s.max() - p_s.min()) * dtf / 2.0 + 1e-9
            drift = np.concatenate([[0.0], np.cumsum((p_s[:-1] - drift_draw) * dtf)])
            for i in range(grid.size):
                assert float(np.min(lo[i] + drift[i:] - drift[i])) >= params.b_min - bound

    def test_terminal_values_are_untightened(self, params, canonical_day):
        grid = np.arange(0.0, 86400.0 + 180.0, 360.0)
        _, _, lo, hi = barrier_curves(canonical_day, params, grid)
        assert lo[-1] == 0.0
        assert hi[-1] == params.b_max

    def test_backward_recursion_identity(self, params):
        """lower[i] = max(0, lower[i+1] + deficit step), same for headroom.

        Independent re-derivation of the suffix supremum, checked bitwise
        against the vectorized implementation on random profiles.
        """
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(3, 40))
            times = np.cumsum(rng.uniform(60.0, 3600.0, size=n))
            powers = rng.uniform(0.0, 1500.0, size=n)
            prof = SolarProfile(times=times, powers=powers)
            grid = times
            deficit, surplus, lower, up = barrier_curves(prof, params, grid)

            lo_ref = np.zeros(n)
            head_ref = np.zeros(n)
            for i in range(n - 2, -1, -1):
                lo_ref[i] = max(0.0, lo_ref[i + 1] + (deficit[i + 1] - deficit[i]))
                head_ref[i] = max(0.0, head_ref[i + 1] + (surplus[i + 1] - surplus[i]))

            assert lower.tolist() == lo_ref.tolist()
            assert up.tolist() == (params.b_max - head_ref).tolist()

    def test_drift_rollout_from_floor_never_goes_negative(self, params):
        """Starting exactly on the floor and drifting keeps SOC >= 0."""
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(5, 60))
            times = np.cumsum(rng.uniform(120.0, 2400.0, size=n))
            powers = rng.uniform(0.0, 40.0, size=n)  # mostly darker than hotel
            prof = SolarProfile(times=times, powers=powers)
            deficit, _, lo, _ = barrier_curves(prof, params, times)
            for i in range(n):
                soc = lo[i] - (deficit[i:] - deficit[i])
                assert np.min(soc) >= -1e-12


# ======================================================================
# BarrierEnvelope container
# ======================================================================

_THIRD = DAY_S / 3


class TestBarrierEnvelope:
    def _env(self, **kw):
        return BarrierEnvelope(
            times=np.array([0.0, _THIRD, 2 * _THIRD]),
            lower=np.array([50.0, 20.0, 0.0]),
            upper=np.array([6400.0, 6450.0, 6500.0]),
            **kw,
        )

    def test_validation(self):
        with pytest.raises(ValueError, match="at least two"):
            BarrierEnvelope(
                times=np.array([0.0]), lower=np.array([0.0]), upper=np.array([1.0])
            )
        with pytest.raises(ValueError, match="match the grid"):
            BarrierEnvelope(
                times=np.array([0.0, 1.0]),
                lower=np.array([0.0]),
                upper=np.array([1.0, 1.0]),
            )
        with pytest.raises(ValueError, match=">= 0"):
            BarrierEnvelope(
                times=np.array([0.0, 1.0]),
                lower=np.array([-1.0, 0.0]),
                upper=np.array([1.0, 1.0]),
            )
        with pytest.raises(ValueError, match="infeasible"):
            BarrierEnvelope(
                times=np.array([0.0, 1.0]),
                lower=np.array([2.0, 0.0]),
                upper=np.array([1.0, 1.0]),
            )
        with pytest.raises(ValueError, match="less than one day"):
            BarrierEnvelope(
                times=np.array([0.0, DAY_S]),
                lower=np.array([0.0, 0.0]),
                upper=np.array([1.0, 1.0]),
                periodic=True,
            )

    def test_interpolated_queries(self):
        env = self._env()
        lo, hi = env.bounds_arrays(np.array([0.5, 1.5]) * _THIRD)
        assert lo[0] == pytest.approx(35.0)
        assert hi[1] == pytest.approx(6475.0)
        lo, hi = env.bounds_arrays(np.array([0.0, 2 * _THIRD]))
        assert lo.tolist() == [50.0, 0.0]
        assert hi.tolist() == [6400.0, 6500.0]

    def test_non_periodic_rejects_out_of_range(self):
        env = self._env()
        with pytest.raises(ValueError, match="outside the envelope grid"):
            env.bounds_arrays(np.array([2 * _THIRD + 1.0]))
        with pytest.raises(ValueError, match="outside the envelope grid"):
            env.bounds_arrays(np.array([-1.0]))
        for periodic in (False, True):
            with pytest.raises(ValueError, match="^query times must be finite$"):
                self._env(periodic=periodic).bounds_arrays(np.array([0.0, np.nan]))

    def test_periodic_wrap(self):
        env = self._env(periodic=True)
        lo, hi = env.bounds_arrays(np.array([3.5, 0.5, 2.5, -0.5]) * _THIRD)
        assert lo[0] == lo[1]
        # wrap segment interpolates toward the first knot
        assert lo[2] == pytest.approx(25.0)
        assert hi[3] == hi[2]


    @pytest.mark.parametrize("periodic", [False, True], ids=["non-periodic", "periodic"])
    def test_own_grid_reads_back_exactly(self, periodic):
        env = BarrierEnvelope(
            times=np.array([0.0, 1.0, 2.0]),
            lower=np.array([0.0, 1e6, 0.0]),
            upper=np.array([2e6, 3e6, 2e6]),
            periodic=periodic,
        )
        lo, hi = env.bounds_arrays(env.times.copy())
        assert lo.tobytes() == env.lower.tobytes() and hi.tobytes() == env.upper.tobytes()
        assert np.shares_memory(lo, env.lower) and np.shares_memory(hi, env.upper)

        off = np.nextafter(env.times, -np.inf)[1:]  # one ulp below each knot but the first
        lo, hi = env.bounds_arrays(off)
        xp = env.times
        fl, fu = env.lower, env.upper
        if periodic:
            xp, fl, fu = np.append(xp, DAY_S), np.append(fl, fl[0]), np.append(fu, fu[0])
        want = np.interp(off, xp, fl)
        assert lo.tobytes() == want.tobytes()
        assert hi.tobytes() == np.interp(off, xp, fu).tobytes()
        assert not np.array_equal(want, env.lower[1:])


# ======================================================================
# Envelope construction
# ======================================================================


class TestBuildEnvelope:
    def test_mode_validation(self, params, canonical_day):
        grid = np.arange(0.0, 86400.0, 360.0)
        with pytest.raises(ValueError, match="mode must be one of"):
            build_envelope(canonical_day, params, grid, mode="daily")

    def test_horizon_requires_coverage(self, params):
        prof = _const_profile(100.0, end=1000.0)
        with pytest.raises(ValueError, match="does not cover"):
            build_envelope(prof, params, np.array([0.0, 2000.0]), mode="horizon")

    def test_horizon_envelope_shape(self, params, canonical_day):
        grid = np.arange(0.0, 86400.0 + 180.0, 360.0)
        env = build_envelope(canonical_day, params, grid, mode="horizon")
        assert not env.periodic
        assert np.all(env.lower >= 0.0)
        assert np.all(env.upper <= params.b_max)
        assert np.all(env.lower <= env.upper)
        assert env.lower[-1] == 0.0 and env.upper[-1] == params.b_max

    def test_periodic_day_requires_periodic_profile(self, params):
        prof = _const_profile(100.0)
        grid = np.arange(0.0, 86400.0, 360.0)
        with pytest.raises(ValueError, match="requires a periodic profile"):
            build_envelope(prof, params, grid, mode="periodic-day")

    def test_periodic_day_envelope_wraps(self, params, canonical_day):
        grid = np.arange(0.0, 86400.0, 360.0)
        env = build_envelope(canonical_day, params, grid, mode="periodic-day")
        assert env.periodic
        lo, _ = env.bounds_arrays(np.array([86400.0 + 1234.0, 1234.0]))
        assert lo[0] == lo[1]

    def test_periodic_day_dominates_single_horizon_day(self, params, canonical_day):
        """The steady-state floor can only be tighter than one finite day."""
        grid = np.arange(0.0, 86400.0, 360.0)
        env_p = build_envelope(canonical_day, params, grid, mode="periodic-day")
        env_h = build_envelope(canonical_day, params, grid, mode="horizon")
        assert np.all(env_p.lower >= env_h.lower - 1e-12)
        assert np.all(env_p.upper <= env_h.upper + 1e-12)

    @pytest.mark.parametrize("mode", ["horizon", "periodic-day"])
    def test_lower_barrier_is_measured_from_b_min(self, params, canonical_day, mode):
        grid = np.arange(0.0, 86400.0, 360.0)
        raised = VesselParams(b_min=1500.0)
        env0 = build_envelope(canonical_day, params, grid, mode=mode)
        env = build_envelope(canonical_day, raised, grid, mode=mode)
        assert env.lower.tolist() == (1500.0 + env0.lower).tolist()
        assert env.upper.tolist() == env0.upper.tolist()
        if mode == "horizon":
            lower = barrier_curves(canonical_day, raised, grid).lower
            assert env.lower.tolist() == lower.tolist()

    @pytest.mark.parametrize("mode", ["horizon", "periodic-day"])
    def test_samples_the_profile_once(self, params, canonical_day, mode, monkeypatch):
        calls = []

        def counted(profile, times):
            calls.append(len(times))
            return sample_array(profile, times)

        monkeypatch.setattr(barrier, "sample_array", counted)
        grid = np.arange(0.0, 86400.0, 360.0)
        build_envelope(canonical_day, params, grid, mode=mode)
        window = grid.size if mode == "horizon" else 2 * grid.size + 1
        assert calls == [window]

    def test_periodic_day_infeasible_profiles(self, params):
        grid = np.arange(0.0, 86400.0, 360.0)
        starving = SolarProfile(
            times=grid, powers=np.full(grid.size, 5.0), periodic=True
        )
        with pytest.raises(ValueError, match="cannot sustain the hotel load"):
            build_envelope(starving, params, grid, mode="periodic-day")
        flooding = SolarProfile(
            times=grid, powers=np.full(grid.size, 1200.0), periodic=True
        )
        with pytest.raises(ValueError, match="oversupplies even at full speed"):
            build_envelope(flooding, params, grid, mode="periodic-day")


# ======================================================================
# CSV export
# ======================================================================


class TestWriteEnvelopeCsv:
    def test_roundtrip(self, tmp_path, params, canonical_day):
        grid = np.arange(0.0, 86400.0, 360.0)
        env = build_envelope(canonical_day, params, grid, mode="periodic-day")
        path = tmp_path / "envelope.csv"
        write_envelope_csv(env, path)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "time_s,b_l_wh,b_u_wh"
        assert len(rows) == grid.size + 1
        t0, lo0, hi0 = (float(x) for x in rows[1].split(","))
        assert (t0, lo0, hi0) == (0.0, env.lower[0], env.upper[0])
