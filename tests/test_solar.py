"""Tests for solarasv.solar — idealized model, tabulated profiles, integration."""

from __future__ import annotations

import math

import numpy as np
import pytest

from solarasv.solar import (
    IdealizedSolarParams,
    SolarProfile,
    idealized_irradiance,
    idealized_irradiance_array,
    integrate_power,
    load_profile,
    sample,
    sample_array,
    tabulate_idealized,
    tabulate_seasonal,
)


# ======================================================================
# Idealized clear-sky model
# ======================================================================


class TestIdealizedModel:
    def test_peak_at_cycle_start(self):
        p = IdealizedSolarParams(d0=300.0, d1=500.0)
        assert idealized_irradiance(0.0, p) == 800.0

    def test_trough_at_half_period(self):
        p = IdealizedSolarParams(d0=600.0, d1=500.0)
        assert idealized_irradiance(43200.0, p) == pytest.approx(100.0)

    def test_clipped_to_zero_at_night(self):
        """d1 > d0 drives the cosine negative; output must clip at zero."""
        p = IdealizedSolarParams(d0=100.0, d1=500.0)
        assert idealized_irradiance(43200.0, p) == 0.0

    def test_periodicity(self):
        p = IdealizedSolarParams(d0=300.0, d1=500.0)
        for t in (0.0, 12345.0, 50000.0):
            assert idealized_irradiance(t + p.period, p) == pytest.approx(
                idealized_irradiance(t, p), abs=1e-9
            )

    def test_array_matches_scalar(self):
        p = IdealizedSolarParams(d0=300.0, d1=500.0)
        ts = np.linspace(0.0, 86400.0, 97)
        arr = idealized_irradiance_array(ts, p)
        assert arr.tolist() == [idealized_irradiance(t, p) for t in ts]

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            IdealizedSolarParams(period=0.0)
        with pytest.raises(ValueError):
            IdealizedSolarParams(d1=-1.0)


# ======================================================================
# SolarProfile construction and sampling
# ======================================================================


class TestSolarProfile:
    def test_validation_errors(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            SolarProfile(times=np.array([0.0, 0.0]), powers=np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match=">= 0"):
            SolarProfile(times=np.array([0.0, 1.0]), powers=np.array([1.0, -2.0]))
        with pytest.raises(ValueError, match="no samples"):
            SolarProfile(times=np.array([]), powers=np.array([]))
        for times, powers in (
            ([0.0, 1.0], [1.0, np.nan]),
            ([0.0, 1.0], [np.inf, 2.0]),
            ([0.0, np.inf], [1.0, 2.0]),
            ([np.nan, 1.0], [1.0, 2.0]),
        ):
            with pytest.raises(ValueError, match="must be finite"):
                SolarProfile(times=np.array(times), powers=np.array(powers))
        for period in (np.nan, np.inf):
            with pytest.raises(ValueError, match="period must be finite"):
                SolarProfile(times=np.array([0.0]), powers=np.array([1.0]), period=period)
        with pytest.raises(ValueError, match="interpolation"):
            SolarProfile(
                times=np.array([0.0]), powers=np.array([1.0]), interpolation="cubic"
            )
        with pytest.raises(ValueError, match="less than one period"):
            SolarProfile(
                times=np.array([0.0, 100.0]),
                powers=np.array([1.0, 2.0]),
                period=100.0,
            )

    def test_arrays_are_read_only(self):
        prof = SolarProfile(times=np.array([0.0, 1.0]), powers=np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            prof.times[0] = 5.0

    def test_hold_sampling(self):
        prof = SolarProfile(
            times=np.array([0.0, 100.0, 200.0]),
            powers=np.array([10.0, 20.0, 30.0]),
            interpolation="hold",
        )
        assert sample(prof, 0.0) == 10.0
        assert sample(prof, 99.9) == 10.0
        assert sample(prof, 100.0) == 20.0
        assert sample(prof, 150.0) == 20.0
        # held past the last sample
        assert sample(prof, 500.0) == 30.0

    def test_linear_sampling(self):
        prof = SolarProfile(
            times=np.array([0.0, 100.0]), powers=np.array([10.0, 20.0])
        )
        assert sample(prof, 50.0) == pytest.approx(15.0)
        assert sample(prof, 100.0) == 20.0
        assert sample(prof, 300.0) == 20.0  # held past the end

    def test_non_periodic_rejects_queries_before_start(self):
        prof = SolarProfile(times=np.array([100.0, 200.0]), powers=np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="before its first sample"):
            sample(prof, 0.0)

    def test_periodic_wrap_is_continuous(self):
        prof = SolarProfile(
            times=np.array([0.0, 100.0, 200.0]),
            powers=np.array([10.0, 20.0, 30.0]),
            period=300.0,
        )
        # inside the wrap segment the value interpolates back toward powers[0]
        assert sample(prof, 250.0) == pytest.approx(20.0)
        # one full period later the sample repeats exactly
        assert sample(prof, 350.0) == sample(prof, 50.0)
        assert sample(prof, -100.0) == sample(prof, 200.0)


# ======================================================================
# File ingestion
# ======================================================================


class TestLoadProfile:
    def test_roundtrip_with_comments_and_scale(self, tmp_path):
        f = tmp_path / "log.csv"
        f.write_text("# irradiance log\n0,100\n\n3600,200\n7200,50\n")
        prof = load_profile(f, scale=2.0, interpolation="hold")
        assert prof.times.tolist() == [0.0, 3600.0, 7200.0]
        assert prof.powers.tolist() == [200.0, 400.0, 100.0]

    def test_malformed_row_names_the_line(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("0,100\n3600,200,999\n")
        with pytest.raises(ValueError, match="line 2"):
            load_profile(f)

    def test_non_numeric_field_names_the_line(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("0,100\nnoon,200\n")
        with pytest.raises(ValueError, match="line 2"):
            load_profile(f)
        for row in ("3600,nan", "3600,inf", "inf,200"):
            f.write_text(f"0,100\n{row}\n")
            with pytest.raises(ValueError, match="line 2: non-finite"):
                load_profile(f)

    def test_non_monotone_timestamps_rejected(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("0,100\n3600,200\n3600,300\n")
        with pytest.raises(ValueError, match="strictly increasing"):
            load_profile(f)

    def test_empty_file_rejected(self, tmp_path):
        f = tmp_path / "empty.csv"
        f.write_text("# nothing here\n")
        with pytest.raises(ValueError, match="no data rows"):
            load_profile(f)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_profile(tmp_path / "absent.csv")


# ======================================================================
# Tabulation helpers
# ======================================================================


class TestTabulate:
    def test_periodic_day_wraps_exactly(self):
        prof = tabulate_idealized(IdealizedSolarParams(d0=300.0, d1=500.0), dt=360.0)
        assert prof.periodic
        assert prof.times.size == 240
        assert sample(prof, 86400.0 + 10.0) == sample(prof, 10.0)

    def test_non_periodic_duration(self):
        prof = tabulate_idealized(
            IdealizedSolarParams(), dt=3600.0, duration=7200.0, periodic=False
        )
        assert not prof.periodic
        assert prof.times.tolist() == [0.0, 3600.0, 7200.0]

    def test_non_periodic_requires_duration(self):
        with pytest.raises(ValueError, match="duration"):
            tabulate_idealized(IdealizedSolarParams(), dt=360.0, periodic=False)

    def test_seasonal_day_switching(self):
        prof = tabulate_seasonal([100.0, 200.0], [0.0, 0.0], dt=3600.0)
        # constant within each day (d1 = 0), switching at the day boundary
        assert sample(prof, 43200.0) == 100.0
        assert sample(prof, 86400.0 + 43200.0) == 200.0

    def test_seasonal_validation(self):
        with pytest.raises(ValueError):
            tabulate_seasonal([100.0], [0.0, 0.0], dt=360.0)
        with pytest.raises(ValueError):
            tabulate_seasonal([100.0], [-1.0], dt=360.0)


# ======================================================================
# Exact integration
# ======================================================================


class TestIntegratePower:
    def _hold(self):
        return SolarProfile(
            times=np.array([0.0, 100.0, 200.0]),
            powers=np.array([10.0, 20.0, 30.0]),
            interpolation="hold",
        )

    def _linear(self):
        return SolarProfile(
            times=np.array([0.0, 100.0, 200.0]),
            powers=np.array([10.0, 20.0, 30.0]),
        )

    def test_hold_rectangles(self):
        prof = self._hold()
        assert integrate_power(prof, 0.0, 200.0) == pytest.approx(3000.0)
        assert integrate_power(prof, 50.0, 150.0) == pytest.approx(1500.0)
        # past the last sample the value holds at 30
        assert integrate_power(prof, 150.0, 250.0) == pytest.approx(2500.0)

    def test_linear_trapezoids(self):
        prof = self._linear()
        assert integrate_power(prof, 0.0, 200.0) == pytest.approx(4000.0)
        assert integrate_power(prof, 50.0, 150.0) == pytest.approx(2000.0)

    def test_degenerate_window(self):
        assert integrate_power(self._hold(), 120.0, 120.0) == 0.0
        with pytest.raises(ValueError):
            integrate_power(self._hold(), 100.0, 50.0)
        with pytest.raises(ValueError, match="before the profile domain"):
            integrate_power(self._hold(), -10.0, 50.0)

    def test_periodic_whole_periods(self):
        prof = SolarProfile(
            times=np.array([0.0, 100.0, 200.0]),
            powers=np.array([10.0, 20.0, 30.0]),
            period=300.0,
        )
        per = integrate_power(prof, 0.0, 300.0)
        assert per == pytest.approx(6000.0)  # 1500 + 2500 + wrap segment 2000
        assert integrate_power(prof, 0.0, 900.0) == pytest.approx(3 * per)

    def test_periodic_any_one_period_window(self):
        """A window of exactly one period integrates to the same total."""
        prof = SolarProfile(
            times=np.array([0.0, 100.0, 200.0]),
            powers=np.array([10.0, 20.0, 30.0]),
            period=300.0,
        )
        per = integrate_power(prof, 0.0, 300.0)
        for t0 in (50.0, 130.0, 250.0, 310.0):
            assert integrate_power(prof, t0, t0 + 300.0) == pytest.approx(per)

    def test_idealized_day_mean_equals_d0(self):
        """Unclipped cosine integrates to d0 * period over one period."""
        prof = tabulate_idealized(IdealizedSolarParams(d0=400.0, d1=300.0), dt=360.0)
        total = integrate_power(prof, 0.0, 86400.0)
        assert total / 86400.0 == pytest.approx(400.0, rel=1e-9)

    def test_matches_dense_riemann_sum(self):
        """Cross-check the exact integral against a fine Riemann sum."""
        prof = tabulate_idealized(IdealizedSolarParams(d0=200.0, d1=500.0), dt=600.0)
        ts = np.arange(0.0, 86400.0, 1.0)
        approx = float(np.sum(sample_array(prof, ts)))
        exact = integrate_power(prof, 0.0, 86400.0)
        assert exact == pytest.approx(approx, rel=1e-4)
