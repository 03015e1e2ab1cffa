"""Tests for solarasv.solar — the solar sources, tabulated profiles, integration."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from solarasv.solar import (
    IdealizedSource,
    SolarProfile,
    integrate_power,
    load_profile,
    read_rows,
    sample_array,
    whole_steps,
)


# ======================================================================
# Idealized clear-sky model
# ======================================================================


def _clear_sky(t: float, d0: float, d1: float, period: float = 86400.0) -> float:
    """The clipped cosine at one instant, in scalar arithmetic."""
    return max(0.0, d0 + d1 * math.cos(2.0 * math.pi * t / period))


class TestIdealizedModel:
    def test_peak_at_cycle_start(self):
        prof = IdealizedSource(d0=300.0, d1=500.0).profile(360.0)
        assert sample_array(prof, [0.0])[0] == 800.0

    def test_trough_at_half_period(self):
        prof = IdealizedSource(d0=600.0, d1=500.0).profile(360.0)
        assert sample_array(prof, [43200.0])[0] == pytest.approx(100.0)

    def test_clipped_to_zero_at_night(self):
        """d1 > d0 drives the cosine negative; output must clip at zero."""
        prof = IdealizedSource(d0=100.0, d1=500.0).profile(360.0)
        assert sample_array(prof, [43200.0])[0] == 0.0

    def test_periodicity(self):
        src = IdealizedSource(d0=300.0, d1=500.0)
        prof = src.profile(360.0)
        ts = np.array([0.0, 12345.0, 50000.0])
        np.testing.assert_allclose(
            sample_array(prof, ts + src.period), sample_array(prof, ts), rtol=0, atol=1e-9
        )

    def test_array_matches_scalar(self):
        prof = IdealizedSource(d0=300.0, d1=500.0).profile(900.0)
        assert prof.powers.tolist() == [_clear_sky(t, 300.0, 500.0) for t in prof.times]

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            IdealizedSource(period=0.0).profile(360.0)
        with pytest.raises(ValueError):
            IdealizedSource(d1=-1.0).profile(360.0)


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
        # held past the last sample (t = 500)
        got = sample_array(prof, [0.0, 99.9, 100.0, 150.0, 500.0])
        assert got.tolist() == [10.0, 10.0, 20.0, 20.0, 30.0]

    def test_linear_sampling(self):
        prof = SolarProfile(
            times=np.array([0.0, 100.0]), powers=np.array([10.0, 20.0])
        )
        mid, end, past = sample_array(prof, [50.0, 100.0, 300.0])
        assert mid == pytest.approx(15.0)
        assert end == 20.0
        assert past == 20.0  # held past the end

    def test_non_periodic_rejects_queries_before_start(self):
        prof = SolarProfile(times=np.array([100.0, 200.0]), powers=np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="before its first sample"):
            sample_array(prof, [0.0])

    def test_periodic_wrap_is_continuous(self):
        prof = SolarProfile(
            times=np.array([0.0, 100.0, 200.0]),
            powers=np.array([10.0, 20.0, 30.0]),
            period=300.0,
        )
        wrap, later, first, before, last = sample_array(
            prof, [250.0, 350.0, 50.0, -100.0, 200.0]
        )
        # inside the wrap segment the value interpolates back toward powers[0]
        assert wrap == pytest.approx(20.0)
        # one full period later the sample repeats exactly
        assert later == first
        assert before == last


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


class TestReadRows:
    def test_columns_come_back_as_rows(self, tmp_path):
        f = tmp_path / "rows.csv"
        f.write_text("# a,b,c\n\n0,1.5,-2\n1,2.5,1e3\n")
        a, b, c = read_rows(f, "a,b,c")
        assert a.tolist() == [0.0, 1.0]
        assert b.tolist() == [1.5, 2.5]
        assert c.tolist() == [-2.0, 1000.0]
        assert a.flags.c_contiguous

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("0,1,2\n0,1\n", "line 2: expected 'a,b,c', got '0,1'"),
            ("# x\n0,1,two\n", "line 2: non-numeric field in '0,1,two'"),
            ("0,1,2\n\n0,nan,2\n", "line 3: non-finite value in '0,nan,2'"),
            ("0,1,-inf\n", "line 1: non-finite value"),
            ("# only a comment\n\n", "no data rows"),
        ],
        ids=["count", "non-numeric", "nan", "inf", "empty"],
    )
    def test_each_problem_names_the_file_and_line(self, tmp_path, text, fragment):
        f = tmp_path / "rows.csv"
        f.write_text(text)
        with pytest.raises(ValueError) as exc:
            read_rows(f, "a,b,c")
        assert str(exc.value).startswith(f"{f}: ")
        assert fragment in str(exc.value)


class TestWholeSteps:
    @pytest.mark.parametrize(
        "span, dt, steps",
        [
            (86400.0, 360.0, 240),
            (86400.0, 3600.0 / 7.0, 168),  # 167.99999999999997 in floats
            (86400.0, 86400.0 / 61.0, 61),
            (3600.0, 3600.0, 1),
            (86400.0, 700.0, None),
            (900.0, 360.0, None),  # 2.5 steps
            (3600.0, 7200.0, None),  # less than one step
            (1e-12, 1.0, None),  # rounds to zero steps
            (86400.0, 0.0, None),
            (86400.0, -360.0, None),
            (float("inf"), 360.0, None),
            (float("nan"), 360.0, None),
            (86400.0, float("nan"), None),
            (86400.0, float("inf"), None),
        ],
    )
    def test_whole_steps(self, span, dt, steps):
        assert whole_steps(span, dt) == steps


# ======================================================================
# Tabulation helpers
# ======================================================================


class TestTabulate:
    def test_periodic_day_wraps_exactly(self):
        prof = IdealizedSource(d0=300.0, d1=500.0).profile(360.0)
        assert prof.periodic
        assert prof.times.size == 240
        later, first = sample_array(prof, [86400.0 + 10.0, 10.0])
        assert later == first

    def test_non_periodic_duration(self):
        """A day table tabulates its days through t = n*period, non-periodic."""
        prof = IdealizedSource(
            period=7200.0, d0_by_day=(300.0,), d1_by_day=(500.0,)
        ).profile(3600.0)
        assert not prof.periodic
        assert prof.times.tolist() == [0.0, 3600.0, 7200.0]

    def test_day_table_needs_a_row(self):
        src = IdealizedSource(d0_by_day=(), d1_by_day=())
        assert src.problems() == ["solar.table: no days"]
        with pytest.raises(ValueError, match="no days"):
            src.profile(360.0)

    def test_seasonal_day_switching(self):
        prof = IdealizedSource(
            d0_by_day=(100.0, 200.0), d1_by_day=(0.0, 0.0)
        ).profile(3600.0)
        # constant within each day (d1 = 0), switching at the day boundary
        assert sample_array(prof, [43200.0, 86400.0 + 43200.0]).tolist() == [100.0, 200.0]

    def test_seasonal_validation(self):
        with pytest.raises(ValueError):
            IdealizedSource(d0_by_day=(100.0,), d1_by_day=(0.0, 0.0)).profile(360.0)
        with pytest.raises(ValueError):
            IdealizedSource(d0_by_day=(100.0,), d1_by_day=(-1.0,)).profile(360.0)


@st.composite
def _idealized_case(draw):
    """A clear-sky source, with or without a day table, and a step dt."""
    coef = st.floats(-1000.0, 1500.0)
    amp = st.floats(0.0, 1500.0)
    # integer periods (and one half-integer) keep k * period exact
    period = draw(st.integers(3600, 172800).map(float) | st.just(43210.5))
    on_grid = draw(st.booleans())
    if on_grid:
        dt = period / draw(st.integers(24, 400))
    else:
        dt = draw(st.floats(period / 400.0, period / 24.0))
    days = draw(st.none() | st.lists(st.tuples(coef, amp), min_size=1, max_size=6))
    if days is None:
        src = IdealizedSource(d0=draw(coef), d1=draw(amp), period=period)
    else:
        d0s, d1s = (tuple(c) for c in zip(*days))
        src = IdealizedSource(period=period, d0_by_day=d0s, d1_by_day=d1s)
    return src, dt, on_grid


@settings(max_examples=150, deadline=None)
@given(_idealized_case())
# np.arange(0, 86400, 86400 / 61) ends on 86400 itself
@example((IdealizedSource(d0=300.0, d1=500.0), 86400.0 / 61, True))
def test_profile_is_the_clipped_cosine(case):
    """Bitwise the clipped cosine on the profile's grid; a table picks rows by day."""
    src, dt, on_grid = case
    period = src.period
    prof = src.profile(dt)
    if src.d0_by_day is None:
        assert prof.period == period
        grid = np.arange(0.0, period, dt)
        np.testing.assert_array_equal(prof.times, grid[grid < period])
        want = np.maximum(0.0, src.d0 + src.d1 * np.cos(2 * np.pi * prof.times / period))
    else:
        n = len(src.d0_by_day)
        assert not prof.periodic
        np.testing.assert_array_equal(prof.times, np.arange(0.0, n * period + dt / 2, dt))
        if on_grid:
            assert prof.end == pytest.approx(n * period)
        # row k on [k*period, (k+1)*period); from (n-1)*period on, through
        # the sample at n*period, the last row
        row = np.searchsorted(np.arange(1, n) * period, prof.times, side="right")
        d0 = np.asarray(src.d0_by_day)[row]
        d1 = np.asarray(src.d1_by_day)[row]
        phase = 2 * np.pi * np.mod(prof.times, period) / period
        want = np.maximum(0.0, d0 + d1 * np.cos(phase))
    np.testing.assert_array_equal(prof.powers, want)


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
        prof = IdealizedSource(d0=400.0, d1=300.0).profile(360.0)
        total = integrate_power(prof, 0.0, 86400.0)
        assert total / 86400.0 == pytest.approx(400.0, rel=1e-9)

    def test_matches_dense_riemann_sum(self):
        """Cross-check the exact integral against a fine Riemann sum."""
        prof = IdealizedSource(d0=200.0, d1=500.0).profile(600.0)
        ts = np.arange(0.0, 86400.0, 1.0)
        approx = float(np.sum(sample_array(prof, ts)))
        exact = integrate_power(prof, 0.0, 86400.0)
        assert exact == pytest.approx(approx, rel=1e-4)
