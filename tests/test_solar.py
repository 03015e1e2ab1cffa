"""Tests for solarasv.solar — the solar sources, tabulated profiles, integration."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from solarasv.benchmark import energy_balance_velocity
from solarasv.solar import (
    DAY_S,
    INTERPOLATIONS,
    FileSource,
    IdealizedSource,
    SolarProfile,
    integrate_power,
    load_profile,
    read_rows,
    sample_array,
    whole_steps,
)
from solarasv.vessel import VesselParams

from conftest import PERIODIC_LOG


# ======================================================================
# Idealized clear-sky model
# ======================================================================


def _clear_sky(t: float, d0: float, d1: float) -> float:
    """The clipped cosine at one instant, in scalar arithmetic."""
    return max(0.0, d0 + d1 * math.cos(2.0 * math.pi * t / DAY_S))


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
            sample_array(prof, ts + DAY_S), sample_array(prof, ts), rtol=0, atol=1e-9
        )

    def test_array_matches_scalar(self):
        prof = IdealizedSource(d0=300.0, d1=500.0).profile(900.0)
        assert prof.powers.tolist() == [_clear_sky(t, 300.0, 500.0) for t in prof.times]

    def test_invalid_params(self):
        with pytest.raises(ValueError, match="^d1 must be >= 0; dt must be > 0, got 0.0$"):
            IdealizedSource(d1=-1.0).profile(0.0)
        # a NaN or infinite step is named once, with or without a day table
        table = IdealizedSource(d0_by_day=(300.0,), d1_by_day=(500.0,))
        for src in (IdealizedSource(), table):
            for dt in (math.nan, math.inf):
                with pytest.raises(ValueError, match="^dt must be finite$"):
                    src.profile(dt)


# ======================================================================
# SolarProfile construction and sampling
# ======================================================================

_THIRD = DAY_S / 3


def _thirds_of_a_day() -> SolarProfile:
    """10, 20 and 30 W at the starts of a day's thirds, repeating every day."""
    return SolarProfile(
        times=np.array([0.0, _THIRD, 2 * _THIRD]),
        powers=np.array([10.0, 20.0, 30.0]),
        periodic=True,
    )


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
        with pytest.raises(ValueError, match="interpolation"):
            SolarProfile(
                times=np.array([0.0]), powers=np.array([1.0]), interpolation="cubic"
            )
        with pytest.raises(ValueError, match="less than one day"):
            SolarProfile(
                times=np.array([0.0, DAY_S]),
                powers=np.array([1.0, 2.0]),
                periodic=True,
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

    @pytest.mark.parametrize("periodic", [False, True], ids=["non-periodic", "periodic"])
    @pytest.mark.parametrize("interpolation", ["linear", "hold"])
    def test_non_finite_query_times_are_refused(self, interpolation, periodic):
        prof = SolarProfile(_KNOTS, _STEEP, interpolation=interpolation, periodic=periodic)
        for t in (math.nan, math.inf):
            with pytest.raises(ValueError, match="^query times must be finite$"):
                sample_array(prof, [1.5, t])

    @pytest.mark.parametrize("interpolation", INTERPOLATIONS)
    def test_periodic_knot_reads_its_own_value(self, interpolation):
        """A knot inside the first day is read where it is, not wrapped, and
        a hold reading takes a knot on every later day too.

        4096.287 + (36864.475 - 4096.287) rounds below 36864.475, and so does
        36864.475 + k * DAY_S wrapped back into the first day for k >= 2,
        where a hold reading would take the knot before. A linear reading is
        continuous there, so it comes within a few ulps of the knot's value.
        """
        times = np.array([4096.287, 36864.475])
        prof = SolarProfile(times, np.array([0.0, 1.0]), interpolation, periodic=True)
        assert times[0] + (times[1] - times[0]) < times[1]
        assert [sample_array(prof, [t])[0] for t in times] == [0.0, 1.0]
        later = [times[1] + k * DAY_S for k in range(1, 6)]
        got = [sample_array(prof, [t])[0] for t in later]
        if interpolation == "hold":
            assert got == [1.0] * 5
        else:
            assert got == pytest.approx([1.0] * 5, rel=0, abs=1e-14)

    def test_periodic_wrap_is_continuous(self):
        prof = _thirds_of_a_day()
        wrap, later, first, before, last = sample_array(
            prof, np.array([2.5, 3.5, 0.5, -1.0, 2.0]) * _THIRD
        )
        # inside the wrap segment the value interpolates back toward powers[0]
        assert wrap == pytest.approx(20.0)
        # one full day later the sample repeats exactly
        assert later == first
        assert before == last


# steep steps between unit-spaced knots: a value one ulp past a knot moves off
# the knot's value under linear reading
_KNOTS = np.array([0.0, 1.0, 2.0, 3.0])
_STEEP = np.array([0.0, 1e6, 0.0, 5e5])


@pytest.mark.parametrize("periodic", [False, True], ids=["non-periodic", "periodic"])
@pytest.mark.parametrize("interpolation", ["linear", "hold"])
def test_own_knots_read_back_exactly(interpolation, periodic):
    prof = SolarProfile(_KNOTS, _STEEP, interpolation=interpolation, periodic=periodic)
    got = sample_array(prof, _KNOTS.copy())
    assert got.tobytes() == prof.powers.tobytes()
    assert np.shares_memory(got, prof.powers)  # returned as it is, not copied

    off = np.nextafter(_KNOTS, np.inf)
    got = sample_array(prof, off)
    assert not np.shares_memory(got, prof.powers)
    if interpolation == "hold":
        want = _STEEP  # still the latest knot at or before each time
    else:
        xp, fp = _KNOTS, _STEEP
        if periodic:
            xp, fp = np.append(xp, DAY_S), np.append(fp, fp[0])
        want = np.interp(off, xp, fp)
        assert not np.array_equal(want, _STEEP)
    assert got.tobytes() == want.tobytes()


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

    def test_file_source_checks_its_settings(self, tmp_path):
        # a zero scale would silently read the log as a dark sky
        f = tmp_path / "log.csv"
        f.write_text("0,100\n3600,200\n")
        with pytest.raises(ValueError, match="^scale must be > 0$"):
            FileSource(path=str(f), scale=0.0).profile(360.0)

    def test_file_source_problems_are_field_reason_pairs(self):
        src = FileSource(path="unread.csv", scale=-1.0, interpolation="cubic")
        assert src.problems() == [
            ("scale", "must be > 0"),
            ("interpolation", "'cubic' not one of ('hold', 'linear')"),
        ]
        assert FileSource(path="unread.csv").problems() == []

    def test_periodic_log_repeats_every_day(self, tmp_path):
        f = tmp_path / "log.csv"
        f.write_text("0,100\n43200,700\n86399,100\n")
        prof = FileSource(path=str(f), periodic=True).profile(360.0)
        assert prof.periodic
        ts = np.array([10.0, 43200.0, 86000.0])
        got = sample_array(prof, ts + DAY_S)
        assert got.tobytes() == sample_array(prof, ts).tobytes()
        assert not FileSource(path=str(f)).profile(360.0).periodic

    @pytest.mark.parametrize("end", [86400, 172800], ids=["one-day", "two-days"])
    def test_periodic_log_of_a_day_or_more_is_refused(self, tmp_path, end):
        f = tmp_path / "log.csv"
        f.write_text(f"0,100\n{end},200\n")
        with pytest.raises(ValueError, match=f"^solar.periodic: {f} spans {end}.0 s"):
            FileSource(path=str(f), periodic=True).profile(360.0)
        # read as it is, the same log loads
        assert FileSource(path=str(f)).profile(360.0).end == end


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
        """A day table tabulates its days through t = n*DAY_S, non-periodic."""
        prof = IdealizedSource(d0_by_day=(300.0,), d1_by_day=(500.0,)).profile(DAY_S / 2)
        assert not prof.periodic
        assert prof.times.tolist() == [0.0, DAY_S / 2, DAY_S]

    def test_day_table_needs_a_row(self):
        src = IdealizedSource(d0_by_day=(), d1_by_day=())
        assert src.problems() == [("table", "no days")]
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
    on_grid = draw(st.booleans())
    if on_grid:
        dt = DAY_S / draw(st.integers(24, 400))
    else:
        dt = draw(st.floats(DAY_S / 400.0, DAY_S / 24.0))
    days = draw(st.none() | st.lists(st.tuples(coef, amp), min_size=1, max_size=6))
    if days is None:
        src = IdealizedSource(d0=draw(coef), d1=draw(amp))
    else:
        d0s, d1s = (tuple(c) for c in zip(*days))
        src = IdealizedSource(d0_by_day=d0s, d1_by_day=d1s)
    return src, dt, on_grid


@settings(max_examples=150, deadline=None)
@given(_idealized_case())
# np.arange(0, 86400, 86400 / 61) ends on 86400 itself
@example((IdealizedSource(d0=300.0, d1=500.0), 86400.0 / 61, True))
def test_profile_is_the_clipped_cosine(case):
    """Bitwise the clipped cosine on the profile's grid; a table picks rows by day."""
    src, dt, on_grid = case
    prof = src.profile(dt)
    if src.d0_by_day is None:
        assert prof.periodic
        grid = np.arange(0.0, DAY_S, dt)
        np.testing.assert_array_equal(prof.times, grid[grid < DAY_S])
        want = np.maximum(0.0, src.d0 + src.d1 * np.cos(2 * np.pi * prof.times / DAY_S))
    else:
        n = len(src.d0_by_day)
        assert not prof.periodic
        np.testing.assert_array_equal(prof.times, np.arange(0.0, n * DAY_S + dt / 2, dt))
        if on_grid:
            assert prof.end == pytest.approx(n * DAY_S)
        # row k on [k*DAY_S, (k+1)*DAY_S); from (n-1)*DAY_S on, through
        # the sample at n*DAY_S, the last row
        row = np.searchsorted(np.arange(1, n) * DAY_S, prof.times, side="right")
        d0 = np.asarray(src.d0_by_day)[row]
        d1 = np.asarray(src.d1_by_day)[row]
        phase = 2 * np.pi * np.mod(prof.times, DAY_S) / DAY_S
        want = np.maximum(0.0, d0 + d1 * np.cos(phase))
    np.testing.assert_array_equal(prof.powers, want)


# ======================================================================
# Exact integration
# ======================================================================


# (source, days) -> exact values, recorded once, of integrate_power from
# t = 30000.5 s over that many days plus 4321.25 s, and of
# energy_balance_velocity over that many days plus 34321.75 s
_RECORDED_INTEGRALS = {
    ("clear-sky", 1): (29273759.131046638, 1.6363837732294948),
    ("clear-sky", 3.5): (95649308.25972931, 1.5802188310144318),
    ("clear-sky", 30): (878113778.241225, 1.5999284277457564),
    ("log-linear", 1): (29045700.286024306, 1.4892706509798472),
    ("log-linear", 3.5): (99413014.43877316, 1.546963264796826),
    ("log-linear", 30): (779159700.2860243, 1.5316194066005417),
    ("log-hold", 1): (27230925.0, 1.4291349438856071),
    ("log-hold", 3.5): (99647790.0, 1.5379397086990463),
    ("log-hold", 30): (764294925.0, 1.5205231540479118),
    ("day-table", 1): (26240642.755192272, 1.5766877747330783),
    ("day-table", 3.5): (86520199.28137979, 1.5272211314236017),
    ("day-table", 30): (991513053.4657775, 1.6641070873568173),
}


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
        for t0, t1 in ((math.nan, 100.0), (0.0, math.inf), (-math.inf, 0.0)):
            for prof in (self._hold(), _thirds_of_a_day()):
                with pytest.raises(
                    ValueError, match=f"^t0 and t1 must be finite, got {t0} and {t1}$"
                ):
                    integrate_power(prof, t0, t1)

    def test_periodic_whole_periods(self):
        prof = _thirds_of_a_day()
        per = integrate_power(prof, 0.0, DAY_S)
        # 15 + 25 + wrap segment 20, each W times a third of a day
        assert per == pytest.approx(60.0 * _THIRD)
        assert integrate_power(prof, 0.0, 3 * DAY_S) == pytest.approx(3 * per)

    def test_periodic_any_one_period_window(self):
        """A window of exactly one day integrates to the same total."""
        prof = _thirds_of_a_day()
        per = integrate_power(prof, 0.0, DAY_S)
        for t0 in (0.5, 1.3, 2.5, 3.1):
            t0 *= _THIRD
            assert integrate_power(prof, t0, t0 + DAY_S) == pytest.approx(per)

    def test_idealized_day_mean_equals_d0(self):
        """Unclipped cosine integrates to d0 * DAY_S over one day."""
        prof = IdealizedSource(d0=400.0, d1=300.0).profile(360.0)
        total = integrate_power(prof, 0.0, 86400.0)
        assert total / 86400.0 == pytest.approx(400.0, rel=1e-9)

    @pytest.mark.parametrize("case", sorted(_RECORDED_INTEGRALS), ids=str)
    def test_integrals_are_bitwise_as_recorded(self, tmp_path, case):
        """Integrals and the speeds they give, exactly as first recorded.

        Both ends of each window lie off the profile's knots; the periodic
        profiles wrap through the whole-day split, the day table does not.
        """
        source, days = case
        log = tmp_path / "log.csv"
        log.write_text(PERIODIC_LOG)
        prof = {
            "clear-sky": IdealizedSource(d0=300.0, d1=500.0),
            "log-linear": FileSource(path=str(log), periodic=True),
            "log-hold": FileSource(path=str(log), periodic=True, interpolation="hold"),
            "day-table": IdealizedSource(
                d0_by_day=tuple(200.0 + 10.0 * k for k in range(31)),
                d1_by_day=tuple(600.0 - 7.0 * k for k in range(31)),
            ),
        }[source].profile(360.0)
        t0 = 30000.5
        energy = integrate_power(prof, t0, t0 + days * DAY_S + 4321.25)
        speed = energy_balance_velocity(prof, days * DAY_S + 34321.75, VesselParams())
        assert (energy, speed) == _RECORDED_INTEGRALS[case]

    def test_matches_dense_riemann_sum(self):
        """Cross-check the exact integral against a fine Riemann sum."""
        prof = IdealizedSource(d0=200.0, d1=500.0).profile(600.0)
        ts = np.arange(0.0, 86400.0, 1.0)
        approx = float(np.sum(sample_array(prof, ts)))
        exact = integrate_power(prof, 0.0, 86400.0)
        assert exact == pytest.approx(approx, rel=1e-4)


def _unrolled_integral(prof: SolarProfile, t0: float, t1: float) -> float:
    """A periodic profile's integral over [t0, t1] with its knots laid out day by day."""
    first = math.floor((t0 - prof.start) / DAY_S)
    days = range(first, math.floor((t1 - prof.start) / DAY_S) + 2)
    xp = np.concatenate([prof.times + k * DAY_S for k in days])
    fp = np.tile(prof.powers, len(days))
    knots = np.concatenate([[t0], xp[(xp > t0) & (xp < t1)], [t1]])
    if prof.interpolation == "hold":
        vals = fp[np.searchsorted(xp, knots[:-1], side="right") - 1]
        return float(np.sum(vals * np.diff(knots)))
    vals = np.interp(knots, xp, fp)
    return float(np.sum((vals[1:] + vals[:-1]) / 2 * np.diff(knots)))


@st.composite
def _periodic_window(draw):
    """A periodic profile of 1-12 knots and a window of one day to 40 days.

    Knots lie on a 1 ms grid, far coarser than a float's resolution 40 days
    out, so unrolling them day by day merges none; powers lie on a 1 mW
    grid, so no product is subnormal.
    """
    start = draw(st.floats(0.0, 5000.0))
    offsets = draw(st.lists(st.floats(0.0, DAY_S - 1.0), min_size=1, max_size=12))
    times = np.unique(np.round(start + np.array(offsets), 3))
    n = times.size
    powers = np.round(draw(st.lists(st.floats(0.0, 1000.0), min_size=n, max_size=n)), 3)
    interpolation = draw(st.sampled_from(INTERPOLATIONS))
    prof = SolarProfile(times, powers, interpolation, periodic=True)
    t0 = draw(st.floats(-3 * DAY_S, 3 * DAY_S))
    return prof, t0, t0 + draw(st.floats(DAY_S, 40 * DAY_S))


@settings(max_examples=50, deadline=None)
@given(_periodic_window())
# a knot that wrapping would move below itself, read under hold
@example((SolarProfile([4096.287, 36864.475], [0.0, 1.0], "hold", True), 0.0, DAY_S))
def test_whole_day_split_matches_the_unrolled_knots(case):
    """The periodic integral's split into whole days loses nothing to unrolling.

    Equal within 1e-12, relative to the integral or to the window's span
    times the peak power, whichever is larger: a knot a day out is rounded
    to about 1e-11 s, which a nearly dark window cannot absorb.
    """
    prof, t0, t1 = case
    want = _unrolled_integral(prof, t0, t1)
    scale = (t1 - t0) * prof.powers.max()
    assert integrate_power(prof, t0, t1) == pytest.approx(want, rel=1e-12, abs=1e-12 * scale)
