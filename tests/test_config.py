"""Tests for solarasv.config — the flat key=value mission file format."""

from __future__ import annotations

from dataclasses import fields, replace
from operator import attrgetter
from pathlib import Path

import pytest

from solarasv import config
from solarasv.config import (
    ConfigError,
    SimConfig,
    load_compare_configs,
    load_sim_config,
    parse_kv_file,
)
from solarasv.harness import tabulate_mission
from solarasv.solar import DAY_S, FileSource, IdealizedSource


# every key whose value is a number: a NaN or infinite one must fail the load
_FLOAT_KEYS = [
    key for key, kind in config._KEYS.items() if kind is float or key == "controller.b_des"
]
_LOG = "solar.source = file\nsolar.file = log.csv\n"
# keys only a log source reads; the log need not exist to load the file
_FLOAT_CONTEXT = {"solar.scale": f"{_LOG}barrier.mode = horizon\n"}


def _write(tmp_path, text: str, name: str = "mission.cfg"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


_CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.cfg"))


@pytest.mark.parametrize("path", _CONFIGS, ids=[p.name for p in _CONFIGS])
def test_every_example_config_loads(path):
    """Each file in configs/ loads through its loader: compare files list strategies."""
    if "sim.strategies" in parse_kv_file(path):
        assert len(load_compare_configs(path)) >= 2
    else:
        assert isinstance(load_sim_config(path), SimConfig)


# ======================================================================
# Raw parsing
# ======================================================================


class TestParseKvFile:
    def test_comments_blanks_and_spacing(self, tmp_path):
        p = _write(
            tmp_path,
            "# a mission\n\n  sim.dt = 720\nsim.strategy=mpc\n   \n",
        )
        assert parse_kv_file(p) == {"sim.dt": "720", "sim.strategy": "mpc"}

    def test_unknown_key_names_the_line(self, tmp_path):
        p = _write(tmp_path, "sim.dt = 720\nsim.speed = 2\n")
        with pytest.raises(ConfigError, match="line 2: unknown key 'sim.speed'"):
            parse_kv_file(p)

    def test_duplicate_key_rejected(self, tmp_path):
        p = _write(tmp_path, "sim.dt = 720\nsim.dt = 360\n")
        with pytest.raises(ConfigError, match="line 2: duplicate key"):
            parse_kv_file(p)

    def test_missing_equals_rejected(self, tmp_path):
        p = _write(tmp_path, "sim.dt 720\n")
        with pytest.raises(ConfigError, match="expected 'key = value'"):
            parse_kv_file(p)

    def test_all_problems_reported_together(self, tmp_path):
        p = _write(tmp_path, "bogus = 1\nsim.dt = 1\nsim.dt = 2\nplain\n")
        with pytest.raises(ConfigError) as exc:
            parse_kv_file(p)
        msg = str(exc.value)
        assert "line 1" in msg and "line 3" in msg and "line 4" in msg


# ======================================================================
# Config assembly
# ======================================================================


class TestLoadSimConfig:
    def test_defaults(self, tmp_path):
        cfg = load_sim_config(_write(tmp_path, "# all defaults\n"))
        assert cfg.strategy == "ilc"
        assert cfg.dt == 360.0
        assert cfg.mission_length == 31_536_000.0
        assert cfg.initial_soc == 3250.0
        assert cfg.barrier_mode == "periodic-day"
        assert isinstance(cfg.solar, IdealizedSource)
        assert (cfg.solar.d0, cfg.solar.d1) == (300.0, 500.0)
        assert cfg.ilc.b_des is None  # cycle-start retargeting
        assert cfg.mpc.soc_grid == 131
        expected = replace(SimConfig(), output_dir=str(tmp_path / "out"))
        for f in fields(SimConfig):
            assert getattr(cfg, f.name) == getattr(expected, f.name), f.name

    def test_every_key_reaches_its_field(self, tmp_path):
        (tmp_path / "input.csv").write_text("0,100\n86400,100\n")
        # four half-days of 43200 s cover the 172800 s mission
        (tmp_path / "days.csv").write_text(
            "0,250,450\n1,260,460\n2,270,470\n3,280,480\n"
        )
        # (key, text in the file, attribute on the loaded config, value there)
        shared = [
            ("vessel.k_h", "12.5", "vessel.k_h", 12.5),
            ("vessel.k_m", "80", "vessel.k_m", 80.0),
            ("vessel.b_min", "100", "vessel.b_min", 100.0),
            ("vessel.b_max", "6000", "vessel.b_max", 6000.0),
            ("vessel.u_min", "0.1", "vessel.u_min", 0.1),
            ("vessel.u_max", "2", "vessel.u_max", 2.0),
            ("barrier.mode", "horizon", "barrier_mode", "horizon"),
            ("controller.k_p", "4e-5", "ilc.k_p", 4e-5),
            ("controller.k_d", "2e-5", "ilc.k_d", 2e-5),
            ("controller.delta", "50", "ilc.delta", 50.0),
            ("controller.u_init", "1.5", "ilc.u_init", 1.5),
            ("controller.b_des", "3000", "ilc.b_des", 3000.0),
            ("mpc.horizon", "86400", "mpc.horizon", 86400.0),
            ("mpc.soc_grid", "51", "mpc.soc_grid", 51),
            ("mpc.u_grid", "12", "mpc.u_grid", 12),
            ("mpc.terminal_reward_slope", "4", "mpc.terminal_reward_slope", 4.0),
            ("mpc.replan_interval", "2", "mpc.replan_interval", 2),
            ("sim.dt", "720", "dt", 720.0),
            ("sim.mission_length", "172800", "mission_length", 172800.0),
            ("sim.initial_soc", "3000", "initial_soc", 3000.0),
            ("sim.strategy", "mpc", "strategy", "mpc"),
            ("sim.rng_seed", "7", "rng_seed", 7),
            ("sim.noise_std", "1.5", "noise_std", 1.5),
            ("sim.output_dir", "results", "output_dir", str(tmp_path / "results")),
        ]
        defaults = SimConfig()
        for key, _, attr, value in shared:
            assert attrgetter(attr)(defaults) != value, key
        by_source = {
            "idealized": [
                ("solar.source", "idealized", "solar.__class__", IdealizedSource),
                ("solar.d0", "250", "solar.d0", 250.0),
                ("solar.d1", "450", "solar.d1", 450.0),
            ],
            "table": [
                ("solar.table", "days.csv", "solar.d0_by_day", (250.0, 260.0, 270.0, 280.0)),
            ],
            "file": [
                ("solar.source", "file", "solar.__class__", FileSource),
                ("solar.file", "input.csv", "solar.path", str(tmp_path / "input.csv")),
                ("solar.scale", "2", "solar.scale", 2.0),
                ("solar.interpolation", "hold", "solar.interpolation", "hold"),
                ("solar.periodic", "true", "solar.periodic", True),
            ],
        }
        seen = {"sim.strategies"}
        for source, solar_rows in by_source.items():
            rows = shared + solar_rows
            text = "".join(f"{key} = {raw}\n" for key, raw, _, _ in rows)
            cfg = load_sim_config(_write(tmp_path, text, f"{source}.cfg"))
            for key, _, attr, value in rows:
                assert attrgetter(attr)(cfg) == value, (source, key)
            # a compare file lists its strategies instead of naming one
            text = "".join(
                f"{key} = {raw}\n" for key, raw, _, _ in rows if key != "sim.strategy"
            )
            text += "sim.strategies = ilc, constant-constrained\n"
            cfgs = load_compare_configs(_write(tmp_path, text, f"{source}-compare.cfg"))
            strategies = ("ilc", "constant-constrained")
            assert cfgs == [replace(cfg, strategy=s) for s in strategies]
            seen |= {key for key, _, _, _ in rows}
        assert seen == set(config._KEYS)

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "key, context",
        [pytest.param(key, _FLOAT_CONTEXT.get(key, ""), id=key) for key in _FLOAT_KEYS],
    )
    def test_a_float_key_that_is_not_finite_is_named_once(self, tmp_path, key, context, raw):
        """The one problem of the file is the key, as not finite: no rule reads it."""
        p = _write(tmp_path, f"{context}{key} = {raw}\n")
        with pytest.raises(ConfigError) as exc:
            load_sim_config(p)
        expected = f"{key}: must be finite"
        assert [line.strip() for line in str(exc.value).splitlines()[1:]] == [expected]

    def test_float_keys_cover_every_section(self):
        sections = {key.partition(".")[0] for key in _FLOAT_KEYS}
        assert sections == {"vessel", "solar", "controller", "mpc", "sim"}

    def test_typed_overrides(self, tmp_path):
        cfg = load_sim_config(
            _write(
                tmp_path,
                "sim.dt = 720\n"
                "sim.mission_length = 172800\n"
                "sim.rng_seed = 9\n"
                "vessel.k_h = 12.5\n"
                "solar.d0 = 250\n"
                "controller.b_des = 4000\n"
                "mpc.soc_grid = 51\n"
                "mpc.horizon = 86400\n",
            )
        )
        assert cfg.dt == 720.0
        assert cfg.rng_seed == 9
        assert cfg.vessel.k_h == 12.5
        assert cfg.solar.d0 == 250.0
        assert cfg.ilc.b_des == 4000.0
        assert cfg.mpc.soc_grid == 51
        assert cfg.mpc.horizon == 86400.0

    def test_type_mismatches_reported_by_key(self, tmp_path):
        p = _write(tmp_path, "sim.dt = fast\nmpc.soc_grid = 1.5\n")
        with pytest.raises(ConfigError) as exc:
            load_sim_config(p)
        msg = str(exc.value)
        assert "sim.dt: expected a number" in msg
        assert "mpc.soc_grid: expected an integer" in msg

    def test_value_problems_reported_together(self, tmp_path):
        p = _write(
            tmp_path,
            "sim.dt = fast\ncontroller.b_des = soon\n"
            "solar.source = file\nsolar.file = log.csv\nsolar.periodic = maybe\n",
        )
        with pytest.raises(ConfigError) as exc:
            load_sim_config(p)
        msg = str(exc.value)
        assert "sim.dt: expected a number, got 'fast'" in msg
        assert "controller.b_des: expected a number or 'cycle-start', got 'soon'" in msg
        assert "solar.periodic: expected one of" in msg and "got 'maybe'" in msg

    def test_unread_keys_and_missing_file_join_value_problems(self, tmp_path):
        p = _write(
            tmp_path,
            "solar.source = file\nsolar.d0 = 3\nsolar.scale = big\n",
        )
        with pytest.raises(ConfigError) as exc:
            load_sim_config(p)
        msg = str(exc.value)
        assert "solar.scale: expected a number" in msg
        assert "solar.d0: only read when solar.source = idealized" in msg
        assert "solar.file: required when solar.source = file" in msg

    def test_vessel_and_mpc_problems_join_the_other_value_problems(self, tmp_path):
        p = _write(
            tmp_path,
            "vessel.k_m = -1\nvessel.k_h = -1\nmpc.soc_grid = 1\n"
            "sim.noise_std = loud\nsolar.scale = 2\n",
        )
        with pytest.raises(ConfigError) as exc:
            load_sim_config(p)
        lines = [line.strip() for line in str(exc.value).splitlines()[1:]]
        assert lines == [
            "sim.noise_std: expected a number, got 'loud'",
            "solar.scale: only read when solar.source = file",
            "vessel.k_h: must be >= 0",
            "vessel.k_m: must be > 0",
            "mpc.soc_grid: must be an integer >= 2, got 1",
        ]

    @pytest.mark.parametrize(
        "text, expected",
        [
            pytest.param(
                "vessel.b_max = big\nvessel.b_min = 7000\n",
                ["vessel.b_max: expected a number, got 'big'"],
                id="b_max-rejected",
            ),
            pytest.param(
                "vessel.u_max = fast\nvessel.u_min = 3\n",
                ["vessel.u_max: expected a number, got 'fast'"],
                id="u_max-rejected",
            ),
            pytest.param(
                "vessel.b_min = 7000\nsim.dt = x\n",
                ["sim.dt: expected a number, got 'x'", "vessel.b_max: must be above b_min"],
                id="b_max-unset",
            ),
        ],
    )
    def test_a_rejected_value_is_named_once(self, tmp_path, text, expected):
        """A key whose text is rejected is named once: no vessel rule is
        judged on its default as well. A key left unset still is."""
        with pytest.raises(ConfigError) as exc:
            load_sim_config(_write(tmp_path, text))
        assert [line.strip() for line in str(exc.value).splitlines()[1:]] == expected

    def test_every_section_reports_in_the_same_pass(self, tmp_path):
        """Bad vessel and mpc values hold back no sim.* or controller.* problem.

        Each bad key is one line. Rules that read a bad vessel's limits (the
        SOC window of sim.initial_soc, the velocity limits of
        controller.u_init) are not checked against them.
        """
        p = _write(
            tmp_path,
            "vessel.k_m = -1\nmpc.soc_grid = 1\ncontroller.k_p = -1\nsim.dt = 0\n",
        )
        with pytest.raises(ConfigError) as exc:
            load_sim_config(p)
        assert [line.strip() for line in str(exc.value).splitlines()[1:]] == [
            "vessel.k_m: must be > 0",
            "mpc.soc_grid: must be an integer >= 2, got 1",
            "sim.dt: must be > 0",
            "controller.k_p: must be >= 0",
        ]
        p = _write(
            tmp_path,
            "vessel.b_max = 0\nvessel.u_min = 3\ncontroller.u_init = 9\ncontroller.k_d = -1\n",
            "limits.cfg",
        )
        with pytest.raises(ConfigError) as exc:
            load_sim_config(p)
        assert [line.strip() for line in str(exc.value).splitlines()[1:]] == [
            "vessel.b_max: must be above b_min",
            "vessel.u_max: must be above u_min",
            "controller.k_d: must be >= 0",
        ]

    def test_b_des_spelling(self, tmp_path):
        cfg = load_sim_config(_write(tmp_path, "controller.b_des = cycle-start\n"))
        assert cfg.ilc.b_des is None
        with pytest.raises(ConfigError, match="controller.b_des"):
            load_sim_config(_write(tmp_path, "controller.b_des = soon\n", "b.cfg"))

    def test_file_source_requires_path(self, tmp_path):
        p = _write(tmp_path, "solar.source = file\n")
        with pytest.raises(ConfigError, match="solar.file: required"):
            load_sim_config(p)

    def test_file_source_resolves_relative_paths(self, tmp_path):
        (tmp_path / "input.csv").write_text("0,100\n86400,100\n")
        cfg = load_sim_config(
            _write(
                tmp_path,
                "solar.source = file\n"
                "solar.file = input.csv\n"
                "solar.scale = 2\n"
                "solar.periodic = true\n"
                "sim.strategy = constant-unconstrained\n",
            )
        )
        assert isinstance(cfg.solar, FileSource)
        assert cfg.solar.path == str(tmp_path / "input.csv")
        assert cfg.solar.scale == 2.0
        assert cfg.solar.periodic is True

    @pytest.mark.parametrize(
        "line, fragment",
        [
            ("solar.interpolation = cubic", "solar.interpolation: 'cubic' not one of"),
            ("solar.periodic = flase", "solar.periodic: expected one of"),
        ],
        ids=["interpolation", "periodic"],
    )
    def test_file_source_settings_checked_at_load(self, tmp_path, line, fragment):
        (tmp_path / "input.csv").write_text("0,100\n86400,100\n")
        p = _write(tmp_path, f"solar.source = file\nsolar.file = input.csv\n{line}\n")
        with pytest.raises(ConfigError, match=fragment):
            load_sim_config(p)

    @pytest.mark.parametrize(
        "spelling, periodic", [("yes", True), ("1", True), ("No", False)]
    )
    def test_periodic_spellings(self, tmp_path, spelling, periodic):
        (tmp_path / "input.csv").write_text("0,100\n86400,100\n")
        p = _write(
            tmp_path,
            "barrier.mode = horizon\nsolar.source = file\nsolar.file = input.csv\n"
            f"solar.periodic = {spelling}\n",
        )
        assert load_sim_config(p).solar.periodic is periodic

    @pytest.mark.parametrize(
        "lines, fragment",
        [
            ("solar.file = input.csv", "solar.file: only read when solar.source = file"),
            ("solar.scale = -3", "solar.scale: only read when solar.source = file"),
            (
                "solar.interpolation = cubic",
                "solar.interpolation: only read when solar.source = file",
            ),
            ("solar.periodic = flase", "solar.periodic: only read when solar.source = file"),
            (
                "solar.source = file\nsolar.file = input.csv\nsolar.d0 = 999",
                "solar.d0: only read when solar.source = idealized",
            ),
            (
                "solar.source = file\nsolar.file = input.csv\nsolar.d1 = 10",
                "solar.d1: only read when solar.source = idealized",
            ),
            (
                "solar.source = file\nsolar.file = input.csv\nsolar.table = nope.csv",
                "solar.table: only read when solar.source = idealized",
            ),
            (
                "solar.table = days.csv\nsolar.d0 = 999",
                "solar.d0: only read when there is no solar.table",
            ),
            (
                "solar.table = days.csv\nsolar.d1 = 10",
                "solar.d1: only read when there is no solar.table",
            ),
        ],
        ids=[
            "file", "scale", "interpolation", "periodic", "d0", "d1", "table",
            "d0-table", "d1-table",
        ],
    )
    def test_unread_solar_keys_rejected(self, tmp_path, lines, fragment):
        (tmp_path / "input.csv").write_text("0,100\n86400,100\n")
        (tmp_path / "days.csv").write_text("0,300,500\n")
        p = _write(tmp_path, f"sim.strategy = constant-unconstrained\n{lines}\n")
        with pytest.raises(ConfigError, match=fragment):
            load_sim_config(p)

    @pytest.mark.parametrize(
        "lines",
        [
            "solar.period = 43200",
            "solar.source = file\nsolar.file = input.csv\nsolar.periodic = true\n"
            "solar.period = 43200",
        ],
        ids=["idealized", "log"],
    )
    def test_solar_period_is_not_a_key(self, tmp_path, lines):
        # the solar day is DAY_S, for every source
        p = _write(tmp_path, f"{lines}\n")
        with pytest.raises(ConfigError, match="unknown key 'solar.period'"):
            load_sim_config(p)

    def test_unknown_source_kind(self, tmp_path):
        p = _write(tmp_path, "solar.source = oracle\n")
        with pytest.raises(ConfigError, match="solar.source"):
            load_sim_config(p)

    def test_output_dir_resolves_against_config_dir(self, tmp_path):
        cfg = load_sim_config(_write(tmp_path, "sim.output_dir = results\n"))
        assert cfg.output_dir == str(tmp_path / "results")

    def test_vessel_and_mpc_errors_are_prefixed(self, tmp_path):
        with pytest.raises(ConfigError, match="vessel\\.u_max: must be above u_min"):
            load_sim_config(_write(tmp_path, "vessel.u_min = 3\n"))
        with pytest.raises(ConfigError, match="mpc\\.soc_grid: must be an integer"):
            load_sim_config(_write(tmp_path, "mpc.soc_grid = 1\n", "m.cfg"))

    @pytest.mark.parametrize(
        "source",
        ["solar.table = days.csv", "solar.source = file\nsolar.file = absent.csv"],
        ids=["table", "log"],
    )
    def test_periodic_day_needs_a_periodic_source(self, tmp_path, source):
        # the log does not exist: the rule is decided before anything reads it
        (tmp_path / "days.csv").write_text("0,300,500\n1,300,500\n")
        p = _write(tmp_path, f"barrier.mode = periodic-day\n{source}\n")
        with pytest.raises(ConfigError, match="barrier.mode: periodic-day"):
            load_sim_config(p)

    @pytest.mark.parametrize(
        "lines",
        [
            "sim.dt = 86400\nsim.mission_length = 172800",
            "solar.source = file\nsolar.file = absent.csv\nsolar.periodic = true\n"
            "sim.dt = 86400\nsim.mission_length = 172800",
        ],
        ids=["day-step", "log"],
    )
    def test_periodic_day_needs_two_steps_per_period(self, tmp_path, lines):
        # the log does not exist: the rule is decided before anything reads it
        p = _write(tmp_path, f"barrier.mode = periodic-day\n{lines}\n")
        with pytest.raises(ConfigError, match="barrier.mode: periodic-day needs sim.dt"):
            load_sim_config(p)

    def test_downstream_validation_still_applies(self, tmp_path):
        p = _write(tmp_path, "sim.strategy = sail\n")
        with pytest.raises(ConfigError, match="sim.strategy"):
            load_sim_config(p)


class TestDayTable:
    def test_nan_row_names_file_and_line(self, tmp_path):
        table = tmp_path / "days.csv"
        table.write_text("# seasonal\n0,300,500\n1,nan,500\n")
        p = _write(tmp_path, "solar.table = days.csv\nbarrier.mode = horizon\n")
        with pytest.raises(ConfigError) as exc:
            load_sim_config(p)
        assert str(exc.value) == f"{table}: line 3: non-finite value in '1,nan,500'"

    def test_table_loads(self, tmp_path):
        (tmp_path / "days.csv").write_text("# seasonal\n0,100,50\n1,200,60\n")
        cfg = load_sim_config(
            _write(
                tmp_path,
                "solar.table = days.csv\nbarrier.mode = horizon\n"
                "sim.mission_length = 172800\n",
            )
        )
        assert cfg.solar.d0_by_day == (100.0, 200.0)
        assert cfg.solar.d1_by_day == (50.0, 60.0)

    def test_table_shorter_than_the_mission_is_a_load_problem(self, tmp_path):
        (tmp_path / "days.csv").write_text("0,300,500\n")
        p = _write(
            tmp_path,
            "solar.table = days.csv\nbarrier.mode = horizon\n"
            "sim.mission_length = 172800\nsim.noise_std = -1\n",
        )
        with pytest.raises(ConfigError) as exc:
            load_sim_config(p)
        message = str(exc.value)
        assert "solar.table: its days end at t=86400.0 s" in message
        assert "sim.mission_length (172800.0 s)" in message
        assert "sim.noise_std: must be >= 0" in message

    @pytest.mark.parametrize("dt", [360.0, 7000.0, 3600.0 / 7])
    def test_table_coverage_agrees_with_tabulation(self, dt):
        """A table config loads exactly when its profile covers the mission.

        With dt = 7000 the grid steps past t = 2 days: the profile ends at
        175000 s, so a 175000 s mission runs and a 182000 s one is refused.
        """
        source = IdealizedSource(d0_by_day=(300.0, 310.0), d1_by_day=(500.0, 490.0))
        end = source.profile(dt).end
        last = round(2 * DAY_S / dt)
        outcomes = set()
        for steps in range(last - 2, last + 3):
            kw = dict(
                mission_length=steps * dt, dt=dt, solar=source,
                strategy="constant-unconstrained", barrier_mode="horizon",
            )
            covered = end >= steps * dt
            if covered:
                tabulate_mission(SimConfig(**kw))
            else:
                with pytest.raises(ConfigError, match="solar.table: its days end"):
                    SimConfig(**kw)
            outcomes.add(covered)
        assert outcomes == {True, False}

    @pytest.mark.parametrize(
        "rows, fragment",
        [
            ("0,100\n", "expected 'day,d0,d1'"),
            ("0,100,abc\n", "non-numeric field"),
            ("1,100,50\n", "day indices must run 0,1,2"),
            ("0,100,50\n2,100,50\n", "day indices must run 0,1,2"),
            ("# nothing\n", "no data rows"),
        ],
    )
    def test_table_errors(self, tmp_path, rows, fragment):
        (tmp_path / "days.csv").write_text(rows)
        p = _write(tmp_path, "solar.table = days.csv\n")
        with pytest.raises(ConfigError, match=fragment):
            load_sim_config(p)


# ======================================================================
# Comparison configs
# ======================================================================


class TestLoadCompareConfigs:
    def test_one_config_per_strategy(self, tmp_path):
        p = _write(
            tmp_path,
            "sim.strategies = ilc, constant-unconstrained, mpc\n"
            "sim.mission_length = 86400\n",
        )
        cfgs = load_compare_configs(p)
        assert [c.strategy for c in cfgs] == [
            "ilc", "constant-unconstrained", "mpc",
        ]
        # shared settings propagate to every config
        assert all(c.mission_length == 86400.0 for c in cfgs)
        assert all(c.solar == cfgs[0].solar for c in cfgs)

    def test_requires_at_least_two(self, tmp_path):
        p = _write(tmp_path, "sim.strategies = ilc\n")
        with pytest.raises(ConfigError, match="at least\\s+two"):
            load_compare_configs(p)
        p2 = _write(tmp_path, "sim.dt = 360\n", "none.cfg")
        with pytest.raises(ConfigError, match="sim.strategies"):
            load_compare_configs(p2)

    def test_day_table_is_read_once(self, tmp_path, monkeypatch):
        calls = []
        original = config._load_day_table

        def counting(path):
            calls.append(path)
            return original(path)

        monkeypatch.setattr(config, "_load_day_table", counting)
        (tmp_path / "days.csv").write_text("0,300,500\n")
        p = _write(
            tmp_path,
            "sim.strategies = ilc, constant-unconstrained, mpc\n"
            "solar.table = days.csv\n"
            "sim.mission_length = 86400\n"
            "barrier.mode = horizon\n",
        )
        cfgs = load_compare_configs(p)
        assert len(cfgs) == 3 and len(calls) == 1

    def test_invalid_member_strategy(self, tmp_path):
        p = _write(tmp_path, "sim.strategies = ilc, sail\n")
        with pytest.raises(ConfigError, match="sim.strategies: 'sail' not one of"):
            load_compare_configs(p)

    def test_duplicate_strategy_rejected(self, tmp_path):
        p = _write(tmp_path, "sim.strategies = ilc, mpc, ilc\n")
        with pytest.raises(ConfigError, match="sim.strategies: 'ilc' listed twice"):
            load_compare_configs(p)

    def test_single_strategy_key_rejected(self, tmp_path):
        p = _write(tmp_path, "sim.strategy = mpc\nsim.strategies = ilc, mpc\n")
        with pytest.raises(ConfigError, match="sim.strategy: only read when"):
            load_compare_configs(p)

    def test_configs_built_for_the_listed_strategies_only(self, tmp_path):
        # sim.dt = 700 does not divide a day, which only ilc needs
        p = _write(
            tmp_path,
            "sim.strategies = constant-unconstrained, mpc\n"
            "sim.dt = 700\nsim.mission_length = 700000\nmpc.horizon = 168000\n",
        )
        cfgs = load_compare_configs(p)
        assert [c.strategy for c in cfgs] == ["constant-unconstrained", "mpc"]
        with pytest.raises(ConfigError, match="sim.dt: must divide 86400"):
            replace(cfgs[0], strategy="ilc")
