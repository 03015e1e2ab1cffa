"""Tests for the solarasv command-line interface."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from solarasv import benchmark, cli
from solarasv.cli import main
from solarasv.config import SimConfig
from solarasv.harness import compare_strategies, run_mission

FAST_RUN = """\
sim.strategy = constant-unconstrained
sim.mission_length = 86400
sim.dt = 360
sim.output_dir = out
"""

FAST_COMPARE = """\
sim.strategies = constant-unconstrained, constant-constrained
sim.mission_length = 86400
sim.dt = 360
sim.output_dir = out
"""


def _write(tmp_path, text: str, name: str = "mission.cfg") -> str:
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


class TestRunCommand:
    def test_run_writes_outputs_and_summary_line(self, tmp_path, capsys):
        cfg = _write(tmp_path, FAST_RUN)
        assert main(["run", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "strategy=constant-unconstrained" in out
        assert "distance_m=" in out and "terminal_soc_wh=" in out
        for name in ("trace.csv", "iterations.csv", "summary.csv", "daily.csv"):
            assert (tmp_path / "out" / name).is_file()
            assert f"wrote {tmp_path / 'out' / name}" in out

    def test_output_flag_overrides_config(self, tmp_path, capsys):
        cfg = _write(tmp_path, FAST_RUN)
        target = tmp_path / "elsewhere"
        assert main(["run", "--config", cfg, "--output", str(target)]) == 0
        assert (target / "trace.csv").is_file()
        assert not (tmp_path / "out").exists()

    def test_ilc_run_reports_iterations(self, tmp_path, capsys):
        cfg = _write(tmp_path, FAST_RUN.replace("constant-unconstrained", "ilc"))
        assert main(["run", "--config", cfg]) == 0
        iters = (tmp_path / "out" / "iterations.csv").read_text().splitlines()
        assert len(iters) == 2  # header + one completed day


class TestExampleConfigs:
    CONFIGS = Path(__file__).resolve().parents[1] / "configs"

    def test_power_log_example_runs(self, tmp_path, capsys):
        cfg = str(self.CONFIGS / "log.cfg")
        assert main(["run", "--config", cfg, "--output", str(tmp_path)]) == 0
        assert capsys.readouterr().out.startswith("strategy=ilc ")
        daily = (tmp_path / "daily.csv").read_text().splitlines()
        assert len(daily) == 1 + 14
        assert main(["barriers", "--config", cfg, "--output", str(tmp_path)]) == 0
        assert "mode=periodic-day" in capsys.readouterr().out

    def test_every_step_planner_example_runs_in_blocks(self, tmp_path, capsys, monkeypatch):
        """mpc.cfg re-plans at every step: one 480-plan sweep, bytes of one-plan sweeps."""
        cfg = str(self.CONFIGS / "mpc.cfg")
        assert main(["run", "--config", cfg, "--output", str(tmp_path / "block")]) == 0
        assert capsys.readouterr().out.startswith("strategy=mpc ")
        monkeypatch.setattr(benchmark, "_SWEEP_BYTES", 1)  # one row per sweep
        assert main(["run", "--config", cfg, "--output", str(tmp_path / "row")]) == 0
        trace = (tmp_path / "block" / "trace.csv").read_bytes()
        assert len(trace.splitlines()) == 1 + 480
        assert trace == (tmp_path / "row" / "trace.csv").read_bytes()

    def test_noisy_example_runs_and_repeats(self, tmp_path, capsys):
        cfg = str(self.CONFIGS / "noisy.cfg")
        traces = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["run", "--config", cfg, "--output", str(out)]) == 0
            traces.append((out / "trace.csv").read_bytes())
        assert traces[0] == traces[1]
        assert len(traces[0].splitlines()) == 1 + 7200
        iters = (tmp_path / "a" / "iterations.csv").read_text().splitlines()
        assert len(iters) == 1 + 30


class TestCompareCommand:
    def test_compare_prints_table_and_writes_files(self, tmp_path, capsys):
        cfg = _write(tmp_path, FAST_COMPARE)
        assert main(["compare", "--config", cfg]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0].startswith("strategy")
        assert "distance_m" in lines[0]
        assert lines[1].startswith("constant-unconstrained")
        assert lines[2].startswith("constant-constrained")
        assert (tmp_path / "out" / "comparison.csv").is_file()
        assert (tmp_path / "out" / "distance_series.csv").is_file()


class TestBarriersCommand:
    def test_barriers_writes_envelope(self, tmp_path, capsys):
        cfg = _write(tmp_path, FAST_RUN)
        assert main(["barriers", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "mode=periodic-day grid_points=240" in out
        env = (tmp_path / "out" / "envelope.csv").read_text().splitlines()
        assert env[0] == "time_s,b_l_wh,b_u_wh"
        assert len(env) == 241

    @pytest.mark.parametrize("command", ["run", "barriers"])
    def test_step_arange_rounds_onto_the_period(self, tmp_path, capsys, command):
        # np.arange(0, 86400, 86400 / 61) ends on t = 86400 itself
        text = FAST_RUN.replace("sim.dt = 360", f"sim.dt = {86400 / 61!r}")
        cfg = _write(tmp_path, text.replace("constant-unconstrained", "ilc"))
        assert main([command, "--config", cfg]) == 0
        if command == "barriers":
            assert "grid_points=61" in capsys.readouterr().out


class TestCompareFile:
    def test_run_rejects_a_compare_file(self, tmp_path, capsys):
        cfg = _write(tmp_path, FAST_COMPARE)
        assert main(["run", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "sim.strategies: only read when solarasv compare runs the file" in err
        assert not (tmp_path / "out").exists()

    def test_barriers_reads_a_compare_file(self, tmp_path, capsys):
        cfg = _write(tmp_path, FAST_COMPARE)
        assert main(["barriers", "--config", cfg]) == 0
        assert (tmp_path / "out" / "envelope.csv").is_file()

    def test_barriers_accepts_what_compare_accepts(self, tmp_path, capsys):
        # a dt that does not divide a day is rejected for the ilc strategy
        # only, and this file does not list it
        text = FAST_COMPARE.replace("sim.dt = 360", "sim.dt = 700").replace(
            "sim.mission_length = 86400", "sim.mission_length = 86100"
        )
        cfg = _write(tmp_path, text + "barrier.mode = periodic-day\n")
        assert main(["compare", "--config", cfg]) == 0
        assert main(["barriers", "--config", cfg]) == 0
        assert "grid_points=" in capsys.readouterr().out


class TestOneCheckPerConfig:
    """A SimConfig checks itself once, when built; nothing checks it again."""

    @pytest.fixture
    def checked(self, monkeypatch):
        """ids of the SimConfigs whose settings were checked, in call order."""
        seen = []
        original = SimConfig._problems

        def counting(cfg):
            seen.append(id(cfg))
            return original(cfg)

        monkeypatch.setattr(SimConfig, "_problems", counting)
        return seen

    def test_harness_checks_nothing(self, checked):
        cfgs = [
            SimConfig(mission_length=86400.0, strategy=s)
            for s in ("constant-unconstrained", "ilc")
        ]
        assert checked == [id(c) for c in cfgs]
        run_mission(cfgs[0])
        compare_strategies(cfgs)
        assert checked == [id(c) for c in cfgs]

    def test_run_checks_its_config_once(self, tmp_path, checked):
        assert main(["run", "--config", _write(tmp_path, FAST_RUN)]) == 0
        assert len(checked) == 1

    def test_compare_checks_each_config_once(self, tmp_path, checked, monkeypatch):
        loaded = []

        def loading(path):
            loaded.extend(load(path))
            return loaded

        load = cli.load_compare_configs
        monkeypatch.setattr(cli, "load_compare_configs", loading)
        cfg = _write(tmp_path, FAST_COMPARE.replace(",", ", ilc,"))
        assert main(["compare", "--config", cfg, "--output", str(tmp_path / "o")]) == 0
        assert len(loaded) == 3
        assert checked == [id(c) for c in loaded]


class TestErrorHandling:
    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "absent.cfg")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    # solar.period is no key: every periodic source repeats every day
    @pytest.mark.parametrize("line", ["sim.speed = 2", "solar.period = 43200"])
    def test_invalid_config_key(self, tmp_path, capsys, line):
        cfg = _write(tmp_path, f"{line}\n")
        assert main(["barriers", "--config", cfg]) == 2
        err = capsys.readouterr().err
        key = line.partition(" =")[0]
        assert "error:" in err and err.count(f"unknown key {key!r}") == 1

    def test_unparseable_value(self, tmp_path, capsys):
        cfg = _write(tmp_path, "sim.dt = quick\n")
        assert main(["compare", "--config", cfg]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_keys_of_every_section_exit_2_one_line_each(self, tmp_path, capsys):
        # the learner's range rules hold under ilc
        text = FAST_RUN.replace("constant-unconstrained", "ilc")
        text = text.replace("sim.dt = 360", "sim.dt = 0")
        cfg = _write(tmp_path, text + "vessel.k_m = -1\nmpc.soc_grid = 1\ncontroller.k_p = -1\n")
        assert main(["run", "--config", cfg]) == 2
        err = capsys.readouterr().err.splitlines()
        for line in (
            "vessel.k_m: must be > 0",
            "mpc.soc_grid: must be an integer >= 2, got 1",
            "controller.k_p: must be >= 0",
            "sim.dt: must be > 0",
        ):
            assert sum(line in e for e in err) == 1, (line, err)

    @pytest.mark.parametrize(
        "command, text, horizon",
        [
            ("run", FAST_RUN.replace("constant-unconstrained", "mpc"), 900),
            ("run", FAST_RUN.replace("constant-unconstrained", "mpc"), 1260),
            ("compare", FAST_COMPARE.replace("constant-constrained", "mpc"), 900),
        ],
        ids=["run-2.5-steps", "run-3.5-steps", "compare-2.5-steps"],
    )
    def test_mpc_horizon_off_the_step_grid(self, tmp_path, capsys, command, text, horizon):
        cfg = _write(tmp_path, text + f"mpc.horizon = {horizon}\n")
        assert main([command, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "mpc.horizon: must be a positive multiple of sim.dt" in err

    @pytest.mark.parametrize(
        "source",
        [
            "solar.table = days.csv",
            "solar.source = file\nsolar.file = log.csv",
            "solar.source = file\nsolar.file = absent.csv",
        ],
        ids=["table", "file", "absent-file"],
    )
    @pytest.mark.parametrize("command", ["run", "barriers"])
    def test_periodic_day_rejects_non_periodic_source(
        self, tmp_path, capsys, command, source
    ):
        (tmp_path / "days.csv").write_text("0,300,500\n1,300,500\n")
        (tmp_path / "log.csv").write_text("0,800\n172800,800\n")
        cfg = _write(
            tmp_path, FAST_RUN + f"barrier.mode = periodic-day\n{source}\n"
        )
        assert main([command, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "barrier.mode" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["run", "barriers"])
    def test_periodic_day_with_one_step_per_period(self, tmp_path, capsys, command):
        text = FAST_RUN.replace("sim.dt = 360", "sim.dt = 86400")
        cfg = _write(tmp_path, text + "barrier.mode = periodic-day\n")
        assert main([command, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "barrier.mode: periodic-day" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "line, key",
        [
            ("solar.interpolation = cubic", "solar.interpolation"),
            ("solar.periodic = flase", "solar.periodic"),
        ],
        ids=["interpolation", "periodic"],
    )
    @pytest.mark.parametrize("command", ["run", "compare", "barriers"])
    def test_bad_file_source_setting(self, tmp_path, capsys, command, line, key):
        (tmp_path / "log.csv").write_text("0,800\n172800,800\n")
        text = FAST_COMPARE if command == "compare" else FAST_RUN
        cfg = _write(
            tmp_path,
            text + f"barrier.mode = horizon\nsolar.source = file\n"
            f"solar.file = log.csv\n{line}\n",
        )
        assert main([command, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{key}:" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "compare", "barriers"])
    def test_setting_of_the_other_source(self, tmp_path, capsys, command):
        text = FAST_COMPARE if command == "compare" else FAST_RUN
        cfg = _write(tmp_path, text + "solar.scale = -3\n")
        assert main([command, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "solar.scale: only read when solar.source = file" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "barriers"])
    def test_periodic_log_of_a_whole_period(self, tmp_path, capsys, command):
        (tmp_path / "log.csv").write_text("0,800\n86400,800\n")
        cfg = _write(
            tmp_path,
            FAST_RUN + "barrier.mode = periodic-day\nsolar.source = file\n"
            "solar.file = log.csv\nsolar.periodic = true\n",
        )
        assert main([command, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: solar.periodic:")
        assert str(tmp_path / "log.csv") in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "barriers"])
    def test_day_table_shorter_than_the_mission(self, tmp_path, capsys, command):
        (tmp_path / "days.csv").write_text("0,300,500\n")
        text = FAST_RUN.replace("86400", "172800")
        cfg = _write(tmp_path, text + "barrier.mode = horizon\nsolar.table = days.csv\n")
        assert main([command, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid configuration:")
        assert "solar.table: its days end at t=86400.0 s" in err
        assert "sim.mission_length" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "log, spans",
        [
            ("0,300\n3600,300\n", "0.0..3600.0"),
            ("100,300\n86400,300\n", "100.0..86400.0"),
        ],
        ids=["ends-early", "starts-late"],
    )
    def test_log_that_does_not_cover_the_mission(self, tmp_path, capsys, log, spans):
        (tmp_path / "log.csv").write_text(log)
        source = "barrier.mode = horizon\nsolar.source = file\nsolar.file = log.csv\n"
        errors = []
        for command in ("run", "compare", "barriers"):
            text = FAST_COMPARE if command == "compare" else FAST_RUN
            cfg = _write(tmp_path, text + source, name=f"{command}.cfg")
            assert main([command, "--config", cfg]) == 2, command
            errors.append(capsys.readouterr().err)
        assert errors[0] == (
            f"error: solar source does not cover the mission (data spans t={spans}, "
            "mission spans t=0..86400.0)\n"
        )
        assert errors == [errors[0]] * 3
        assert not (tmp_path / "out").exists()

    def test_day_table_as_long_as_the_mission_runs(self, tmp_path, capsys):
        (tmp_path / "days.csv").write_text("0,300,500\n1,320,480\n")
        text = FAST_RUN.replace("86400", "172800")
        cfg = _write(tmp_path, text + "barrier.mode = horizon\nsolar.table = days.csv\n")
        assert main(["run", "--config", cfg]) == 0

    def test_missing_subcommand_exits_via_argparse(self, capsys):
        with pytest.raises(SystemExit):
            main([])


class TestClosedStdout:
    """Without a stdout to print to, a command still writes its files and exits 0.

    A reader that stops early (head, a pager) leaves a pipe whose writes fail
    with EPIPE; a process started with fd 1 closed has no sys.stdout at all.
    """

    FILES = {
        "run": ("trace.csv", "iterations.csv", "summary.csv", "daily.csv"),
        "compare": ("comparison.csv", "distance_series.csv"),
        "barriers": ("envelope.csv",),
    }

    @pytest.mark.parametrize("stdout", ["unbuffered-pipe", "buffered-pipe", "no-fd"])
    @pytest.mark.parametrize("command", ["run", "compare", "barriers"])
    def test_files_written_and_exit_0(self, tmp_path, command, stdout):
        cfg = _write(tmp_path, FAST_COMPARE if command == "compare" else FAST_RUN)
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        unbuffered = "1" if stdout == "unbuffered-pipe" else ""
        env = dict(os.environ, PYTHONPATH=path, PYTHONUNBUFFERED=unbuffered)
        argv = [sys.executable, "-m", "solarasv.cli", command, "--config", cfg]
        if stdout == "no-fd":
            # started without fd 1, Python sets sys.stdout to None
            argv = ["sh", "-c", 'exec "$@" >&-', "sh", *argv]
        read, write = os.pipe()
        os.close(read)  # every write to stdout fails with EPIPE
        try:
            proc = subprocess.run(
                argv, stdout=write, stderr=subprocess.PIPE, env=env, cwd=tmp_path,
                timeout=300,
            )
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr.decode()) == (0, "")
        for name in self.FILES[command]:
            assert (tmp_path / "out" / name).stat().st_size > 0, name
