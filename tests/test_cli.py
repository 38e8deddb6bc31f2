"""The command-line surface: flags, echoed configuration, dispatch.

The surface table below was recorded from the parser before the option
and command tables replaced the hand-written one, so any change to a
flag, its destination, required-ness, choices or action shows here.
"""

import argparse
import contextlib
import inspect
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from homeactivity import ambient, cli, fusion, labelling, occupancy, pipeline, simulate

# command -> {option strings: (dest, required, choices, store_const)}
SURFACE = {
    "simulate": {
        ("--script",): ("script", True, None, False),
        ("--out",): ("out", True, None, False),
        ("--config",): ("config", False, None, False),
        ("--days",): ("days", False, None, False),
        ("--start-day-ms",): ("start_day_ms", False, None, False),
        ("--sigma",): ("sigma", False, None, False),
        ("--dropout",): ("dropout", False, None, False),
        ("--seed",): ("seed", False, None, False),
        ("--rules",): ("rules", False, None, False),
        ("--tick-ms",): ("tick_ms", False, None, False),
        ("--subject",): ("subject", False, None, False),
    },
    "filter": {
        ("--in",): ("in_path", True, None, False),
        ("--out",): ("out", True, None, False),
        ("--config",): ("config", False, None, False),
        ("--order",): ("order", False, None, False),
        ("--cutoff-hz",): ("cutoff_hz", False, None, False),
        ("--max-gap-ms",): ("max_gap_ms", False, None, False),
    },
    "segment": {
        ("--in",): ("in_path", True, None, False),
        ("--out",): ("out", True, None, False),
        ("--config",): ("config", False, None, False),
        ("--window-len",): ("window_len", False, None, False),
        ("--overlap",): ("overlap", False, None, False),
    },
    "features": {
        ("--in",): ("in_path", True, None, False),
        ("--out",): ("out", True, None, False),
        ("--gyro",): ("gyro", False, None, True),
        ("--config",): ("config", False, None, False),
        ("--window-len",): ("window_len", False, None, False),
        ("--overlap",): ("overlap", False, None, False),
    },
    "classify": {
        ("--in",): ("in_path", True, None, False),
        ("--out",): ("out", True, None, False),
        ("--probs",): ("probs", False, None, False),
        ("--config",): ("config", False, None, False),
        ("--model",): ("model", False, None, False),
        ("--overlap",): ("overlap", False, None, False),
    },
    "occupancy": {
        ("--events",): ("events", True, None, False),
        ("--out",): ("out", True, None, False),
        ("--config",): ("config", False, None, False),
        ("--timeout-ms",): ("timeout_ms", False, None, False),
    },
    "fuse": {
        ("--windows",): ("windows", True, None, False),
        ("--intervals",): ("intervals", True, None, False),
        ("--out",): ("out", True, None, False),
        ("--config",): ("config", False, None, False),
        ("--rules",): ("rules", False, None, False),
        ("--tick-ms",): ("tick_ms", False, None, False),
        ("--min-still-ms",): ("min_still_ms", False, None, False),
    },
    "label": {
        ("--in",): ("in_path", True, None, False),
        ("--out",): ("out", True, None, False),
        ("--config",): ("config", False, None, False),
        ("--span",): ("span", False, None, False),
        ("--priorities",): ("priorities", False, None, False),
    },
    "profile": {
        ("--in",): ("in_path", True, None, False),
        ("--out",): ("out", True, None, False),
        ("--config",): ("config", False, None, False),
        ("--timezone",): ("timezone", False, None, False),
    },
    "report": {
        ("--in",): ("in_path", True, None, False),
        ("--out",): ("out", True, None, False),
        ("--format",): ("format", False, ("json", "csv"), False),
        ("--config",): ("config", False, None, False),
        ("--timezone",): ("timezone", False, None, False),
    },
    "pipeline": {
        ("--script",): ("script", False, None, False),
        ("--inertial",): ("inertial", False, None, False),
        ("--events",): ("events", False, None, False),
        ("--out",): ("out", True, None, False),
        ("--config",): ("config", False, None, False),
        ("--days",): ("days", False, None, False),
        ("--start-day-ms",): ("start_day_ms", False, None, False),
        ("--sigma",): ("sigma", False, None, False),
        ("--dropout",): ("dropout", False, None, False),
        ("--seed",): ("seed", False, None, False),
        ("--rules",): ("rules", False, None, False),
        ("--priorities",): ("priorities", False, None, False),
        ("--model",): ("model", False, None, False),
        ("--order",): ("order", False, None, False),
        ("--cutoff-hz",): ("cutoff_hz", False, None, False),
        ("--max-gap-ms",): ("max_gap_ms", False, None, False),
        ("--window-len",): ("window_len", False, None, False),
        ("--overlap",): ("overlap", False, None, False),
        ("--span",): ("span", False, None, False),
        ("--tick-ms",): ("tick_ms", False, None, False),
        ("--min-still-ms",): ("min_still_ms", False, None, False),
        ("--timezone",): ("timezone", False, None, False),
        ("--subject",): ("subject", False, None, False),
        ("--timeout-ms",): ("timeout_ms", False, None, False),
    },
}

# Keys of the `config:` line each command echoes, besides "command".
ECHOED = {
    "simulate": {"days", "start_day_ms", "sigma", "dropout", "seed", "rules",
                 "tick_ms", "subject"},
    "filter": {"order", "cutoff_hz", "max_gap_ms"},
    "segment": {"window_len", "overlap"},
    "features": {"window_len", "overlap", "gyro"},
    "classify": {"model", "overlap", "probs"},
    "occupancy": {"timeout_ms"},
    "fuse": {"rules", "tick_ms", "min_still_ms"},
    "label": {"span", "priorities"},
    "profile": {"timezone"},
    "report": {"timezone", "format"},
    "pipeline": {"script", "inertial", "events", "days", "start_day_ms", "sigma",
                 "dropout", "seed", "rules", "priorities", "model", "order",
                 "cutoff_hz", "max_gap_ms", "window_len",
                 "overlap", "span", "tick_ms", "min_still_ms", "timezone",
                 "subject", "timeout_ms"},
}

STAGES = ("simulate", "filter", "segment", "features", "classify", "occupancy",
          "fuse", "label", "profile", "report")


def subparsers(parser=None) -> dict:
    parser = parser or cli.build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def required_argv(command: str, where) -> list:
    """The command's required flags, each pointing at an absent file."""
    argv = [command]
    for options, (_dest, required, _choices, _const) in SURFACE[command].items():
        if required:
            argv += [options[0], str(where / options[0].lstrip("-"))]
    return argv


def echoed_config(stderr: str) -> dict:
    line = next(l for l in stderr.splitlines() if l.startswith("config: "))
    return json.loads(line[len("config: "):])


def error_line(stderr: str) -> str:
    """The one `error:` line of a failed command; no traceback."""
    lines = [l for l in stderr.splitlines() if not l.startswith("config: ")]
    assert len(lines) == 1 and lines[0].startswith("error: "), stderr
    return lines[0]


class TestSurface:
    def test_subcommands(self):
        assert sorted(subparsers()) == sorted(SURFACE)

    @pytest.mark.parametrize("command", sorted(SURFACE))
    def test_flags(self, command):
        got = {
            tuple(a.option_strings): (
                a.dest, a.required,
                None if a.choices is None else tuple(a.choices),
                isinstance(a, argparse._StoreConstAction),
            )
            for a in subparsers()[command]._actions
            if not isinstance(a, argparse._HelpAction)
        }
        assert got == SURFACE[command]

    @pytest.mark.parametrize("command", sorted(SURFACE))
    def test_echoed_config_keys(self, command, tmp_path, capsys):
        cli.main(required_argv(command, tmp_path))
        eff = echoed_config(capsys.readouterr().err)
        assert eff.pop("command") == command
        assert set(eff) == ECHOED[command]


class TestOneSubparser:
    """A command builds its own subparser only; what argparse prints does not move."""

    @pytest.mark.parametrize("command", sorted(SURFACE))
    def test_only_the_named_command_is_built(self, command):
        alone = subparsers(cli.build_parser(command))
        assert list(alone) == [command]
        assert alone[command].format_help() == subparsers()[command].format_help()

    def test_usage_still_lists_every_command(self):
        assert cli.build_parser("fuse").format_usage() == cli.build_parser().format_usage()

    def test_main_builds_the_invoked_command_alone(self, monkeypatch, tmp_path):
        built = []

        def build(only=None, _real=cli.build_parser):
            built.append(only)
            return _real(only)

        monkeypatch.setattr(cli, "build_parser", build)
        cli.main(required_argv("profile", tmp_path))
        with pytest.raises(SystemExit):
            cli.main(["--help"])
        assert built == ["profile", None]

    def test_unknown_command_lists_every_choice(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["fusee"])
        choices = ", ".join(repr(name) for name in SURFACE)
        assert f"invalid choice: 'fusee' (choose from {choices})" in capsys.readouterr().err


def child_env() -> dict:
    """The environment of a fresh interpreter that imports this package."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def write_context_inputs(where):
    """An event log and a classified-window table for the context commands."""
    events, windows = where / "events.ndjson", where / "windows.csv"
    ambient.write_events(events, [
        ambient.AmbientEvent(0, "pir", "Hall", True),
        ambient.AmbientEvent(2_000, "relay", "tv", True),
        ambient.AmbientEvent(9_000, "relay", "tv", False),
        ambient.AmbientEvent(9_600, "pir", "Hall", False),
    ])
    pipeline.write_basic_windows(windows, [(0, 6400, "Sit"), (3200, 9600, "Sit")])
    return events, windows


def test_no_command_imports_scipy(tmp_path):
    """SciPy is a test oracle only: no command loads any of it, stairs and filter included."""
    script = tmp_path / "script.csv"
    simulate.write_script(script, [
        simulate.ScheduleEntry(21_600_000, 60_000, "Stairs", "StairUp"),
        simulate.ScheduleEntry(21_660_000, 60_000, "Stairs", "StairDown"),
    ])
    events, windows = write_context_inputs(tmp_path)
    intervals, derived = tmp_path / "intervals.csv", tmp_path / "derived.csv"
    sim, run = tmp_path / "sim", tmp_path / "run"
    runs = [["occupancy", "--events", str(events), "--out", str(intervals)],
            ["fuse", "--windows", str(windows), "--intervals", str(intervals),
             "--out", str(derived)],
            ["simulate", "--script", str(script), "--out", str(sim)],
            ["filter", "--in", str(sim / "inertial.csv"), "--out", str(sim / "filtered.csv")],
            ["pipeline", "--script", str(script), "--out", str(run)]]
    code = (
        "import sys\n"
        "from homeactivity import cli\n"
        "loaded = ['scipy' in sys.modules]\n"
        f"for argv in {runs!r}:\n"
        "    assert cli.main(argv) == 0\n"
        "    loaded.append('scipy' in sys.modules)\n"
        "print(loaded)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=child_env(), timeout=120, check=False)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == str([False] * (len(runs) + 1))
    assert len(fusion.read_derived(derived)) == 2
    assert (sim / "filtered.csv").stat().st_size > 0
    assert (run / "report.json").exists()


NUMERIC = ("numpy", "homeactivity.timeseries", "homeactivity.features", "homeactivity.neural",
           "homeactivity.simulate")


def test_no_context_command_imports_numpy(tmp_path):
    """Importing the package alone loads none of its modules; importing the
    CLI, and running each context command through cli.main, loads neither
    NumPy nor a module that needs it."""
    events, windows = write_context_inputs(tmp_path)
    intervals, derived, labels = (tmp_path / name for name in
                                  ("intervals.csv", "derived.csv", "labels.csv"))
    runs = [["occupancy", "--events", str(events), "--out", str(intervals)],
            ["fuse", "--windows", str(windows), "--intervals", str(intervals),
             "--out", str(derived)],
            ["label", "--in", str(derived), "--out", str(labels)],
            ["profile", "--in", str(labels), "--out", str(tmp_path / "report.json")],
            ["report", "--in", str(labels), "--out", str(tmp_path / "report.csv"),
             "--format", "csv"]]
    code = (
        "import sys\n"
        f"numeric = {NUMERIC!r}\n"
        "def loaded():\n"
        "    return [name for name in numeric if name in sys.modules]\n"
        "import homeactivity\n"
        "seen = [loaded() + [m for m in sys.modules if m.startswith('homeactivity.')]]\n"
        "from homeactivity import cli\n"
        "seen.append(loaded())\n"
        f"for argv in {runs!r}:\n"
        "    assert cli.main(argv) == 0, argv\n"
        "    seen.append(loaded())\n"
        "print(seen)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=child_env(), timeout=120, check=False)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == str([[]] * (len(runs) + 2))
    assert (tmp_path / "report.json").exists() and (tmp_path / "report.csv").exists()


class TestTickMs:
    """A tick below 1 ms is one error line. Each command runs in a child,
    since a grid that never advances loops without end."""

    @pytest.fixture
    def inputs(self, tmp_path):
        script = tmp_path / "script.csv"
        simulate.write_script(script, [
            simulate.ScheduleEntry(21_600_000, 60_000, "Hall", "Sit")])
        windows, intervals = tmp_path / "windows.csv", tmp_path / "intervals.csv"
        pipeline.write_basic_windows(windows, [(0, 6400, "Sit"), (3200, 9600, "Sit")])
        occupancy.write_intervals(intervals, [])
        return script, windows, intervals

    @pytest.mark.parametrize("tick", [0, -5])
    def test_fuse(self, tick, inputs, cli_child, tmp_path):
        _script, windows, intervals = inputs
        code, err = cli_child("fuse", "--windows", windows, "--intervals", intervals,
                              "--out", tmp_path / "derived.csv", "--tick-ms", tick)
        assert code == 1
        assert error_line(err) == f"error: tick_ms must be positive, got {tick}"

    @pytest.mark.parametrize("command", ["simulate", "pipeline"])
    def test_simulating_commands(self, command, inputs, cli_child, tmp_path):
        code, err = cli_child(command, "--script", inputs[0], "--out", tmp_path / "run",
                              "--tick-ms", 0)
        assert code == 1
        assert error_line(err) == "error: tick_ms must be positive, got 0"



class TestMinStillMs:
    """A negative stillness threshold is one error line, raised before
    any stage runs."""

    def test_fuse(self, tmp_path, capsys):
        windows, intervals = tmp_path / "windows.csv", tmp_path / "intervals.csv"
        pipeline.write_basic_windows(windows, [(0, 6400, "Lie"), (3200, 9600, "Lie")])
        occupancy.write_intervals(intervals, [])
        derived = tmp_path / "derived.csv"
        argv = ["fuse", "--windows", str(windows), "--intervals", str(intervals),
                "--out", str(derived), "--min-still-ms", "-1"]
        assert cli.main(argv) == 1
        assert error_line(capsys.readouterr().err) == (
            "error: min_still_ms must not be negative, got -1")
        assert not derived.exists()

    def test_pipeline_writes_no_file(self, tmp_path, capsys):
        script = tmp_path / "script.csv"
        simulate.write_script(script, [simulate.ScheduleEntry(21_600_000, 60_000, "Hall", "Lie")])
        run = tmp_path / "run"
        config = write_config(tmp_path, {"min_still_ms": -1})
        argv = ["pipeline", "--script", str(script), "--out", str(run), "--config", config]
        assert cli.main(argv) == 1
        assert error_line(capsys.readouterr().err) == (
            "error: min_still_ms must not be negative, got -1")
        assert not run.exists()


class TestNonFiniteSigma:
    """A NaN or infinite --sigma is refused as the option, before --out is made."""

    @pytest.mark.parametrize("command, sigma", [("simulate", "nan"), ("pipeline", "inf")])
    def test_refused_before_any_file_is_refused_before_any_file(self, command, sigma, tmp_path, capsys):
        script = tmp_path / "script.csv"
        simulate.write_script(script, [simulate.ScheduleEntry(21_600_000, 60_000, "Hall", "Lie")])
        run = tmp_path / "run"
        argv = [command, "--script", str(script), "--out", str(run), "--sigma", sigma]
        assert cli.main(argv) == 1
        assert error_line(capsys.readouterr().err).startswith(
            "error: gaussian_sigma must be three finite values >= 0, got")
        assert not run.exists()


class TestNegativeSeed:
    """A negative --seed is refused as the option, before --out is made and
    before `pipeline` forks its calibrator."""

    @pytest.mark.parametrize("command", ["simulate", "pipeline"])
    def test_refused_before_any_file(self, command, tmp_path, capsys, monkeypatch):
        def no_fork():
            raise AssertionError("forked before the seed was checked")

        monkeypatch.setattr(os, "fork", no_fork)
        script = tmp_path / "script.csv"
        simulate.write_script(script, [simulate.ScheduleEntry(21_600_000, 60_000, "Hall", "Lie")])
        run = tmp_path / "run"
        argv = [command, "--script", str(script), "--out", str(run), "--seed", "-1"]
        assert cli.main(argv) == 1
        assert error_line(capsys.readouterr().err) == "error: seed must not be negative, got -1"
        assert not run.exists()


def open_fds():
    """The descriptors this process holds, where the system lists them."""
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


def children(pid: int) -> list[int]:
    """The processes whose parent is `pid`, from /proc."""
    found = []
    for entry in filter(str.isdigit, os.listdir("/proc")):
        with contextlib.suppress(OSError):  # it ended meanwhile
            stat = Path("/proc", entry, "stat").read_text()
            if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
                found.append(int(entry))
    return found


def alive(pid: int) -> bool:
    """Whether process `pid` exists (a zombie counts)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def assert_nothing_left(fds):
    """No child process is left, and the descriptors are those held before."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert open_fds() == fds


@pytest.fixture
def fds():
    """The descriptors held as the test begins."""
    return open_fds()


class TestCalibrator:
    """`pipeline` without --model calibrates in one forked child, which it
    joins before classify, or kills and reaps when the run fails first."""

    @staticmethod
    def short_script(where, entries=((21_600_000, 60_000, "Hall", "Lie"),)):
        script = where / "script.csv"
        simulate.write_script(script, [simulate.ScheduleEntry(*e) for e in entries])
        return script

    def test_a_calibrator_that_raises_gives_one_error_line(self, tmp_path, capsys,
                                                           monkeypatch, fds):
        def broken(*args):
            raise ValueError("calibration broke")

        monkeypatch.setattr(simulate, "calibrate_centroids", broken)
        run = tmp_path / "run"
        argv = ["pipeline", "--script", str(self.short_script(tmp_path)), "--out", str(run)]
        assert cli.main(argv) == 1
        assert error_line(capsys.readouterr().err) == "error: calibration broke"
        assert (run / "features.csv").exists() and not (run / "centroids.json").exists()
        assert_nothing_left(fds)

    def test_a_script_refused_before_the_fork_leaves_no_child(self, tmp_path, capsys,
                                                              monkeypatch, fds):
        def no_fork():
            raise AssertionError("forked before the script was refused")

        monkeypatch.setattr(os, "fork", no_fork)
        script = self.short_script(tmp_path, [
            (3_600_000, 60_000, "Hall", "Sit"),
            (simulate.MS_PER_DAY - 60_000, 7_200_000, "Hall", "Walk")])
        run = tmp_path / "run"
        argv = ["pipeline", "--script", str(script), "--out", str(run), "--days", "2"]
        assert cli.main(argv) == 1
        assert "entries overlap" in error_line(capsys.readouterr().err)
        assert not run.exists()
        assert_nothing_left(fds)

    def test_a_log_whose_filter_overflows_leaves_no_child(self, tmp_path, capsys, fds):
        log = tmp_path / "log.csv"
        TestFilterOverflow.write_log(log, np.r_[np.zeros(10), np.full(30, 1.7e308)])
        argv = ["pipeline", "--inertial", str(log), "--events", str(tmp_path / "events.ndjson"),
                "--out", str(tmp_path / "run")]
        assert cli.main(argv) == 1
        assert "non-finite sample value" in error_line(capsys.readouterr().err)
        assert_nothing_left(fds)

    def test_a_run_with_a_model_never_forks(self, tmp_path, monkeypatch, quiet_model):
        from homeactivity import neural

        def no_fork():
            raise AssertionError("pipeline --model forked")

        monkeypatch.setattr(os, "fork", no_fork)
        model = tmp_path / "model.json"
        neural.save_centroids(model, quiet_model)
        run = tmp_path / "run"
        argv = ["pipeline", "--script", str(self.short_script(tmp_path)), "--out", str(run),
                "--model", str(model)]
        assert cli.main(argv) == 0
        assert (run / "report.json").exists() and not (run / "centroids.json").exists()

    def test_without_fork_calibration_runs_in_process_with_the_same_bytes(
            self, tmp_path, monkeypatch, fds):
        script = self.short_script(tmp_path)
        forked, alone = tmp_path / "forked", tmp_path / "alone"
        argv = ["pipeline", "--script", str(script), "--sigma", "0.3", "--seed", "4"]
        assert cli.main([*argv, "--out", str(forked)]) == 0
        assert_nothing_left(fds)
        monkeypatch.delattr(os, "fork")
        assert cli.main([*argv, "--out", str(alone)]) == 0
        names = sorted(p.name for p in forked.iterdir())
        assert "centroids.json" in names and names == sorted(p.name for p in alone.iterdir())
        for name in names:
            assert (forked / name).read_bytes() == (alone / name).read_bytes(), name

    def test_any_other_exception_carries_the_childs_traceback(self, monkeypatch, fds):
        def broken(*args):
            raise KeyError("no such class")

        monkeypatch.setattr(simulate, "calibrate_centroids", broken)
        with simulate.Calibration(simulate.QUIET) as calibration:
            with pytest.raises(RuntimeError, match="(?s)in its child process.*KeyError"):
                calibration.join()
        assert_nothing_left(fds)

    def test_a_child_that_dies_without_a_model_is_an_error(self, monkeypatch, fds):
        monkeypatch.setattr(simulate, "calibrate_centroids", lambda *args: os._exit(3))
        with simulate.Calibration(simulate.QUIET) as calibration:
            with pytest.raises(ValueError, match="ended without a model"):
                calibration.join()
        assert_nothing_left(fds)

    @pytest.mark.skipif(not (hasattr(os, "fork") and os.path.isdir("/proc/self/task")),
                        reason="needs os.fork and /proc")
    def test_sigterm_ends_the_run_and_its_child(self, tmp_path):
        """A `pipeline` ended by SIGTERM while its calibrator runs kills
        and reaps the child, then dies of the signal."""
        script = self.short_script(tmp_path, [(21_600_000, 240_000, "Hall", "Walk")])
        run = tmp_path / "run"
        argv = ["pipeline", "--script", str(script), "--out", str(run), "--window-len", "2048"]
        parent = subprocess.Popen([sys.executable, "-m", "homeactivity.cli", *argv],
                                  env=child_env(), stderr=subprocess.DEVNULL)
        child = None
        try:
            deadline = time.monotonic() + 30
            while not (child and (run / "inertial.csv").exists()):
                assert parent.poll() is None and time.monotonic() < deadline
                child = next(iter(children(parent.pid)), None)
                time.sleep(0.01)
            assert child in children(parent.pid)  # still calibrating
            parent.send_signal(signal.SIGTERM)
            assert parent.wait(timeout=10) == -signal.SIGTERM
            deadline = time.monotonic() + 3
            while alive(child) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not alive(child)
        finally:
            parent.kill()
            parent.wait()
            if child and alive(child):
                os.kill(child, signal.SIGKILL)


class TestRefusedOptions:
    """An option out of its range is one error line, raised by the function
    that owns its rule before --out is made and before `pipeline` forks
    its calibrator."""

    SUBJECT = ("subject id 'a,b' cannot be logged: it holds a comma or a line break, "
               "or starts with whitespace")
    REFUSED = {
        "pipeline --window-len 0": "window_len must be positive, got 0",
        "pipeline --overlap 1": "overlap_frac must lie in [0, 1), got 1.0",
        "pipeline --span 3": "span must be one of (2, 5, 10), got 3",
        "pipeline --max-gap-ms 0": "max_gap_ms must be at least the sample period, 50 ms, got 0",
        "pipeline --max-gap-ms 49": (
            "max_gap_ms must be at least the sample period, 50 ms, got 49"),
        "pipeline --timeout-ms 0": "timeout_ms must be positive, got 0",
        "pipeline --tick-ms 0": "tick_ms must be positive, got 0",
        "simulate --tick-ms 0": "tick_ms must be positive, got 0",
        "pipeline --days 0": "days must be positive, got 0",
        "pipeline --start-day-ms 9223372036854775000": (
            "start_day_ms 9223372036854775000: the script's 1 day(s) run "
            "9223372036876375000..9223372036876435000 ms, outside the int64 clock"),
        "pipeline --subject a,b": SUBJECT,
        "simulate --subject a,b": SUBJECT,
    }

    @pytest.mark.parametrize("args", REFUSED)
    def test_refused_before_any_file_or_fork(self, args, tmp_path, capsys, monkeypatch, fds):
        def no_fork():
            raise AssertionError(f"forked before `{args}` was refused")

        monkeypatch.setattr(os, "fork", no_fork)
        command, *option = args.split()
        run = tmp_path / "run"
        argv = [command, "--script", str(TestCalibrator.short_script(tmp_path)),
                "--out", str(run), *option]
        assert cli.main(argv) == 1
        assert error_line(capsys.readouterr().err) == f"error: {self.REFUSED[args]}"
        assert not run.exists()
        assert_nothing_left(fds)

    def test_filter_refuses_a_gap_below_one_period_before_writing(self, tmp_path, capsys):
        """Every step of a log is then a gap: each sample was once its own
        stretch, filtered as itself."""
        log, out = tmp_path / "log.csv", tmp_path / "filtered.csv"
        log.write_text("s,,0,1,2,3;\ns,,50,1,2,3;\n", encoding="utf-8")
        assert cli.main(["filter", "--in", str(log), "--out", str(out),
                         "--max-gap-ms", "49"]) == 1
        assert error_line(capsys.readouterr().err) == (
            "error: max_gap_ms must be at least the sample period, 50 ms, got 49")
        assert not out.exists()


class TestLayoutMismatch:
    def test_names_the_line_of_the_layout_marker(self, tmp_path, capsys, quiet_model):
        from homeactivity import features, neural

        path, model = tmp_path / "features.csv", tmp_path / "model.json"
        features.write_features(path, np.zeros((1, 49)), [(0, 6400)], "accgyro49.v1")
        neural.save_centroids(model, quiet_model)
        argv = ["classify", "--in", str(path), "--model", str(model),
                "--out", str(tmp_path / "windows.csv")]
        assert cli.main(argv) == 1
        assert error_line(capsys.readouterr().err) == (
            f"error: {path}: line 2: expected layout acc43.v1, file has accgyro49.v1")

    def test_pipeline_names_the_marker_of_the_features_it_handed_on(self, tmp_path, capsys,
                                                                     quiet_model):
        from homeactivity import neural

        model, run = tmp_path / "model.json", tmp_path / "run"
        neural.save_centroids(model, neural.CentroidModel(
            quiet_model.class_names, np.zeros((len(quiet_model.class_names), 49)),
            "accgyro49.v1", np.ones(49)))
        argv = ["pipeline", "--script", str(TestCalibrator.short_script(tmp_path)),
                "--out", str(run), "--model", str(model)]
        assert cli.main(argv) == 1
        assert error_line(capsys.readouterr().err) == (
            f"error: {run / 'features.csv'}: line 2: expected layout accgyro49.v1, "
            "file has acc43.v1")


class TestStartDay:
    """--start-day-ms places the simulated days on the epoch clock."""

    LAST = 2**63 - 1 - 21_660_000  # the 1-minute entry at 06:00 ends at 2^63 - 1 ms

    @pytest.mark.parametrize("command", ["simulate", "pipeline"])
    def test_days_past_the_int64_clock_are_refused_before_any_file(self, command, tmp_path,
                                                                    capsys, fds):
        run = tmp_path / "run"
        argv = [command, "--script", str(TestCalibrator.short_script(tmp_path)),
                "--out", str(run), "--start-day-ms", "9223372036854775000"]
        assert cli.main(argv) == 1
        assert error_line(capsys.readouterr().err) == (
            "error: start_day_ms 9223372036854775000: the script's 1 day(s) run "
            "9223372036876375000..9223372036876435000 ms, outside the int64 clock")
        assert not run.exists()
        assert_nothing_left(fds)

    def test_days_that_end_at_the_last_millisecond_are_simulated(self, tmp_path, capsys):
        script, run = TestCalibrator.short_script(tmp_path), tmp_path / "run"
        argv = ["simulate", "--script", str(script), "--out", str(run), "--start-day-ms"]
        assert cli.main([*argv, str(self.LAST)]) == 0
        assert (run / "inertial.csv").read_text().endswith(
            f"sim,,{2**63 - 1 - 50},9.810000,0.300000,0.300000;\n")
        assert cli.main([*argv, str(self.LAST + 1)]) == 1
        assert "outside the int64 clock" in error_line(capsys.readouterr().err)

    def test_days_that_begin_a_minute_before_midnight_are_profiled(self, tmp_path,
                                                                   quiet_model):
        """The first tick falls at 23:59:05 UTC, so labelling's first window
        ends at midnight and each of the two days spans two dates."""
        from homeactivity import neural

        model = tmp_path / "model.json"
        neural.save_centroids(model, quiet_model)
        script = TestCalibrator.short_script(
            tmp_path, [(simulate.MS_PER_DAY - 55_000, 600_000, "Hall", "Sit")])
        run = tmp_path / "run"
        argv = ["pipeline", "--script", str(script), "--out", str(run), "--days", "2",
                "--model", str(model)]
        assert cli.main(argv) == 0
        report = json.loads((run / "report.json").read_text())
        assert [d["day"] for d in report["days"]] == ["1970-01-01", "1970-01-02", "1970-01-03"]


class TestRateAndWindowComeFromTheInput:
    """The filter is designed for the one sample rate of every log and a
    bundle classifies windows of its own length: neither is an option."""

    @pytest.mark.parametrize("command, flag", [("filter", "--sample-rate-hz"),
                                               ("pipeline", "--sample-rate-hz"),
                                               ("classify", "--window-len")])
    def test_flag_is_refused(self, command, flag, tmp_path, capsys):
        with pytest.raises(SystemExit) as refused:
            cli.main(required_argv(command, tmp_path) + [flag, "20"])
        assert refused.value.code == 2
        assert f"unrecognized arguments: {flag} 20" in capsys.readouterr().err

    def test_sample_rate_is_an_unknown_config_key(self, tmp_path, capsys):
        config = write_config(tmp_path, {"sample_rate_hz": 20.0})
        assert cli.main(required_argv("filter", tmp_path) + ["--config", config]) == 1
        assert error_line(capsys.readouterr().err) == (
            f"error: {config}: unknown config keys ['sample_rate_hz']")

    def test_pipeline_refuses_a_cutoff_at_nyquist_before_any_file(self, tmp_path, capsys):
        script = tmp_path / "script.csv"
        simulate.write_script(script, [simulate.ScheduleEntry(21_600_000, 60_000, "Hall", "Sit")])
        run = tmp_path / "run"
        argv = ["pipeline", "--script", str(script), "--out", str(run), "--cutoff-hz", "10"]
        assert cli.main(argv) == 1
        assert error_line(capsys.readouterr().err) == (
            "error: invalid cutoff: 10.0 Hz must lie in (0, 10.0) Hz")
        assert not run.exists()


class TestFilterOverflow:
    """A finite log whose repaired or filtered values overflow names the
    first input line at or after the first non-finite value."""

    @staticmethod
    def write_log(path, values, skip=()):
        with open(path, "w", encoding="utf-8") as fh:
            for i, v in enumerate(values):
                if i not in skip:
                    fh.write(f"s,,{50 * i},{v:.6f},0.000000,0.000000;\n")

    def test_filtered_values(self, tmp_path, capsys):
        from scipy import signal

        x = np.r_[np.zeros(10), np.full(30, 1.7e308)]
        log, out = tmp_path / "log.csv", tmp_path / "filtered.csv"
        self.write_log(log, x)
        b, a = signal.butter(3, 3.0 / (20.0 / 2))
        with np.errstate(all="ignore"):
            y, _ = signal.lfilter(b, a, x, zi=signal.lfilter_zi(b, a) * x[0])
        first = int(np.flatnonzero(~np.isfinite(y))[0])
        assert first >= 10
        assert cli.main(["filter", "--in", str(log), "--out", str(out)]) == 1
        assert error_line(capsys.readouterr().err) == (
            f"error: {log}: line {first + 1}: non-finite sample value")
        assert not out.exists()

    def test_values_filled_into_a_hole(self, tmp_path, capsys):
        """Line 11 is -1.7e308 and line 12, one missing sample later, is
        +1.7e308: the sample filled between them is the first to overflow."""
        x = np.r_[np.zeros(10), -1.7e308, 0.0, 1.7e308, np.zeros(10)]
        log, out = tmp_path / "log.csv", tmp_path / "filtered.csv"
        self.write_log(log, x, skip={11})
        assert cli.main(["filter", "--in", str(log), "--out", str(out)]) == 1
        assert error_line(capsys.readouterr().err) == (
            f"error: {log}: line 12: non-finite sample value")
        assert not out.exists()

    def test_a_later_stretch_leaves_no_partial_log(self, tmp_path, capsys):
        """Two stretches of 200 samples, 5 s apart; the second alternates
        ±1.7e308 and overflows at its second sample, line 202. The log is
        written only once the whole series is filtered."""
        log, out = tmp_path / "log.csv", tmp_path / "filtered.csv"
        with open(log, "w", encoding="utf-8") as fh:
            for i in range(400):
                v = 0.0 if i < 200 else 1.7e308 * (-1) ** i
                fh.write(f"s,,{50 * i + 5000 * (i >= 200)},{v:.6f},0.000000,0.000000;\n")
        assert cli.main(["filter", "--in", str(log), "--out", str(out)]) == 1
        assert error_line(capsys.readouterr().err) == (
            f"error: {log}: line 202: non-finite sample value")
        assert not out.exists()


class TestWindowAcrossMidnight:
    """`profile` and `report` name the line of the first window that
    crosses local midnight, and the zone."""

    @pytest.mark.parametrize("command", ["profile", "report"])
    def test_utc(self, command, tmp_path, capsys):
        labels, day = tmp_path / "labels.csv", 86_400_000
        labelling.write_window_labels(labels, [
            labelling.WindowLabel(day - 240_000, day - 120_000, "Sit", "frequency"),
            labelling.WindowLabel(day - 60_000, day + 60_000, "Sit", "frequency"),
        ])
        assert cli.main([command, "--in", str(labels), "--out", str(tmp_path / "r")]) == 1
        assert error_line(capsys.readouterr().err) == (
            f"error: {labels}: line 3: window 86340000..86460000 crosses midnight in UTC: "
            "split at day boundary first")

    def test_line_is_counted_as_the_table_reader_counts(self, tmp_path, capsys):
        """A quoted label spans two lines, so the second record ends on
        line 4; local midnight in Asia/Kolkata (UTC+5:30) is 18:30 UTC."""
        labels, midnight = tmp_path / "labels.csv", 66_600_000
        labelling.write_window_labels(labels, [
            labelling.WindowLabel(0, 120_000, "Sitting\nin Hall", "frequency"),
            labelling.WindowLabel(midnight - 60_000, midnight + 60_000, "Sit", "frequency"),
        ])
        argv = ["profile", "--in", str(labels), "--out", str(tmp_path / "r"),
                "--timezone", "Asia/Kolkata"]
        assert cli.main(argv) == 1
        assert error_line(capsys.readouterr().err) == (
            f"error: {labels}: line 4: window 66540000..66660000 crosses midnight in "
            "Asia/Kolkata: split at day boundary first")


class TestRowErrors:
    """A stage table row that is out of order, or that its stage cannot
    place, is one `error:` line naming the first such row; the command
    writes nothing."""

    @pytest.mark.parametrize("rows, error", [
        ("6400,12800,Sit\n0,6400,Sit\n",
         "line 3: window 0..6400 goes back from window 6400..12800: windows must be ordered"),
        ("0,6400,Sit\n3200,3300,Sit\n",
         "line 3: window 3200..3300 goes back from window 0..6400: windows must be ordered"),
        ("6400,0,Sit\n", "line 2: window 6400..0 is empty"),
    ])
    def test_fuse(self, rows, error, tmp_path, capsys):
        windows, intervals, out = (tmp_path / name for name in
                                   ("windows.csv", "intervals.csv", "derived.csv"))
        windows.write_text("window_start,window_end,label\n" + rows)
        occupancy.write_intervals(intervals, [occupancy.Interval(0, 12_800, "pir", "Hall")])
        argv = ["fuse", "--windows", str(windows), "--intervals", str(intervals),
                "--out", str(out)]
        assert cli.main(argv) == 1
        assert error_line(capsys.readouterr().err) == f"error: {windows}: {error}"
        assert not out.exists()

    def test_label(self, tmp_path, capsys):
        derived, out = tmp_path / "derived.csv", tmp_path / "labels.csv"
        fusion.write_derived(derived, [(ts, fusion.DerivedActivity("Sitting"))
                                       for ts in (0, 10_000, 5_000)])
        assert cli.main(["label", "--in", str(derived), "--out", str(out)]) == 1
        assert error_line(capsys.readouterr().err) == (
            f"error: {derived}: line 4: ts 5000 is not after 10000: "
            "timeline must be strictly increasing in time")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["profile", "report"])
    @pytest.mark.parametrize("spans, error", [
        ([(120_000, 240_000), (0, 120_000)],
         "line 3: window 0..120000 starts before the window before it ends at 240000: "
         "windows must be ordered and non-overlapping"),
        # datetime dates only the years 1..9999
        ([(-9223372036854720000, -9223372036854600000)],
         "line 2: window -9223372036854720000..-9223372036854600000 has no date in UTC: "
         "year -292275055 is out of range"),
    ])
    def test_profile_and_report(self, command, spans, error, tmp_path, capsys):
        labels, out = tmp_path / "labels.csv", tmp_path / "report"
        labelling.write_window_labels(
            labels, [labelling.WindowLabel(*span, "Sit", "frequency") for span in spans])
        assert cli.main([command, "--in", str(labels), "--out", str(out)]) == 1
        assert error_line(capsys.readouterr().err) == f"error: {labels}: {error}"
        assert not out.exists()


class TestDispatch:
    @pytest.fixture
    def calls(self, monkeypatch):
        """Every pipeline stage replaced by a recorder of its name."""
        made = []
        for stage in STAGES:
            def record(*args, _stage=stage, **kwargs):
                made.append(_stage)
                return {}
            monkeypatch.setattr(pipeline, f"stage_{stage}", record)
        return made

    @pytest.mark.parametrize("stage", STAGES)
    def test_stage_command_calls_its_stage(self, stage, calls, monkeypatch, quiet_model,
                                           tmp_path):
        argv = required_argv(stage, tmp_path)
        if stage == "classify":
            monkeypatch.setattr(pipeline, "load_model", lambda path, window_len: quiet_model)
            argv += ["--model", str(tmp_path / "model.json")]
        assert cli.main(argv) == 0
        assert calls == [stage]

    def test_pipeline_calls_every_stage_in_order(self, calls, monkeypatch, quiet_model,
                                                 tmp_path):
        monkeypatch.setattr(pipeline, "load_model", lambda path, window_len: quiet_model)
        for module, loader in ((fusion, "load_default_rules"),
                               (labelling, "load_default_priorities")):
            def load(_loader=loader):
                calls.append(_loader)
            monkeypatch.setattr(module, loader, load)
        # the script is read, and checked with the options, before the first stage
        argv = ["pipeline", "--script", str(TestCalibrator.short_script(tmp_path)),
                "--out", str(tmp_path / "run"), "--model", str(tmp_path / "model.json")]
        assert cli.main(argv) == 0
        assert calls == ["load_default_rules", "load_default_priorities",
                         "simulate", "filter", "features", "classify", "occupancy",
                         "fuse", "label", "profile"]


def test_commands_without_a_runner_pass_their_options_by_name():
    """`_run` calls pipeline.stage_<command>(*files, **options): after its
    files, each such stage takes exactly the command's options, and then,
    if `pipeline` runs it, only the keyword-only `handed`, with which
    `pipeline` hands its tables on."""
    plain = {name: c for name, c in cli.COMMANDS.items() if c.run is None}
    assert set(cli.COMMANDS) - set(plain) == {"simulate", "pipeline"}
    for name, command in plain.items():
        params = inspect.signature(getattr(pipeline, f"stage_{name}")).parameters
        handed = [] if name in ("segment", "report") else ["handed"]
        assert list(params)[len(command.files):] == [*command.options, *command.own,
                                                     *handed], name
        assert all(params[key].kind is inspect.Parameter.KEYWORD_ONLY for key in handed)


def test_entry_exits_with_mains_code_and_freezes_outside_development_mode(monkeypatch):
    """The process entry point leaves with main()'s code; the objects left
    are frozen first unless -X dev asks the final collections to run."""
    frozen = []
    monkeypatch.setattr(cli, "main", lambda: 3)
    monkeypatch.setattr(cli.gc, "freeze", lambda: frozen.append(True))
    with pytest.raises(SystemExit) as exited:
        cli.entry()
    assert exited.value.code == 3
    assert frozen == ([] if sys.flags.dev_mode else [True])


def test_stage_defaults_are_the_option_defaults():
    """A stage run from Python defaults each option as the command does;
    a time zone by its key."""
    compared = set()
    for name in dir(pipeline):
        if not name.startswith("stage_"):
            continue
        for key, param in inspect.signature(getattr(pipeline, name)).parameters.items():
            if key not in cli.OPTIONS or param.default is inspect.Parameter.empty:
                continue
            default = param.default.key if key == "timezone" else param.default
            assert default == cli.OPTIONS[key].default, (name, key)
            compared.add(key)
    assert compared >= {"order", "cutoff_hz", "max_gap_ms", "window_len", "overlap",
                        "tick_ms", "min_still_ms", "timezone", "days"}


def write_config(where, doc) -> str:
    path = where / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class TestTypedConfig:
    @pytest.mark.parametrize("command, doc, expected", [
        ("occupancy", {"timeout_ms": "abc"}, 'timeout_ms: expected int, got "abc"'),
        ("features", {"gyro": "false"}, 'gyro: expected true or false, got "false"'),
        ("segment", {"window_len": 64.5}, "window_len: expected int, got 64.5"),
        ("segment", {"overlap": True}, "overlap: expected float, got true"),
        ("report", {"format": "txt"}, 'format: expected one of json, csv, got "txt"'),
        ("profile", {"timezone": ["UTC"]}, 'timezone: expected str, got ["UTC"]'),
    ])
    def test_rejected_value_names_file_and_key(self, command, doc, expected, tmp_path,
                                               capsys):
        config = write_config(tmp_path, doc)
        code = cli.main(required_argv(command, tmp_path) + ["--config", config])
        assert code == 1
        assert error_line(capsys.readouterr().err) == f"error: {config}: {expected}"

    def test_values_take_their_flag_type(self, tmp_path, capsys):
        config = write_config(tmp_path, {"window_len": "64", "overlap": 1, "gyro": False})
        cli.main(required_argv("features", tmp_path) + ["--config", config])
        eff = echoed_config(capsys.readouterr().err)
        assert (eff["window_len"], eff["overlap"], eff["gyro"]) == (64, 1.0, False)

    def test_null_means_unset(self, tmp_path, capsys):
        derived = tmp_path / "derived.csv"
        fusion.write_derived(
            derived, [(i * 5_000, fusion.DerivedActivity("Sitting")) for i in range(48)]
        )
        labels = tmp_path / "labels.csv"
        config = write_config(tmp_path, {"span": None, "priorities": None})
        argv = ["label", "--in", str(derived), "--out", str(labels), "--config", config]
        assert cli.main(argv) == 0
        assert echoed_config(capsys.readouterr().err)["span"] == 2
        rows = labelling.read_window_labels(labels)
        assert [w.end_ts - w.start_ts for w in rows] == [120_000, 120_000]


class TestJsonErrors:
    def test_truncated_config_names_file_and_line(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text('{"window_len": 64\n"overlap": 0.5}', encoding="utf-8")
        code = cli.main(required_argv("segment", tmp_path) + ["--config", str(config)])
        assert code == 1
        assert error_line(capsys.readouterr().err) == (
            f"error: {config}: line 2: Expecting ',' delimiter"
        )

    def test_config_that_is_not_utf8_names_the_file(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_bytes(b'{"span": 2, "timezone": "\xff"}')
        code = cli.main(required_argv("label", tmp_path) + ["--config", str(config)])
        assert code == 1
        assert error_line(capsys.readouterr().err) == f"error: {config}: line 1: not UTF-8"

    def test_truncated_model_names_file_and_line(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_text('{"format": "centroids.v1", ', encoding="utf-8")
        argv = required_argv("classify", tmp_path) + ["--model", str(model)]
        assert cli.main(argv) == 1
        assert error_line(capsys.readouterr().err) == (
            f"error: {model}: line 1: Expecting property name enclosed in double quotes"
        )
