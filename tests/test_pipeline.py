"""File-stage chaining and the command-line front end.

The chain fixture runs every stage once over a small scripted day; the
tests then hold each intermediate file to its contract, so a regression
in any stage points at the first file that went wrong.
"""

import hashlib
import json
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homeactivity import (
    ambient,
    cli,
    defaults,
    features,
    fusion,
    labelling,
    neural,
    occupancy,
    pipeline,
    profiles,
    simulate,
    tables,
    timeseries,
)
from homeactivity.pipeline import PipelineError, ticks_from_windows
from homeactivity.simulate import MS_PER_DAY, QUIET, ScheduleEntry, write_script
from oracles import runs_of_ticks, series_equal

SIX_AM = 21_600_000

SCRIPT = [
    ScheduleEntry(SIX_AM, 480_000, "Bedroom", "Lie"),
    ScheduleEntry(SIX_AM + 480_000, 240_000, "Hall", "Sit", frozenset({"tv"})),
]


class TestTicksFromWindows:
    """Each test expands the tick runs to ticks before it compares."""

    @staticmethod
    def ticks(windows, tick_ms=fusion.DEFAULT_TICK_MS):
        return fusion.ticks_of(ticks_from_windows(windows, tick_ms), tick_ms)

    def test_latest_starting_window_wins(self):
        windows = [(0, 6400, "a"), (3200, 9600, "b")]
        assert self.ticks(windows, tick_ms=5000) == [(0, "a"), (5000, "b")]

    def test_holes_are_omitted(self):
        windows = [(0, 6400, "a"), (12800, 19200, "b")]
        ticks = self.ticks(windows, tick_ms=5000)
        assert ticks == [(0, "a"), (5000, "a"), (15000, "b")]

    def test_grid_anchors_at_first_window_start(self):
        ticks = self.ticks([(SIX_AM, SIX_AM + 6400, "a")], tick_ms=5000)
        assert [t for t, _ in ticks] == [SIX_AM, SIX_AM + 5000]

    def test_empty_input(self):
        assert ticks_from_windows([]) == []

    def test_matches_per_tick_search(self):
        """Equal-length windows: same answer as scanning every window per tick."""
        rng = np.random.default_rng(7)
        for _ in range(100):
            starts = np.cumsum(rng.integers(1, 6, size=8)) * 100
            windows = [(int(s), int(s) + 350, f"w{i}") for i, s in enumerate(starts)]
            expect = []
            t = windows[0][0]
            while t < windows[-1][1]:
                covering = [w for w in windows if w[0] <= t < w[1]]
                if covering:
                    expect.append((t, max(covering, key=lambda w: w[0])[2]))
                t += 100
            assert self.ticks(windows, tick_ms=100) == expect

    def test_one_run_per_stretch_of_a_label(self):
        windows = [(0, 6400, "a"), (3200, 9600, "a"), (6400, 12800, "b"),
                   (20000, 26400, "b"), (23200, 29600, "b")]
        assert ticks_from_windows(windows, tick_ms=5000) == [
            (0, 10000, "a"), (10000, 15000, "b"), (20000, 30000, "b")]


class TestBasicWindowsFile:
    def test_roundtrip(self, tmp_path):
        rows = [(0, 6400, "Walk"), (3200, 9600, "Sit")]
        path = tmp_path / "w.csv"
        pipeline.write_basic_windows(path, rows)
        assert pipeline.read_basic_windows(path) == rows


@pytest.fixture(scope="module")
def chain(tmp_path_factory, default_rules, quiet_model):
    """One directory holding every stage's output for the two-entry day."""
    d = tmp_path_factory.mktemp("chain")
    write_script(d / "script.csv", SCRIPT)
    pipeline.stage_simulate(
        d / "script.csv", d / "inertial.csv", d / "events.ndjson",
        d / "truth.csv", QUIET, default_rules,
    )
    pipeline.stage_filter(d / "inertial.csv", d / "filtered.csv")
    pipeline.stage_segment(d / "filtered.csv", d / "plan.csv")
    pipeline.stage_features(d / "filtered.csv", d / "features.csv")
    neural.save_centroids(d / "model.json", quiet_model)
    model = pipeline.load_model(d / "model.json")
    pipeline.stage_classify(d / "features.csv", d / "basic.csv", model)
    pipeline.stage_occupancy(d / "events.ndjson", d / "intervals.csv")
    pipeline.stage_fuse(
        d / "basic.csv", d / "intervals.csv", d / "derived.csv", default_rules
    )
    pipeline.stage_label(
        d / "derived.csv", d / "labels.csv", 2, labelling.load_default_priorities()
    )
    pipeline.stage_profile(d / "labels.csv", d / "report.json")
    return d


class TestStageChain:
    def test_filter_keeps_the_sample_grid(self, chain):
        series = timeseries.load_inertial(chain / "filtered.csv")
        assert len(series) == 1
        assert len(series[0]) == 720 * 20
        assert series[0].ts[0] == SIX_AM

    def test_segment_plan(self, chain):
        with open(chain / "plan.csv") as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "window_start,window_end"
        starts = [int(line.split(",")[0]) for line in lines[1:]]
        assert len(starts) == (720 * 20 - 128) // 64 + 1
        assert starts[0] == SIX_AM
        assert set(np.diff(starts)) == {3200}

    def test_features_match_the_plan(self, chain):
        matrix, spans, layout = features.read_features(chain / "features.csv")
        assert layout == features.LAYOUT_ACC
        assert matrix.shape == (len(spans), 43)
        assert spans[0] == (SIX_AM, SIX_AM + 6400)

    def test_windows_inside_an_entry_get_its_label(self, chain):
        rows = pipeline.read_basic_windows(chain / "basic.csv")
        for start, end, label in rows:
            for entry in SCRIPT:
                lo, hi = entry.clock_start_ms, entry.clock_start_ms + entry.duration_ms
                if lo <= start and end <= hi:
                    assert label == entry.basic

    def test_occupancy_intervals(self, chain):
        ivs = occupancy.read_intervals(chain / "intervals.csv")
        key = [(iv.start_ts, iv.end_ts, iv.kind, iv.location) for iv in ivs]
        assert key == [
            (SIX_AM, SIX_AM + 480_000, "pir", "Bedroom"),
            (SIX_AM + 480_000, SIX_AM + 720_000, "pir", "Hall"),
            (SIX_AM + 480_000, SIX_AM + 720_000, "relay", "tv"),
        ]

    def test_fused_timeline_matches_simulated_truth(self, chain):
        assert fusion.read_derived(chain / "derived.csv") == fusion.read_derived(
            chain / "truth.csv"
        )

    def test_sleep_rule_applied_through_the_chain(self, chain):
        names = {d.name for _, d in fusion.read_derived(chain / "derived.csv")}
        assert names == {"Sleeping in Bedroom", "Watching TV Sitting"}

    def test_labelled_windows_tile_the_day_slice(self, chain):
        rows = labelling.read_window_labels(chain / "labels.csv")
        assert [w.label for w in rows] == (
            ["Sleeping in Bedroom"] * 4 + ["Watching TV Sitting"] * 2
        )
        assert all(w.end_ts - w.start_ts == 120_000 for w in rows)
        assert rows[0].start_ts == SIX_AM

    def test_profile_report(self, chain):
        doc = json.loads((chain / "report.json").read_text())
        assert doc["week"] is None
        (day,) = doc["days"]
        assert day["day"] == "1970-01-01"
        labels = [row["label"] for row in day["activities"]]
        assert labels == ["Sleeping in Bedroom", "Watching TV Sitting"]
        assert day["activities"][0]["duration_ms"] == 480_000

    def test_json_report_builds_each_day_once(self, chain, tmp_path, monkeypatch):
        built = []
        day_profile = profiles.day_profile

        def counted(*args):
            built.append(args)
            return day_profile(*args)

        monkeypatch.setattr(profiles, "day_profile", counted)
        pipeline.stage_report(chain / "labels.csv", tmp_path / "r.json", format="json")
        assert len(built) == 1
        assert (tmp_path / "r.json").read_bytes() == (chain / "report.json").read_bytes()

    @pytest.mark.parametrize("report_format", ["profile", "json", "csv"])
    def test_profile_and_report_split_the_days_once(self, chain, tmp_path, monkeypatch,
                                                     report_format):
        split = []
        split_days = profiles.split_days

        def counted(*args):
            split.append(args)
            return split_days(*args)

        monkeypatch.setattr(profiles, "split_days", counted)
        if report_format == "profile":
            pipeline.stage_profile(chain / "labels.csv", tmp_path / "report.json")
        else:
            pipeline.stage_report(chain / "labels.csv", tmp_path / "report", format=report_format)
        assert len(split) == 1

    def test_csv_report(self, chain, tmp_path):
        pipeline.stage_report(chain / "labels.csv", tmp_path / "r.csv", format="csv")
        lines = (tmp_path / "r.csv").read_text().splitlines()
        assert lines[0] == "day,label,duration_ms,share"
        assert lines[1] == "1970-01-01,Sleeping in Bedroom,480000,0.666667"


class TestStageGuards:
    def test_two_subjects_are_rejected(self, tmp_path):
        path = tmp_path / "two.csv"
        logs = []
        for subject in ("a", "b"):
            series = timeseries.SampleSeries(
                subject_id=subject,
                ts=np.arange(10, dtype=np.int64) * 50,
                values=np.ones((10, 3)),
            )
            timeseries.write_inertial(path, series)
            logs.append(path.read_bytes())
        path.write_bytes(b"".join(logs))
        with pytest.raises(timeseries.SeriesError) as exc:
            pipeline.stage_filter(path, tmp_path / "out.csv")
        assert str(exc.value) == (
            f"{path}: line 11: subject 'b' after 'a': a log holds one subject")

    def test_one_filter_is_built_for_a_log_of_three_stretches(self, tmp_path, monkeypatch):
        """The filter's block products are set up once per log, not once
        per gapless stretch."""
        ts = np.r_[np.arange(100), np.arange(200, 300), np.arange(400, 500)] * 50
        series = timeseries.SampleSeries("s", ts, np.random.default_rng(2).normal(
            size=(300, 3)))
        timeseries.write_inertial(tmp_path / "log.csv", series)
        built = []

        class Counted(timeseries._BlockLowpass):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(timeseries, "_BlockLowpass", Counted)
        pipeline.stage_filter(tmp_path / "log.csv", tmp_path / "out.csv")
        assert len(built) == 1
        (out,) = timeseries.load_inertial(tmp_path / "out.csv")
        assert len(timeseries.split_on_gaps(out)) == 3

    def test_stretches_shorter_than_a_block_skip_the_block_filter(self, tmp_path,
                                                                    monkeypatch):
        """200 one-sample stretches and one of 63 samples run through lfilter
        alone, and log the bytes they logged through the block products."""
        ts = np.r_[np.arange(200) * 2000, 1_000_000 + np.arange(63) * 50].astype(np.int64)
        series = timeseries.SampleSeries("s", ts, np.random.default_rng(4).normal(size=(263, 3)))
        timeseries.write_inertial(tmp_path / "log.csv", series)
        runs = []
        run = timeseries._BlockLowpass.run
        monkeypatch.setattr(timeseries._BlockLowpass, "run",
                            lambda self, *args: runs.append(args) or run(self, *args))
        pipeline.stage_filter(tmp_path / "log.csv", tmp_path / "out.csv")
        assert runs == []
        assert hashlib.sha256((tmp_path / "out.csv").read_bytes()).hexdigest() == (
            "3e8d140fbb3017ee24bfe2ba23bdd82f33471ecdc8b210f646e2cd9c26989e68")
        (logged,) = timeseries.load_inertial(tmp_path / "log.csv")
        timeseries.write_inertial(tmp_path / "slow.csv", timeseries.butterworth_lowpass(
            timeseries.interpolate_gaps(logged, defaults.DEFAULT_MAX_GAP_MS),
            timeseries.FilterSpec(defaults.DEFAULT_ORDER, defaults.DEFAULT_CUTOFF_HZ)))
        assert (tmp_path / "out.csv").read_bytes() == (tmp_path / "slow.csv").read_bytes()

    def test_log_shorter_than_a_window(self, tmp_path):
        series = timeseries.SampleSeries(
            subject_id="s",
            ts=np.arange(50, dtype=np.int64) * 50,
            values=np.ones((50, 3)),
        )
        timeseries.write_inertial(tmp_path / "short.csv", series)
        with pytest.raises(PipelineError, match="no complete window"):
            pipeline.stage_features(tmp_path / "short.csv", tmp_path / "f.csv")

    def test_unknown_model_format(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"format": "other.v1"}')
        with pytest.raises(PipelineError, match="unrecognized model format"):
            pipeline.load_model(path)

    def test_days_must_be_positive(self, chain, default_rules, tmp_path):
        with pytest.raises(PipelineError, match="days must be positive"):
            pipeline.stage_simulate(
                chain / "script.csv", tmp_path / "i.csv", tmp_path / "e.ndjson",
                tmp_path / "t.csv", QUIET, default_rules, days=0,
            )


class TestModelSniffing:
    def test_centroid_file(self, tmp_path, quiet_model):
        neural.save_centroids(tmp_path / "c.json", quiet_model)
        assert pipeline._model_format(tmp_path / "c.json") == neural.CENTROID_FORMAT

    def test_bundle_file(self, tmp_path):
        bundle = neural.make_default_bundle(("a", "b"), seed=3)
        neural.save_bundle(tmp_path / "b.json", bundle)
        assert pipeline._model_format(tmp_path / "b.json") == neural.BUNDLE_FORMAT


class TestBundleClassify:
    def test_probabilities_accompany_labels(self, tmp_path):
        from homeactivity.simulate import synth_motion

        timeseries.write_inertial(tmp_path / "log.csv", synth_motion("Walk", 60_000))
        bundle = neural.make_default_bundle(("a", "b"), seed=3)
        neural.save_bundle(tmp_path / "b.json", bundle)
        info = pipeline.stage_classify(
            tmp_path / "log.csv", tmp_path / "out.csv", pipeline.load_model(tmp_path / "b.json"),
            probs=tmp_path / "probs.csv",
        )
        assert info == {"windows": 17, "model": neural.BUNDLE_FORMAT}
        rows = pipeline.read_basic_windows(tmp_path / "out.csv")
        assert len(rows) == 17 and {r[2] for r in rows} <= {"a", "b"}
        lines = (tmp_path / "probs.csv").read_text().splitlines()
        assert lines[0] == "window_start,window_end,a,b"
        probs = np.array([line.split(",")[2:] for line in lines[1:]], dtype=float)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)

    def test_probs_need_a_bundle(self, tmp_path, quiet_model, chain):
        neural.save_centroids(tmp_path / "c.json", quiet_model)
        with pytest.raises(PipelineError, match="requires a weights bundle"):
            pipeline.stage_classify(
                chain / "features.csv", tmp_path / "out.csv",
                pipeline.load_model(tmp_path / "c.json"), probs=tmp_path / "p.csv",
            )


class TestMultiDay:
    def test_days_repeat_with_shifted_clocks(self, chain, default_rules, tmp_path):
        handed = {}
        info = pipeline.stage_simulate(
            chain / "script.csv", tmp_path / "i.csv", tmp_path / "e.ndjson",
            tmp_path / "t.csv", QUIET, default_rules, days=2, handed=handed,
        )
        logged = handed[tmp_path / "i.csv"]
        assert info == {"days": 2, "truth_ticks": 288}
        (series,) = timeseries.load_inertial(tmp_path / "i.csv")
        assert series_equal(logged, series)
        assert logged.values.tobytes() == series.values.tobytes()
        assert len(series) == 2 * 720 * 20
        assert series.ts[720 * 20] == SIX_AM + MS_PER_DAY
        ticks = fusion.read_derived(tmp_path / "t.csv")
        first, second = ticks[:144], ticks[144:]
        assert [(ts - MS_PER_DAY, d) for ts, d in second] == first

    @pytest.mark.parametrize("overrun_s", [0, 1], ids=["touching", "overlapping"])
    def test_days_may_touch_but_not_overlap(self, default_rules, tmp_path, overrun_s):
        """The last entry may end where the next day's first starts; one
        second more is refused before any file is written. A blank row
        after it does not move the line named."""
        script = tmp_path / "script.csv"
        write_script(script, [
            ScheduleEntry(3_600_000, 60_000, "Hall", "Sit"),
            ScheduleEntry(MS_PER_DAY - 60_000, (3_660 + overrun_s) * 1000, "Hall", "Walk")])
        script.write_text(script.read_text() + "\n")
        paths = [tmp_path / name for name in ("i.csv", "e.ndjson", "t.csv")]
        if overrun_s:
            with pytest.raises(PipelineError) as refused:
                pipeline.stage_simulate(script, *paths, QUIET, default_rules, days=2)
            assert str(refused.value) == (f"{script}: line 3: entries overlap at clock "
                                          "offset 3600000 ms of the next day")
            assert not any(path.exists() for path in paths)
        days = 1 if overrun_s else 2  # one day of any script overlaps nothing
        handed = {}
        pipeline.stage_simulate(script, *paths, QUIET, default_rules, days=days, handed=handed)
        logged = handed[paths[0]]
        (series,) = timeseries.load_inertial(paths[0])
        assert series_equal(logged, series)


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.err


def echoed_config(stderr: str) -> dict:
    line = next(l for l in stderr.splitlines() if l.startswith("config: "))
    return json.loads(line[len("config: "):])


class TestCli:
    def test_flags_beat_config_beats_defaults(self, chain, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"window_len": 64, "overlap": 0.25}))
        code, err = run_cli(
            ["segment", "--in", str(chain / "filtered.csv"),
             "--out", str(tmp_path / "plan.csv"),
             "--config", str(cfg), "--window-len", "32"],
            capsys,
        )
        assert code == 0
        eff = echoed_config(err)
        assert eff["window_len"] == 32
        assert eff["overlap"] == 0.25

    def test_unknown_config_key(self, chain, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"window_size": 64}))
        code, err = run_cli(
            ["segment", "--in", str(chain / "filtered.csv"),
             "--out", str(tmp_path / "plan.csv"), "--config", str(cfg)],
            capsys,
        )
        assert code == 1
        assert "error:" in err and "window_size" in err

    def test_missing_input_reports_and_fails(self, tmp_path, capsys):
        code, err = run_cli(
            ["filter", "--in", str(tmp_path / "absent.csv"),
             "--out", str(tmp_path / "out.csv")],
            capsys,
        )
        assert code == 1
        assert "error:" in err

    def test_classify_requires_a_model(self, chain, tmp_path, capsys):
        code, err = run_cli(
            ["classify", "--in", str(chain / "features.csv"),
             "--out", str(tmp_path / "out.csv")],
            capsys,
        )
        assert code == 1
        assert "classify requires --model" in err

    def test_pipeline_requires_a_source(self, tmp_path, capsys):
        """Refused before `--out` is made."""
        for given in ([], ["--inertial", "log.csv"]):
            code, err = run_cli(["pipeline", "--out", str(tmp_path / "run"), *given], capsys)
            assert code == 1
            assert "pipeline needs --script" in err
            assert not (tmp_path / "run").exists()

    @staticmethod
    def error_line(err: str) -> str:
        """The one `error:` line of a failed command; no traceback."""
        lines = [l for l in err.splitlines() if not l.startswith("config: ")]
        assert len(lines) == 1 and lines[0].startswith("error: "), err
        return lines[0]

    def test_empty_inertial_log_names_the_file(self, tmp_path, capsys):
        log = tmp_path / "empty.csv"
        log.write_text("", encoding="utf-8")
        code, err = run_cli(["filter", "--in", str(log), "--out", str(tmp_path / "o.csv")],
                            capsys)
        assert code == 1
        assert self.error_line(err) == f"error: {log}: line 1: empty input"

    def test_backwards_timestamps_name_the_line(self, tmp_path, capsys):
        log = tmp_path / "back.csv"
        log.write_text("u,,0,1,2,3;\nu,,100,1,2,3;\n\nu,,50,1,2,3;\n", encoding="utf-8")
        code, err = run_cli(["filter", "--in", str(log), "--out", str(tmp_path / "o.csv")],
                            capsys)
        assert code == 1
        assert self.error_line(err) == (
            f"error: {log}: line 4: timestamps must be strictly increasing"
        )

    def test_timestamps_further_apart_than_int64_is_a_gap(self, tmp_path, capsys):
        """The step from -2^63 to 2^63 - 1 ms wraps in int64 arithmetic."""
        log = tmp_path / "wide.csv"
        lines = f"u,,{-2**63},1,2,3;\nu,,{2**63 - 1},1,2,3;\n"
        log.write_text(lines, encoding="utf-8")
        out = tmp_path / "o.csv"
        code, _ = run_cli(["filter", "--in", str(log), "--out", str(out)], capsys)
        assert code == 0
        (filtered,) = timeseries.load_inertial(out)
        pieces = timeseries.split_on_gaps(timeseries.interpolate_gaps(filtered))
        assert [p.ts.tolist() for p in pieces] == [[-2**63], [2**63 - 1]]

    @pytest.mark.parametrize("blank", [False, True], ids=["plain", "blank_line"])
    def test_a_window_ending_past_int64_names_its_last_line(self, tmp_path, capsys, blank):
        """128 samples ending at 2^63 - 1 ms: the window ends one period later,
        which int64 arithmetic wrapped to a negative end."""
        stamps = [2**63 - 1 - 50 * (127 - i) for i in range(128)]
        lines = [f"u,,{ts},1,2,3;\n" for ts in stamps]
        if blank:  # not a plain log: read line by line
            lines.insert(5, "\n")
        log = tmp_path / "late.csv"
        log.write_text("".join(lines), encoding="utf-8")
        out = tmp_path / "w.csv"
        for command in ("segment", "features"):
            code, err = run_cli([command, "--in", str(log), "--out", str(out)], capsys)
            assert code == 1
            assert self.error_line(err) == (f"error: {log}: line {len(lines)}: window end "
                                            f"{2**63 + 49} lies outside the int64 range")
            assert not out.exists()
        # one period earlier, the window ends at 2^63 - 1
        log.write_text("".join(f"u,,{ts - 50},1,2,3;\n" for ts in stamps), encoding="utf-8")
        assert run_cli(["segment", "--in", str(log), "--out", str(out)], capsys)[0] == 0
        assert out.read_text() == f"window_start,window_end\n{stamps[0] - 50},{2**63 - 1}\n"

    def test_gyro_features_of_a_six_field_log_name_its_first_line(self, chain, tmp_path,
                                                                 capsys, monkeypatch):
        log, out = tmp_path / "log.csv", tmp_path / "f.csv"
        log.write_text("\n" + (chain / "filtered.csv").read_text(), encoding="utf-8")
        monkeypatch.setattr(timeseries, "segment", None)  # fails before windowing
        code, err = run_cli(["features", "--in", str(log), "--out", str(out), "--gyro"],
                            capsys)
        assert code == 1
        assert self.error_line(err) == (f"error: {log}: line 2: --gyro needs gyroscope "
                                        "samples, but the log has 6 fields a line, not 9")
        assert not out.exists()

    @pytest.mark.parametrize("day_numbers, week", [
        ([0, 1, 2, 3, 4, 5, 7], False), ([0, 1, 2, 3, 4, 5, 6], True),
    ], ids=["gap_before_the_last_day", "consecutive"])
    def test_seven_days_make_a_week_only_when_consecutive(self, tmp_path, capsys,
                                                          day_numbers, week):
        labels, report = tmp_path / "labels.csv", tmp_path / "report.json"
        labelling.write_window_labels(labels, [
            labelling.WindowLabel(day * MS_PER_DAY, day * MS_PER_DAY + 120_000, "a",
                                  "frequency") for day in day_numbers])
        code, _ = run_cli(["profile", "--in", str(labels), "--out", str(report)], capsys)
        assert code == 0
        doc = json.loads(report.read_text())
        assert [d["day"] for d in doc["days"]] == [
            f"1970-01-{day + 1:02d}" for day in day_numbers]
        assert (doc["week"] is not None) == week

    @pytest.mark.parametrize("window", [["32"], ["32", "--overlap", "0"], ["64"],
                                        ["100", "--overlap", "0.25"], ["256"]],
                             ids=lambda w: "-".join(w))
    def test_calibration_takes_every_window_features_takes(self, chain, tmp_path, capsys,
                                                           window):
        """Calibration checks its own lead-in blocks against the window in
        use, which may be shorter than the default one."""
        out = tmp_path / "run"
        code, err = run_cli(["pipeline", "--script", str(chain / "script.csv"),
                             "--out", str(out), "--window-len", *window], capsys)
        assert code == 0, err
        model = neural.load_centroids(out / "centroids.json")
        assert len(pipeline.read_basic_windows(out / "basic_windows.csv")) > 0
        assert model.class_names == simulate.CLASSIFIER_CLASSES

    def test_window_labels_cut_inside_a_method_name_are_refused(self, tmp_path, capsys):
        labels, report = tmp_path / "labels.csv", tmp_path / "report.json"
        labelling.write_window_labels(labels, [
            labelling.WindowLabel(0, 120_000, "a", "priority"),
            labelling.WindowLabel(120_000, 240_000, "b", "frequency"),
        ])
        text = labels.read_text(encoding="utf-8")
        labels.write_text(text[:text.rindex("frequency") + len("freque")], encoding="utf-8")
        code, err = run_cli(["profile", "--in", str(labels), "--out", str(report)], capsys)
        assert code == 1
        assert self.error_line(err) == (
            f"error: {labels}: line 3: unknown labelling method 'freque'; "
            "expected one of priority, frequency, tie, nodata")
        assert not report.exists()

    def test_probs_with_a_centroid_model_fail_before_reading(self, chain, tmp_path,
                                                              capsys):
        out, probs = tmp_path / "w.csv", tmp_path / "p.csv"
        code, err = run_cli(["classify", "--in", str(chain / "features.csv"), "--model",
                             str(chain / "model.json"), "--out", str(out),
                             "--probs", str(probs)], capsys)
        assert code == 1
        assert self.error_line(err) == "error: probability output requires a weights bundle"
        assert not out.exists() and not probs.exists()

    def fuse(self, chain, intervals, tmp_path, capsys):
        return run_cli(
            ["fuse", "--windows", str(chain / "basic.csv"), "--intervals", str(intervals),
             "--out", str(tmp_path / "d.csv")],
            capsys,
        )

    def test_intervals_without_a_column(self, chain, tmp_path, capsys):
        path = tmp_path / "iv.csv"
        path.write_text("kind,start_ts,end_ts,truncated\npir,0,5000,0\n", encoding="utf-8")
        code, err = self.fuse(chain, path, tmp_path, capsys)
        assert code == 1
        assert self.error_line(err) == f"error: {path}: line 1: missing column location"

    def test_intervals_with_a_short_row(self, chain, tmp_path, capsys):
        path = tmp_path / "iv.csv"
        path.write_text(
            "kind,location,start_ts,end_ts,truncated\npir,Hall,0,5000,0\npir,Hall,9000\n",
            encoding="utf-8",
        )
        code, err = self.fuse(chain, path, tmp_path, capsys)
        assert code == 1
        assert self.error_line(err).startswith(f"error: {path}: line 3: ")

    def classify(self, chain, model, tmp_path, capsys):
        return run_cli(
            ["classify", "--in", str(chain / "features.csv"), "--model", str(model),
             "--out", str(tmp_path / "w.csv")],
            capsys,
        )

    def test_bundle_without_layers(self, chain, tmp_path, capsys):
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps({
            "format": neural.BUNDLE_FORMAT, "class_names": ["a"],
            "input_len": 128, "input_channels": 3,
        }))
        code, err = self.classify(chain, path, tmp_path, capsys)
        assert code == 1
        assert self.error_line(err) == f"error: {path}: missing key 'layers'"

    def test_centroids_without_a_matrix(self, chain, tmp_path, capsys):
        path = tmp_path / "centroids.json"
        path.write_text(json.dumps({
            "format": neural.CENTROID_FORMAT, "class_names": ["a"],
            "layout": features.LAYOUT_ACC,
        }))
        code, err = self.classify(chain, path, tmp_path, capsys)
        assert code == 1
        assert self.error_line(err) == f"error: {path}: missing key 'centroids'"

    @staticmethod
    def small_bundle() -> dict:
        """A valid weights bundle over the chain's filtered log, as JSON."""
        rng = np.random.default_rng(4)
        return {
            "format": neural.BUNDLE_FORMAT, "class_names": ["a", "b"],
            "input_len": 128, "input_channels": 3,
            "feature_norm": {"mean": [0.0, 0.0, 0.0], "scale": [1.0, 1.0, 1.0]},
            "layers": [
                {"kind": "conv1d", "params": {"activation": "relu"},
                 "weights": {"kernel": rng.normal(size=(3, 3, 2)).tolist(),
                             "bias": [0.0, 0.0]}},
                {"kind": "maxpool1d", "params": {"pool": 2, "stride": 2}},
                {"kind": "gru", "params": {"units": 2},
                 "weights": {"W": rng.normal(size=(3, 2, 2)).tolist(),
                             "U": rng.normal(size=(3, 2, 2)).tolist(),
                             "b": np.zeros((3, 2)).tolist()}},
                {"kind": "dense", "params": {"activation": "softmax"},
                 "weights": {"weights": np.eye(2).tolist(), "bias": [0.0, 0.0]}},
            ],
        }

    BAD_BUNDLES = {
        "conv_weights_null": lambda doc: doc["layers"][0].update(weights=None),
        "maxpool_stride_zero": lambda doc: doc["layers"][1]["params"].update(stride=0),
        "layers_not_a_list": lambda doc: doc.update(layers=5),
        "params_null": lambda doc: doc["layers"][0].update(params=None),
        "scale_not_numbers": lambda doc: doc["feature_norm"].update(scale=["x", "y", "z"]),
        "scale_too_short": lambda doc: doc["feature_norm"].update(scale=[1.0, 1.0]),
        # json reads NaN and Infinity; each used to fail later, naming no file
        "dense_bias_nan": lambda doc: doc["layers"][3]["weights"].update(
            bias=[float("nan"), 0.0]),
        "gru_W_infinite": lambda doc: doc["layers"][2]["weights"]["W"][0][0].__setitem__(
            0, float("inf")),
        "mean_nan": lambda doc: doc["feature_norm"].update(mean=[0.0, float("nan"), 0.0]),
    }

    def test_small_bundle_classifies(self, chain, tmp_path, capsys):
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(self.small_bundle()))
        code, _ = run_cli(["classify", "--in", str(chain / "filtered.csv"), "--model",
                           str(path), "--out", str(tmp_path / "w.csv")], capsys)
        assert code == 0

    def classify_short_log(self, tmp_path, capsys, *flags):
        """classify a 127-sample log with the small bundle (input_len 128)."""
        from homeactivity.simulate import synth_motion

        walk = synth_motion("Walk", 128 * 50)
        timeseries.write_inertial(tmp_path / "log.csv", timeseries.SampleSeries(
            walk.subject_id, walk.ts[:127], walk.xyz[:127]))
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(self.small_bundle()))
        return run_cli(["classify", "--in", str(tmp_path / "log.csv"), "--model",
                        str(path), "--out", str(tmp_path / "w.csv"),
                        "--probs", str(tmp_path / "p.csv"), *flags], capsys)

    def test_bundle_on_a_log_shorter_than_one_window_writes_headers(self, tmp_path,
                                                                   capsys):
        code, _ = self.classify_short_log(tmp_path, capsys)
        assert code == 0
        assert (tmp_path / "w.csv").read_text() == "window_start,window_end,label\n"
        assert (tmp_path / "p.csv").read_text() == "window_start,window_end,a,b\n"

    def test_bundle_rejects_another_window_length_with_no_window(self, tmp_path, capsys):
        """classify cuts a bundle's windows at its input_len; it takes no
        --window-len, so no other length can reach the bundle."""
        with pytest.raises(SystemExit) as refused:
            self.classify_short_log(tmp_path, capsys, "--window-len", "200")
        assert refused.value.code == 2
        assert "unrecognized arguments: --window-len 200" in capsys.readouterr().err
        assert not (tmp_path / "w.csv").exists()

    def test_bundle_window_length_is_checked_before_the_log_is_read(self, tmp_path,
                                                                   capsys):
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(self.small_bundle()))
        out = tmp_path / "run"
        code, err = run_cli(["pipeline", "--inertial", str(tmp_path / "absent.csv"),
                             "--events", str(tmp_path / "absent.ndjson"), "--model",
                             str(path), "--out", str(out), "--window-len", "32"], capsys)
        assert code == 1
        assert self.error_line(err) == (f"error: {path}: bundle takes 128-sample "
                                        "windows, not --window-len 32")
        assert not out.exists()

    def test_pipeline_checks_the_bundle_before_any_stage(self, chain, tmp_path, capsys):
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(self.small_bundle()))
        out = tmp_path / "run"
        code, err = run_cli(["pipeline", "--script", str(chain / "script.csv"), "--out",
                             str(out), "--model", str(path), "--window-len", "32"], capsys)
        assert code == 1
        assert self.error_line(err) == (f"error: {path}: bundle takes 128-sample "
                                        "windows, not --window-len 32")
        assert not out.exists()

    def test_bundle_of_other_channels_is_refused_at_load(self, tmp_path, capsys):
        """classify feeds a bundle acceleration only, even from a 9-field log."""
        log, path = tmp_path / "log.csv", tmp_path / "bundle.json"
        write_nine_field_log(log)
        neural.save_bundle(path, neural.make_default_bundle(("Lie", "Walk"),
                                                            input_channels=6, seed=3))
        code, err = run_cli(["classify", "--in", str(log), "--model", str(path),
                             "--out", str(tmp_path / "w.csv")], capsys)
        assert code == 1
        assert self.error_line(err) == (f"error: {path}: bundle takes 6 channels, but "
                                        "classify feeds it the 3 acceleration channels")
        assert not (tmp_path / "w.csv").exists()

    @pytest.mark.parametrize("change, values, layout", [
        ({"centroids": [[0.0] * 10] * 7, "scale": [1.0] * 10}, 10, repr(features.LAYOUT_ACC)),
        ({"layout": "bogus.v1"}, 43, "'bogus.v1'"),
    ], ids=["width_differs_from_layout", "unknown_layout"])
    def test_centroids_that_fit_no_layout_are_refused_at_load(
            self, chain, quiet_model, tmp_path, capsys, change, values, layout):
        path = tmp_path / "centroids.json"
        neural.save_centroids(path, quiet_model)
        path.write_text(json.dumps({**json.loads(path.read_text()), **change}))
        expected = (f"error: {path}: {values}-value centroids do not fit layout {layout}; "
                    f"layouts take {features.FEATURE_COUNTS}")
        code, err = self.classify(chain, path, tmp_path, capsys)
        assert code == 1
        assert self.error_line(err) == expected
        out = tmp_path / "run"
        code, err = run_cli(["pipeline", "--script", str(chain / "script.csv"), "--out",
                             str(out), "--model", str(path)], capsys)
        assert code == 1
        assert self.error_line(err) == expected
        assert not out.exists()

    def test_pipeline_parses_the_script_once(self, chain, tmp_path, capsys, monkeypatch):
        parsed = []

        def load_script(p, _load=simulate.load_script):
            parsed.append(p)
            return _load(p)

        monkeypatch.setattr(simulate, "load_script", load_script)
        script = str(chain / "script.csv")
        code, _ = run_cli(["pipeline", "--script", script, "--out", str(tmp_path / "run"),
                           "--model", str(chain / "model.json")], capsys)
        assert code == 0
        assert parsed == [script]

    def test_pipeline_parses_the_bundle_once(self, chain, tmp_path, capsys, monkeypatch):
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps({**self.small_bundle(), "class_names": ["Lie", "Sit"]}))
        parsed = []

        def read_json_object(p, _read=tables.read_json_object):
            parsed.append(p)
            return _read(p)

        monkeypatch.setattr(tables, "read_json_object", read_json_object)
        code, _ = run_cli(["pipeline", "--script", str(chain / "script.csv"), "--out",
                           str(tmp_path / "run"), "--model", str(path)], capsys)
        assert code == 0
        assert parsed == [str(path)]

    def test_unknown_time_zone_is_one_line_before_any_stage(self, chain, tmp_path, capsys):
        out = tmp_path / "run"
        code, err = run_cli(["pipeline", "--script", str(chain / "script.csv"), "--out",
                             str(out), "--model", str(chain / "model.json"),
                             "--timezone", "Mars/Base"], capsys)
        assert code == 1
        assert self.error_line(err) == "error: unknown time zone 'Mars/Base'"
        assert not out.exists()
        code, err = run_cli(["profile", "--in", str(chain / "labels.csv"), "--out",
                             str(tmp_path / "report.json"), "--timezone", "Mars/Base"], capsys)
        assert code == 1
        assert self.error_line(err) == "error: unknown time zone 'Mars/Base'"
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("case", BAD_BUNDLES)
    def test_malformed_bundle_is_one_line_naming_the_file(self, chain, tmp_path, capsys,
                                                          case):
        doc = self.small_bundle()
        self.BAD_BUNDLES[case](doc)
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(doc))
        code, err = run_cli(["classify", "--in", str(chain / "filtered.csv"), "--model",
                             str(path), "--out", str(tmp_path / "w.csv")], capsys)
        assert code == 1
        assert self.error_line(err).startswith(f"error: {path}: ")

    def test_return_sequences_must_be_a_boolean(self, chain, tmp_path, capsys):
        """The text "false" is no JSON boolean; read as truth, it used to
        fail at the dense layer with a message that named no option."""
        doc = self.small_bundle()
        doc["layers"][2]["params"]["return_sequences"] = "false"
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(doc))
        code, err = run_cli(["classify", "--in", str(chain / "filtered.csv"), "--model",
                             str(path), "--out", str(tmp_path / "w.csv")], capsys)
        assert code == 1
        assert self.error_line(err) == (
            f"error: {path}: gru return_sequences must be true or false, not 'false'")

    NOT_INTEGERS = {
        "pool_float": (lambda doc: doc["layers"][1]["params"].update(pool=2.9),
                       "maxpool1d pool must be an integer, not 2.9"),
        "stride_text": (lambda doc: doc["layers"][1]["params"].update(stride="2"),
                        "maxpool1d stride must be an integer, not '2'"),
        "units_float": (lambda doc: doc["layers"][2]["params"].update(units=2.7),
                        "gru units must be an integer, not 2.7"),
        "rate_text": (lambda doc: doc["layers"].insert(2, {"kind": "dropout",
                                                           "params": {"rate": "0.5"}}),
                      "dropout rate must be a number, not '0.5'"),
        "input_len_float": (lambda doc: doc.update(input_len=16.9),
                            "input_len must be an integer, not 16.9"),
        "input_len_text": (lambda doc: doc.update(input_len="16"),
                           "input_len must be an integer, not '16'"),
        "input_len_true": (lambda doc: doc.update(input_len=True),
                           "input_len must be an integer, not True"),
        "input_channels_float": (lambda doc: doc.update(input_channels=3.0),
                                 "input_channels must be an integer, not 3.0"),
    }

    @pytest.mark.parametrize("case", NOT_INTEGERS)
    def test_integer_fields_must_be_json_integers(self, chain, tmp_path, capsys, case):
        """Each was once truncated or converted by int() or float() and run."""
        edit, message = self.NOT_INTEGERS[case]
        doc = self.small_bundle()
        edit(doc)
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(doc))
        code, err = run_cli(["classify", "--in", str(chain / "filtered.csv"), "--model",
                             str(path), "--out", str(tmp_path / "w.csv")], capsys)
        assert code == 1
        assert self.error_line(err) == f"error: {path}: {message}"
        assert not (tmp_path / "w.csv").exists()

    def write_refused_model(self, case, path, quiet_model) -> str:
        """A model file in a format no command writes; its error message."""
        if case == "lstm_layer":
            doc = self.small_bundle()
            doc["layers"][2] = {"kind": "lstm", "params": {"units": 2},
                                "weights": {"W": np.zeros((4, 2, 2)).tolist(),
                                            "U": np.zeros((4, 2, 2)).tolist(),
                                            "b": np.zeros((4, 2)).tolist()}}
            path.write_text(json.dumps(doc))
            return "unknown layer kind 'lstm'"
        neural.save_centroids(path, quiet_model)
        doc = json.loads(path.read_text())
        if case == "scale_null":
            doc["scale"] = None
            message = "scale shape () != feature width"
        else:
            del doc["scale"]
            message = "missing key 'scale'"
        path.write_text(json.dumps(doc))
        return message

    @pytest.mark.parametrize("case", ["lstm_layer", "scale_null", "scale_absent"])
    def test_formats_no_command_writes_are_refused(self, chain, quiet_model, tmp_path,
                                                   capsys, case):
        """An LSTM layer, and a centroid file without divisors, are refused
        by classify and pipeline alike, before either writes a file."""
        path = tmp_path / "model.json"
        expected = f"error: {path}: {self.write_refused_model(case, path, quiet_model)}"
        code, err = run_cli(["classify", "--in", str(chain / "filtered.csv"), "--model",
                             str(path), "--out", str(tmp_path / "w.csv")], capsys)
        assert code == 1
        assert self.error_line(err) == expected
        assert not (tmp_path / "w.csv").exists()
        out = tmp_path / "run"
        code, err = run_cli(["pipeline", "--script", str(chain / "script.csv"), "--out",
                             str(out), "--model", str(path)], capsys)
        assert code == 1
        assert self.error_line(err) == expected
        assert not out.exists()

    def test_features_refuse_a_window_that_overflows(self, tmp_path, capsys):
        """Samples near 1e200 are finite, but their squares are not: the
        first window they reach is refused at its first line, with no
        NumPy warning and no feature file."""
        n = 300
        values = np.ones((n, 3))
        values[192:] = np.where(np.arange(n - 192)[:, None] % 2, -1e200, 1e200)
        log, out = tmp_path / "big.csv", tmp_path / "features.csv"
        timeseries.write_inertial(log, timeseries.SampleSeries(
            "s", np.arange(n, dtype=np.int64) * 50, values))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, err = run_cli(["features", "--in", str(log), "--out", str(out)], capsys)
        assert code == 1
        assert caught == []
        assert self.error_line(err) == (
            f"error: {log}: line 129: window 6400..12800 has a non-finite feature value")
        assert not out.exists()

    @staticmethod
    def classify_big_log(tmp_path, capsys, big_rows, big):
        """classify --model --probs of the stock seeded bundle over a
        384-sample log of zeros whose big_rows hold big; returns the exit
        code, the log's path, the stderr lines and the warnings raised."""
        values = np.zeros((384, 3))
        values[big_rows] = big
        log, model = tmp_path / "big.csv", tmp_path / "bundle.json"
        timeseries.write_inertial(log, timeseries.SampleSeries(
            "s", np.arange(384, dtype=np.int64) * 50, values))
        neural.save_bundle(model, neural.make_default_bundle(simulate.CLASSIFIER_CLASSES, seed=1))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, err = run_cli(["classify", "--in", str(log), "--model", str(model),
                                 "--out", str(tmp_path / "w.csv"),
                                 "--probs", str(tmp_path / "probs.csv")], capsys)
        return code, log, err.splitlines(), caught

    def test_classify_refuses_a_window_whose_scores_overflow(self, tmp_path, capsys):
        """Sixty samples of ±1.7e308 from line 201 on overflow the conv
        layers to a NaN score: the first window they reach is refused at
        its first line, with no NumPy warning and no output file."""
        big = 1.7e308 * (-1.0) ** np.arange(60)[:, None]
        code, log, lines, caught = self.classify_big_log(tmp_path, capsys, slice(200, 260), big)
        assert code == 1
        assert caught == []
        assert len(lines) == 2 and lines[0].startswith("config: ")
        assert lines[1] == (
            f"error: {log}: line 129: window 6400..12800 has a non-finite class score")
        assert not (tmp_path / "w.csv").exists() and not (tmp_path / "probs.csv").exists()

    def test_classify_takes_a_large_sample_whose_scores_stay_finite(self, tmp_path, capsys):
        """One sample of 1e300 overflows a GRU gate's exp, whose sigmoid is
        still 0 or 1: every score is finite, and nothing is printed."""
        code, _, lines, caught = self.classify_big_log(tmp_path, capsys, (200, 0), 1e300)
        assert code == 0
        assert caught == []
        assert len(lines) == 1 and lines[0].startswith("config: ")
        assert (tmp_path / "probs.csv").exists()

    BAD_CENTROIDS = {
        "class_names_not_a_list": {"class_names": 3},
        "centroids_not_numbers": {"centroids": "abc"},
        "ragged_centroids": {"centroids": [[0.0] * 43, [0.0] * 42]},
        "scale_too_short": {"scale": [1.0]},
        "centroid_nan": {"centroids": [[float("nan")] * 43] * 2 + [[0.0] * 43] * 5},
        "scale_infinite": {"scale": [float("inf")] + [1.0] * 42},
    }

    @pytest.mark.parametrize("case", BAD_CENTROIDS)
    def test_malformed_centroids_are_one_line_naming_the_file(
            self, chain, quiet_model, tmp_path, capsys, case):
        path = tmp_path / "centroids.json"
        neural.save_centroids(path, quiet_model)
        doc = json.loads(path.read_text())
        path.write_text(json.dumps({**doc, **self.BAD_CENTROIDS[case]}))
        code, err = self.classify(chain, path, tmp_path, capsys)
        assert code == 1
        assert self.error_line(err).startswith(f"error: {path}: ")

    def test_simulate_is_byte_deterministic(self, chain, tmp_path, capsys):
        outs = []
        for name in ("one", "two"):
            d = tmp_path / name
            code, _ = run_cli(
                ["simulate", "--script", str(chain / "script.csv"),
                 "--out", str(d), "--sigma", "0.3", "--dropout", "0.01",
                 "--seed", "5"],
                capsys,
            )
            assert code == 0
            outs.append(d)
        for name in ("inertial.csv", "events.ndjson", "truth_derived.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_pipeline_end_to_end(self, chain, tmp_path, capsys):
        out = tmp_path / "run"
        code, _ = run_cli(
            ["pipeline", "--script", str(chain / "script.csv"),
             "--out", str(out), "--model", str(chain / "model.json")],
            capsys,
        )
        assert code == 0
        for name in ("inertial.csv", "events.ndjson", "truth_derived.csv",
                     "filtered.csv", "features.csv", "basic_windows.csv",
                     "intervals.csv", "derived.csv", "window_labels.csv",
                     "report.json"):
            assert (out / name).exists(), name
        assert fusion.read_derived(out / "derived.csv") == fusion.read_derived(
            out / "truth_derived.csv"
        )
        doc = json.loads((out / "report.json").read_text())
        assert len(doc["days"]) == 1


# One noisy day with a tight gap limit, so filtering writes the log in
# many appended pieces.
GATE_NOISE = ["--sigma", "0.3", "--dropout", "0.05", "--seed", "5"]
GATE_MAX_GAP = ["--max-gap-ms", "100"]

# sha256 of the gate run's inertial, filtered and feature files, recorded
# with the per-line inertial reader and the per-sample f-string writer.
GATE_DIGESTS = {
    "inertial.csv": "3722ed300814e9e5e845018d19e421745bbef25396e9659495b2ae462f0f46df",
    "filtered.csv": "7522905b4e13aeb1a5ee18a174410036abcb47b19a4377c90edc616c2e8b1d49",
    "features.csv": "4212851bc84e8104bd740d6dbe64b70cbac64d9fa05e3e3d90cfdf5cf4965fc4",
}


@pytest.fixture(scope="module")
def gate_runs(chain, tmp_path_factory):
    """The same day run once as `pipeline` and once stage by stage."""
    d = tmp_path_factory.mktemp("gate")
    script, model = str(chain / "script.csv"), str(chain / "model.json")
    auto, hand = d / "pipeline", d / "hand"
    argv = ["pipeline", "--script", script, "--out", str(auto), "--model", model]
    assert cli.main(argv + GATE_NOISE + GATE_MAX_GAP) == 0

    def at(name):
        return str(hand / name)

    steps = [
        ["simulate", "--script", script, "--out", str(hand), *GATE_NOISE],
        ["filter", "--in", at("inertial.csv"), "--out", at("filtered.csv"), *GATE_MAX_GAP],
        ["features", "--in", at("filtered.csv"), "--out", at("features.csv")],
        ["classify", "--in", at("features.csv"), "--model", model,
         "--out", at("basic_windows.csv")],
        ["occupancy", "--events", at("events.ndjson"), "--out", at("intervals.csv")],
        ["fuse", "--windows", at("basic_windows.csv"), "--intervals", at("intervals.csv"),
         "--out", at("derived.csv")],
        ["label", "--in", at("derived.csv"), "--out", at("window_labels.csv")],
        ["profile", "--in", at("window_labels.csv"), "--out", at("report.json")],
    ]
    for argv in steps:
        assert cli.main(argv) == 0, argv[0]
    return auto, hand


class TestByteGate:
    def test_pipeline_matches_stages_by_hand(self, gate_runs):
        auto, hand = gate_runs
        names = sorted(p.name for p in hand.iterdir())
        assert names == sorted(p.name for p in auto.iterdir())
        for name in names:
            assert (auto / name).read_bytes() == (hand / name).read_bytes(), name

    def test_filter_appends_many_pieces(self, gate_runs):
        (series,) = timeseries.load_inertial(gate_runs[0] / "filtered.csv")
        assert len(timeseries.split_on_gaps(series)) > 10

    def test_inertial_and_feature_digests_are_pinned(self, gate_runs):
        auto, _ = gate_runs
        got = {
            name: hashlib.sha256((auto / name).read_bytes()).hexdigest()
            for name in GATE_DIGESTS
        }
        assert got == GATE_DIGESTS


def write_nine_field_log(path) -> None:
    """A 9-field (acceleration and gyroscope) log with single-sample holes,
    which filtering fills, and a 3 s hole, which splits it in two."""
    rng = np.random.default_rng(11)
    n = 1600
    keep = rng.random(n) >= 0.03
    keep[0] = keep[-1] = True
    keep[700:760] = False
    t = np.arange(n) / 20.0
    values = np.column_stack([
        np.sin(2 * np.pi * 1.7 * t), 9.8 + np.cos(2 * np.pi * 0.9 * t), 0.3 * t % 1.0,
        np.sin(2 * np.pi * 0.4 * t), np.cos(2 * np.pi * 2.3 * t), -0.2 * t % 0.5,
    ]) + rng.normal(0.0, 0.2, size=(n, 6))
    ts = 1_700_000_000_000 + 50 * np.arange(n)
    with open(path, "w", encoding="utf-8") as fh:
        for stamp, row in zip(ts[keep].tolist(), values[keep].tolist()):
            fh.write(f"p1,,{stamp}," + ",".join(f"{v:.6f}" for v in row) + ";\n")


# sha256 of each stage's output on the 9-field log, recorded before series
# held acceleration and gyroscope as one value matrix.
NINE_FIELD_DIGESTS = {
    "filtered.csv": "26be084c089c860f8b88bc11829d039beab02ba59dbaeb868a95dfbdcf945bf4",
    "segment.csv": "f9d1c82db5ab52053962d07a75cb31ef932b0183b741d0c8d248ae08dcba1a8a",
    "features.csv": "f8861b50d8853ba09af25e064d461767f2b4456e81832413ad25ad7379f62dfc",
    "basic_windows.csv": "80983b9997a0f19881cea8be975631b84d849949e4f032265ab6cf35af987c33",
    "probs.csv": "e237989dca31388173f3b7a17809e07b2c80c6fce654cd425c8d8d875a8fa5a3",
}


class TestNineFieldGate:
    def test_stage_digests_are_pinned(self, tmp_path, capsys):
        log, bundle = tmp_path / "log.csv", tmp_path / "bundle.json"
        write_nine_field_log(log)
        neural.save_bundle(bundle, neural.make_default_bundle(("Lie", "Walk"), seed=3))

        def at(name):
            return str(tmp_path / name)

        steps = [
            ["filter", "--in", str(log), "--out", at("filtered.csv")],
            ["segment", "--in", at("filtered.csv"), "--out", at("segment.csv")],
            ["features", "--in", at("filtered.csv"), "--out", at("features.csv"), "--gyro"],
            ["classify", "--in", at("filtered.csv"), "--model", str(bundle),
             "--out", at("basic_windows.csv"), "--probs", at("probs.csv")],
        ]
        for argv in steps:
            assert run_cli(argv, capsys)[0] == 0, argv[0]
        (series,) = timeseries.load_inertial(tmp_path / "filtered.csv")
        assert series.gyro is not None and len(timeseries.split_on_gaps(series)) == 2
        got = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in NINE_FIELD_DIGESTS
        }
        assert got == NINE_FIELD_DIGESTS


def run_by_hand(out, inertial, events, model, *filter_options):
    """The stage commands `pipeline --inertial ... --model` chains, one by
    one into `out`."""
    def at(name):
        return str(out / name)

    bundle = json.loads(model.read_text())["format"] == neural.BUNDLE_FORMAT
    steps = [
        ["filter", "--in", str(inertial), "--out", at("filtered.csv"), *filter_options],
        ["features", "--in", at("filtered.csv"), "--out", at("features.csv")],
        ["classify", "--in", at("filtered.csv" if bundle else "features.csv"),
         "--model", str(model), "--out", at("basic_windows.csv")],
        ["occupancy", "--events", str(events), "--out", at("intervals.csv")],
        ["fuse", "--windows", at("basic_windows.csv"), "--intervals", at("intervals.csv"),
         "--out", at("derived.csv")],
        ["label", "--in", at("derived.csv"), "--out", at("window_labels.csv")],
        ["profile", "--in", at("window_labels.csv"), "--out", at("report.json")],
    ]
    out.mkdir()
    for argv in steps:
        assert cli.main(argv) == 0, argv[0]


def assert_same_files(a, b):
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


class TestHandOff:
    """`pipeline` hands each table on as it reads back, never re-reading a
    file it wrote, and writes the bytes of the stages by hand."""

    READERS = [(timeseries, "load_inertial"), (features, "read_features"),
               (pipeline, "read_basic_windows"), (occupancy, "read_intervals"),
               (fusion, "read_derived"), (labelling, "read_window_labels"),
               (ambient, "load_events")]

    @pytest.fixture
    def reads(self, monkeypatch):
        """(reader, path) of each call of a log's or a table's reader."""
        made = []
        for module, name in self.READERS:
            def counted(path, *args, _read=getattr(module, name), _name=name):
                made.append((_name, str(path)))
                return _read(path, *args)

            monkeypatch.setattr(module, name, counted)
        return made

    @pytest.mark.parametrize("model", ["centroids", "bundle", "calibrated"])
    def test_a_simulated_log_is_never_read(self, chain, tmp_path, reads, model, capsys):
        argv = ["pipeline", "--script", str(chain / "script.csv"), "--out", str(tmp_path / "run"),
                *GATE_NOISE, *GATE_MAX_GAP]
        if model == "centroids":
            argv += ["--model", str(chain / "model.json")]
        elif model == "bundle":
            neural.save_bundle(tmp_path / "bundle.json",
                               neural.make_default_bundle(("Lie", "Sit"), seed=3))
            argv += ["--model", str(tmp_path / "bundle.json")]
        assert run_cli(argv, capsys)[0] == 0
        assert reads == []

    def test_the_users_log_is_read_once(self, gate_runs, tmp_path, reads, capsys):
        _, hand = gate_runs
        log, events = hand / "inertial.csv", hand / "events.ndjson"
        argv = ["pipeline", "--inertial", str(log), "--events", str(events),
                "--out", str(tmp_path / "run")]
        assert run_cli(argv, capsys)[0] == 0
        assert reads == [("load_inertial", str(log)), ("load_events", str(events))]

    def test_a_gapped_log_gives_the_bytes_by_hand(self, chain, gate_runs, tmp_path, capsys):
        _, hand = gate_runs
        log, events, model = hand / "inertial.csv", hand / "events.ndjson", chain / "model.json"
        auto = tmp_path / "pipeline"
        argv = ["pipeline", "--inertial", str(log), "--events", str(events), "--out", str(auto),
                "--model", str(model), *GATE_MAX_GAP]
        assert run_cli(argv, capsys)[0] == 0
        run_by_hand(tmp_path / "hand", log, events, model, *GATE_MAX_GAP)
        assert_same_files(auto, tmp_path / "hand")
        (series,) = timeseries.load_inertial(auto / "filtered.csv")
        assert len(timeseries.split_on_gaps(series)) > 10

    def test_a_nine_field_log_gives_the_bytes_by_hand(self, chain, tmp_path, capsys):
        log, bundle = tmp_path / "log.csv", tmp_path / "bundle.json"
        write_nine_field_log(log)
        neural.save_bundle(bundle, neural.make_default_bundle(("Lie", "Walk"), seed=3))
        events = chain / "events.ndjson"
        auto = tmp_path / "pipeline"
        argv = ["pipeline", "--inertial", str(log), "--events", str(events), "--out", str(auto),
                "--model", str(bundle)]
        assert run_cli(argv, capsys)[0] == 0
        run_by_hand(tmp_path / "hand", log, events, bundle)
        assert_same_files(auto, tmp_path / "hand")

    def test_a_log_the_reader_refuses_fails_as_by_hand(self, tmp_path, capsys):
        """Days that overlap, a block running past midnight into the next
        day's first, would make a log no reader takes: `pipeline` and
        `simulate` by hand both refuse the script, naming the line of its
        last entry, before either makes its `--out` directory."""
        script = tmp_path / "script.csv"
        write_script(script, [ScheduleEntry(3_600_000, 60_000, "Hall", "Sit"),
                              ScheduleEntry(MS_PER_DAY - 60_000, 7_200_000, "Hall", "Walk")])
        auto, hand = tmp_path / "pipeline", tmp_path / "hand"
        code, err = run_cli(["pipeline", "--script", str(script), "--out", str(auto),
                             "--days", "2"], capsys)
        assert code == 1
        code, by_hand = run_cli(["simulate", "--script", str(script), "--out", str(hand),
                                 "--days", "2"], capsys)
        assert code == 1
        assert TestCli.error_line(err) == TestCli.error_line(by_hand) == (
            f"error: {script}: line 3: entries overlap at clock offset 3600000 ms "
            "of the next day")
        assert not auto.exists() and not hand.exists()

    def by_hand_until_it_fails(self, out, script, model, failing):
        """The stage commands `pipeline --script ... --model` chains, run by
        hand into `out` until `failing`, which must fail; its stderr."""
        def at(name):
            return str(out / name)

        bundle = json.loads(model.read_text())["format"] == neural.BUNDLE_FORMAT
        steps = [
            ["simulate", "--script", str(script), "--out", str(out)],
            ["filter", "--in", at("inertial.csv"), "--out", at("filtered.csv")],
            ["features", "--in", at("filtered.csv"), "--out", at("features.csv")],
            ["classify", "--in", at("filtered.csv" if bundle else "features.csv"),
             "--model", str(model), "--out", at("basic_windows.csv")],
            ["occupancy", "--events", at("events.ndjson"), "--out", at("intervals.csv")],
            ["fuse", "--windows", at("basic_windows.csv"), "--intervals", at("intervals.csv"),
             "--out", at("derived.csv")],
        ]
        for argv in steps:
            if argv[0] == failing:
                assert cli.main(argv) == 1
                return
            assert cli.main(argv) == 0, argv[0]
        raise AssertionError(f"no step {failing}")

    def assert_fails_as_by_hand(self, chain, tmp_path, capsys, model, failing):
        """`pipeline` over the chain's script fails with the error line of
        the stage `failing` run by hand, its own directory in the path."""
        auto, hand = tmp_path / "pipeline", tmp_path / "hand"
        code, err = run_cli(["pipeline", "--script", str(chain / "script.csv"),
                             "--out", str(auto), "--model", str(model)], capsys)
        assert code == 1
        self.by_hand_until_it_fails(hand, chain / "script.csv", model, failing)
        by_hand = capsys.readouterr().err
        assert (TestCli.error_line(err).replace(str(auto), "<out>")
                == TestCli.error_line(by_hand).replace(str(hand), "<out>"))
        return TestCli.error_line(err)

    def test_a_bundle_class_fuse_does_not_know_fails_as_by_hand(self, chain, tmp_path,
                                                                   capsys):
        """The windows are handed on; the error still names the line of the
        first window with a class that is no basic activity."""
        model = tmp_path / "bundle.json"
        neural.save_bundle(model, neural.make_default_bundle(("Nap", "Sit"), seed=1))
        error = self.assert_fails_as_by_hand(chain, tmp_path, capsys, model, "fuse")
        head = f"error: {tmp_path / 'pipeline' / 'basic_windows.csv'}: line "
        assert error.startswith(head) and error.endswith(": unknown basic activity 'Nap'")

    def test_a_non_finite_feature_fails_as_by_hand(self, chain, tmp_path, capsys,
                                                  monkeypatch):
        """features refuses a window with a non-finite feature, naming the
        line of its first sample, and writes no feature file."""
        extract = features.extract_all

        def with_inf(batch, *args):
            matrix, spans = extract(batch, *args)
            matrix[5, 3] = np.inf
            return matrix, spans

        monkeypatch.setattr(features, "extract_all", with_inf)
        error = self.assert_fails_as_by_hand(chain, tmp_path, capsys, chain / "model.json",
                                             "features")
        assert error == (f"error: {tmp_path / 'pipeline' / 'filtered.csv'}: line 321: "
                         "window 21616000..21622400 has a non-finite feature value")
        assert not (tmp_path / "pipeline" / "features.csv").exists()


# Text a table cell carries: any that UTF-8 encodes. Python 3.10's csv
# reader refuses NUL, so there a label with NUL fails to read back.
_CELL = st.text(st.characters(exclude_categories=("Cs",),
                              exclude_characters="\x00" if sys.version_info < (3, 11) else ""),
                max_size=8)
_TS = st.integers(-(2**63), 2**63 - 2)


@st.composite
def _spans(draw):
    start = draw(_TS)
    return start, draw(st.integers(start + 1, 2**63 - 1))


class TestHandedTablesReadBack:
    """Each table `pipeline` hands on is the value its reader gives back
    from the written file. The inertial log's is TestAsLogged's property
    (tests/test_inertial_io.py)."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(_spans(), _CELL), max_size=6))
    def test_basic_windows(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("t") / "basic_windows.csv"
        windows = [(*span, label) for span, label in rows]
        pipeline.write_basic_windows(path, windows)
        assert pipeline.read_basic_windows(path) == windows

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(_spans(), st.sampled_from(ambient.EVENT_KINDS), st.data(),
                              st.booleans()), max_size=6))
    def test_intervals(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("t") / "intervals.csv"
        intervals = [
            occupancy.Interval(start, end, kind, data.draw(st.sampled_from(
                ambient.ROOMS if kind == "pir" else ambient.APPLIANCES)), truncated)
            for (start, end), kind, data, truncated in rows]
        occupancy.write_intervals(path, intervals)
        assert occupancy.read_intervals(path) == intervals

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(_TS, _CELL, st.sampled_from(fusion.FLAGS)), max_size=6))
    def test_derived_timeline(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("t") / "derived.csv"
        timeline = [(ts, fusion.DerivedActivity(name, flag)) for ts, name, flag in rows]
        fusion.write_derived(path, runs_of_ticks(timeline, fusion.DEFAULT_TICK_MS))
        assert fusion.read_derived(path) == timeline

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(_spans(), _CELL, st.sampled_from(labelling.METHODS)),
                    max_size=6))
    def test_window_labels(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("t") / "window_labels.csv"
        windows = [labelling.WindowLabel(*span, label, method) for span, label, method in rows]
        labelling.write_window_labels(path, windows)
        assert labelling.read_window_labels(path) == windows

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(_TS, st.sampled_from(ambient.EVENT_KINDS), st.data(),
                              st.booleans()), max_size=6))
    def test_events(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("t") / "events.ndjson"
        events = [
            ambient.AmbientEvent(ts, kind, data.draw(st.sampled_from(
                ambient.ROOMS if kind == "pir" else ambient.APPLIANCES)), state)
            for ts, kind, data, state in rows]
        ambient.write_events(path, events)
        assert ambient.load_events(path) == events

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(_spans(), st.lists(st.floats(allow_nan=False,
                                                           allow_infinity=False),
                                                 min_size=43, max_size=43)),
                    min_size=1, max_size=4))
    def test_features(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("t") / "features.csv"
        spans = [span for span, _ in rows]
        matrix = np.array([values for _, values in rows])
        features.write_features(path, matrix, spans, features.LAYOUT_ACC)
        back, back_spans, layout = features.read_features(path)
        assert back.tobytes() == features.read_back(matrix).tobytes()
        assert (back_spans, layout) == (spans, features.LAYOUT_ACC)
