"""Scripted household synthesis and classifier calibration."""

import hashlib

import numpy as np
import pytest

from homeactivity import pipeline, simulate, timeseries
from homeactivity.ambient import AmbientEvent
from homeactivity.fusion import load_default_rules
from homeactivity.simulate import (
    CLASSIFIER_CLASSES,
    QUIET,
    NoiseSpec,
    ScheduleEntry,
    ScriptError,
    calibrate_centroids,
    generate_day,
    load_script,
    synth_motion,
    write_script,
)
from homeactivity.timeseries import FilterSpec, butterworth_lowpass, segment
from homeactivity.features import extract_all


class TestNoiseSpec:
    def test_scalar_sigma_broadcasts(self):
        assert NoiseSpec(gaussian_sigma=0.5).gaussian_sigma == (0.5, 0.5, 0.5)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            NoiseSpec(gaussian_sigma=(0.1, -0.1, 0.1))

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf"), (0.1, 0.1, float("-inf"))])
    def test_non_finite_sigma_rejected(self, sigma):
        with pytest.raises(ValueError, match="gaussian_sigma must be three finite values"):
            NoiseSpec(gaussian_sigma=sigma)

    def test_dropout_bounds(self):
        with pytest.raises(ValueError, match="dropout"):
            NoiseSpec(dropout_prob=1.0)


class TestScript:
    def entry(self, **kw):
        base = dict(clock_start_ms=0, duration_ms=600_000, room="Bedroom",
                    basic="Lie")
        base.update(kw)
        return ScheduleEntry(**base)

    def test_sleep_cannot_be_scripted(self):
        with pytest.raises(ScriptError, match="script Lie instead"):
            self.entry(basic="Sleep")

    def test_unknown_names_rejected(self):
        with pytest.raises(ScriptError, match="room"):
            self.entry(room="Attic")
        with pytest.raises(ScriptError, match="basic"):
            self.entry(basic="Fly")
        with pytest.raises(ScriptError, match="appliance"):
            self.entry(appliances=frozenset({"toaster"}))

    def test_clock_must_fit_one_day(self):
        with pytest.raises(ScriptError, match="outside one day"):
            self.entry(clock_start_ms=86_400_000)

    def test_file_roundtrip(self, tmp_path):
        script = [
            ScheduleEntry(21_600_000, 480_000, "Bedroom", "Lie"),
            ScheduleEntry(22_080_000, 240_000, "Kitchen", "Sit",
                          frozenset({"water_bottle"})),
        ]
        path = tmp_path / "script.csv"
        write_script(path, script)
        assert load_script(path) == script

    def test_overlapping_entries_rejected(self, tmp_path):
        path = tmp_path / "script.csv"
        path.write_text(
            "clock_start,duration_s,room,basic,appliances\n"
            "06:00:00,600,Bedroom,Lie,\n"
            "06:05:00,60,Kitchen,Walk,\n",
            encoding="utf-8",
        )
        with pytest.raises(ScriptError, match="overlap"):
            load_script(path)


class TestSynthMotion:
    def test_quiet_postures_are_constant(self):
        stand = synth_motion("Stand", 12_800)
        np.testing.assert_array_equal(stand.xyz[0], stand.xyz[-1])
        lie = synth_motion("Lie", 12_800)
        assert lie.xyz[0, 0] == pytest.approx(9.81)

    def test_dropout_keeps_grid_anchor(self):
        rng = np.random.default_rng(1)
        s = synth_motion("Walk", 64_000, noise=NoiseSpec(dropout_prob=0.3),
                         rng=rng)
        assert s.ts[0] == 0
        assert len(s) < 64_000 // 50

    def test_same_seed_same_samples(self):
        a = synth_motion("Jog", 12_800, noise=NoiseSpec(0.5, seed=9))
        b = synth_motion("Jog", 12_800, noise=NoiseSpec(0.5, seed=9))
        np.testing.assert_array_equal(a.xyz, b.xyz)


class TestGenerateDay:
    script = [
        ScheduleEntry(21_600_000, 360_000, "Bedroom", "Lie"),
        ScheduleEntry(21_960_000, 120_000, "Hall", "Sit", frozenset({"tv"})),
    ]

    def test_events_trace_rooms_and_appliances(self, default_rules):
        day = generate_day(self.script, QUIET, default_rules)
        assert day.events == [
            AmbientEvent(21_600_000, "pir", "Bedroom", True),
            AmbientEvent(21_960_000, "pir", "Bedroom", False),
            AmbientEvent(21_960_000, "pir", "Hall", True),
            AmbientEvent(21_960_000, "relay", "tv", True),
            AmbientEvent(22_080_000, "pir", "Hall", False),
            AmbientEvent(22_080_000, "relay", "tv", False),
        ]

    def test_truth_applies_sleep_and_fusion(self, default_rules):
        day = generate_day(self.script, QUIET, default_rules)
        names = [d.name for _, d in day.derived_ticks]
        # 360 s of lying crosses the five-minute threshold
        assert names[:72] == ["Sleeping in Bedroom"] * 72
        assert names[72:] == ["Watching TV Sitting"] * 24

    def test_scripted_gap_closes_context(self, default_rules):
        gappy = [
            ScheduleEntry(21_600_000, 120_000, "Bedroom", "Stand"),
            ScheduleEntry(21_900_000, 120_000, "Bedroom", "Stand"),
        ]
        day = generate_day(gappy, QUIET, default_rules)
        states = [(e.ts, e.state) for e in day.events if e.location == "Bedroom"]
        assert states == [(21_600_000, True), (21_720_000, False),
                          (21_900_000, True), (22_020_000, False)]

    def test_day_offset_shifts_everything(self, default_rules):
        base = generate_day(self.script, QUIET, default_rules, day_start_ms=0)
        moved = generate_day(self.script, QUIET, default_rules,
                             day_start_ms=86_400_000)
        assert moved.series.ts[0] - base.series.ts[0] == 86_400_000
        assert moved.events[0].ts - base.events[0].ts == 86_400_000

    def test_deterministic_per_seed(self, default_rules):
        noise = NoiseSpec(0.5, 0.02, seed=3)
        a = generate_day(self.script, noise, default_rules)
        b = generate_day(self.script, noise, default_rules)
        np.testing.assert_array_equal(a.series.ts, b.series.ts)
        np.testing.assert_array_equal(a.series.xyz, b.series.xyz)
        assert a.events == b.events and a.derived_ticks == b.derived_ticks


class TestCalibration:
    def test_model_covers_all_classes(self, quiet_model):
        assert quiet_model.class_names == CLASSIFIER_CLASSES
        assert quiet_model.layout == "acc43.v1"
        assert quiet_model.centroids.shape == (7, 43)
        assert np.all(quiet_model.scale > 0)

    def test_steady_windows_classify_correctly(self, quiet_model):
        spec = FilterSpec()
        for basic in CLASSIFIER_CLASSES:
            series = synth_motion(basic, 64_000)
            filtered = butterworth_lowpass(series, spec)
            matrix, _ = extract_all(segment(filtered))
            for label in quiet_model.classify(matrix[2:]):
                assert label == basic

    @pytest.mark.parametrize("dropout, window_len, digest", [
        (0.05, 128, "b148cc0cb6ecb7c9d4baa7ca46cea380c1576ef9b6db6970489cc3ab3fa19b1c"),
        # gaps over a second split each run into up to 5 pieces
        (0.8, 16, "de6fc5eaff1cdcbc1d423761794bf969d5bcde16f67d7ab8c027edf1e8f57d97"),
    ])
    def test_centroid_and_scale_digests_are_pinned(self, dropout, window_len, digest):
        """sha256 of the centroids and scale, recorded while each run's
        windows were extracted on their own, piece by piece."""
        model = calibrate_centroids(NoiseSpec((0.5, 0.3, 0.8), dropout, seed=7),
                                    window_len=window_len)
        got = hashlib.sha256(model.centroids.tobytes() + model.scale.tobytes()).hexdigest()
        assert got == digest

    def test_each_window_is_the_one_the_pipeline_makes_of_its_samples(
            self, tmp_path, monkeypatch):
        """Every window calibrate_centroids extracts is, bit for bit, a
        window that `filter` and `segment` make of its run's raw samples
        logged by write_inertial; so each value is its own logged value."""
        calls = []

        def recording(function):
            def record(*args):
                calls.append((function.__name__, args[0], function(*args)))
                return calls[-1][2]
            return record

        for name in ("logged", "segment", "extract_all"):
            monkeypatch.setattr(simulate, name, recording(getattr(simulate, name)))
        calibrate_centroids(NoiseSpec(0.5, 0.05, seed=2), window_len=32)
        logged_args, windows, runs = [], set(), 0
        for name, arg, out in calls:
            if name == "logged":
                logged_args.append(arg)
            elif name == "segment":  # each run is logged raw, then filtered
                timeseries.write_inertial(tmp_path / "raw.csv", logged_args[-2])
                pipeline.stage_filter(tmp_path / "raw.csv", tmp_path / "filtered.csv")
                (back,) = timeseries.load_inertial(tmp_path / "filtered.csv")
                want = segment(back, 32)
                assert same_bits(out.values, want.values)
                assert same_bits(out.start_ts, want.start_ts)
                assert same_bits(out.end_ts, want.end_ts)
                values = out.values.ravel()
                assert same_bits(values, np.array([float("%.6f" % v) for v in values.tolist()]))
                windows.update(w.tobytes() for w in want.values)
                runs += 1
            else:
                assert all(w.tobytes() in windows for w in arg.values)
        assert runs == 7 * 7

    def test_calibration_is_deterministic(self):
        noise = NoiseSpec(0.25, 0.01, seed=5)
        a = calibrate_centroids(noise)
        b = calibrate_centroids(noise)
        np.testing.assert_array_equal(a.centroids, b.centroids)
        np.testing.assert_array_equal(a.scale, b.scale)


def same_bits(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
