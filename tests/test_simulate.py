"""Scripted household synthesis and classifier calibration."""

import numpy as np
import pytest

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
    def test_shorter_than_a_window_rejected(self):
        with pytest.raises(ValueError, match="window"):
            synth_motion("Walk", 6_000)

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

    def test_calibration_is_deterministic(self):
        noise = NoiseSpec(0.25, 0.01, seed=5)
        a = calibrate_centroids(noise, windows_per_class=8)
        b = calibrate_centroids(noise, windows_per_class=8)
        np.testing.assert_array_equal(a.centroids, b.centroids)
        np.testing.assert_array_equal(a.scale, b.scale)
