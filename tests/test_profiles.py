"""Bout formation and day/week aggregation of labelled windows."""

import json
import re
from datetime import date, datetime
from zoneinfo import ZoneInfo

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homeactivity import cli
from homeactivity.labelling import NO_DATA, WindowLabel, write_window_labels
from homeactivity.profiles import (
    DAY_BOUNDARY_ERROR,
    Bout,
    bouts,
    day_profile,
    day_report,
    interval_query,
    split_days,
    week_profile,
    week_report,
    write_report_json,
)
from oracles import bouts_loop

SPAN = 120_000
DAY1 = 1_000 * 86_400 * 19_700  # 2023-12-09 UTC midnight


def seq(start, labels, span=SPAN):
    return [
        WindowLabel(start + i * span, start + (i + 1) * span, lab, "frequency")
        for i, lab in enumerate(labels)
    ]


class TestBouts:
    def test_contiguous_same_labels_coalesce(self):
        got = bouts(seq(0, ["a", "a", "b", "a"]))
        assert got == [
            Bout("a", 0, 2 * SPAN),
            Bout("b", 2 * SPAN, 3 * SPAN),
            Bout("a", 3 * SPAN, 4 * SPAN),
        ]

    def test_nodata_terminates_and_is_not_counted(self):
        got = bouts(seq(0, ["a", NO_DATA, "a"]))
        assert [b.label for b in got] == ["a", "a"]
        assert len(got) == 2

    def test_hole_terminates_run(self):
        windows = seq(0, ["a"]) + seq(5 * SPAN, ["a"])
        assert len(bouts(windows)) == 2

    def test_overlap_rejected(self):
        windows = [WindowLabel(0, SPAN, "a", "frequency"),
                   WindowLabel(SPAN // 2, SPAN, "a", "frequency")]
        with pytest.raises(ValueError, match="ordered"):
            bouts(windows)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(-SPAN, 3 * SPAN), st.integers(1, 2 * SPAN),
                              st.sampled_from(["a", "b", NO_DATA])), max_size=40))
    def test_matches_the_loop(self, steps):
        """Steps from the previous end: negative overlaps, zero is
        contiguous, positive leaves a hole."""
        windows, end = [], 0
        for step, span, label in steps:
            windows.append(WindowLabel(end + step, end + step + span, label, "frequency"))
            end += step + span
        try:
            want = bouts_loop(windows)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                bouts(windows)
        else:
            assert bouts(windows) == want


class TestDayProfile:
    def test_durations_counts_and_coverage(self):
        windows = seq(DAY1, ["walk", "walk", NO_DATA, "sit", "walk"])
        p = day_profile(windows)
        assert p.day == date(2023, 12, 9)
        assert p.duration_ms == {"walk": 3 * SPAN, "sit": SPAN}
        assert p.bout_count == {"walk": 2, "sit": 1}
        assert p.coverage_ms == 5 * SPAN
        assert p.nodata_ms == SPAN
        assert p.share("walk") == pytest.approx(0.6)

    def test_windows_crossing_midnight_rejected(self):
        windows = [WindowLabel(DAY1 + 86_400_000 - SPAN // 2,
                               DAY1 + 86_400_000 + SPAN // 2, "a", "frequency")]
        with pytest.raises(ValueError, match=DAY_BOUNDARY_ERROR):
            day_profile(windows)

    def test_windows_of_two_days_rejected(self):
        windows = seq(DAY1, ["a"]) + seq(DAY1 + 86_400_000, ["a"])
        with pytest.raises(ValueError, match=DAY_BOUNDARY_ERROR):
            day_profile(windows)

    def test_timezone_changes_the_day(self):
        windows = seq(DAY1, ["a"])
        east = day_profile(windows, tz=ZoneInfo("Etc/GMT-5"))  # UTC+5
        assert east.day == date(2023, 12, 9)
        west = day_profile(windows, tz=ZoneInfo("Etc/GMT+11"))  # UTC-11
        assert west.day == date(2023, 12, 8)


class TestSplitAndWeek:
    def week_windows(self):
        out = []
        for d in range(7):
            start = DAY1 + d * 86_400_000
            labels = ["walk", "sit"] if d % 2 == 0 else ["sit", "sit"]
            out.extend(seq(start, labels))
        return out

    def test_split_days_groups_by_local_date(self):
        groups = split_days(self.week_windows())
        assert len(groups) == 7
        assert all(len(g) == 2 for g in groups)

    def test_week_profile_occurrence_grid(self):
        week = week_profile([day_profile(g) for g in split_days(self.week_windows())])
        assert week.occurrence["walk"] == (True, False, True, False, True, False, True)
        assert week.occurrence["sit"] == (True,) * 7

    def london_windows(self):
        """Walking from 2024-03-30 to 2024-04-01 local time; Europe/London
        springs forward at 01:00 UTC on 2024-03-31, a day of 23 hours."""
        tz = ZoneInfo("Europe/London")
        start = int(datetime(2024, 3, 30, tzinfo=tz).timestamp() * 1000)
        end = int(datetime(2024, 4, 2, tzinfo=tz).timestamp() * 1000)
        return seq(start, ["walk"] * ((end - start) // SPAN))

    def test_days_across_a_dst_change(self):
        london = ZoneInfo("Europe/London")
        days = [day_profile(g, london) for g in split_days(self.london_windows(), london)]
        assert [d.day for d in days] == [date(2024, 3, 30), date(2024, 3, 31),
                                          date(2024, 4, 1)]
        hour = 3_600_000
        assert [d.coverage_ms for d in days] == [24 * hour, 23 * hour, 24 * hour]
        assert [d.bout_count for d in days] == [{"walk": 1}] * 3

    def test_profile_command_across_a_dst_change(self, tmp_path):
        labels, path = tmp_path / "labels.csv", tmp_path / "report.json"
        write_window_labels(labels, self.london_windows())
        argv = ["profile", "--in", str(labels), "--out", str(path),
                "--timezone", "Europe/London"]
        assert cli.main(argv) == 0
        doc = json.loads(path.read_text())
        assert [(d["day"], d["coverage_ms"]) for d in doc["days"]] == [
            ("2024-03-30", 86_400_000), ("2024-03-31", 82_800_000),
            ("2024-04-01", 86_400_000)]

    def test_week_needs_seven_consecutive_days(self):
        days = [day_profile(g) for g in split_days(self.week_windows())]
        with pytest.raises(ValueError, match="expected 7"):
            week_profile(days[:5])
        with pytest.raises(ValueError, match="consecutive"):
            week_profile(days[:3] + days[4:] + [days[3]])


class TestIntervalQuery:
    def test_clock_range_filters_and_counts(self):
        # 06:00 on day one, four windows: walk walk sit walk
        start = DAY1 + 6 * 3_600_000
        windows = seq(start, ["walk", "walk", "sit", "walk"])
        count, duration = interval_query(windows, "06:00", "06:04", "walk")
        assert (count, duration) == (1, 2 * SPAN)
        count, duration = interval_query(windows, "06:06", "06:08", "walk")
        assert (count, duration) == (1, SPAN)

    def test_range_is_half_open(self):
        start = DAY1 + 6 * 3_600_000
        windows = seq(start, ["walk"])
        assert interval_query(windows, "05:58", "06:00", "walk") == (0, 0)

    def test_inverted_range_rejected(self):
        with pytest.raises(ValueError, match="inverted"):
            interval_query([], "07:00", "06:00", "walk")


class TestReports:
    def test_day_report_sorts_by_duration(self):
        p = day_profile(seq(DAY1, ["b", "a", "a"]))
        doc = day_report(p)
        assert [row["label"] for row in doc["activities"]] == ["a", "b"]
        assert doc["activities"][0]["share"] == pytest.approx(2 / 3, abs=1e-6)

    def test_report_json_bytes_are_stable(self, tmp_path):
        doc = week_report(week_profile(
            [day_profile(g) for g in split_days(TestSplitAndWeek().week_windows())]
        ))
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_report_json(p1, doc)
        write_report_json(p2, doc)
        assert p1.read_bytes() == p2.read_bytes()
        assert json.loads(p1.read_text())["occurrence"]["walk"][0] is True

    def test_report_csv_appends_nodata_row(self, tmp_path):
        labels, path = tmp_path / "labels.csv", tmp_path / "share.csv"
        write_window_labels(labels, seq(DAY1, ["a", NO_DATA]))
        argv = ["report", "--in", str(labels), "--out", str(path), "--format", "csv"]
        assert cli.main(argv) == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "day,label,duration_ms,share"
        assert lines[1] == "2023-12-09,a,120000,0.500000"
        assert lines[2] == "2023-12-09,NoData,120000,0.500000"
        assert len(lines) == 3
