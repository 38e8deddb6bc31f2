"""Priority-then-frequency window labelling over tick timelines."""

from datetime import datetime
from zoneinfo import ZoneInfo

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homeactivity.labelling import (
    EMPTY_PRIORITIES,
    NO_DATA,
    WINDOW_SPANS_MIN,
    PriorityFileError,
    PriorityTable,
    WindowLabel,
    label_window,
    load_default_priorities,
    load_priorities,
    read_window_labels,
    windowize,
    write_window_labels,
)
from oracles import write_priorities


class TestPriorityTable:
    table = PriorityTable(
        {"Drinking Activity": 1, "Sitting in Hall": 2, "Kitchen Activity": 2,
         "Walking Outside": 3},
    )

    def test_rank_lookup_is_case_insensitive(self):
        assert self.table.rank("drinking activity") == 1
        assert self.table.rank("WALKING OUTSIDE") == 3

    def test_unranked_labels_have_no_rank(self):
        assert self.table.rank("Grooming") is None

    def test_canonicalize_restores_spelling(self):
        assert self.table.canonicalize("walking outside") == "Walking Outside"
        assert self.table.canonicalize("Grooming") == "Grooming"

    def test_vocabulary_entries_canonicalize_without_ranking(self):
        t = PriorityTable({"A": 1}, vocabulary=["Walking Outside"])
        assert t.canonicalize("walking outside") == "Walking Outside"
        assert t.rank("Walking Outside") is None

    def test_ranks_start_at_one(self):
        with pytest.raises(ValueError, match=">= 1"):
            PriorityTable({"A": 0})


class TestLabelWindow:
    def test_any_ranked_label_wins(self):
        label, method = label_window(
            ["Sitting in Hall"] * 9 + ["Drinking Activity"],
            TestPriorityTable.table,
        )
        assert (label, method) == ("Drinking Activity", "priority")

    def test_rank_ties_break_on_first_occurrence(self):
        label, _ = label_window(
            ["Kitchen Activity", "Sitting in Hall", "Sitting in Hall"],
            TestPriorityTable.table,
        )
        assert label == "Kitchen Activity"

    def test_majority_wins_without_priorities(self):
        label, method = label_window(["a", "b", "b"], EMPTY_PRIORITIES)
        assert (label, method) == ("b", "frequency")

    def test_frequency_tie_takes_latest_first_seen(self):
        label, method = label_window(["a", "a", "b", "b"], EMPTY_PRIORITIES)
        assert (label, method) == ("b", "tie")

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError, match="no labels"):
            label_window([], EMPTY_PRIORITIES)


class TestWindowize:
    def test_spans_are_restricted(self):
        assert WINDOW_SPANS_MIN == (2, 5, 10)
        with pytest.raises(ValueError, match="span"):
            windowize([(0, "a")], 3)

    def test_windows_anchor_on_the_span_grid(self):
        """The first tick, at 1 minute, lies inside the window from 0."""
        timeline = [(60_000 + i * 5_000, "a") for i in range(48)]
        got = windowize(timeline, 2)
        assert [w.start_ts for w in got] == [0, 120_000, 240_000]
        assert all(w.span_ms == 120_000 for w in got)

    def test_a_first_tick_before_midnight_gives_no_window_across_it(self):
        """Ticks from 23:59:05: the first window ends at midnight."""
        midnight = 86_400_000
        timeline = [(midnight - 55_000 + i * 5_000, "a") for i in range(30)]
        got = windowize(timeline, 2)
        assert [w.start_ts for w in got] == [midnight - 120_000, midnight]

    def test_gap_fills_with_nodata(self):
        timeline = [(0, "a"), (600_000, "b")]
        got = windowize(timeline, 5)
        assert [w.label for w in got] == ["a", NO_DATA, "b"]
        assert got[1].method == "nodata"

    def test_output_tiles_contiguously(self):
        import random

        rng = random.Random(7)
        for _ in range(100):
            ticks = sorted(rng.sample(range(0, 4000), rng.randrange(1, 60)))
            timeline = [(t * 1000, rng.choice("abc")) for t in ticks]
            got = windowize(timeline, 2)
            assert got[0].start_ts <= timeline[0][0] < got[0].end_ts
            for a, b in zip(got, got[1:]):
                assert a.end_ts == b.start_ts
            assert got[-1].start_ts <= timeline[-1][0] < got[-1].end_ts

    @settings(max_examples=200, deadline=None)
    @given(zone=st.sampled_from(["UTC", "Europe/London"]),
           day=st.sampled_from(["2024-01-15", "2024-03-31", "2024-10-27"]),
           offset=st.integers(-3 * 3_600_000, 3 * 3_600_000),
           steps=st.lists(st.sampled_from([1, 1, 1, 2, 7, 61, 500]), min_size=0, max_size=120),
           span=st.sampled_from(WINDOW_SPANS_MIN))
    def test_windows_tile_on_the_grid_and_cross_no_local_midnight(self, zone, day, offset,
                                                                   steps, span):
        """Ticks every 5 s, with holes, from near local midnight: the DST
        change in London falls on 2024-03-31 and 2024-10-27."""
        tz = ZoneInfo(zone)
        midnight = int(datetime.fromisoformat(day).replace(tzinfo=tz).timestamp() * 1000)
        stamps = [midnight + offset]
        for step in steps:
            stamps.append(stamps[-1] + 5_000 * step)
        got = windowize([(ts, "a") for ts in stamps], span)
        span_ms = span * 60_000
        assert got[0].start_ts <= stamps[0] and stamps[-1] < got[-1].end_ts
        for a, b in zip(got, got[1:]):
            assert a.end_ts == b.start_ts
        for w in got:
            assert w.span_ms == span_ms and w.start_ts % span_ms == 0
            first = datetime.fromtimestamp(w.start_ts / 1000, tz).date()
            last = datetime.fromtimestamp((w.end_ts - 1) / 1000, tz).date()
            assert first == last, (w, zone)

    def test_unordered_timeline_rejected(self):
        with pytest.raises(ValueError, match="increasing"):
            windowize([(5_000, "a"), (5_000, "b")], 2)

    def test_labels_canonicalized_before_counting(self):
        table = PriorityTable({}, vocabulary=["Walking Outside"])
        timeline = [(0, "walking outside"), (5_000, "Walking Outside"),
                    (10_000, "Grooming")]
        got = windowize(timeline, 2, table)
        assert got[0].label == "Walking Outside"

    def test_each_distinct_label_is_canonicalized_once(self, monkeypatch):
        """Once per distinct name, not once per tick; each window is still
        label_window over its ticks' names."""
        table = PriorityTable({"Drinking Activity": 1}, vocabulary=["Sitting in Hall"])
        names = ("sitting in hall", "SITTING IN HALL", "drinking activity", "Grooming")
        timeline = [(i * 5_000, names[i * 7 % 11 % 4]) for i in range(240)]
        want = [label_window([name for ts, name in timeline if ts // 120_000 == w], table)
                for w in range(10)]
        calls = []
        canonicalize = PriorityTable.canonicalize
        monkeypatch.setattr(PriorityTable, "canonicalize",
                            lambda self, label: calls.append(label) or canonicalize(self, label))
        got = windowize(timeline, 2, table)
        assert sorted(calls) == sorted(names)
        assert [(w.label, w.method) for w in got] == want


class TestPriorityFiles:
    def test_roundtrip_with_vocabulary_rows(self, tmp_path):
        table = PriorityTable({"Drinking Activity": 1},
                              vocabulary=["Walking Outside"])
        path = tmp_path / "priorities.csv"
        write_priorities(path, table)
        back = load_priorities(path)
        assert back.rank("drinking activity") == 1
        assert back.rank("Walking Outside") is None
        assert back.canonicalize("walking outside") == "Walking Outside"

    def test_duplicate_activity_rejected(self, tmp_path):
        path = tmp_path / "priorities.csv"
        path.write_text("activity,priority\nA,1\nA,2\n", encoding="utf-8")
        with pytest.raises(PriorityFileError, match="duplicate"):
            load_priorities(path)

    def test_duplicate_differing_only_in_case_rejected(self, tmp_path):
        path = tmp_path / "priorities.csv"
        path.write_text("activity,priority\nDrinking Activity,1\ndrinking activity,3\n",
                        encoding="utf-8")
        with pytest.raises(PriorityFileError) as exc:
            load_priorities(path)
        assert str(exc.value) == f"{path}: line 3: duplicate activity 'drinking activity'"

    def test_default_table_contents(self):
        table = load_default_priorities()
        got = dict(table.items())
        assert got == {"Drinking Activity": 1, "Sitting in Hall": 2,
                       "Kitchen Activity": 2, "Walking Outside": 3}


def test_window_labels_csv_roundtrip(tmp_path):
    windows = [WindowLabel(0, 120_000, "a", "frequency"),
               WindowLabel(120_000, 240_000, NO_DATA, "nodata")]
    path = tmp_path / "labels.csv"
    write_window_labels(path, windows)
    assert read_window_labels(path) == windows
