"""Context fusion rules, the sleep rewrite, and flag runs."""

import pytest

from homeactivity.fusion import (
    APPLIANCE_PRECEDENCE,
    DEFAULT_MIN_STILL_MS,
    DerivedActivity,
    FusionRule,
    FusionRuleTable,
    RuleFileError,
    derive_sleep,
    flag_stream,
    load_default_rules,
    load_rules,
    read_derived,
    write_derived,
)
from oracles import write_rules


def rule(basic, room, appliance, name, flag="Normal"):
    return FusionRule(basic, room, appliance, DerivedActivity(name, flag))


class TestFuse:
    table = FusionRuleTable([
        rule("Sit", "Hall", None, "Sitting in Hall"),
        rule(None, "Outside", None, "Outside Activity"),
        rule("Walk", "Outside", None, "Walking Outside"),
        rule(None, None, "water_bottle", "Drinking Activity"),
        rule("Sit", "Hall", "tv", "Watching TV Sitting"),
        rule(None, None, "tv", "TV On"),
    ])

    def test_exact_pair_match(self):
        got = self.table.fuse("Sit", "Hall")
        assert got == DerivedActivity("Sitting in Hall", "Normal")

    def test_room_wildcard_used_when_no_exact_rule(self):
        assert self.table.fuse("Sit", "Outside").name == "Outside Activity"

    def test_specific_rule_beats_room_wildcard(self):
        assert self.table.fuse("Walk", "Outside").name == "Walking Outside"

    def test_appliance_beats_context(self):
        got = self.table.fuse("Sit", "Hall", frozenset({"tv"}))
        assert got.name == "Watching TV Sitting"

    def test_appliance_precedence_order(self):
        got = self.table.fuse("Sit", "Hall", frozenset({"tv", "water_bottle"}))
        assert got.name == "Drinking Activity"
        assert APPLIANCE_PRECEDENCE[0] == "water_bottle"

    def test_appliance_specificity_breaks_precedence_ties(self):
        # both rules bind tv; the (Sit, Hall) one is more specific
        got = self.table.fuse("Stand", "Hall", frozenset({"tv"}))
        assert got.name == "TV On"

    def test_unmatched_falls_to_default(self):
        got = self.table.fuse("Jog", "Kitchen")
        assert got == DerivedActivity("Unknown", "Unnatural")

    def test_inputs_validated(self):
        with pytest.raises(ValueError, match="basic"):
            self.table.fuse("Moonwalk", "Hall")
        with pytest.raises(ValueError, match="room"):
            self.table.fuse("Sit", "Garage")


class TestRuleFiles:
    def test_roundtrip(self, tmp_path):
        table = TestFuse.table
        path = tmp_path / "rules.csv"
        write_rules(path, table)
        back = load_rules(path)
        assert back.rules == table.rules

    def test_default_rules_cover_the_household(self, default_rules):
        names = default_rules.names()
        for expected in ("Sleeping in Kitchen", "Using Stairs", "Grooming",
                         "Walking Outside", "Drinking Activity"):
            assert expected in names

    def test_header_checked(self, tmp_path):
        path = tmp_path / "rules.csv"
        path.write_text("a,b,c\n", encoding="utf-8")
        with pytest.raises(RuleFileError, match="header"):
            load_rules(path)

    def test_unbound_row_rejected(self, tmp_path):
        path = tmp_path / "rules.csv"
        path.write_text(
            "basic,room,appliance,derived_name,flag\n,,,Ghost,Normal\n",
            encoding="utf-8",
        )
        with pytest.raises(RuleFileError, match="matches everything"):
            load_rules(path)

    def test_bad_flag_rejected(self, tmp_path):
        path = tmp_path / "rules.csv"
        path.write_text(
            "basic,room,appliance,derived_name,flag\nSit,Hall,,X,Odd\n",
            encoding="utf-8",
        )
        with pytest.raises(RuleFileError, match="flag"):
            load_rules(path)

    def test_comment_lines_skipped(self, tmp_path):
        path = tmp_path / "rules.csv"
        path.write_text(
            "basic,room,appliance,derived_name,flag\n"
            "# household-specific\n"
            "Sit,Hall,,Sitting in Hall,Normal\n",
            encoding="utf-8",
        )
        assert len(load_rules(path).rules) == 1

    def test_short_row_names_file_and_line(self, tmp_path):
        path = tmp_path / "rules.csv"
        path.write_text(
            "basic,room,appliance,derived_name,flag\n"
            "# household-specific\n"
            "Walk,Hall\n",
            encoding="utf-8",
        )
        with pytest.raises(RuleFileError) as exc:
            load_rules(path)
        assert str(exc.value) == f"{path}: line 3: expected 5 fields, got 2"

    def test_row_errors_name_the_file(self, tmp_path):
        path = tmp_path / "rules.csv"
        path.write_text(
            "basic,room,appliance,derived_name,flag\nSit,Attic,,X,Normal\n",
            encoding="utf-8",
        )
        with pytest.raises(RuleFileError) as exc:
            load_rules(path)
        assert str(exc.value) == f"{path}: line 2: unknown room 'Attic'"


class TestDeriveSleep:
    def ticks(self, spec, tick_ms=5000, start=0):
        out = []
        ts = start
        for label, n in spec:
            for _ in range(n):
                out.append((ts, label))
                ts += tick_ms
        return out

    def test_sustained_lie_becomes_sleep(self):
        # 60 ticks at 5 s: span = 59 * 5000 + 5000 = 300000 ms, exactly
        # the five-minute threshold
        timeline = self.ticks([("Lie", 60)])
        got = derive_sleep(timeline)
        assert all(label == "Sleep" for _, label in got)

    def test_just_under_threshold_stays_lie(self):
        timeline = self.ticks([("Lie", 59)])
        got = derive_sleep(timeline)
        assert all(label == "Lie" for _, label in got)

    def test_runs_are_maximal_not_windowed(self):
        timeline = self.ticks([("Sit", 3), ("Lie", 70), ("Walk", 2)])
        got = derive_sleep(timeline)
        labels = [label for _, label in got]
        assert labels[:3] == ["Sit"] * 3
        assert labels[3:73] == ["Sleep"] * 70
        assert labels[73:] == ["Walk"] * 2

    def test_interrupted_lie_does_not_sleep(self):
        timeline = self.ticks([("Lie", 30), ("Sit", 1), ("Lie", 30)])
        got = derive_sleep(timeline)
        assert not any(label == "Sleep" for _, label in got)

    def test_threshold_is_configurable(self):
        timeline = self.ticks([("Lie", 4)])
        got = derive_sleep(timeline, min_still_ms=20_000)
        assert [label for _, label in got] == ["Sleep"] * 4
        assert DEFAULT_MIN_STILL_MS == 300_000


class TestFlagStream:
    def test_non_normal_runs_coalesce_by_flag(self):
        timeline = [
            (0, DerivedActivity("Sitting in Hall", "Normal")),
            (5_000, DerivedActivity("Jogging in Hall", "Unnatural")),
            (10_000, DerivedActivity("Watching TV Jogging", "Unnatural")),
            (15_000, DerivedActivity("Lying in Worship", "Anomaly")),
            (20_000, DerivedActivity("Sitting in Hall", "Normal")),
        ]
        got = flag_stream(timeline)
        assert got == [(5_000, 15_000, "Unnatural"), (15_000, 20_000, "Anomaly")]

    def test_trailing_run_closed_by_tick_length(self):
        timeline = [(0, DerivedActivity("Lying in Worship", "Anomaly"))]
        assert flag_stream(timeline, tick_ms=5000) == [(0, 5_000, "Anomaly")]


def test_derived_csv_roundtrip(tmp_path):
    timeline = [
        (0, DerivedActivity("Sitting in Hall", "Normal")),
        (5_000, DerivedActivity("Jogging in Hall", "Unnatural")),
    ]
    path = tmp_path / "derived.csv"
    write_derived(path, timeline)
    assert read_derived(path) == timeline


def test_default_rules_loadable_without_a_path():
    table = load_default_rules()
    assert table.fuse("Stand", "Worship").name == "Sanding in Worship"
