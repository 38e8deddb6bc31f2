"""Context fusion rules, the sleep rewrite, and the tick-run
path of the fuse stage and the simulator's ground truth."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homeactivity import fusion, occupancy, pipeline, simulate
from homeactivity.ambient import APPLIANCES, ROOMS
from homeactivity.fusion import (
    APPLIANCE_PRECEDENCE,
    DEFAULT_MIN_STILL_MS,
    DEFAULT_RULE,
    DerivedActivity,
    FusionRule,
    FusionRuleTable,
    RuleFileError,
    derive_sleep,
    fuse_runs,
    load_default_rules,
    load_rules,
    next_tick,
    read_derived,
    runs,
    ticks_of,
    write_derived,
)
from homeactivity.tables import TableError
from oracles import (
    derive_sleep_loop,
    fuse_by_precedence,
    fuse_stage_ticks,
    hole_free_pieces,
    runs_of_ticks,
    script_truth_ticks,
    write_derived_ticks,
    write_rules,
)


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


# Small domains, so that drawn rules often match and tie.
BASICS = (None, "Sit", "Walk", "Lie")
PLACES = (None, "Hall", "Kitchen", "Outside")
APPLIANCE_OR_NONE = (None, *APPLIANCE_PRECEDENCE)


@st.composite
def rule_tables(draw):
    fields = st.tuples(st.sampled_from(BASICS), st.sampled_from(PLACES),
                       st.sampled_from(APPLIANCE_OR_NONE))
    rows = draw(st.lists(fields, max_size=12))
    # distinct names, so the chosen rule shows in the result
    return [rule(basic, room, appliance, f"r{i}") for i, (basic, room, appliance)
            in enumerate(rows)]


@settings(max_examples=300, deadline=None)
@given(rule_tables(), st.sampled_from(BASICS), st.sampled_from(ROOMS),
       st.frozensets(st.sampled_from(APPLIANCE_PRECEDENCE)))
def test_fuse_follows_the_documented_precedence(rules, basic, room, appliances):
    table = FusionRuleTable(rules)
    assert table.fuse(basic, room, appliances) == fuse_by_precedence(
        rules, DEFAULT_RULE, basic, room, appliances)


class TestRuleFiles:
    def test_roundtrip(self, tmp_path):
        table = TestFuse.table
        path = tmp_path / "rules.csv"
        write_rules(path, table)
        back = load_rules(path)
        assert back.rules == table.rules

    def test_default_rules_cover_the_household(self, default_rules):
        names = {rule.derived.name for rule in default_rules.rules}
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
    """derive_sleep over one-tick runs, expanded back to ticks."""

    @staticmethod
    def sleep(timeline, min_still_ms=DEFAULT_MIN_STILL_MS, tick_ms=5000):
        return ticks_of(derive_sleep(runs_of_ticks(timeline, tick_ms), min_still_ms), tick_ms)

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
        got = self.sleep(timeline)
        assert all(label == "Sleep" for _, label in got)

    def test_just_under_threshold_stays_lie(self):
        timeline = self.ticks([("Lie", 59)])
        got = self.sleep(timeline)
        assert all(label == "Lie" for _, label in got)

    def test_runs_are_maximal_not_windowed(self):
        timeline = self.ticks([("Sit", 3), ("Lie", 70), ("Walk", 2)])
        got = self.sleep(timeline)
        labels = [label for _, label in got]
        assert labels[:3] == ["Sit"] * 3
        assert labels[3:73] == ["Sleep"] * 70
        assert labels[73:] == ["Walk"] * 2

    def test_interrupted_lie_does_not_sleep(self):
        timeline = self.ticks([("Lie", 30), ("Sit", 1), ("Lie", 30)])
        got = self.sleep(timeline)
        assert not any(label == "Sleep" for _, label in got)

    def test_lie_either_side_of_a_hole_does_not_sleep(self):
        # 2 min of Lie, an hour with no ticks, 2 min of Lie: neither run
        # reaches the five-minute threshold
        timeline = self.ticks([("Lie", 24)]) + self.ticks([("Lie", 24)], start=3_720_000)
        got = self.sleep(timeline)
        assert [label for _, label in got] == ["Lie"] * 48

    def test_ticks_closer_than_a_tick_are_contiguous(self):
        # the second run starts 2.5 s before the first one's last tick
        # ends; together they cover 302.5 s
        timeline = self.ticks([("Lie", 30)]) + self.ticks([("Lie", 31)], start=147_500)
        assert all(label == "Sleep" for _, label in self.sleep(timeline))

    def test_threshold_is_configurable(self):
        timeline = self.ticks([("Lie", 4)])
        got = self.sleep(timeline, min_still_ms=20_000)
        assert [label for _, label in got] == ["Sleep"] * 4
        assert DEFAULT_MIN_STILL_MS == 300_000

    def test_a_negative_threshold_is_refused(self):
        """-1 ms was once met by any run, so 15 s of Lie slept."""
        with pytest.raises(ValueError, match="min_still_ms must not be negative, got -1"):
            self.sleep(self.ticks([("Lie", 3)]), min_still_ms=-1)
        with pytest.raises(ValueError, match="min_still_ms must not be negative, got -1"):
            fuse_runs([(0, 5000, "Lie")], [], [], load_default_rules(), min_still_ms=-1)

    def test_a_run_is_relabelled_whole(self):
        basic_runs = [(0, 150_000, "Lie"), (150_000, 300_000, "Lie"), (300_000, 305_000, "Sit")]
        assert derive_sleep(basic_runs) == [
            (0, 150_000, "Sleep"), (150_000, 300_000, "Sleep"), (300_000, 305_000, "Sit")]


class TestRuns:
    def test_a_hole_ends_a_run(self):
        items = [(0, 5, "a"), (5, 10, "a"), (11, 16, "a"), (16, 21, "b")]
        assert list(runs(items)) == [(0, 10, "a", 2), (11, 16, "a", 1), (16, 21, "b", 1)]

    def test_an_item_starting_before_the_previous_end_continues(self):
        assert list(runs([(0, 5, "a"), (3, 8, "a")])) == [(0, 8, "a", 2)]

    def test_no_items_no_runs(self):
        assert list(runs([])) == []


@given(ts=st.integers(-(2**62), 2**62), origin=st.integers(-(2**62), 2**62),
       tick_ms=st.integers(1, 10**7))
def test_next_tick_is_the_first_grid_tick_at_or_after_ts(ts, origin, tick_ms):
    tick = next_tick(ts, origin, tick_ms)
    assert ts <= tick < ts + tick_ms and (tick - origin) % tick_ms == 0


def test_one_tuple_names_the_classifier_classes():
    assert simulate.CLASSIFIER_CLASSES is fusion.CLASSIFIER_CLASSES
    assert fusion.BASIC_ACTIVITIES == (*fusion.CLASSIFIER_CLASSES, "Sleep")


TICK_MS = 5_000
BASICS = ("Lie", "Sit")


@st.composite
def holey_timelines(draw, values):
    """Ordered ticks: most follow at most one tick apart (some closer),
    some after a hole."""
    steps = draw(st.lists(st.tuples(
        st.one_of(st.integers(1, TICK_MS), st.just(TICK_MS), st.integers(TICK_MS + 1, 10**6)),
        st.sampled_from(values)), max_size=80))
    ts = draw(st.integers(0, 10**9))
    out = []
    for step, value in steps:
        ts += step
        out.append((ts, value))
    return out


class TestRunsMatchTheLoops:
    """On every hole-free piece the run rule is the old per-timeline loop."""

    @settings(max_examples=300, deadline=None)
    @given(timeline=holey_timelines(BASICS), min_still_ms=st.integers(1, 60_000))
    def test_derive_sleep(self, timeline, min_still_ms):
        want = [tick for piece in hole_free_pieces(timeline, TICK_MS)
                for tick in derive_sleep_loop(piece, min_still_ms, TICK_MS)]
        got = derive_sleep(runs_of_ticks(timeline, TICK_MS), min_still_ms)
        assert ticks_of(got, TICK_MS) == want


def test_derived_csv_roundtrip(tmp_path):
    timeline = [
        (0, DerivedActivity("Sitting in Hall", "Normal")),
        (5_000, DerivedActivity("Jogging in Hall", "Unnatural")),
    ]
    path = tmp_path / "derived.csv"
    write_derived(path, runs_of_ticks(timeline, 5_000))
    assert read_derived(path) == timeline


def test_derived_rows_share_one_activity_and_a_bad_flag_fails_at_its_first_row(tmp_path):
    path = tmp_path / "derived.csv"
    good = "ts,derived_name,flag\r\n0,Sit,Normal\r\n5000,Sit,Normal\r\n"
    path.write_text(good, newline="")
    (_, first), (_, second) = read_derived(path)
    assert first is second
    path.write_text(good + "10000,Sit,Odd\r\n15000,Sit,Odd\r\n", newline="")
    with pytest.raises(TableError, match=f"{path}: line 4: unknown flag 'Odd'"):
        read_derived(path)


def test_default_rules_loadable_without_a_path():
    table = load_default_rules()
    assert table.fuse("Stand", "Worship").name == "Sanding in Worship"


RULES = load_default_rules()
LABELS = ("Lie", "Lie", "Lie", "Sit", "Walk")  # mostly Lie, so that sleep runs form


@st.composite
def basic_windows(draw):
    """Ordered windows of one length: some start together, some after a
    hole, most end past the next one's start."""
    length = draw(st.integers(1, 20_000))
    steps = draw(st.lists(st.one_of(st.just(0), st.integers(1, length),
                                    st.integers(length + 1, 4 * length)), max_size=30))
    start = draw(st.integers(-10**6, 10**6))
    windows = []
    for step in [0, *steps]:
        start += step
        windows.append((start, start + length, draw(st.sampled_from(LABELS))))
    return windows[:draw(st.integers(0, len(windows)))]


@st.composite
def context_intervals(draw, lo=-10**6, hi=2 * 10**6):
    """Room and appliance intervals, overlapping or not, with edges off
    any tick grid."""
    out = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(("pir", "pir", "relay", "force")))
        start = draw(st.integers(lo, hi))
        location = draw(st.sampled_from(ROOMS if kind == "pir" else APPLIANCES))
        out.append(occupancy.Interval(start, start + draw(st.integers(1, 200_000)), kind,
                                      location))
    return sorted(out)


TICKS = st.one_of(st.sampled_from((5_000, 7_000)), st.integers(1_001, 9_000))


def min_still(tick_ms):
    """Thresholds a whole number of ticks long, which some Lie runs meet
    exactly, and others."""
    return st.one_of(st.integers(0, 12).map(lambda n: n * tick_ms), st.integers(0, 60_000))


class TestRunPathMatchesTheTicks:
    """The tick runs write the bytes, and hand on the ticks, that the fuse
    stage and the simulator's ground truth gave a tick at a time
    (oracles.fuse_stage_ticks, oracles.script_truth_ticks)."""

    @settings(max_examples=300, deadline=None)
    @given(windows=basic_windows(), intervals=context_intervals(), tick_ms=TICKS,
           data=st.data())
    def test_fuse_stage(self, tmp_path_factory, windows, intervals, tick_ms, data):
        min_still_ms = data.draw(min_still(tick_ms))
        tmp = tmp_path_factory.mktemp("fuse")
        pipeline.write_basic_windows(tmp / "windows.csv", windows)
        occupancy.write_intervals(tmp / "intervals.csv", intervals)
        handed = {}
        got = pipeline.stage_fuse(tmp / "windows.csv", tmp / "intervals.csv", tmp / "derived.csv",
                                  RULES, tick_ms, min_still_ms, handed=handed)
        want = fuse_stage_ticks(windows, intervals, RULES, min_still_ms, tick_ms)
        write_derived_ticks(tmp / "want.csv", want)
        assert (tmp / "derived.csv").read_bytes() == (tmp / "want.csv").read_bytes()
        assert handed[tmp / "derived.csv"] == want
        assert got == {"ticks": len(want)}

    @settings(max_examples=100, deadline=None)
    @given(blocks=st.lists(st.tuples(
               st.one_of(st.just(0), st.integers(1, 600_000)),  # gap before the block
               st.one_of(st.integers(7_000, 400_000), st.integers(290_000, 300_000)),
               st.sampled_from(ROOMS), st.sampled_from(simulate.CLASSIFIER_CLASSES[:3]),
               st.frozensets(st.sampled_from(APPLIANCES), max_size=2)), min_size=1, max_size=6),
           start_ms=st.integers(0, 3_600_000), day=st.integers(-3, 3), tick_ms=TICKS)
    def test_simulated_truth(self, tmp_path_factory, blocks, start_ms, tick_ms, day):
        """Blocks of any length in ms, most not a whole number of ticks."""
        script, clock = [], start_ms
        for gap, duration, room, basic, appliances in blocks:
            clock += gap
            script.append(simulate.ScheduleEntry(clock, duration, room, basic, appliances))
            clock += duration
        day_start_ms = day * simulate.MS_PER_DAY
        truth = simulate.generate_day(script, simulate.QUIET, RULES, day_start_ms, tick_ms)
        want = script_truth_ticks(script, RULES, day_start_ms, DEFAULT_MIN_STILL_MS, tick_ms)
        assert truth.derived_ticks == want
        tmp = tmp_path_factory.mktemp("truth")
        write_derived(tmp / "got.csv", truth.derived_runs, tick_ms)
        write_derived_ticks(tmp / "want.csv", want)
        assert (tmp / "got.csv").read_bytes() == (tmp / "want.csv").read_bytes()
