"""Interval state machine, single-occupant resolution, room lookup."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homeactivity.ambient import APPLIANCES, ROOMS, AmbientEvent
from homeactivity.occupancy import (
    Interval,
    active_at,
    appliance_intervals,
    context_sweep,
    detect_intervals,
    detect_room_intervals,
    locate,
    read_intervals,
    resolve_single_person,
    write_intervals,
)
from oracles import events_from_intervals


def pir(ts, room, state):
    return AmbientEvent(ts, "pir", room, state)


class TestDetect:
    def test_open_close_pairs(self):
        events = [pir(0, "Hall", True), pir(5_000, "Hall", False),
                  pir(7_000, "Kitchen", True), pir(9_000, "Kitchen", False)]
        got = detect_intervals(events)
        assert got == [
            Interval(0, 5_000, "pir", "Hall"),
            Interval(7_000, 9_000, "pir", "Kitchen"),
        ]

    def test_repeated_activations_extend_one_interval(self):
        events = [pir(0, "Hall", True), pir(2_000, "Hall", True),
                  pir(6_000, "Hall", False)]
        assert detect_intervals(events) == [Interval(0, 6_000, "pir", "Hall")]

    def test_close_without_open_ignored(self):
        events = [pir(0, "Hall", False), pir(1_000, "Hall", True),
                  pir(2_000, "Hall", False)]
        assert detect_intervals(events) == [Interval(1_000, 2_000, "pir", "Hall")]

    def test_stream_end_truncates(self):
        events = [pir(0, "Hall", True), pir(4_000, "Kitchen", True),
                  pir(6_000, "Kitchen", False)]
        got = detect_intervals(events, close_ts=8_000)
        assert Interval(0, 8_000, "pir", "Hall", truncated=True) in got

    def test_timeout_closes_quietly(self):
        """A sensor that stops reporting closes at its armed deadline and
        the close does not count as a truncation."""
        events = [pir(0, "Hall", True), pir(60_000, "Kitchen", True),
                  pir(65_000, "Kitchen", False)]
        got = detect_intervals(events, timeout_ms=10_000, close_ts=65_000)
        assert got[0] == Interval(0, 10_000, "pir", "Hall", truncated=False)

    def test_activity_rearms_timeout(self):
        events = [pir(0, "Hall", True), pir(8_000, "Hall", True),
                  pir(30_000, "Hall", False)]
        got = detect_intervals(events, timeout_ms=10_000)
        assert got == [Interval(0, 18_000, "pir", "Hall")]

    def test_kind_filters(self):
        events = [pir(0, "Hall", True), pir(1_000, "Hall", False),
                  AmbientEvent(0, "relay", "tv", True),
                  AmbientEvent(2_000, "relay", "tv", False),
                  AmbientEvent(3_000, "force", "water_bottle", True),
                  AmbientEvent(3_500, "force", "water_bottle", False)]
        rooms = detect_room_intervals(events)
        gadgets = appliance_intervals(events)
        assert [iv.kind for iv in rooms] == ["pir"]
        assert sorted(iv.location for iv in gadgets) == ["tv", "water_bottle"]


class TestResolve:
    def test_later_motion_cuts_current_room(self):
        rooms = [Interval(0, 10_000, "pir", "Hall"),
                 Interval(4_000, 9_000, "pir", "Kitchen")]
        got = resolve_single_person(rooms)
        assert got == [
            Interval(0, 4_000, "pir", "Hall", truncated=True),
            Interval(4_000, 9_000, "pir", "Kitchen"),
        ]

    def test_same_start_keeps_last_location(self):
        rooms = [Interval(0, 5_000, "pir", "Bedroom"),
                 Interval(0, 3_000, "pir", "Hall")]
        assert resolve_single_person(rooms) == [Interval(0, 3_000, "pir", "Hall")]

    def test_accepts_room_keyed_mapping(self):
        by_room = {
            "Hall": [Interval(0, 2_000, "pir", "Hall")],
            "Kitchen": [Interval(3_000, 4_000, "pir", "Kitchen")],
        }
        got = resolve_single_person(by_room)
        assert [iv.location for iv in got] == ["Hall", "Kitchen"]

    def test_output_is_always_disjoint(self):
        import random

        rng = random.Random(31)
        rooms = ["Hall", "Kitchen", "Bedroom", "Stairs"]
        for _ in range(500):
            raw = []
            for _ in range(rng.randrange(1, 12)):
                start = rng.randrange(0, 500) * 100
                raw.append(Interval(start, start + rng.randrange(1, 80) * 100,
                                    "pir", rng.choice(rooms)))
            got = resolve_single_person(raw)
            for a, b in zip(got, got[1:]):
                assert a.end_ts <= b.start_ts


class TestLookup:
    resolved = [Interval(0, 5_000, "pir", "Hall"),
                Interval(5_000, 9_000, "pir", "Kitchen")]

    def test_locate_half_open(self):
        assert locate(self.resolved, 0) == "Hall"
        assert locate(self.resolved, 4_999) == "Hall"
        assert locate(self.resolved, 5_000) == "Kitchen"
        assert locate(self.resolved, 9_000) == "Outside"

    def test_locate_gap_defaults_outside(self):
        gappy = [Interval(0, 1_000, "pir", "Hall"),
                 Interval(2_000, 3_000, "pir", "Hall")]
        assert locate(gappy, 1_500) == "Outside"

    def test_active_at_collects_appliances(self):
        ivs = [Interval(0, 5_000, "relay", "tv"),
               Interval(1_000, 2_000, "force", "water_bottle")]
        assert active_at(ivs, 1_500) == {"tv", "water_bottle"}
        assert active_at(ivs, 4_000) == {"tv"}


def intervals(kinds, locations):
    """Small clock, short spans: overlaps, equal starts, touching ends, gaps."""
    return st.lists(st.builds(
        lambda start, length, kind, location: Interval(start, start + length, kind, location),
        st.integers(0, 40), st.integers(1, 15), st.sampled_from(kinds),
        st.sampled_from(locations),
    ), max_size=8)


class TestContextSweep:
    @settings(max_examples=200, deadline=None)
    @given(rooms=intervals(("pir",), ROOMS),
           appliances=intervals(("relay", "force"), APPLIANCES),
           ticks=st.lists(st.integers(-3, 60), max_size=30).map(sorted))
    def test_equals_the_point_queries(self, rooms, appliances, ticks):
        got = list(context_sweep(ticks, rooms, appliances))
        want = [(locate(sorted(rooms), ts), active_at(appliances, ts)) for ts in ticks]
        assert got == want
        assert all(isinstance(active, frozenset) for _room, active in got)

    def test_default_room_and_touching_ends(self):
        rooms = [Interval(5, 10, "pir", "Hall"), Interval(10, 12, "pir", "Kitchen")]
        tv = [Interval(0, 10, "relay", "tv"), Interval(10, 11, "relay", "tv")]
        got = list(context_sweep([0, 9, 10, 11, 12], rooms, tv))
        assert got == [("Outside", {"tv"}), ("Hall", {"tv"}), ("Kitchen", {"tv"}),
                       ("Kitchen", set()), ("Outside", set())]

    def test_decreasing_timestamps_rejected(self):
        with pytest.raises(ValueError, match="must not decrease"):
            list(context_sweep([5, 4], [], []))


class TestRoundTrips:
    def test_csv_roundtrip(self, tmp_path):
        ivs = [Interval(0, 5_000, "pir", "Hall", truncated=True),
               Interval(5_000, 7_000, "relay", "tv")]
        path = tmp_path / "intervals.csv"
        write_intervals(path, ivs)
        assert read_intervals(path) == ivs

    def test_events_regenerate_intervals(self):
        ivs = [Interval(0, 5_000, "pir", "Hall"),
               Interval(6_000, 8_000, "pir", "Kitchen")]
        events = events_from_intervals(ivs)
        assert detect_intervals(events) == ivs
