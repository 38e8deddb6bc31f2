"""Binary sensor event parsing, canonicalization, and stream merging."""

import json

import pytest

from homeactivity import cli
from homeactivity.ambient import (
    APPLIANCES,
    EVENT_KINDS,
    ROOMS,
    AmbientEvent,
    EventParseError,
    canonical_location,
    load_events,
    merge_streams,
    parse_event,
    write_events,
)


def ev(ts, kind="pir", location="Kitchen", state=True):
    return AmbientEvent(ts, kind, location, state)


class TestCanonicalization:
    def test_rooms_case_insensitive(self):
        assert canonical_location("pir", "bedroom") == "Bedroom"
        assert canonical_location("pir", "KITCHEN") == "Kitchen"

    def test_appliances_for_relay_and_force(self):
        assert canonical_location("relay", "TV") == "tv"
        assert canonical_location("force", "Water_Bottle") == "water_bottle"

    def test_unknown_location_rejected(self):
        with pytest.raises(EventParseError, match="garage"):
            canonical_location("pir", "garage")
        with pytest.raises(EventParseError, match="tv"):
            canonical_location("pir", "tv")  # appliance name on a room sensor


class TestParsing:
    def test_parse_topic_and_payload(self):
        e = parse_event({"ts": 5000, "topic": "home/pir/bedroom", "payload": "1"})
        assert e == AmbientEvent(5000, "pir", "Bedroom", True)
        assert e.topic == "home/pir/Bedroom"  # canonical case on the way out

    def test_payload_must_be_binary(self):
        with pytest.raises(EventParseError, match="payload"):
            parse_event({"ts": 0, "topic": "home/pir/hall", "payload": "on"})

    def test_ts_must_be_integer(self):
        with pytest.raises(EventParseError, match="ts"):
            parse_event({"ts": True, "topic": "home/pir/hall", "payload": "1"})
        with pytest.raises(EventParseError, match="ts"):
            parse_event({"ts": "0", "topic": "home/pir/hall", "payload": "1"})

    def test_topic_shape_checked(self):
        for topic in ("home/pir", "attic/pir/hall", "home/sonar/hall"):
            with pytest.raises(EventParseError):
                parse_event({"ts": 0, "topic": topic, "payload": "0"})

    def test_line_errors_carry_line_number(self, tmp_path):
        path = tmp_path / "events.ndjson"
        write_events(path, [ev(i * 1_000) for i in range(6)])
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("{not json\n")
        with pytest.raises(EventParseError, match=r"events\.ndjson: line 7: invalid JSON"):
            load_events(path)


class TestFiles:
    def test_roundtrip(self, tmp_path):
        events = [
            ev(0, "pir", "Hall", True),
            ev(4_000, "relay", "tv", True),
            ev(9_000, "force", "water_bottle", False),
        ]
        path = tmp_path / "events.ndjson"
        write_events(path, events)
        assert load_events(path) == events
        # one canonical JSON object per line
        lines = path.read_text().splitlines()
        assert [json.loads(l)["topic"] for l in lines] == [
            "home/pir/Hall", "home/relay/tv", "home/force/water_bottle",
        ]

    def test_load_error_names_file(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        path.write_text('{"ts": 1, "topic": "home/pir/hall", "payload": "2"}\n')
        with pytest.raises(EventParseError, match=r"bad\.ndjson"):
            load_events(path)


    def test_bytes_that_are_not_utf8_name_file_and_line(self, tmp_path, capsys):
        path = tmp_path / "events.ndjson"
        write_events(path, [ev(0, "pir", "Hall", True), ev(5_000, "pir", "Hall", False)])
        first, second = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(first + second.replace(b"Hall", b"H\xffll"))
        argv = ["occupancy", "--events", str(path), "--out", str(tmp_path / "iv.csv")]
        assert cli.main(argv) == 1
        err = [l for l in capsys.readouterr().err.splitlines() if not l.startswith("config: ")]
        assert err == [f"error: {path}: line 2: not UTF-8"]


class TestMerge:
    def test_merge_is_a_stable_sort(self):
        a = [ev(10), ev(30)]
        b = [ev(0, "relay", "tv"), ev(30, "force", "water_bottle")]
        merged = merge_streams([a, b])
        assert merged == sorted(a + b)

    def test_same_instant_orders_by_kind_location_state(self):
        same_ts = [
            ev(5, "relay", "tv", True),
            ev(5, "pir", "Kitchen", True),
            ev(5, "pir", "Bedroom", False),
        ]
        merged = merge_streams([same_ts[:1], same_ts[1:]])
        assert [(e.kind, e.location) for e in merged] == [
            ("pir", "Bedroom"), ("pir", "Kitchen"), ("relay", "tv"),
        ]

    def test_unordered_stream_is_reported_with_position(self):
        with pytest.raises(ValueError, match="stream 1 is out of order at index 1"):
            merge_streams([[ev(0)], [ev(50), ev(10)]])


def test_known_sensor_universe():
    assert EVENT_KINDS == ("pir", "relay", "force")
    assert "Worship" in ROOMS and "Outside" in ROOMS
    assert APPLIANCES == ("tv", "mirror_bulb", "bathroom_switch", "water_bottle")
