"""Ambient binary-sensor events: per-room PIR, appliance relays, force pads.

Events arrive as newline-delimited JSON, one object per line:

    {"ts": 1696154700000, "topic": "home/pir/bedroom", "payload": "1"}

Topics follow home/<kind>/<location> where kind is one of pir, relay or
force. PIR locations must name a known room; relay and force locations
must name a known appliance. Location matching is case-insensitive and
normalizes to the canonical spelling.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import NamedTuple

from . import tables

ROOMS = ("Bedroom", "Kitchen", "Hall", "Worship", "Stairs", "Bathroom", "Outside")
APPLIANCES = ("tv", "mirror_bulb", "bathroom_switch", "water_bottle")
EVENT_KINDS = ("pir", "relay", "force")
TOPIC_PREFIX = "home"

_CANONICAL = {name.lower(): name for name in ROOMS + APPLIANCES}


class EventParseError(ValueError):
    """Raised for an event that does not parse or names an unknown sensor."""


class AmbientEvent(NamedTuple):
    """One binary sensor edge; state True means active/on/pressed."""

    ts: int
    kind: str
    location: str
    state: bool

    @property
    def topic(self) -> str:
        return f"{TOPIC_PREFIX}/{self.kind}/{self.location}"


def canonical_location(kind: str, location: str) -> str:
    """Resolve a topic location segment to its canonical name, or raise."""
    name = _CANONICAL.get(location.lower())
    if kind == "pir":
        if name not in ROOMS:
            raise EventParseError(f"unknown room {location!r}")
    else:
        if name not in APPLIANCES:
            raise EventParseError(f"unknown appliance {location!r}")
    return name


def parse_event(obj: dict) -> AmbientEvent:
    for key in ("ts", "topic", "payload"):
        if key not in obj:
            raise EventParseError(f"missing field {key!r}")
    if not isinstance(obj["ts"], int) or isinstance(obj["ts"], bool):
        raise EventParseError(f"ts must be an integer, got {obj['ts']!r}")
    parts = str(obj["topic"]).split("/")
    if len(parts) != 3 or parts[0] != TOPIC_PREFIX:
        raise EventParseError(f"malformed topic {obj['topic']!r}")
    _, kind, location = parts
    if kind not in EVENT_KINDS:
        raise EventParseError(f"unknown sensor kind {kind!r}")
    location = canonical_location(kind, location)
    if obj["payload"] not in ("0", "1"):
        raise EventParseError(f"invalid payload {obj['payload']!r}")
    return AmbientEvent(
        ts=obj["ts"], kind=kind, location=location, state=obj["payload"] == "1"
    )


def parse_event_line(line: str) -> AmbientEvent:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise EventParseError(f"invalid JSON: {exc.msg}") from None
    if not isinstance(obj, dict):
        raise EventParseError("event line must be a JSON object")
    return parse_event(obj)


def load_events(path: str | Path) -> list[AmbientEvent]:
    events = []

    def add(line):
        if line.strip():
            events.append(parse_event_line(line))

    tables.parse_lines(path, add, EventParseError)
    return events


def write_events(path: str | Path, events) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for ev in events:
            doc = {"ts": ev.ts, "topic": ev.topic, "payload": "1" if ev.state else "0"}
            fh.write(json.dumps(doc, sort_keys=True) + "\n")


def merge_streams(streams) -> list[AmbientEvent]:
    """Merge per-source event lists, each in any order, into one timeline
    ordered by (ts, kind, location, state), so simultaneous events from
    different sources land in a stable, reproducible order."""
    return sorted(ev for stream in streams for ev in stream)
