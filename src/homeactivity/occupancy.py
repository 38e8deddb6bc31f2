"""Turn binary sensor edges into occupancy and appliance-use intervals.

Per sensor, a payload of 1 opens an interval and a payload of 0 closes
it; repeated 1s while open and stray 0s while closed are ignored. All
intervals are half-open [start_ts, end_ts) in epoch milliseconds. The
truncated flag marks intervals whose end was imposed (end of stream or
overlap resolution) rather than observed as that sensor's own off edge.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from dataclasses import dataclass, replace
from pathlib import Path

from . import tables
from .ambient import APPLIANCES, EVENT_KINDS, ROOMS

DEFAULT_ROOM = "Outside"
INTERVAL_COLUMNS = ("kind", "location", "start_ts", "end_ts", "truncated")


@dataclass(frozen=True, order=True)
class Interval:
    start_ts: int
    end_ts: int
    kind: str
    location: str
    truncated: bool = False

    def __post_init__(self):
        if self.end_ts <= self.start_ts:
            raise ValueError(f"empty interval [{self.start_ts}, {self.end_ts})")
        if self.kind not in EVENT_KINDS:
            raise ValueError(f"unknown interval kind {self.kind!r}")

    def contains(self, ts: int) -> bool:
        return self.start_ts <= ts < self.end_ts


def detect_intervals(
    events,
    kinds=EVENT_KINDS,
    timeout_ms: int | None = None,
) -> list[Interval]:
    """Run the open/close state machine for every matching sensor.

    An interval still open when events run out is closed at the last
    matching event's timestamp and flagged truncated.
    With timeout_ms set, each 1 arms a deadline that many ms ahead; the
    interval closes at the deadline if nothing arrives first, which
    counts as a regular close, not a truncation.
    """
    for kind in kinds:
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown sensor kind {kind!r}")
    if timeout_ms is not None and timeout_ms <= 0:
        raise ValueError(f"timeout_ms must be positive, got {timeout_ms}")
    relevant = sorted(ev for ev in events if ev.kind in kinds)

    out: list[Interval] = []
    open_start: dict[tuple, int] = {}
    deadline: dict[tuple, int] = {}

    def emit(key: tuple, end: int, truncated: bool):
        start = open_start.pop(key)
        deadline.pop(key, None)
        if end > start:
            out.append(Interval(start, end, key[0], key[1], truncated))

    for ev in relevant:
        key = (ev.kind, ev.location)
        if key in open_start and timeout_ms is not None and ev.ts > deadline[key]:
            emit(key, deadline[key], truncated=False)
        if ev.state:
            if key not in open_start:
                open_start[key] = ev.ts
            if timeout_ms is not None:
                deadline[key] = ev.ts + timeout_ms
        elif key in open_start:
            emit(key, ev.ts, truncated=False)

    for key in sorted(open_start):  # an open key means `relevant` is not empty
        close_ts = relevant[-1].ts
        if timeout_ms is not None and deadline[key] <= close_ts:
            emit(key, deadline[key], truncated=False)
        else:
            emit(key, close_ts, truncated=True)
    out.sort()
    return out


def detect_room_intervals(events, **kwargs) -> list[Interval]:
    return detect_intervals(events, kinds=("pir",), **kwargs)


def appliance_intervals(events, **kwargs) -> list[Interval]:
    return detect_intervals(events, kinds=("relay", "force"), **kwargs)


def resolve_single_person(intervals) -> list[Interval]:
    """Collapse overlapping room intervals under a one-occupant assumption.

    The most recent motion wins: when a new interval starts inside the
    current one, the current interval is cut at the new start (flagged
    truncated) and its remainder discarded. Intervals starting at the
    same millisecond keep only the lexicographically last location.
    """
    pending = sorted(intervals, key=lambda iv: (iv.start_ts, iv.location))
    out: list[Interval] = []
    current: Interval | None = None
    for iv in pending:
        if current is None or iv.start_ts >= current.end_ts:
            if current is not None:
                out.append(current)
            current = iv
        elif iv.start_ts == current.start_ts:
            current = iv
        else:
            out.append(replace(current, end_ts=iv.start_ts, truncated=True))
            current = iv
    if current is not None:
        out.append(current)
    return out


def locate(resolved, ts: int, default: str = DEFAULT_ROOM) -> str:
    """Room occupied at ts, or default when no interval covers it.

    resolved must be non-overlapping and sorted, as produced by
    resolve_single_person.
    """
    starts = [iv.start_ts for iv in resolved]
    idx = bisect_right(starts, ts) - 1
    if idx >= 0 and resolved[idx].contains(ts):
        return resolved[idx].location
    return default


def active_at(intervals, ts: int) -> set[str]:
    """Locations of intervals (possibly overlapping) covering ts."""
    return {iv.location for iv in intervals if iv.contains(ts)}


def context_sweep(timestamps, rooms, appliances):
    """(room, frozenset of active appliance locations) at each timestamp.

    One merge pass over non-decreasing timestamps and the intervals
    sorted by start: each answer equals locate(sorted(rooms), ts) and
    active_at(appliances, ts), in time linear in timestamps plus
    intervals.
    """
    rooms = sorted(rooms)
    pending = sorted(appliances)
    r = a = 0
    ends = []  # heap of (end_ts, location) of started appliance intervals
    active = frozenset()
    prev = None
    for ts in timestamps:
        if prev is not None and ts < prev:
            raise ValueError(f"timestamps must not decrease: {ts} after {prev}")
        prev = ts
        while r < len(rooms) and rooms[r].start_ts <= ts:
            r += 1
        room = rooms[r - 1].location if r and ts < rooms[r - 1].end_ts else DEFAULT_ROOM
        changed = False
        while a < len(pending) and pending[a].start_ts <= ts:
            heapq.heappush(ends, (pending[a].end_ts, pending[a].location))
            a += 1
            changed = True
        while ends and ends[0][0] <= ts:
            heapq.heappop(ends)
            changed = True
        if changed:
            active = frozenset(location for _, location in ends)
        yield room, active


def write_intervals(path: str | Path, intervals) -> None:
    rows = ((iv.kind, iv.location, iv.start_ts, iv.end_ts, int(iv.truncated)) for iv in intervals)
    tables.write_table(path, INTERVAL_COLUMNS, rows)


def _interval(kind, location, start_ts, end_ts, truncated) -> Interval:
    if kind == "pir" and location not in ROOMS:
        raise ValueError(f"unknown room {location!r}")
    if kind in ("relay", "force") and location not in APPLIANCES:
        raise ValueError(f"unknown appliance {location!r}")
    return Interval(int(start_ts), int(end_ts), kind, location, bool(int(truncated)))


def read_intervals(path: str | Path) -> list[Interval]:
    return tables.read_table(path, INTERVAL_COLUMNS, _interval)

