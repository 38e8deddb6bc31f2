"""Day and week behaviour profiles over labelled activity windows.

A bout is a maximal run of consecutive, contiguous windows sharing one
label; NoData windows and time gaps terminate runs. Day profiles report
per-label duration and bout counts plus the covered span; week profiles
add day-by-day occurrence booleans.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, datetime, time, timedelta
from pathlib import Path
from zoneinfo import ZoneInfo

from . import tables
from .fusion import runs
from .labelling import NO_DATA, WindowLabel

UTC = ZoneInfo("UTC")

DAY_BOUNDARY_ERROR = "split at day boundary first"


class DayBoundaryError(ValueError):
    """split_days' error: the window at `index` crosses local midnight."""

    def __init__(self, index: int):
        super().__init__(DAY_BOUNDARY_ERROR)
        self.index = index


@dataclass(frozen=True, order=True)
class Bout:
    label: str
    start_ts: int
    end_ts: int

    @property
    def duration_ms(self) -> int:
        return self.end_ts - self.start_ts


@dataclass(frozen=True, eq=False)
class DayProfile:
    day: date
    duration_ms: dict[str, int]
    bout_count: dict[str, int]
    coverage_ms: int

    @property
    def nodata_ms(self) -> int:
        return self.coverage_ms - sum(self.duration_ms.values())

    def share(self, label: str) -> float:
        return self.duration_ms.get(label, 0) / self.coverage_ms


@dataclass(frozen=True, eq=False)
class WeekProfile:
    days: tuple[DayProfile, ...]
    occurrence: dict[str, tuple[bool, ...]]


def _local(ts_ms: int, tz: ZoneInfo) -> datetime:
    return datetime.fromtimestamp(ts_ms / 1000.0, tz)


def bouts(window_labels) -> list[Bout]:
    """The same-label runs (see `fusion.runs`) of ordered windows.

    NoData windows never produce bouts and always terminate the current
    run, as does any hole between consecutive windows.
    """
    windows = list(window_labels)
    if any(b.start_ts < a.end_ts for a, b in zip(windows, windows[1:])):
        raise ValueError("windows must be ordered and non-overlapping")
    items = ((w.start_ts, w.end_ts, w.label) for w in windows)
    return [Bout(label, start, end) for start, end, label, _ in runs(items) if label != NO_DATA]


def day_profile(window_labels, tz: ZoneInfo = UTC) -> DayProfile:
    """Aggregate one calendar day of windows.

    Every window must fall entirely inside the same local day, as
    `split_days` groups them; duration attributes each window's full
    span to its label.
    """
    windows = list(window_labels)
    if not windows:
        raise ValueError("no windows to profile")
    if len(split_days(windows, tz)) != 1:
        raise ValueError(DAY_BOUNDARY_ERROR)
    day = _local(windows[0].start_ts, tz).date()

    duration: dict[str, int] = {}
    coverage = 0
    for w in windows:
        coverage += w.span_ms
        if w.label != NO_DATA:
            duration[w.label] = duration.get(w.label, 0) + w.span_ms
    counts: dict[str, int] = {}
    for b in bouts(windows):
        counts[b.label] = counts.get(b.label, 0) + 1
    return DayProfile(day=day, duration_ms=duration, bout_count=counts, coverage_ms=coverage)


def split_days(window_labels, tz: ZoneInfo = UTC) -> list[list[WindowLabel]]:
    """Group ordered windows by local calendar day, preserving order."""
    groups: dict[date, list[WindowLabel]] = {}
    for index, w in enumerate(window_labels):
        start_day = _local(w.start_ts, tz).date()
        if _local(w.end_ts - 1, tz).date() != start_day:
            raise DayBoundaryError(index)
        groups.setdefault(start_day, []).append(w)
    return [groups[d] for d in sorted(groups)]


def week_profile(day_profiles) -> WeekProfile:
    """Assemble 7 consecutive day profiles into a weekly view."""
    days = tuple(day_profiles)
    if len(days) != 7:
        raise ValueError(f"expected 7 day profiles, got {len(days)}")
    for a, b in zip(days, days[1:]):
        if b.day - a.day != timedelta(days=1):
            raise ValueError(f"days are not consecutive: {a.day} then {b.day}")
    labels = sorted({lab for d in days for lab in d.duration_ms})
    occurrence = {
        lab: tuple(d.duration_ms.get(lab, 0) > 0 for d in days) for lab in labels
    }
    return WeekProfile(days=days, occurrence=occurrence)


def interval_query(window_labels, clock_start: str, clock_end: str, label: str,
                   tz: ZoneInfo = UTC):
    """Count bouts and total duration of label inside a clock-time range.

    The range is local-time half-open [clock_start, clock_end), given as
    "HH:MM[:SS]", and filters windows by their start time; bouts are then
    formed within the filtered subsequence.
    """
    start = time.fromisoformat(clock_start)
    end = time.fromisoformat(clock_end)
    if start >= end:
        raise ValueError(f"inverted clock range {start}..{end}")
    hits = [
        w for w in window_labels if start <= _local(w.start_ts, tz).timetz().replace(tzinfo=None) < end
    ]
    matching = [b for b in bouts(hits) if b.label == label]
    return len(matching), sum(b.duration_ms for b in matching)


def day_report(profile: DayProfile) -> dict:
    order = sorted(profile.duration_ms, key=lambda lab: (-profile.duration_ms[lab], lab))
    return {
        "day": profile.day.isoformat(),
        "coverage_ms": profile.coverage_ms,
        "nodata_ms": profile.nodata_ms,
        "activities": [
            {
                "label": lab,
                "duration_ms": profile.duration_ms[lab],
                "bout_count": profile.bout_count.get(lab, 0),
                "share": round(profile.share(lab), 6),
            }
            for lab in order
        ],
    }


def week_report(week: WeekProfile) -> dict:
    return {
        "start_day": week.days[0].day.isoformat(),
        "end_day": week.days[-1].day.isoformat(),
        "occurrence": {lab: list(vals) for lab, vals in sorted(week.occurrence.items())},
        "days": [day_report(d) for d in week.days],
    }


def write_report_json(path: str | Path, doc: dict) -> None:
    tables.write_json(path, doc, indent=2)
