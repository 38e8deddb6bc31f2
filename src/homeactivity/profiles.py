"""Day and week behaviour profiles over labelled activity windows.

A bout is a maximal run of consecutive, contiguous windows sharing one
label; NoData windows and time gaps terminate runs. Day profiles report
per-label duration and bout counts plus the covered span; week profiles
add day-by-day occurrence booleans.
"""

from __future__ import annotations

from datetime import date, datetime, timedelta
from pathlib import Path
from typing import NamedTuple
from zoneinfo import ZoneInfo

from . import tables
from .fusion import runs
from .labelling import NO_DATA, WindowLabel

UTC = ZoneInfo("UTC")


class Bout(NamedTuple):
    label: str
    start_ts: int
    end_ts: int

    @property
    def duration_ms(self) -> int:
        return self.end_ts - self.start_ts


class DayProfile(NamedTuple):
    day: date
    duration_ms: dict[str, int]
    bout_count: dict[str, int]
    coverage_ms: int

    @property
    def nodata_ms(self) -> int:
        return self.coverage_ms - sum(self.duration_ms.values())

    def share(self, label: str) -> float:
        return self.duration_ms.get(label, 0) / self.coverage_ms


class WeekProfile(NamedTuple):
    days: tuple[DayProfile, ...]
    occurrence: dict[str, tuple[bool, ...]]


def local_time(ts_ms: int, tz: ZoneInfo) -> datetime:
    return datetime.fromtimestamp(ts_ms / 1000.0, tz)


def bouts(window_labels) -> list[Bout]:
    """The same-label runs (see `fusion.runs`) of windows ordered as `split_days` checks.

    NoData windows never produce bouts and always terminate the current
    run, as does any hole between consecutive windows.
    """
    items = ((w.start_ts, w.end_ts, w.label) for w in window_labels)
    return [Bout(label, start, end) for start, end, label, _ in runs(items) if label != NO_DATA]


def day_profile(window_labels, tz: ZoneInfo = UTC) -> DayProfile:
    """Aggregate one calendar day of windows.

    The windows are one of `split_days`' groups: at least one, ordered,
    and inside the local day of the first. Duration attributes each
    window's full span to its label.
    """
    windows = list(window_labels)
    day = local_time(windows[0].start_ts, tz).date()

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
    """Group ordered windows by local calendar day, preserving order. The
    first window that starts before the one before it ends, that has no
    local date in the years 1..9999, or that crosses local midnight raises
    a tables.RowError with its index."""
    groups: dict[date, list[WindowLabel]] = {}
    end = None
    for index, w in enumerate(window_labels):
        if end is not None and w.start_ts < end:
            raise tables.RowError(f"window {w.start_ts}..{w.end_ts} starts before the "
                                  f"window before it ends at {end}: windows must be ordered and "
                                  "non-overlapping", index)
        try:
            start_day, end_day = (local_time(ts, tz).date() for ts in (w.start_ts, w.end_ts - 1))
        except (ValueError, OverflowError) as exc:
            raise tables.RowError(
                f"window {w.start_ts}..{w.end_ts} has no date in {tz}: {exc}", index) from None
        if end_day != start_day:
            raise tables.RowError(f"window {w.start_ts}..{w.end_ts} crosses midnight in "
                                  f"{tz}: split at day boundary first", index)
        groups.setdefault(start_day, []).append(w)
        end = w.end_ts
    return [groups[d] for d in sorted(groups)]


def week_profile(day_profiles) -> WeekProfile | None:
    """7 consecutive day profiles as a weekly view; None for any other set of days."""
    days = tuple(day_profiles)
    if len(days) != 7 or any(b.day - a.day != timedelta(days=1) for a, b in zip(days, days[1:])):
        return None
    labels = sorted({lab for d in days for lab in d.duration_ms})
    occurrence = {
        lab: tuple(d.duration_ms.get(lab, 0) > 0 for d in days) for lab in labels
    }
    return WeekProfile(days=days, occurrence=occurrence)


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
