"""Collapse a 5-second label stream into one label per profiling window.

Each tumbling window is labelled by a priority-then-frequency rule:
any ranked label present in the window wins outright (smallest rank
first), otherwise the most frequent label wins, and a frequency tie
goes to the tied label whose first appearance in the window is latest.

The priority table doubles as the label vocabulary: rows may omit the
rank to register only a canonical spelling, and observed labels are
matched case-insensitively and reported in canonical form.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from . import tables

WINDOW_SPANS_MIN = (2, 5, 10)
NO_DATA = "NoData"

METHOD_PRIORITY = "priority"
METHOD_FREQUENCY = "frequency"
METHOD_TIE = "tie"
METHOD_NO_DATA = "nodata"
METHODS = (METHOD_PRIORITY, METHOD_FREQUENCY, METHOD_TIE, METHOD_NO_DATA)
PRIORITY_COLUMNS = ("activity", "priority")
WINDOW_LABEL_COLUMNS = ("window_start", "window_end", "label", "method")


class PriorityFileError(ValueError):
    """Raised when a priority table file fails validation."""


class PriorityTable:
    """Activity ranks (1 = highest priority) plus canonical spellings."""

    def __init__(self, ranks: dict[str, int], vocabulary=()):
        for name, rank in ranks.items():
            if rank < 1:
                raise ValueError(f"rank for {name!r} must be >= 1, got {rank}")
        self._ranks = dict(ranks)
        self._canonical = {name.lower(): name for name in ranks}
        for name in vocabulary:
            self._canonical.setdefault(name.lower(), name)

    def canonicalize(self, label: str) -> str:
        return self._canonical.get(label.lower(), label)

    def rank(self, label: str) -> int | None:
        return self._ranks.get(self.canonicalize(label))

    def items(self):
        for name in self._canonical.values():
            yield name, self._ranks.get(name)

    def __len__(self) -> int:
        return len(self._ranks)


EMPTY_PRIORITIES = PriorityTable({})


@dataclass(frozen=True, order=True)
class WindowLabel:
    start_ts: int
    end_ts: int
    label: str
    method: str

    def __post_init__(self):
        if self.end_ts <= self.start_ts:
            raise ValueError(f"empty window [{self.start_ts}, {self.end_ts})")
        if self.method not in METHODS:
            raise ValueError(f"unknown labelling method {self.method!r}; "
                             f"expected one of {', '.join(METHODS)}")

    @property
    def span_ms(self) -> int:
        return self.end_ts - self.start_ts


def label_window(labels, priorities: PriorityTable) -> tuple[str, str]:
    """Label one window of observed activity names.

    Returns (label, method) where method records which rule fired:
    priority, frequency, or tie.
    """
    observed = [priorities.canonicalize(lab) for lab in labels]
    if not observed:
        raise ValueError("no labels")

    first_seen: dict[str, int] = {}
    for pos, lab in enumerate(observed):
        first_seen.setdefault(lab, pos)

    ranked = [(priorities.rank(lab), first_seen[lab], lab)
              for lab in first_seen if priorities.rank(lab) is not None]
    if ranked:
        return min(ranked)[2], METHOD_PRIORITY

    counts = Counter(observed)
    top = max(counts.values())
    tied = [lab for lab, n in counts.items() if n == top]
    if len(tied) == 1:
        return tied[0], METHOD_FREQUENCY
    return max(tied, key=lambda lab: first_seen[lab]), METHOD_TIE


def windowize(
    timeline,
    span_minutes: int,
    priorities: PriorityTable = EMPTY_PRIORITIES,
) -> list[WindowLabel]:
    """Tumbling-window labelling of an ordered (ts, label) timeline.

    Windows are aligned to span boundaries counted from the first
    timestamp; gaps produce explicit NoData windows so the output always
    tiles [first_ts, last_ts] without holes.
    """
    if span_minutes not in WINDOW_SPANS_MIN:
        raise ValueError(f"span must be one of {WINDOW_SPANS_MIN}, got {span_minutes}")
    timeline = list(timeline)
    if not timeline:
        return []
    for (a, _), (b, _) in zip(timeline, timeline[1:]):
        if b <= a:
            raise ValueError("timeline must be strictly increasing in time")

    span_ms = span_minutes * 60_000
    origin = timeline[0][0]
    out = []
    bucket: list[str] = []
    window_idx = 0

    def flush(idx: int):
        start = origin + idx * span_ms
        if bucket:
            label, method = label_window(bucket, priorities)
        else:
            label, method = NO_DATA, METHOD_NO_DATA
        out.append(WindowLabel(start, start + span_ms, label, method))

    for ts, label in timeline:
        idx = (ts - origin) // span_ms
        while idx > window_idx:
            flush(window_idx)
            bucket.clear()
            window_idx += 1
        bucket.append(label)
    flush(window_idx)
    return out


def ranks_from_frequencies(freq: dict[str, int]) -> dict[str, int]:
    """Build ranks where rarer activities get higher priority.

    Activities with equal counts share a rank; ranks are dense starting
    at 1 for the least frequent activity.
    """
    by_count = sorted(set(freq.values()))
    rank_of_count = {count: i + 1 for i, count in enumerate(by_count)}
    return {name: rank_of_count[count] for name, count in freq.items()}


def load_priorities(path: str | Path) -> PriorityTable:
    ranks: dict[str, int] = {}
    vocabulary: list[str] = []
    seen: set[str] = set()  # lower case, as PriorityTable matches names

    def add(name, raw):
        name, raw = name.strip(), raw.strip()
        if not name:
            raise PriorityFileError("empty activity name")
        if name.lower() in seen:
            raise PriorityFileError(f"duplicate activity {name!r}")
        seen.add(name.lower())
        if not raw:
            vocabulary.append(name)
        elif int(raw) < 1:
            raise PriorityFileError("priority must be >= 1")
        else:
            ranks[name] = int(raw)

    tables.read_table(path, PRIORITY_COLUMNS, add, PriorityFileError)
    return PriorityTable(ranks, vocabulary)


def load_default_priorities() -> PriorityTable:
    return load_priorities(
        Path(str(resources.files("homeactivity") / "data" / "priority_default.csv"))
    )


def write_window_labels(path: str | Path, windows) -> None:
    rows = ((w.start_ts, w.end_ts, w.label, w.method) for w in windows)
    tables.write_table(path, WINDOW_LABEL_COLUMNS, rows)


def read_window_labels(path: str | Path) -> list[WindowLabel]:
    return tables.read_table(
        path,
        WINDOW_LABEL_COLUMNS,
        lambda start, end, label, method: WindowLabel(int(start), int(end), label, method),
    )
