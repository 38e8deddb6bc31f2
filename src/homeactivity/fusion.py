"""Fuse basic activities with room and appliance context into derived labels.

The rule table lives in a CSV data file (columns basic, room, appliance,
derived_name, flag) so a household can rewrite what counts as Unnatural
without touching code. Lookup precedence: appliance-bound rules first
(water_bottle, then mirror_bulb, bathroom_switch, tv), then exact
(basic, room) rules, then room wildcards, then a catch-all default.
The fuse stage carries tick runs (`ticks_of`), so its work grows with
the changes of label and context, not with the ticks. The records are
NamedTuples, checked where they are read. CLASSIFIER_CLASSES lives here,
free of NumPy, and `simulate` imports it.
"""

from __future__ import annotations

import csv
import functools
import io
from bisect import bisect_right
from importlib import resources
from pathlib import Path
from typing import NamedTuple

from . import tables
from .ambient import APPLIANCES, ROOMS
from .occupancy import DEFAULT_ROOM

# Sleep is derived from sustained lying, never scripted or classified.
CLASSIFIER_CLASSES = ("Jog", "Lie", "Sit", "Stand", "StairDown", "StairUp", "Walk")
BASIC_ACTIVITIES = (*CLASSIFIER_CLASSES, "Sleep")
FLAGS = ("Normal", "Unnatural", "Anomaly")
APPLIANCE_PRECEDENCE = ("water_bottle", "mirror_bulb", "bathroom_switch", "tv")
RULE_COLUMNS = ("basic", "room", "appliance", "derived_name", "flag")
DERIVED_COLUMNS = ("ts", "derived_name", "flag")

DEFAULT_MIN_STILL_MS = 300_000
DEFAULT_TICK_MS = 5_000


class RuleFileError(ValueError):
    """Raised when a fusion rule file fails validation."""


class DerivedActivity(NamedTuple):
    name: str
    flag: str = "Normal"


def _derived(name: str, flag: str) -> DerivedActivity:
    """The activity as a rule file or derived timeline gives it."""
    if flag not in FLAGS:
        raise ValueError(f"unknown flag {flag!r}")
    return DerivedActivity(name, flag)


class FusionRule(NamedTuple):
    """One row; None fields are wildcards."""

    basic: str | None
    room: str | None
    appliance: str | None
    derived: DerivedActivity

    def matches(self, basic, room, appliances) -> bool:
        if self.appliance is not None and self.appliance not in appliances:
            return False
        if self.basic is not None and self.basic != basic:
            return False
        if self.room is not None and self.room != room:
            return False
        return True

    @property
    def specificity(self) -> int:
        return sum(f is not None for f in (self.basic, self.room))


DEFAULT_RULE = DerivedActivity("Unknown", "Unnatural")


class FusionRuleTable:
    """Immutable ordered rule set with a total, deterministic lookup."""

    def __init__(self, rules):
        self.rules = tuple(rules)
        # The lookup order: appliance rules by appliance precedence, then
        # context rules; within each, by how many of basic and room they
        # bind, then in file order (the sort is stable).
        order = {name: i for i, name in enumerate((*APPLIANCE_PRECEDENCE, None))}
        self._ordered = sorted(self.rules, key=lambda r: (order[r.appliance], -r.specificity))

    def fuse(self, basic, room, appliances=frozenset()) -> DerivedActivity:
        if basic is not None and basic not in BASIC_ACTIVITIES:
            raise ValueError(f"unknown basic activity {basic!r}")
        if room not in ROOMS:
            raise ValueError(f"unknown room {room!r}")
        for rule in self._ordered:
            if rule.matches(basic, room, appliances):
                return rule.derived
        return DEFAULT_RULE


def _parse_rule_row(basic, room, appliance, name, flag) -> FusionRule:
    """One stripped row; empty basic, room and appliance are wildcards."""
    basic = basic or None
    room = room or None
    appliance = appliance or None
    if basic is not None and basic not in BASIC_ACTIVITIES:
        raise RuleFileError(f"unknown basic activity {basic!r}")
    if room is not None and room not in ROOMS:
        raise RuleFileError(f"unknown room {room!r}")
    if appliance is not None and appliance not in APPLIANCES:
        raise RuleFileError(f"unknown appliance {appliance!r}")
    if not name:
        raise RuleFileError("empty derived_name")
    if basic is None and room is None and appliance is None:
        raise RuleFileError("rule matches everything")
    return FusionRule(basic, room, appliance, _derived(name, flag))


def load_rules(path: str | Path) -> FusionRuleTable:
    """Unlike the stage tables, a rule table may hold `#` comment lines."""
    rules = []
    header = None

    def parse(line):
        nonlocal header
        if not line.strip() or line.lstrip().startswith("#"):
            return
        fields = [f.strip() for f in next(csv.reader([line]))]
        if header is None:
            header = fields
            if header != list(RULE_COLUMNS):
                raise RuleFileError(f"unexpected header {header}")
        elif len(fields) != len(header):
            raise RuleFileError(f"expected {len(header)} fields, got {len(fields)}")
        else:
            rules.append(_parse_rule_row(*fields))

    lines = tables.parse_lines(path, parse, RuleFileError)
    if not rules:
        raise RuleFileError(f"{path}: line {lines + 1}: rule file contains no rules")
    return FusionRuleTable(rules)


def default_rules_path() -> Path:
    return Path(str(resources.files("homeactivity") / "data" / "fusion_rules.csv"))


def load_default_rules() -> FusionRuleTable:
    return load_rules(default_rules_path())


def check_tick_ms(tick_ms: int) -> None:
    """The one rule for every tick grid: ticks are at least 1 ms apart."""
    if tick_ms < 1:
        raise ValueError(f"tick_ms must be positive, got {tick_ms}")


def check_min_still_ms(min_still_ms: int) -> None:
    """The one rule for the sleep threshold: a duration, never negative."""
    if min_still_ms < 0:
        raise ValueError(f"min_still_ms must not be negative, got {min_still_ms}")


def next_tick(ts: int, origin: int, tick_ms: int) -> int:
    """The first tick at or after ts on the tick_ms grid through origin."""
    return ts + (origin - ts) % tick_ms


def runs(items):
    """Maximal runs of ordered (start, end, value) items, as
    (start, end, value, count).

    A run goes on while the value stays the same and each item starts no
    later than the previous one ends, so a hole ends it. A tick at ts is
    the item (ts, ts + tick_ms, value).
    """
    run = None
    for start, end, value in items:
        if run is not None and value == run[2] and start <= run[1]:
            run[1] = end
            run[3] += 1
        else:
            if run is not None:
                yield tuple(run)
            run = [start, end, value, 1]
    if run is not None:
        yield tuple(run)


def ticks_of(tick_runs, tick_ms: int = DEFAULT_TICK_MS):
    """The (ts, value) ticks of tick runs (first_ts, end_ts, value): one
    or more at first_ts + k·tick_ms, the last ending at end_ts."""
    return [(ts, value) for first, end, value in tick_runs for ts in range(first, end, tick_ms)]


def derive_sleep(basic_runs, min_still_ms: int = DEFAULT_MIN_STILL_MS):
    """Rewrite sustained stillness to Sleep.

    basic_runs are ordered tick runs (`ticks_of`). Each stretch of Lie
    runs that `runs` merges (a hole ends it) whose covered duration (first
    tick start to last tick end) reaches min_still_ms becomes Sleep, run by
    run; shorter stretches are untouched.
    """
    check_min_still_ms(min_still_ms)
    out = list(basic_runs)
    i = 0
    for start, end, basic, count in runs(out):
        if basic == "Lie" and end - start >= min_still_ms:
            out[i:i + count] = [(first, last, "Sleep") for first, last, _ in out[i:i + count]]
        i += count
    return out


def fuse_runs(basic_runs, edges, contexts, rules: FusionRuleTable,
              min_still_ms: int = DEFAULT_MIN_STILL_MS, tick_ms: int = DEFAULT_TICK_MS):
    """Ordered basic tick runs (`ticks_of`) as derived ones: derive_sleep,
    then each run split at its first tick at or after each edge, and the
    rule table asked once per piece, in the context of the last edge at or
    before it. edges increase, contexts holds the (room, appliances) from
    each edge on, and before every edge is DEFAULT_ROOM with none on."""
    derived = []
    for first, end, basic in derive_sleep(basic_runs, min_still_ms):
        k = bisect_right(edges, first)  # edges[k] is the first edge after `first`
        start = first
        while start < end:
            room, active = contexts[k - 1] if k else (DEFAULT_ROOM, frozenset())
            cut = end if k == len(edges) else min(end, next_tick(edges[k], first, tick_ms))
            derived.append((start, cut, rules.fuse(basic, room, active)))
            k = bisect_right(edges, cut, k)
            start = cut
    return derived


def flag_stream(derived_timeline, tick_ms: int = DEFAULT_TICK_MS):
    """The non-Normal runs (see `runs`) as (start_ts, end_ts, flag) entries.

    derived_timeline is an ordered list of (ts, DerivedActivity). Adjacent
    ticks sharing a flag coalesce even when the activity name changes.
    """
    ticks = ((ts, ts + tick_ms, d.flag) for ts, d in derived_timeline)
    return [(start, end, flag) for start, end, flag, _ in runs(ticks) if flag != "Normal"]


def write_derived(path: str | Path, derived_runs, tick_ms: int = DEFAULT_TICK_MS) -> None:
    """A row per tick of ordered derived tick runs: a run's rows are one
    join, on its activity's csv-quoted ",name,flag\\r\\n", built once."""
    suffixes = {}
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(DERIVED_COLUMNS)
        for first, end, derived in derived_runs:
            if derived not in suffixes:
                line = io.StringIO()
                csv.writer(line).writerow(("", *derived))
                suffixes[derived] = line.getvalue()
            suffix = suffixes[derived]
            fh.write(suffix.join(map(str, range(first, end, tick_ms))) + suffix)


def read_derived(path: str | Path):
    """(ts, DerivedActivity) per row; rows with the same name and flag
    share one DerivedActivity, built and checked at its first row."""
    derived = functools.cache(_derived)
    return tables.read_table(
        path, DERIVED_COLUMNS, lambda ts, name, flag: (int(ts), derived(name, flag))
    )
