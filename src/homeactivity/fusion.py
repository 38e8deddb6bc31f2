"""Fuse basic activities with room and appliance context into derived labels.

The rule table lives in a CSV data file (columns basic, room, appliance,
derived_name, flag) so a household can rewrite what counts as Unnatural
without touching code. Lookup precedence: appliance-bound rules first
(water_bottle, then mirror_bulb, bathroom_switch, tv), then exact
(basic, room) rules, then room wildcards, then a catch-all default.
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from . import tables
from .ambient import APPLIANCES, ROOMS

BASIC_ACTIVITIES = ("Walk", "Jog", "Sit", "Stand", "Lie", "Sleep", "StairUp", "StairDown")
FLAGS = ("Normal", "Unnatural", "Anomaly")
APPLIANCE_PRECEDENCE = ("water_bottle", "mirror_bulb", "bathroom_switch", "tv")
RULE_COLUMNS = ("basic", "room", "appliance", "derived_name", "flag")
DERIVED_COLUMNS = ("ts", "derived_name", "flag")

DEFAULT_MIN_STILL_MS = 300_000
DEFAULT_TICK_MS = 5_000


class RuleFileError(ValueError):
    """Raised when a fusion rule file fails validation."""


@dataclass(frozen=True, order=True)
class DerivedActivity:
    name: str
    flag: str = "Normal"

    def __post_init__(self):
        if self.flag not in FLAGS:
            raise ValueError(f"unknown flag {self.flag!r}")


@dataclass(frozen=True)
class FusionRule:
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
    return FusionRule(basic, room, appliance, DerivedActivity(name, flag))


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


def derive_sleep(
    timeline,
    min_still_ms: int = DEFAULT_MIN_STILL_MS,
    tick_ms: int = DEFAULT_TICK_MS,
):
    """Rewrite sustained stillness to Sleep.

    timeline is an ordered list of (ts, basic) pairs at tick_ms cadence.
    Every run of Lie ticks (see `runs`: a hole ends it) whose covered
    duration (first tick start to last tick end) reaches min_still_ms
    becomes Sleep for its whole duration; shorter runs are untouched.
    """
    check_min_still_ms(min_still_ms)
    out = list(timeline)
    i = 0
    for start, end, basic, count in runs([(ts, ts + tick_ms, basic) for ts, basic in out]):
        if basic == "Lie" and end - start >= min_still_ms:
            out[i:i + count] = [(ts, "Sleep") for ts, _ in out[i:i + count]]
        i += count
    return out


def fuse_ticks(ticks, contexts, rules: FusionRuleTable,
               min_still_ms: int = DEFAULT_MIN_STILL_MS, tick_ms: int = DEFAULT_TICK_MS):
    """The (ts, DerivedActivity) timeline of ordered (ts, basic) ticks in
    their (room, appliances) `contexts`: derive_sleep, then the rule table,
    asked once per distinct (basic, room, appliances)."""
    fused = {}  # (basic, room, appliances) -> the rule table's answer
    derived = []
    for (ts, basic), (room, active) in zip(derive_sleep(ticks, min_still_ms, tick_ms), contexts):
        key = (basic, room, active)
        if key not in fused:
            fused[key] = rules.fuse(basic, room, active)
        derived.append((ts, fused[key]))
    return derived


def flag_stream(derived_timeline, tick_ms: int = DEFAULT_TICK_MS):
    """The non-Normal runs (see `runs`) as (start_ts, end_ts, flag) entries.

    derived_timeline is an ordered list of (ts, DerivedActivity). Adjacent
    ticks sharing a flag coalesce even when the activity name changes.
    """
    ticks = ((ts, ts + tick_ms, d.flag) for ts, d in derived_timeline)
    return [(start, end, flag) for start, end, flag, _ in runs(ticks) if flag != "Normal"]


def write_derived(path: str | Path, timeline) -> None:
    """Serialize an ordered (ts, DerivedActivity) timeline."""
    tables.write_table(path, DERIVED_COLUMNS, ((ts, d.name, d.flag) for ts, d in timeline))


def read_derived(path: str | Path):
    """(ts, DerivedActivity) per row; rows with the same name and flag
    share one DerivedActivity, built and checked at its first row."""
    derived = functools.cache(DerivedActivity)
    return tables.read_table(
        path, DERIVED_COLUMNS, lambda ts, name, flag: (int(ts), derived(name, flag))
    )
