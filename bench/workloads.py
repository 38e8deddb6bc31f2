"""Inputs, units of work and output checks for the benchmark workloads.

Every workload is built from a seed in set-up, outside the timed region.
The program only ever sees the generated files: a unit of work is a list
of `homeactivity.cli` argument lists run one after another into a fresh
output directory. Checks read the unit's output files and compare them
with oracles computed here in set-up.
"""

from __future__ import annotations

import csv
import json
import shutil
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from homeactivity import ambient, fusion, labelling, neural, pipeline, simulate
from homeactivity.simulate import MS_PER_DAY, ScheduleEntry

SIX_AM = 21_600_000
BLOCK_MS = 240_000
WINDOW_MS = 6_400
HOP_MS = 3_200
SIGMA = 0.5
DROPOUT = 0.02

# The acceptance day (tests/test_acceptance.py WEEK_SCRIPT): 17 blocks
# from 06:00 to 07:36 touching every room and appliance, as
# (minutes after 06:00, duration in minutes, room, basic, appliances).
ACCEPTANCE_DAY = [
    (0, 8, "Bedroom", "Lie", ()),
    (8, 4, "Bedroom", "Stand", ()),
    (12, 8, "Kitchen", "Walk", ()),
    (20, 4, "Kitchen", "Sit", ("water_bottle",)),
    (24, 12, "Hall", "Sit", ("tv",)),
    (36, 4, "Worship", "Stand", ()),
    (40, 4, "Bathroom", "Stand", ("mirror_bulb",)),
    (44, 4, "Bathroom", "Stand", ("bathroom_switch",)),
    (48, 8, "Outside", "Walk", ()),
    (56, 8, "Outside", "Jog", ()),
    (64, 4, "Stairs", "StairUp", ()),
    (68, 4, "Stairs", "StairDown", ()),
    (72, 8, "Hall", "Sit", ()),
    (80, 4, "Bedroom", "Lie", ()),
    (84, 4, "Kitchen", "Walk", ()),
    (88, 4, "Kitchen", "Stand", ()),
    (92, 4, "Bedroom", "Sit", ()),
]


def acceptance_day(blocks: int | None = None) -> list[ScheduleEntry]:
    return [
        ScheduleEntry(SIX_AM + start * 60_000, minutes * 60_000, room, basic,
                      frozenset(apps))
        for start, minutes, room, basic, apps in ACCEPTANCE_DAY[:blocks]
    ]


def dense_day(seed: int, blocks: int) -> list[ScheduleEntry]:
    """Four-minute blocks from 06:00, each context drawn from the
    acceptance day's (room, basic, appliances) rows."""
    picks = np.random.default_rng(seed).integers(len(ACCEPTANCE_DAY), size=blocks)
    out = []
    for i, pick in enumerate(picks):
        _start, _minutes, room, basic, apps = ACCEPTANCE_DAY[int(pick)]
        out.append(ScheduleEntry(SIX_AM + i * BLOCK_MS, BLOCK_MS, room, basic,
                                 frozenset(apps)))
    return out


# Sizes: the measured size, and a smoke size for the benchmark's own test.
# context_week's smoke day has 180 blocks so that its stages outweigh the
# CLI's fixed cost of about 5 ms a command, which the test's 10% bound on
# the traced remainder would otherwise catch.
SIZES = {
    "week_pipeline": {"full": {"days": 1, "blocks": None},
                      "smoke": {"days": 1, "blocks": 3}},
    "bundle_classify": {"full": {"days": 1, "blocks": 2},
                        "smoke": {"days": 1, "blocks": 1}},
    "context_week": {"full": {"days": 4, "blocks": 240},
                     "smoke": {"days": 1, "blocks": 180}},
}


class CheckError(Exception):
    """An output is missing, malformed or wrong."""


@dataclass
class Prepared:
    """A workload's generated inputs, its unit of work and its oracles."""

    days: int
    out: Path
    commands: list[list[str]]
    check: object  # callable(out_dir) -> dict of quality figures
    bundle: Path | None = None
    extra: dict = field(default_factory=dict)

    def reset_out(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)


def _day_key(ts: int) -> str:
    return datetime.fromtimestamp(ts / 1000, timezone.utc).date().isoformat()


def truth_durations(truth_ticks, tick_ms: int = fusion.DEFAULT_TICK_MS):
    """Per-day derived-name durations of a simulated truth timeline."""
    out: dict[str, dict[str, int]] = {}
    for ts, derived in truth_ticks:
        day = out.setdefault(_day_key(ts), {})
        day[derived.name] = day.get(derived.name, 0) + tick_ms
    return out


def duration_error(got: dict, want: dict) -> float:
    """Largest relative per-day duration error over the truth labels, or
    the share of reported time under labels the truth never has."""
    if set(got) != set(want):
        raise CheckError(f"report days {sorted(got)} != truth days {sorted(want)}")
    worst = 0.0
    for day, truth in want.items():
        report = got[day]
        for name, ms in truth.items():
            worst = max(worst, abs(report.get(name, 0) - ms) / ms)
        stray = sum(v for k, v in report.items() if k not in truth)
        worst = max(worst, stray / sum(truth.values()))
    return worst


def _simulate_truth(script, noise, rules, days):
    truth = []
    for day in range(days):
        data = simulate.generate_day(script, noise, rules, day_start_ms=day * MS_PER_DAY)
        truth.extend(data.derived_ticks)
    return truth


def prepare_week_pipeline(work: Path, seed: int, days: int, blocks) -> Prepared:
    """One `pipeline` run over the acceptance day with calibration inside."""
    script = acceptance_day(blocks)
    inputs = work / "in"
    inputs.mkdir(parents=True, exist_ok=True)
    simulate.write_script(inputs / "script.csv", script)
    noise = simulate.NoiseSpec((SIGMA,) * 3, DROPOUT, seed)
    want = truth_durations(
        _simulate_truth(script, noise, fusion.load_default_rules(), days)
    )
    out = work / "out"
    command = ["pipeline", "--script", str(inputs / "script.csv"), "--out", str(out),
               "--days", str(days), "--span", "2", "--sigma", str(SIGMA),
               "--dropout", str(DROPOUT), "--seed", str(seed)]

    def check(out_dir: Path) -> dict:
        return {
            "accuracy": window_accuracy(out_dir / "basic_windows.csv", script),
            "duration_err": duration_error(_report_json_durations(out_dir), want),
        }

    return Prepared(days, out, [command], check)


def window_accuracy(path: Path, script) -> float:
    """The acceptance gate's rule: share of basic windows lying wholly
    inside a scripted block whose label equals the block's activity."""
    total = correct = 0
    for w_start, w_end, label in pipeline.read_basic_windows(path):
        day_ms = w_start // MS_PER_DAY * MS_PER_DAY
        for e in script:
            if e.clock_start_ms <= w_start - day_ms and w_end - day_ms <= e.clock_end_ms:
                total += 1
                correct += label == e.basic
                break
    if total == 0:
        raise CheckError(f"{path}: no window lies inside a scripted block")
    return correct / total


def _report_json_durations(out_dir: Path) -> dict:
    doc = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    return {
        day["day"]: {row["label"]: row["duration_ms"] for row in day["activities"]}
        for day in doc["days"]
    }


def prepare_bundle_classify(work: Path, seed: int, days: int, blocks) -> Prepared:
    """`classify --model bundle.json` over a filtered log: the only
    workload on which the weights-bundle path runs."""
    inputs = work / "in"
    inputs.mkdir(parents=True, exist_ok=True)
    simulate.write_script(inputs / "script.csv", acceptance_day(blocks))
    noise = simulate.NoiseSpec((SIGMA,) * 3, DROPOUT, seed)
    pipeline.stage_simulate(
        inputs / "script.csv", inputs / "inertial.csv", inputs / "events.ndjson",
        inputs / "truth_derived.csv", noise, fusion.load_default_rules(), days=days,
    )
    pipeline.stage_filter(inputs / "inertial.csv", inputs / "filtered.csv")
    bundle = neural.make_default_bundle(simulate.CLASSIFIER_CLASSES, seed=seed)
    neural.save_bundle(inputs / "bundle.json", bundle)
    windows = _filtered_windows(inputs / "filtered.csv")
    reference = reference_forward(bundle, windows)
    out = work / "out"
    command = ["classify", "--in", str(inputs / "filtered.csv"),
               "--model", str(inputs / "bundle.json"),
               "--out", str(out / "basic_windows.csv"), "--probs", str(out / "probs.csv")]

    def check(out_dir: Path) -> dict:
        check_probs(out_dir, bundle.class_names, reference)
        return {}

    return Prepared(days, out, [command], check,
                    bundle=inputs / "bundle.json",
                    extra={"windows": windows, "bundle": bundle})


def _filtered_windows(path: Path) -> np.ndarray:
    """(n, 128, 3) windows of a gap-free filtered log, hop 64."""
    rows = np.loadtxt(path, delimiter=",", usecols=(2, 3, 4, 5),
                      converters={5: lambda s: float(s.rstrip(";"))})
    if np.any(np.diff(rows[:, 0]) != simulate.DEFAULT_PERIOD_MS):
        raise CheckError(f"{path}: the filtered log has a gap")
    view = np.lib.stride_tricks.sliding_window_view(rows[:, 1:], 128, axis=0)
    return np.ascontiguousarray(view[::64].transpose(0, 2, 1))


def reference_forward(bundle, windows: np.ndarray) -> np.ndarray:
    """Batched NumPy forward pass of the stock conv + GRU stack.

    Written from the layer definitions in neural.py (valid cross-
    correlation, GRU gate order update/reset/candidate), independent of
    the per-window code path the CLI runs.
    """
    x = windows
    for spec in bundle.layers:
        w = spec.weights
        if spec.kind == "conv1d":
            kernel = np.asarray(w["kernel"])
            k, c, f = kernel.shape
            taps = np.lib.stride_tricks.sliding_window_view(x, k, axis=1)
            # taps is (n, steps, c, k)
            x = np.maximum(np.einsum("ntck,kcf->ntf", taps, kernel) + w["bias"], 0.0)
        elif spec.kind == "maxpool1d":
            steps = (x.shape[1] - 2) // 2 + 1
            x = np.maximum(x[:, 0:2 * steps:2], x[:, 1:2 * steps:2])
        elif spec.kind == "gru":
            W, U, b = (np.asarray(w[key]) for key in ("W", "U", "b"))
            h = np.zeros((x.shape[0], b.shape[1]))
            seq = []
            for t in range(x.shape[1]):
                xt = x[:, t]
                z = 1 / (1 + np.exp(-(h @ W[0].T + xt @ U[0].T + b[0])))
                r = 1 / (1 + np.exp(-(h @ W[1].T + xt @ U[1].T + b[1])))
                cand = np.tanh((r * h) @ W[2].T + xt @ U[2].T + b[2])
                h = (1 - z) * h + z * cand
                seq.append(h)
            x = np.stack(seq, axis=1) if spec.params.get("return_sequences") else h
        elif spec.kind == "dense":
            scores = x @ np.asarray(w["weights"]).T + w["bias"]
            e = np.exp(scores - scores.max(axis=1, keepdims=True))
            x = e / e.sum(axis=1, keepdims=True)
    return x


def check_probs(out_dir: Path, class_names, reference: np.ndarray) -> None:
    with open(out_dir / "probs.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["window_start", "window_end", *class_names]:
        raise CheckError(f"probs.csv header {rows[0]}")
    probs = np.array([[float(v) for v in r[2:]] for r in rows[1:]])
    if probs.shape != reference.shape:
        raise CheckError(f"probs.csv has shape {probs.shape}, want {reference.shape}")
    err = float(np.max(np.abs(probs - reference)))
    if err > 1e-7:
        raise CheckError(f"probs.csv differs from the reference forward by {err:.3g}")
    labels = [label for _s, _e, label in
              pipeline.read_basic_windows(out_dir / "basic_windows.csv")]
    ranked = np.sort(reference, axis=1)
    clear = ranked[:, -1] - ranked[:, -2] > 1e-9
    want = np.asarray(class_names)[reference.argmax(axis=1)]
    if len(labels) != len(want) or np.any((np.asarray(labels) != want) & clear):
        raise CheckError("basic_windows.csv labels differ from the reference argmax")


def prepare_context_week(work: Path, seed: int, days: int, blocks: int) -> Prepared:
    """The context layers alone, chained by hand over dense days."""
    script = dense_day(seed, blocks)
    inputs = work / "in"
    inputs.mkdir(parents=True, exist_ok=True)
    rules = fusion.load_default_rules()
    truth, events, windows = [], [], []
    for day in range(days):
        start = day * MS_PER_DAY
        data = simulate.generate_day(script, simulate.QUIET, rules, day_start_ms=start)
        truth.extend(data.derived_ticks)
        events.append(data.events)
        for e in script:
            for w in range(start + e.clock_start_ms, start + e.clock_end_ms, HOP_MS):
                if w + WINDOW_MS <= start + script[-1].clock_end_ms:
                    windows.append((w, w + WINDOW_MS, e.basic))
    ambient.write_events(inputs / "events.ndjson", ambient.merge_streams(events))
    pipeline.write_basic_windows(inputs / "basic_windows.csv", windows)
    want = truth_durations(truth)
    truth_by_ts = {ts: d.name for ts, d in truth}
    out = work / "out"
    o = str(out)
    commands = [
        ["occupancy", "--events", str(inputs / "events.ndjson"),
         "--out", f"{o}/intervals.csv"],
        ["fuse", "--windows", str(inputs / "basic_windows.csv"),
         "--intervals", f"{o}/intervals.csv", "--out", f"{o}/derived.csv"],
        ["label", "--in", f"{o}/derived.csv", "--out", f"{o}/window_labels.csv",
         "--span", "2"],
        ["profile", "--in", f"{o}/window_labels.csv", "--out", f"{o}/report.json"],
        ["report", "--in", f"{o}/window_labels.csv", "--out", f"{o}/report.csv",
         "--format", "csv"],
    ]

    def check(out_dir: Path) -> dict:
        derived = fusion.read_derived(out_dir / "derived.csv")
        same = sum(truth_by_ts.get(ts) == d.name for ts, d in derived)
        got: dict[str, dict[str, int]] = {}
        with open(out_dir / "report.csv", encoding="utf-8", newline="") as fh:
            for row in csv.DictReader(fh):
                if row["label"] != labelling.NO_DATA:
                    got.setdefault(row["day"], {})[row["label"]] = int(row["duration_ms"])
        return {"accuracy": same / len(truth_by_ts),
                "duration_err": duration_error(got, want)}

    return Prepared(days, out, commands, check)


PREPARE = {
    "week_pipeline": prepare_week_pipeline,
    "bundle_classify": prepare_bundle_classify,
    "context_week": prepare_context_week,
}


def prepare(name: str, work: Path, seed: int, size: str = "full") -> Prepared:
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    return PREPARE[name](work, seed, **SIZES[name][size])
