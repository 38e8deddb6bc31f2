"""File-level pipeline stages.

Each stage reads and writes the module file formats, so chaining the
stage functions is exactly equivalent to chaining the CLI subcommands;
the `pipeline` command loads the model and the time zone before the
first stage, then calls these same functions in order. Every writer is
deterministic (fixed float formats, sorted keys), which makes
byte-level comparison of two runs meaningful.
"""

from __future__ import annotations

from . import (
    ambient,
    features,
    fusion,
    labelling,
    neural,
    occupancy,
    profiles,
    simulate,
    tables,
    timeseries,
)

MS_PER_DAY = simulate.MS_PER_DAY
BASIC_WINDOW_COLUMNS = ("window_start", "window_end", "label")


class PipelineError(ValueError):
    """Raised when a stage's inputs are unusable."""


def _single_series(path) -> timeseries.SampleSeries:
    series = timeseries.load_inertial(path)
    if len(series) != 1:
        subjects = ", ".join(s.subject_id for s in series)
        raise PipelineError(
            f"{path}: expected a single subject, found {len(series)} ({subjects})"
        )
    return series[0]


def write_basic_windows(path, windows) -> None:
    tables.write_table(path, BASIC_WINDOW_COLUMNS, windows)


def read_basic_windows(path) -> list[tuple[int, int, str]]:
    return tables.read_table(
        path, BASIC_WINDOW_COLUMNS, lambda start, end, label: (int(start), int(end), label)
    )


def ticks_from_windows(windows, tick_ms: int = fusion.DEFAULT_TICK_MS):
    """Resample per-window labels onto a fixed tick grid.

    windows is an ordered (start, end, label) list of equal-length,
    possibly overlapping windows; each tick takes the label of the
    latest-starting window that covers it, and ticks in coverage holes
    are omitted.
    """
    if tick_ms < 1:
        raise ValueError(f"tick_ms must be positive, got {tick_ms}")
    if not windows:
        return []
    ticks = []
    idx = 0
    t = windows[0][0]
    while t < windows[-1][1]:
        while idx + 1 < len(windows) and windows[idx + 1][0] <= t:
            idx += 1
        if windows[idx][0] <= t < windows[idx][1]:
            ticks.append((t, windows[idx][2]))
        t += tick_ms
    return ticks


def stage_simulate(
    script_path,
    out_inertial,
    out_events,
    out_truth,
    noise: simulate.NoiseSpec,
    rules: fusion.FusionRuleTable,
    days: int = 1,
    start_day_ms: int = 0,
    tick_ms: int = fusion.DEFAULT_TICK_MS,
    subject_id: str = "sim",
) -> dict:
    """Run the daily script for `days` consecutive days and write the
    inertial log, ambient event log, and ground-truth derived timeline."""
    if days < 1:
        raise PipelineError(f"days must be positive, got {days}")
    script = simulate.load_script(script_path)
    all_events = []
    truth = []
    for day in range(days):
        data = simulate.generate_day(
            script,
            noise,
            rules,
            day_start_ms=start_day_ms + day * MS_PER_DAY,
            tick_ms=tick_ms,
            subject_id=subject_id,
        )
        timeseries.write_inertial(out_inertial, data.series, append=day > 0)
        all_events.append(data.events)
        truth.extend(data.derived_ticks)
    ambient.write_events(out_events, ambient.merge_streams(all_events))
    fusion.write_derived(out_truth, truth)
    return {"days": days, "truth_ticks": len(truth)}


def stage_filter(
    in_path,
    out_path,
    spec: timeseries.FilterSpec = timeseries.FilterSpec(),
    max_gap_ms: int = timeseries.DEFAULT_MAX_GAP_MS,
) -> dict:
    """Gap-repair then low-pass one subject's log; gaps wider than
    max_gap_ms survive as timestamp jumps in the output."""
    series = _single_series(in_path)
    pieces = timeseries.interpolate_gaps(series, max_gap_ms)
    for i, piece in enumerate(pieces):
        filtered = timeseries.butterworth_lowpass(piece, spec)
        timeseries.write_inertial(out_path, filtered, append=i > 0)
    return {"pieces": len(pieces), "samples": sum(len(p) for p in pieces)}


def stage_segment(
    in_path,
    out_path,
    window_len: int = timeseries.DEFAULT_WINDOW_LEN,
    overlap_frac: float = timeseries.DEFAULT_OVERLAP,
) -> dict:
    """Write the window plan (spans only) for a repaired log."""
    batch = timeseries.segment(_single_series(in_path), window_len, overlap_frac)
    tables.write_table(out_path, ("window_start", "window_end"), batch.spans())
    return {"windows": len(batch)}


def stage_features(
    in_path,
    out_path,
    window_len: int = timeseries.DEFAULT_WINDOW_LEN,
    overlap_frac: float = timeseries.DEFAULT_OVERLAP,
    include_gyro: bool = False,
) -> dict:
    batch = timeseries.segment(_single_series(in_path), window_len, overlap_frac)
    if not len(batch):
        raise PipelineError(f"{in_path}: no complete window of {window_len} samples")
    matrix, spans = features.extract_all(batch, include_gyro)
    layout = features.layout_for(include_gyro)
    features.write_features(out_path, matrix, spans, layout)
    return {"windows": len(batch), "layout": layout}


# Unused here; the benchmark's tracer still names it (bench/tracing.py).
def _model_format(path) -> str:
    return tables.read_json_object(path).get("format", "")


def load_model(path, window_len: int = timeseries.DEFAULT_WINDOW_LEN):
    """The centroid model or weights bundle in a model file; a bundle
    must take window_len-sample windows."""
    doc = tables.read_json_object(path)
    fmt = doc.get("format", "")
    if fmt == neural.CENTROID_FORMAT:
        return neural.load_centroids(path, doc)
    if fmt != neural.BUNDLE_FORMAT:
        raise PipelineError(f"{path}: unrecognized model format {fmt!r}")
    bundle = neural.load_bundle(path, doc)
    if window_len != bundle.input_len:
        raise PipelineError(f"{path}: bundle takes {bundle.input_len}-sample "
                            f"windows, not --window-len {window_len}")
    return bundle


def stage_classify(
    in_path,
    model: neural.CentroidModel | neural.WeightsBundle,
    out_path,
    probs_path=None,
    overlap_frac: float = timeseries.DEFAULT_OVERLAP,
) -> dict:
    """Label windows with a loaded model of either kind.

    A centroid model reads a feature file; a weights bundle reads a
    filtered inertial log and can also emit per-class probabilities.
    """
    probs = None
    if isinstance(model, neural.CentroidModel):
        fmt = neural.CENTROID_FORMAT
        matrix, spans, _layout = features.read_features(in_path, model.layout)
        labels = model.classify(matrix)
    else:
        fmt = neural.BUNDLE_FORMAT
        batch = timeseries.segment(_single_series(in_path), model.input_len, overlap_frac)
        spans = batch.spans()
        probs = neural.forward_bundle(model, batch.xyz)
        labels = [neural.best_class(model.class_names, p) for p in probs]
    write_basic_windows(out_path, [(*span, label) for span, label in zip(spans, labels)])
    if probs_path is not None:
        if probs is None:
            raise PipelineError("probability output requires a weights bundle")
        rows = [[*span, *(f"{p:.9g}" for p in row)] for span, row in zip(spans, probs)]
        tables.write_table(probs_path, ["window_start", "window_end", *model.class_names], rows)
    return {"windows": len(spans), "model": fmt}


def stage_occupancy(
    events_path,
    out_path,
    timeout_ms: int | None = None,
) -> dict:
    """Detect room and appliance intervals; room overlaps are resolved
    to the single-occupant timeline before writing."""
    events = ambient.load_events(events_path)
    rooms = occupancy.resolve_single_person(
        occupancy.detect_room_intervals(events, timeout_ms=timeout_ms)
    )
    appliances = occupancy.appliance_intervals(events, timeout_ms=timeout_ms)
    occupancy.write_intervals(out_path, sorted(rooms + appliances))
    return {"rooms": len(rooms), "appliances": len(appliances)}


def stage_fuse(
    windows_path,
    intervals_path,
    out_path,
    rules: fusion.FusionRuleTable,
    tick_ms: int = fusion.DEFAULT_TICK_MS,
    min_still_ms: int = fusion.DEFAULT_MIN_STILL_MS,
) -> dict:
    """Resample classified windows to ticks, apply the sleep rule, and
    fuse with room occupancy and appliance state."""
    basic_windows = read_basic_windows(windows_path)
    intervals = occupancy.read_intervals(intervals_path)
    rooms = [iv for iv in intervals if iv.kind == "pir"]
    appliances = [iv for iv in intervals if iv.kind != "pir"]
    ticks = ticks_from_windows(basic_windows, tick_ms)
    with_sleep = fusion.derive_sleep(ticks, min_still_ms=min_still_ms, tick_ms=tick_ms)
    contexts = occupancy.context_sweep((ts for ts, _ in with_sleep), rooms, appliances)
    fused = {}  # (basic, room, appliances) -> the rule table's answer
    derived = []
    for (ts, basic), (room, active) in zip(with_sleep, contexts):
        key = (basic, room, active)
        if key not in fused:
            fused[key] = rules.fuse(basic, room, active)
        derived.append((ts, fused[key]))
    fusion.write_derived(out_path, derived)
    return {"ticks": len(derived)}


def stage_label(
    derived_path,
    out_path,
    span_minutes: int,
    priorities: labelling.PriorityTable,
) -> dict:
    timeline = [(ts, d.name) for ts, d in fusion.read_derived(derived_path)]
    windows = labelling.windowize(timeline, span_minutes, priorities)
    labelling.write_window_labels(out_path, windows)
    return {"windows": len(windows)}


def _day_profiles(windows_path, tz):
    windows = labelling.read_window_labels(windows_path)
    if not windows:
        raise PipelineError(f"{windows_path}: no windows to profile")
    return [profiles.day_profile(day, tz) for day in profiles.split_days(windows, tz)]


def stage_profile(windows_path, out_path, tz=profiles.UTC) -> dict:
    """Day reports, plus a week report when exactly 7 days are present."""
    days = _day_profiles(windows_path, tz)
    doc = {"days": [profiles.day_report(p) for p in days]}
    doc["week"] = (
        profiles.week_report(profiles.week_profile(days)) if len(days) == 7 else None
    )
    profiles.write_report_json(out_path, doc)
    return {"days": len(days)}


def stage_report(windows_path, out_path, fmt: str = "json", tz=profiles.UTC) -> dict:
    if fmt == "json":
        return stage_profile(windows_path, out_path, tz)
    if fmt != "csv":
        raise PipelineError(f"unknown report format {fmt!r}")
    days = _day_profiles(windows_path, tz)
    rows = []
    for p in days:
        doc = profiles.day_report(p)
        for row in doc["activities"]:
            rows.append([doc["day"], row["label"], row["duration_ms"], f"{row['share']:.6f}"])
        if p.nodata_ms > 0:
            share = p.nodata_ms / p.coverage_ms if p.coverage_ms else 0.0
            rows.append([doc["day"], labelling.NO_DATA, p.nodata_ms, f"{share:.6f}"])
    tables.write_table(out_path, ("day", "label", "duration_ms", "share"), rows)
    return {"days": len(days)}
