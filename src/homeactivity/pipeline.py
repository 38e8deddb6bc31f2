"""File-level pipeline stages.

Each stage reads and writes the module file formats, so chaining the
stage functions is exactly equivalent to chaining the CLI subcommands;
the `pipeline` command loads the model and the time zone before the
first stage, then calls these same functions in order. Every writer is
deterministic (fixed float formats, sorted keys), which makes
byte-level comparison of two runs meaningful.

What the input fixes is not an option: `filter` designs its low-pass for
the one sample rate, a sample every DEFAULT_PERIOD_MS, at which every log
is read and simulated, and `classify` cuts a weights bundle's windows at
its input_len.

A log holds one subject. No table is read back within one `pipeline`
run. Each stage that the run chains takes the keyword `handed`, a dict
shared by the run: the stage puts each table it writes there, under its
path, as that table's reader would give it back, and reads an input
whose path is there from the dict in place of the file. `pipeline`
hands `simulate` the script it checked before the first stage the same
way. The values are the reader's, bit for bit: an inertial log's are
those timeseries.write_inertial returned, a feature matrix's are
features.read_back's, and every other table holds ints and the strings
it was written from. So the stages see the same values, and write the
same bytes, as when run by hand. An error names the file and line it
names by hand, found in the file only once the error is raised. `fuse`
fuses tick runs (fusion.ticks_of) by the ground truth's rule, fuse_runs.

The centroid model depends on the options alone, so `pipeline` without
--model begins its calibration (simulate.Calibration) in a forked child
before the first stage, and stage_calibrate, the one stage that no subcommand
runs, waits for it before classify and writes centroids.json.

Only the context modules are imported with this one. The inertial stages
(simulate, filter, segment, features, classify and load_model) import
timeseries, features, neural, simulate and NumPy when they are called,
so the context stages (occupancy, fuse, label, profile, report) run
without NumPy.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING

from . import ambient, defaults, fusion, labelling, occupancy, profiles, tables

if TYPE_CHECKING:
    from . import neural, simulate, timeseries

BASIC_WINDOW_COLUMNS = ("window_start", "window_end", "label")


class PipelineError(ValueError):
    """Raised when a stage's inputs are unusable."""


def _read(path, read, handed):
    """read(path), or the value `handed` holds for path: that table as
    this run wrote it, as read would give it back."""
    if handed is not None and path in handed:
        return handed[path]
    return read(path)


def _single_series(path) -> timeseries.SampleSeries:
    """The series of the log at path."""
    from . import timeseries

    return timeseries.load_inertial(path)[0]


def _line_of(path, index: int) -> int:
    """The number of the line of a log's index-th sample."""
    return [n for n, text in enumerate(tables.read_lines(path), 1) if text.strip()][index]


def _located(path, series, exc: timeseries.SampleError) -> PipelineError:
    """exc behind the line of the log's first sample at or after exc.ts."""
    import numpy as np

    line = _line_of(path, int(np.searchsorted(series.ts, exc.ts)))
    return PipelineError(f"{path}: line {line}: {exc}")


def _refuse_non_finite(path, rows, spans, what: str, handed) -> None:
    """Refuse the first window of a log whose row of values (features or
    class scores) holds a NaN or an infinity, at the line of its first
    sample."""
    import numpy as np

    from . import timeseries

    bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    if bad.size:
        start, end = spans[bad[0]]
        raise _located(path, _read(path, _single_series, handed), timeseries.SampleError(
            f"window {start}..{end} has a non-finite {what}", start))


def _row_error(path, exc: tables.RowError) -> PipelineError:
    """exc behind the line of the table row it names."""
    return PipelineError(f"{path}: line {tables.record_line(path, exc.index + 1)}: {exc}")


def _windows(path, window_len: int, overlap: float, gyro: bool = False,
             handed=None) -> timeseries.WindowBatch:
    """segment() over the one series of a log; errors name the line."""
    from . import timeseries

    series = _read(path, _single_series, handed)
    if gyro and series.gyro is None:
        raise PipelineError(f"{path}: line {_line_of(path, 0)}: --gyro needs "
                            "gyroscope samples, but the log has 6 fields a line, not 9")
    try:
        return timeseries.segment(series, window_len, overlap)
    except timeseries.SampleError as exc:  # the window's last sample
        raise _located(path, series, exc) from None


def write_basic_windows(path, windows) -> None:
    tables.write_table(path, BASIC_WINDOW_COLUMNS, windows)


def read_basic_windows(path) -> list[tuple[int, int, str]]:
    return tables.read_table(
        path, BASIC_WINDOW_COLUMNS, lambda start, end, label: (int(start), int(end), label)
    )


def ticks_from_windows(windows, tick_ms: int = fusion.DEFAULT_TICK_MS):
    """Resample per-window labels onto a fixed tick grid, as tick runs.

    windows is a (start, end, label) list of equal-length, possibly
    overlapping windows, ordered by start and by end; the first window
    that is empty, or whose start or end goes back, raises a
    tables.RowError with its index. Each tick takes the label of the
    latest-starting window that covers it, and ticks in coverage holes
    are omitted; consecutive ticks that share a label form one run
    (fusion.runs), on the grid through the first window's start.
    """
    fusion.check_tick_ms(tick_ms)
    if not windows:
        return []
    origin = last_start = windows[0][0]
    last_end = windows[0][1]
    for index, (start, end, _) in enumerate(windows):
        if end <= start:
            raise tables.RowError(f"window {start}..{end} is empty", index)
        if start < last_start or end < last_end:
            raise tables.RowError(f"window {start}..{end} goes back from window "
                                  f"{last_start}..{last_end}: windows must be ordered", index)
        last_start, last_end = start, end
    # A stretch of same-label windows with no hole (fusion.runs) owns the ticks
    # up to its end or the next stretch's start; touching runs of one label join.
    stretches = list(fusion.runs(windows))
    stops = [start for start, *_ in stretches[1:]] + [last_end]
    owned = [(fusion.next_tick(start, origin, tick_ms),
              fusion.next_tick(min(end, stop), origin, tick_ms), label)
             for (start, end, label, _), stop in zip(stretches, stops)]
    return [run[:3] for run in fusion.runs(run for run in owned if run[0] < run[1])]


def simulation_script(script_path, days: int, start_day_ms: int, tick_ms: int,
                      subject_id: str) -> list[simulate.ScheduleEntry]:
    """The daily script at script_path, refused with the options that
    simulate runs it with: days below 1 or that overlap, days that leave
    the int64 clock or whose first or last millisecond has no date in UTC,
    a tick_ms below 1, or a subject id that a log cannot carry."""
    from . import simulate, timeseries

    if days < 1:
        raise PipelineError(f"days must be positive, got {days}")
    fusion.check_tick_ms(tick_ms)
    timeseries.check_subject_id(subject_id)
    script = simulate.load_script(script_path)
    if days > 1 and script[-1].clock_end_ms > simulate.MS_PER_DAY + script[0].clock_start_ms:
        raise PipelineError(f"{script_path}: line {tables.record_line(script_path, -1)}: entries "
                            f"overlap at clock offset {script[0].clock_start_ms} ms of the next day")
    first = start_day_ms + script[0].clock_start_ms
    last = start_day_ms + (days - 1) * simulate.MS_PER_DAY + script[-1].clock_end_ms
    run = f"start_day_ms {start_day_ms}: the script's {days} day(s) run {first}..{last} ms"
    if not (-(2**63) <= first and last < 2**63):
        raise PipelineError(f"{run}, outside the int64 clock")
    try:
        profiles.local_time(first, profiles.UTC), profiles.local_time(last - 1, profiles.UTC)
    except (ValueError, OverflowError) as exc:
        raise PipelineError(f"{run}, with no date in UTC: {exc}") from None
    return script


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
    *,
    handed: dict | None = None,
) -> dict:
    """Run the daily script for `days` consecutive days and write the
    inertial log, ambient event log, and ground-truth derived timeline,
    making their directories once the script and options pass
    simulation_script; a script handed under script_path is that
    function's result. The log and the events are handed on."""
    from . import simulate, timeseries

    script = _read(script_path, lambda path: simulation_script(
        path, days, start_day_ms, tick_ms, subject_id), handed)
    for path in (out_inertial, out_events, out_truth):
        Path(path).parent.mkdir(parents=True, exist_ok=True)
    starts = [start_day_ms + day * simulate.MS_PER_DAY for day in range(days)]
    generated = [simulate.generate_day(script, noise, rules, start, tick_ms, subject_id)
                 for start in starts]
    series = timeseries.join([data.series for data in generated])
    events = ambient.merge_streams([data.events for data in generated])
    truth = [run for data in generated for run in data.derived_runs]
    del generated  # each day's own copy of its samples
    logged = timeseries.write_inertial(out_inertial, series)
    ambient.write_events(out_events, events)
    fusion.write_derived(out_truth, truth, tick_ms)
    if handed is not None:
        handed[out_inertial] = logged
        handed[out_events] = events
    return {"days": days, "truth_ticks": sum(len(range(f, e, tick_ms)) for f, e, _ in truth)}


def stage_filter(
    in_path,
    out_path,
    order: int = defaults.DEFAULT_ORDER,
    cutoff_hz: float = defaults.DEFAULT_CUTOFF_HZ,
    max_gap_ms: int = defaults.DEFAULT_MAX_GAP_MS,
    *,
    handed: dict | None = None,
) -> dict:
    """Gap-repair then low-pass one subject's log, the filter designed
    for the one sample rate; gaps wider than max_gap_ms survive as
    timestamp jumps in the output."""
    from . import timeseries

    spec = timeseries.FilterSpec(order, cutoff_hz)
    series = _read(in_path, _single_series, handed)
    # `repaired` is held to the end: freed before the write, it raised the
    # 1-day run's peak RSS by up to 3 MB on some seeds (glibc heap).
    try:
        repaired = timeseries.interpolate_gaps(series, max_gap_ms)
        filtered = timeseries.lowpass_for_log(repaired, spec)
    except timeseries.SampleError as exc:  # repaired or filtered values overflowed
        raise _located(in_path, series, exc) from None
    logged = timeseries.write_inertial(out_path, filtered)
    if handed is not None:
        handed[out_path] = logged
    return {"samples": len(logged)}


def stage_segment(
    in_path,
    out_path,
    window_len: int = defaults.DEFAULT_WINDOW_LEN,
    overlap: float = defaults.DEFAULT_OVERLAP,
) -> dict:
    """Write the window plan (spans only) for a repaired log."""
    batch = _windows(in_path, window_len, overlap)
    tables.write_table(out_path, ("window_start", "window_end"), batch.spans())
    return {"windows": len(batch)}


def stage_features(
    in_path,
    out_path,
    window_len: int = defaults.DEFAULT_WINDOW_LEN,
    overlap: float = defaults.DEFAULT_OVERLAP,
    gyro: bool = False,
    *,
    handed: dict | None = None,
) -> dict:
    """Extract the feature rows of a filtered log; a window whose features
    overflow float64 is refused at the line of its first sample."""
    import numpy as np

    from . import features

    batch = _windows(in_path, window_len, overlap, gyro, handed)
    if not len(batch):
        raise PipelineError(f"{in_path}: no complete window of {window_len} samples")
    with np.errstate(all="ignore"):  # an overflow is refused below
        matrix, spans = features.extract_all(batch, gyro)
    _refuse_non_finite(in_path, matrix, spans, "feature value", handed)
    layout = features.layout_for(gyro)
    features.write_features(out_path, matrix, spans, layout)
    if handed is not None:
        handed[out_path] = (features.read_back(matrix), spans, layout)
    return {"windows": len(batch), "layout": layout}


def stage_calibrate(calibration: simulate.Calibration, out_path) -> dict:
    """Wait for the centroid calibration begun before the first stage, and
    write its model; `model` is that model."""
    from . import neural

    model = calibration.join()
    neural.save_centroids(out_path, model)
    return {"model": model}


# Unused here; the benchmark's tracer still names it (bench/tracing.py).
def _model_format(path) -> str:
    return tables.read_json_object(path).get("format", "")


def load_model(path, window_len: int | None = None):
    """The centroid model or weights bundle in a model file, refused unless
    classify can feed it: rows of its feature layout, or windows of 3
    channels, of window_len samples when that is given."""
    from . import features, neural

    doc = tables.read_json_object(path)
    fmt = doc.get("format", "")
    if fmt == neural.CENTROID_FORMAT:
        model, counts = neural.load_centroids(path, doc), features.FEATURE_COUNTS
        if counts.get(model.layout) != model.centroids.shape[1]:
            raise PipelineError(f"{path}: {model.centroids.shape[1]}-value centroids do not "
                                f"fit layout {model.layout!r}; layouts take {counts}")
        return model
    if fmt != neural.BUNDLE_FORMAT:
        raise PipelineError(f"{path}: unrecognized model format {fmt!r}")
    bundle = neural.load_bundle(path, doc)
    if window_len is not None and window_len != bundle.input_len:
        raise PipelineError(f"{path}: bundle takes {bundle.input_len}-sample "
                            f"windows, not --window-len {window_len}")
    if bundle.input_channels != 3:
        raise PipelineError(f"{path}: bundle takes {bundle.input_channels} channels, "
                            "but classify feeds it the 3 acceleration channels")
    return bundle


def stage_classify(
    in_path,
    out_path,
    model: neural.CentroidModel | neural.WeightsBundle | None,
    overlap: float = defaults.DEFAULT_OVERLAP,
    probs=None,
    *,
    handed: dict | None = None,
) -> dict:
    """Label windows with a loaded model of either kind.

    A centroid model reads a feature file; a weights bundle reads a
    filtered inertial log in windows of its input_len and can also write
    per-class probabilities to `probs`. A window with a non-finite class
    score is refused at the line of its first sample.
    """
    import numpy as np

    from . import features, neural

    if not model:
        raise PipelineError("classify requires --model")
    if isinstance(model, neural.CentroidModel):
        if probs is not None:
            raise PipelineError("probability output requires a weights bundle")
        fmt = neural.CENTROID_FORMAT
        matrix, spans, layout = _read(
            in_path, lambda path: features.read_features(path, model.layout), handed)
        if layout != model.layout:  # handed on; the reader names the marker's line
            features.read_features(in_path, model.layout)
        labels = model.classify(matrix)
    else:
        fmt = neural.BUNDLE_FORMAT
        batch = _windows(in_path, model.input_len, overlap, handed=handed)
        spans = batch.spans()
        with np.errstate(all="ignore"):  # an overflow is refused below
            class_probs = neural.forward_bundle(model, batch.xyz)
        _refuse_non_finite(in_path, class_probs, spans, "class score", handed)
        labels = neural.best_class(model.class_names, class_probs)
    windows = [(*span, label) for span, label in zip(spans, labels)]
    write_basic_windows(out_path, windows)
    if handed is not None:
        handed[out_path] = windows
    if probs is not None:
        rows = [[*span, *(f"{p:.9g}" for p in row)] for span, row in zip(spans, class_probs)]
        tables.write_table(probs, ["window_start", "window_end", *model.class_names], rows)
    return {"windows": len(spans), "model": fmt}


def stage_occupancy(
    events_path,
    out_path,
    timeout_ms: int | None = None,
    *,
    handed: dict | None = None,
) -> dict:
    """Detect room and appliance intervals; room overlaps are resolved
    to the single-occupant timeline before writing."""
    events = _read(events_path, ambient.load_events, handed)
    rooms = occupancy.resolve_single_person(
        occupancy.detect_room_intervals(events, timeout_ms=timeout_ms)
    )
    appliances = occupancy.appliance_intervals(events, timeout_ms=timeout_ms)
    intervals = sorted(rooms + appliances)
    occupancy.write_intervals(out_path, intervals)
    if handed is not None:
        handed[out_path] = intervals
    return {"rooms": len(rooms), "appliances": len(appliances)}


def stage_fuse(
    windows_path,
    intervals_path,
    out_path,
    rules: fusion.FusionRuleTable,
    tick_ms: int = fusion.DEFAULT_TICK_MS,
    min_still_ms: int = fusion.DEFAULT_MIN_STILL_MS,
    *,
    handed: dict | None = None,
) -> dict:
    """Resample classified windows to tick runs, apply the sleep rule, and
    fuse with room occupancy and appliance state, taken at interval edges."""
    basic_windows = _read(windows_path, read_basic_windows, handed)
    for index, (_, _, label) in enumerate(basic_windows):
        if label not in fusion.BASIC_ACTIVITIES:
            line = tables.record_line(windows_path, index + 1)
            raise PipelineError(f"{windows_path}: line {line}: unknown basic activity {label!r}")
    intervals = _read(intervals_path, occupancy.read_intervals, handed)
    rooms = [iv for iv in intervals if iv.kind == "pir"]
    appliances = [iv for iv in intervals if iv.kind != "pir"]
    try:
        basic_runs = ticks_from_windows(basic_windows, tick_ms)
    except tables.RowError as exc:
        raise _row_error(windows_path, exc) from None
    edges = sorted({ts for iv in intervals for ts in (iv.start_ts, iv.end_ts)})
    contexts = list(occupancy.context_sweep(edges, rooms, appliances))
    derived = fusion.fuse_runs(basic_runs, edges, contexts, rules, min_still_ms, tick_ms)
    fusion.write_derived(out_path, derived, tick_ms)
    if handed is not None:
        handed[out_path] = fusion.ticks_of(derived, tick_ms)
    return {"ticks": sum(len(range(f, e, tick_ms)) for f, e, _ in derived)}


def stage_label(
    derived_path,
    out_path,
    span: int,
    priorities: labelling.PriorityTable,
    *,
    handed: dict | None = None,
) -> dict:
    timeline = [(ts, d.name) for ts, d in _read(derived_path, fusion.read_derived, handed)]
    try:
        windows = labelling.windowize(timeline, span, priorities)
    except tables.RowError as exc:
        raise _row_error(derived_path, exc) from None
    labelling.write_window_labels(out_path, windows)
    if handed is not None:
        handed[out_path] = windows
    return {"windows": len(windows)}


def _day_profiles(windows_path, tz, handed=None):
    windows = _read(windows_path, labelling.read_window_labels, handed)
    if not windows:
        raise PipelineError(f"{windows_path}: line 2: no windows to profile")
    try:
        days = profiles.split_days(windows, tz)
    except tables.RowError as exc:
        raise _row_error(windows_path, exc) from None
    return [profiles.day_profile(day, tz) for day in days]


def stage_profile(windows_path, out_path, timezone=profiles.UTC, *,
                  handed: dict | None = None) -> dict:
    """Day reports, plus a week report when the days make one (profiles.week_profile)."""
    days = _day_profiles(windows_path, timezone, handed)
    week = profiles.week_profile(days)
    doc = {"days": [profiles.day_report(p) for p in days],
           "week": profiles.week_report(week) if week else None}
    profiles.write_report_json(out_path, doc)
    return {"days": len(days)}


def stage_report(windows_path, out_path, timezone=profiles.UTC, format: str = "json") -> dict:
    """stage_profile's report for "json"; for "csv", the other format, a row per day and label."""
    if format == "json":
        return stage_profile(windows_path, out_path, timezone)
    days = _day_profiles(windows_path, timezone)
    rows = []
    for p in days:
        doc = profiles.day_report(p)
        for row in doc["activities"]:
            rows.append([doc["day"], row["label"], row["duration_ms"], f"{row['share']:.6f}"])
        if p.nodata_ms > 0:
            share = p.nodata_ms / p.coverage_ms
            rows.append([doc["day"], labelling.NO_DATA, p.nodata_ms, f"{share:.6f}"])
    tables.write_table(out_path, ("day", "label", "duration_ms", "share"), rows)
    return {"days": len(days)}
