"""Reference implementations used to check the numeric kernels, and
writers and comparisons that only tests need.

The kernel oracles are deliberately written as plain Python loops over
nested lists, independent of the vectorized code under test. The
feature oracles are the per-window definitions: each sums a window's
samples in the order that fixes the bytes of a feature file, so the
batched `features.extract_all` must equal them exactly. The run oracles
are hand-written loops over one timeline each; the sleep and flag loops
do not look at holes, so they are references on hole-free pieces only.
The repair oracle repairs a log one piece at a time, a list per gap.
The fuse oracles are the fuse stage and the simulator's ground truth a
tick at a time: the per-tick path that the tick runs of `fusion` and
`pipeline.ticks_from_windows` replace.
"""

import math

import numpy as np

from homeactivity import tables
from homeactivity.ambient import AmbientEvent
from homeactivity.features import BIN_COUNT, BIN_RANGE
from homeactivity.fusion import APPLIANCE_PRECEDENCE, DERIVED_COLUMNS, RULE_COLUMNS, runs
from homeactivity.occupancy import context_sweep
from homeactivity.labelling import NO_DATA, PRIORITY_COLUMNS
from homeactivity.profiles import Bout
from homeactivity.timeseries import SampleSeries


def sig(v):
    return 1.0 / (1.0 + math.exp(-v))


def scalar_gru(x, W, U, b):
    """Step-by-step GRU trace; gate order update, reset, candidate."""
    units = len(b[0])
    h = [0.0] * units
    trace = []
    for x_t in x:
        def affine(k, state):
            row = []
            for u in range(units):
                acc = b[k][u]
                for j in range(units):
                    acc += W[k][u][j] * state[j]
                for j in range(len(x_t)):
                    acc += U[k][u][j] * x_t[j]
                row.append(acc)
            return row

        z = [sig(v) for v in affine(0, h)]
        r = [sig(v) for v in affine(1, h)]
        gated = [r[u] * h[u] for u in range(units)]
        cand = [math.tanh(v) for v in affine(2, gated)]
        h = [(1.0 - z[u]) * h[u] + z[u] * cand[u] for u in range(units)]
        trace.append(list(h))
    return trace


def naive_conv1d(x, kernel, bias):
    """Valid cross-correlation; x is steps x channels, kernel is
    kernel_len x channels x filters."""
    steps, channels = len(x), len(x[0])
    klen, _, filters = len(kernel), len(kernel[0]), len(kernel[0][0])
    out = []
    for t in range(steps - klen + 1):
        row = []
        for f in range(filters):
            acc = bias[f]
            for k in range(klen):
                for c in range(channels):
                    acc += x[t + k][c] * kernel[k][c][f]
            row.append(acc)
        out.append(row)
    return out


def naive_maxpool(x, pool, stride):
    steps = len(x)
    out = []
    for start in range(0, steps - pool + 1, stride):
        out.append([max(x[start + k][c] for k in range(pool))
                    for c in range(len(x[0]))])
    return out


def naive_dense(x, weights, bias):
    return [bias[u] + sum(w * v for w, v in zip(row, x))
            for u, row in enumerate(weights)]


def naive_softmax(x):
    m = max(x)
    e = [math.exp(v - m) for v in x]
    total = sum(e)
    return [v / total for v in e]


def butterworth_gain(freq_hz, cutoff_hz, sample_rate_hz, order):
    """|H| of a digital Butterworth low-pass designed by bilinear
    transform with frequency prewarping."""
    warped = math.tan(math.pi * freq_hz / sample_rate_hz)
    warped_cut = math.tan(math.pi * cutoff_hz / sample_rate_hz)
    return 1.0 / math.sqrt(1.0 + (warped / warped_cut) ** (2 * order))


def peak_indices(channel):
    """Indices of strict local maxima exceeding mean + 0.5 * std.

    A peak is a sample strictly greater than both neighbours; endpoints
    are never peaks. The threshold suppresses ripple on near-flat signals.
    """
    x = np.asarray(channel, dtype=np.float64)
    if x.size < 3:
        return np.array([], dtype=np.int64)
    interior = np.arange(1, x.size - 1)
    is_peak = (x[interior] > x[interior - 1]) & (x[interior] > x[interior + 1])
    threshold = x.mean() + 0.5 * x.std()
    return interior[is_peak & (x[interior] > threshold)]


def time_between_peaks(channel, period_ms):
    """Average spacing of detected peaks in milliseconds; 0.0 if < 2 peaks."""
    peaks = peak_indices(channel)
    if peaks.size < 2:
        return 0.0
    return float(np.diff(peaks).mean() * period_ms)


def bin_fractions(channel):
    clipped = np.clip(channel, BIN_RANGE[0], BIN_RANGE[1])
    counts, _ = np.histogram(clipped, bins=BIN_COUNT, range=BIN_RANGE)
    return counts / channel.size


def extract_features(xyz, period_ms, gyro=None):
    """The feature vector of one (window_len, 3) window; with gyro, the
    accgyro49.v1 layout."""
    parts = [
        xyz.mean(axis=0),
        xyz.std(axis=0),
        np.abs(xyz - xyz.mean(axis=0)).mean(axis=0),
        [np.linalg.norm(xyz, axis=1).mean()],
        [time_between_peaks(xyz[:, k], period_ms) for k in range(3)],
    ]
    parts += [bin_fractions(xyz[:, k]) for k in range(3)]
    vec = np.concatenate([np.asarray(p, dtype=np.float64) for p in parts])
    if gyro is not None:
        vec = np.concatenate([vec, gyro.mean(axis=0), gyro.std(axis=0)])
    return vec


def series_equal(a, b):
    if a.subject_id != b.subject_id:
        return False
    if a.ts.shape != b.ts.shape or not np.array_equal(a.ts, b.ts):
        return False
    if not np.array_equal(a.xyz, b.xyz):
        return False
    if (a.gyro is None) != (b.gyro is None):
        return False
    return a.gyro is None or np.array_equal(a.gyro, b.gyro)


def events_from_intervals(intervals):
    """Reconstruct the edge stream that would produce these intervals."""
    events = []
    for iv in intervals:
        events.append(AmbientEvent(iv.start_ts, iv.kind, iv.location, True))
        if not iv.truncated:
            events.append(AmbientEvent(iv.end_ts, iv.kind, iv.location, False))
    events.sort()
    return events


def write_rules(path, table):
    """A fusion rule file that `fusion.load_rules` reads back as table."""
    rows = ((r.basic or "", r.room or "", r.appliance or "", r.derived.name, r.derived.flag)
            for r in table.rules)
    tables.write_table(path, RULE_COLUMNS, rows)


def fuse_by_precedence(rules, default, basic, room, appliances):
    """The documented lookup, one tier at a time: each appliance in
    precedence order and then no appliance; within a tier, rules binding
    both basic and room, then one of them, then neither; then file order."""
    for appliance in (*APPLIANCE_PRECEDENCE, None):
        if appliance is not None and appliance not in appliances:
            continue
        for bound in (2, 1, 0):
            for r in rules:
                if (r.appliance == appliance
                        and (r.basic is not None) + (r.room is not None) == bound
                        and r.basic in (None, basic) and r.room in (None, room)):
                    return r.derived
    return default


def write_priorities(path, table):
    """A priority file that `labelling.load_priorities` reads back as table."""
    rows = ((name, "" if rank is None else rank) for name, rank in table.items())
    tables.write_table(path, PRIORITY_COLUMNS, rows)


def derive_sleep_loop(timeline, min_still_ms, tick_ms):
    """Every maximal run of Lie ticks covering min_still_ms becomes Sleep."""
    timeline = list(timeline)
    out = list(timeline)
    i = 0
    while i < len(timeline):
        if timeline[i][1] != "Lie":
            i += 1
            continue
        j = i
        while j + 1 < len(timeline) and timeline[j + 1][1] == "Lie":
            j += 1
        duration = timeline[j][0] + tick_ms - timeline[i][0]
        if duration >= min_still_ms:
            for k in range(i, j + 1):
                out[k] = (timeline[k][0], "Sleep")
        i = j + 1
    return out


def flag_stream_loop(derived_timeline, tick_ms):
    """Maximal runs of ticks sharing a non-Normal flag."""
    report = []
    run_start = None
    run_flag = None
    prev_ts = None
    for ts, derived in derived_timeline:
        flag = derived.flag
        if flag != run_flag:
            if run_flag is not None and run_flag != "Normal":
                report.append((run_start, prev_ts + tick_ms, run_flag))
            run_start, run_flag = ts, flag
        prev_ts = ts
    if run_flag is not None and run_flag != "Normal":
        report.append((run_start, prev_ts + tick_ms, run_flag))
    return report


def bouts_loop(window_labels):
    """Maximal runs of contiguous same-label windows; NoData and holes
    end a run."""
    out = []
    current = None
    prev_end = None
    for w in window_labels:
        contiguous = prev_end is not None and w.start_ts == prev_end
        if w.label == NO_DATA:
            if current is not None:
                out.append(current)
                current = None
        elif current is not None and contiguous and w.label == current.label:
            current = Bout(current.label, current.start_ts, w.end_ts)
        else:
            if current is not None:
                out.append(current)
            current = Bout(w.label, w.start_ts, w.end_ts)
        prev_end = w.end_ts
    if current is not None:
        out.append(current)
    return out


def hole_free_pieces(timeline, tick_ms):
    """Split an ordered (ts, value) timeline wherever the next tick starts
    after the previous tick's end."""
    pieces = []
    prev_end = None
    for tick in timeline:
        if prev_end is None or tick[0] > prev_end:
            pieces.append([])
        pieces[-1].append(tick)
        prev_end = tick[0] + tick_ms
    return pieces


def repair_pieces(series, max_gap_ms, period_ms=50):
    """Gap repair as a list of pieces, one at a time: a piece ends where
    the next sample lies more than max_gap_ms after it, and each piece is
    resampled on its own grid, every period_ms from its first timestamp
    up to its last sample, each axis by np.interp over the piece alone."""
    ts = series.ts.tolist()
    starts = [0] + [i for i in range(1, len(ts)) if ts[i] - ts[i - 1] > max_gap_ms]
    pieces = []
    for lo, hi in zip(starts, starts[1:] + [len(ts)]):
        grid = np.array(range(ts[lo], ts[hi - 1] + 1, period_ms), dtype=np.int64)
        values = np.column_stack([np.interp(grid, series.ts[lo:hi], series.values[lo:hi, k])
                                  for k in range(series.values.shape[1])])
        pieces.append(SampleSeries(series.subject_id, grid, values))
    return pieces


def runs_of_ticks(timeline, tick_ms):
    """An ordered (ts, value) timeline as tick runs of one tick each."""
    return [(ts, ts + tick_ms, value) for ts, value in timeline]


def ticks_from_windows_loop(windows, tick_ms):
    """Each tick of the grid from the first window's start, up to the last
    window's end, labelled by the last window that starts at or before it
    if that window covers it; windows ordered by start and by end."""
    ticks = []
    idx = 0
    t = windows[0][0] if windows else 0
    while windows and t < windows[-1][1]:
        while idx + 1 < len(windows) and windows[idx + 1][0] <= t:
            idx += 1
        if windows[idx][0] <= t < windows[idx][1]:
            ticks.append((t, windows[idx][2]))
        t += tick_ms
    return ticks


def derive_sleep_ticks(timeline, min_still_ms, tick_ms):
    """The sleep rule a tick at a time: each run (`fusion.runs`) of Lie
    ticks (ts, ts + tick_ms) covering min_still_ms becomes Sleep."""
    out = list(timeline)
    i = 0
    for start, end, basic, count in runs([(ts, ts + tick_ms, basic) for ts, basic in out]):
        if basic == "Lie" and end - start >= min_still_ms:
            out[i:i + count] = [(ts, "Sleep") for ts, _ in out[i:i + count]]
        i += count
    return out


def fuse_ticks(ticks, contexts, rules, min_still_ms, tick_ms):
    """The (ts, DerivedActivity) timeline of ordered (ts, basic) ticks in
    their (room, appliances) contexts, one tick at a time."""
    return [(ts, rules.fuse(basic, room, active)) for (ts, basic), (room, active)
            in zip(derive_sleep_ticks(ticks, min_still_ms, tick_ms), contexts)]


def fuse_stage_ticks(windows, intervals, rules, min_still_ms, tick_ms):
    """The fuse stage's timeline, with the context swept at every tick."""
    ticks = ticks_from_windows_loop(windows, tick_ms)
    rooms = [iv for iv in intervals if iv.kind == "pir"]
    appliances = [iv for iv in intervals if iv.kind != "pir"]
    contexts = context_sweep([ts for ts, _ in ticks], rooms, appliances)
    return fuse_ticks(ticks, contexts, rules, min_still_ms, tick_ms)


def script_truth_ticks(script, rules, day_start_ms, min_still_ms, tick_ms):
    """A simulated day's ground truth: each block's ticks from its start,
    every tick_ms before its end, in the block's room and appliances."""
    ticks, contexts = [], []
    for entry in script:
        start = day_start_ms + entry.clock_start_ms
        for ts in range(start, day_start_ms + entry.clock_end_ms, tick_ms):
            ticks.append((ts, entry.basic))
            contexts.append((entry.room, entry.appliances))
    return fuse_ticks(ticks, contexts, rules, min_still_ms, tick_ms)


def write_derived_ticks(path, timeline):
    """A derived timeline file, one csv.writer row per tick."""
    tables.write_table(path, DERIVED_COLUMNS, ((ts, d.name, d.flag) for ts, d in timeline))
