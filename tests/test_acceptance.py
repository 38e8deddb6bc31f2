"""Acceptance gate: one test per release criterion.

Covers exact conformance of the bundled fusion and priority tables,
numeric kernels against naive reference implementations, filter
response, segmentation and occupancy properties, and three end-to-end
pipeline runs (zero-noise week, noisy days, determinism). Every test
asserts its own wall-clock budget so the gate also guards runtime.
"""

import json
import time

import numpy as np
import pytest

import oracles
from homeactivity import (
    ambient,
    cli,
    fusion,
    labelling,
    neural,
    occupancy,
    pipeline,
    timeseries,
)
from homeactivity.simulate import MS_PER_DAY, ScheduleEntry, write_script

SIX_AM = 21_600_000

# basic, room, active appliances -> derived name and flag; the bundled
# rule file must reproduce every row exactly.
FUSION_ROWS = [
    ("Lie", "Bedroom", (), "Lying in Bedroom", "Normal"),
    ("Sit", "Bedroom", (), "Sitting in Bedroom", "Normal"),
    ("Stand", "Bedroom", (), "Standing in Bedroom", "Normal"),
    ("Jog", "Bedroom", (), "Jogging in bedroom", "Unnatural"),
    ("Sleep", "Kitchen", (), "Sleeping in Kitchen", "Anomaly"),
    ("Lie", "Kitchen", (), "Lying in Kitchen", "Unnatural"),
    ("Sit", "Kitchen", (), "Sitting in Kitchen", "Normal"),
    ("Stand", "Kitchen", (), "Standing in Kitchen", "Normal"),
    ("Jog", "Kitchen", (), "Jogging in kitchen", "Unnatural"),
    ("Lie", "Hall", (), "Lying in Hall", "Normal"),
    ("Sit", "Hall", (), "Sitting in Hall", "Normal"),
    ("Stand", "Hall", (), "Standing in Hall", "Normal"),
    ("Jog", "Hall", (), "Jogging in Hall", "Unnatural"),
    ("Lie", "Worship", (), "Lying in Worship", "Anomaly"),
    ("Sit", "Worship", (), "Sitting in Worship", "Normal"),
    ("Stand", "Worship", (), "Sanding in Worship", "Normal"),
    ("Jog", "Worship", (), "Jogging in Worship", "Unnatural"),
    ("Lie", "Hall", ("tv",), "Watching TV Lying", "Normal"),
    ("Sit", "Hall", ("tv",), "Watching TV Sitting", "Normal"),
    ("Stand", "Hall", ("tv",), "Watching TV standing", "Normal"),
    ("Jog", "Hall", ("tv",), "Watching TV Jogging", "Unnatural"),
    ("StairUp", "Stairs", (), "Using Stairs", "Normal"),
    ("StairDown", "Stairs", (), "Using Stairs", "Normal"),
    (None, "Outside", (), "Outside Activity", "Normal"),
    (None, "Kitchen", ("water_bottle",), "Drinking Activity", "Normal"),
    (None, "Bathroom", ("mirror_bulb",), "Grooming", "Normal"),
    (None, "Bathroom", ("bathroom_switch",), "BathroomActivity", "Normal"),
]

# One simulated day touching every room and appliance. It starts at
# 06:00 and its durations are multiples of 240 s, so entry boundaries
# land on the 2-minute window grid of the epoch clock.
WEEK_SCRIPT = [
    ScheduleEntry(SIX_AM, 480_000, "Bedroom", "Lie"),
    ScheduleEntry(SIX_AM + 480_000, 240_000, "Bedroom", "Stand"),
    ScheduleEntry(SIX_AM + 720_000, 480_000, "Kitchen", "Walk"),
    ScheduleEntry(SIX_AM + 1_200_000, 240_000, "Kitchen", "Sit",
                  frozenset({"water_bottle"})),
    ScheduleEntry(SIX_AM + 1_440_000, 720_000, "Hall", "Sit", frozenset({"tv"})),
    ScheduleEntry(SIX_AM + 2_160_000, 240_000, "Worship", "Stand"),
    ScheduleEntry(SIX_AM + 2_400_000, 240_000, "Bathroom", "Stand",
                  frozenset({"mirror_bulb"})),
    ScheduleEntry(SIX_AM + 2_640_000, 240_000, "Bathroom", "Stand",
                  frozenset({"bathroom_switch"})),
    ScheduleEntry(SIX_AM + 2_880_000, 480_000, "Outside", "Walk"),
    ScheduleEntry(SIX_AM + 3_360_000, 480_000, "Outside", "Jog"),
    ScheduleEntry(SIX_AM + 3_840_000, 240_000, "Stairs", "StairUp"),
    ScheduleEntry(SIX_AM + 4_080_000, 240_000, "Stairs", "StairDown"),
    ScheduleEntry(SIX_AM + 4_320_000, 480_000, "Hall", "Sit"),
    ScheduleEntry(SIX_AM + 4_800_000, 240_000, "Bedroom", "Lie"),
    ScheduleEntry(SIX_AM + 5_040_000, 240_000, "Kitchen", "Walk"),
    ScheduleEntry(SIX_AM + 5_280_000, 240_000, "Kitchen", "Stand"),
    ScheduleEntry(SIX_AM + 5_520_000, 240_000, "Bedroom", "Sit"),
]


@pytest.fixture(scope="module")
def week_script_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("acceptance") / "week.csv"
    write_script(path, WEEK_SCRIPT)
    return path


def expected_daily_profile(rules) -> dict[str, tuple[int, int]]:
    """Per-day derived-name -> (duration_ms, bout count) from the script."""
    bouts = []
    for e in WEEK_SCRIPT:
        basic = e.basic
        if basic == "Lie" and e.duration_ms >= fusion.DEFAULT_MIN_STILL_MS:
            basic = "Sleep"
        name = rules.fuse(basic, e.room, e.appliances).name
        if bouts and bouts[-1][0] == name:
            bouts[-1][1] += e.duration_ms
        else:
            bouts.append([name, e.duration_ms])
    out: dict[str, tuple[int, int]] = {}
    for name, dur in bouts:
        total, count = out.get(name, (0, 0))
        out[name] = (total + dur, count + 1)
    return out


def test_derived_activity_fusion_table(default_rules):
    """All 27 core context rows fuse to the exact name and flag."""
    start = time.perf_counter()
    for basic, room, appliances, name, flag in FUSION_ROWS:
        got = default_rules.fuse(basic, room, frozenset(appliances))
        assert (got.name, got.flag) == (name, flag), (basic, room, appliances)
    assert time.perf_counter() - start < 1.0


def test_ten_minute_window_labelling_cases():
    """Frequency, priority, and tie handling on three printed cases."""
    start = time.perf_counter()
    table = labelling.PriorityTable(
        {"Drinking Water": 1},
        vocabulary=("Walking Outside", "Kitchen Activity", "Sitting in Hall"),
    )
    cases = [
        (["Walking outside"] * 5, "Walking Outside", "frequency"),
        (["Sitting in Hall"] * 3 + ["Kitchen Activity", "Drinking water"],
         "Drinking Water", "priority"),
        (["Sitting in Hall"] * 2 + ["Kitchen Activity"] * 2 + ["walking outside"],
         "Kitchen Activity", "tie"),
    ]
    for labels, want, method in cases:
        assert labelling.label_window(labels, table) == (want, method)
        # same answer through span-10 windowing of the 5 s tick stream
        timeline = [
            (i * 120_000 + k * 5_000, lab)
            for i, lab in enumerate(labels)
            for k in range(24)
        ]
        (window,) = labelling.windowize(timeline, 10, table)
        assert (window.label, window.method) == (want, method)
    assert time.perf_counter() - start < 1.0


def test_lstm_cell_matches_scalar_trace():
    """Zero-weight step is exact; random small cells track the oracle."""
    start = time.perf_counter()
    assert float(neural.sigmoid(0.0)) == 0.5  # every gate at zero weights
    W, U, b = np.zeros((4, 1, 1)), np.zeros((4, 1, 1)), np.zeros((4, 1))
    h, s = neural.lstm_cell_step(np.array([0.7]), np.zeros(1), np.zeros(1), W, U, b)
    assert abs(s[0] - 0.25) < 1e-12
    assert abs(h[0] - 0.2810885) < 1e-6

    rng = np.random.default_rng(2024)
    for _ in range(1000):
        units = int(rng.integers(1, 5))
        in_dim = int(rng.integers(1, 4))
        steps = int(rng.integers(1, 7))
        W = rng.normal(0.0, 0.6, (4, units, units))
        U = rng.normal(0.0, 0.6, (4, units, in_dim))
        b = rng.normal(0.0, 0.6, (4, units))
        x = rng.normal(0.0, 1.0, (steps, in_dim))
        cand = "tanh" if rng.integers(2) else "sigmoid"
        got = neural.lstm_forward(
            x, W, U, b, return_sequences=True, candidate_activation=cand
        )
        want = oracles.scalar_lstm(x.tolist(), W.tolist(), U.tolist(), b.tolist(), cand)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)
    assert time.perf_counter() - start < 5.0


def test_numeric_kernels_match_naive_oracles():
    """conv/pool/dense/softmax agree with triple-loop references, 500 shapes."""
    start = time.perf_counter()
    rng = np.random.default_rng(4)
    for _ in range(125):
        steps = int(rng.integers(4, 13))
        channels = int(rng.integers(1, 4))
        klen = int(rng.integers(1, 5))
        filters = int(rng.integers(1, 5))
        x = rng.normal(size=(steps, channels))
        kernel = rng.normal(size=(klen, channels, filters))
        bias = rng.normal(size=filters)
        np.testing.assert_allclose(
            neural.conv1d_forward(x, kernel, bias),
            oracles.naive_conv1d(x.tolist(), kernel.tolist(), bias.tolist()),
            rtol=0, atol=1e-9,
        )
    for _ in range(125):
        steps = int(rng.integers(2, 16))
        channels = int(rng.integers(1, 5))
        pool = int(rng.integers(1, min(steps, 4) + 1))
        stride = int(rng.integers(1, 4))
        x = rng.normal(size=(steps, channels))
        np.testing.assert_allclose(
            neural.maxpool1d(x, pool, stride),
            oracles.naive_maxpool(x.tolist(), pool, stride),
            rtol=0, atol=1e-9,
        )
    for _ in range(125):
        in_dim = int(rng.integers(1, 12))
        units = int(rng.integers(1, 12))
        x = rng.normal(size=in_dim)
        weights = rng.normal(size=(units, in_dim))
        bias = rng.normal(size=units)
        np.testing.assert_allclose(
            neural.dense_forward(x, weights, bias),
            oracles.naive_dense(x.tolist(), weights.tolist(), bias.tolist()),
            rtol=0, atol=1e-9,
        )
    for _ in range(125):
        x = rng.normal(0.0, 4.0, size=int(rng.integers(1, 12)))
        got = neural.softmax(x)
        np.testing.assert_allclose(
            got, oracles.naive_softmax(x.tolist()), rtol=0, atol=1e-9
        )
        assert abs(got.sum() - 1.0) <= 1e-12
    assert time.perf_counter() - start < 10.0


def _mono_series(values):
    values = np.asarray(values, dtype=np.float64)
    return timeseries.SampleSeries(
        subject_id="s",
        ts=np.arange(len(values), dtype=np.int64) * 50,
        values=np.column_stack([values, values, values]),
    )


def test_lowpass_filter_response():
    """DC passes, an 8 Hz tone dies, and filtering is linear."""
    start = time.perf_counter()
    spec = timeseries.FilterSpec(order=3, cutoff_hz=3.0)  # at the series' 20 Hz

    out = timeseries.butterworth_lowpass(_mono_series(np.full(1200, 2.5)), spec)
    np.testing.assert_allclose(out.xyz[-200:, 0] / 2.5, 1.0, rtol=0, atol=1e-6)

    tone = np.sin(2 * np.pi * 8.0 * np.arange(2000) / 20.0)
    filtered = timeseries.butterworth_lowpass(_mono_series(tone), spec).xyz[:, 0]
    # 500 samples is an exact number of tone periods, so RMS*sqrt(2) is
    # the steady-state output amplitude.
    measured = np.sqrt(2.0 * np.mean(filtered[-500:] ** 2))
    analytic = oracles.butterworth_gain(8.0, 3.0, 20.0, 3)
    assert measured <= 0.1
    assert analytic <= 0.1
    np.testing.assert_allclose(measured, analytic, rtol=1e-3)

    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rng.normal(size=300)
        y = rng.normal(size=300)
        a, b = rng.normal(size=2)
        combined = timeseries.butterworth_lowpass(_mono_series(a * x + b * y), spec)
        parts = (
            a * timeseries.butterworth_lowpass(_mono_series(x), spec).xyz[:, 0]
            + b * timeseries.butterworth_lowpass(_mono_series(y), spec).xyz[:, 0]
        )
        np.testing.assert_allclose(combined.xyz[:, 0], parts, rtol=0, atol=1e-9)
    assert time.perf_counter() - start < 5.0


def test_segmentation_window_count_formula():
    """len(segment(series, w, f)) == floor((N - w) / hop) + 1, 10^4 sweeps."""
    start = time.perf_counter()
    rng = np.random.default_rng(6)
    for _ in range(10_000):
        w = int(rng.integers(1, 129))
        n = int(rng.integers(w, 3 * w + 1))
        f = float(rng.uniform(0.0, 0.95))
        hop = max(1, round(w * (1 - f)))
        series = _mono_series(np.zeros(n))
        assert len(timeseries.segment(series, w, f)) == (n - w) // hop + 1
    assert time.perf_counter() - start < 5.0


def test_occupancy_intervals_roundtrip_and_disjointness():
    """Edge streams rebuild their intervals; resolution never overlaps."""
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    rooms = ambient.ROOMS
    for _ in range(200):
        transitions = int(rng.integers(1, 51))
        bounds = np.cumsum(rng.integers(1_000, 60_000, size=transitions + 1))
        t0 = int(rng.integers(0, 10**6))
        times = [t0] + [t0 + int(b) for b in bounds]
        idx = [int(rng.integers(len(rooms)))]
        for _ in range(transitions):
            step = int(rng.integers(1, len(rooms)))
            idx.append((idx[-1] + step) % len(rooms))
        truth = [
            occupancy.Interval(times[i], times[i + 1], "pir", rooms[idx[i]])
            for i in range(len(idx))
        ]
        events = oracles.events_from_intervals(truth)
        resolved = occupancy.resolve_single_person(
            occupancy.detect_room_intervals(events)
        )
        assert resolved == truth

    for _ in range(10_000):
        m = int(rng.integers(2, 12))
        ts = np.cumsum(rng.integers(0, 5_000, size=m))
        picks = rng.integers(0, len(rooms), size=m)
        states = rng.integers(0, 2, size=m)
        events = [
            ambient.AmbientEvent(int(t), "pir", rooms[int(r)], bool(s))
            for t, r, s in zip(ts, picks, states)
        ]
        resolved = occupancy.resolve_single_person(
            occupancy.detect_room_intervals(events)
        )
        for a, b in zip(resolved, resolved[1:]):
            assert b.start_ts >= a.end_ts
    assert time.perf_counter() - start < 10.0


def test_week_long_pipeline_reproduces_script_zero_noise(
    week_script_path, default_rules, tmp_path
):
    """7 noise-free days: window labels equal the scripted timeline and
    daily durations stay within one 2-minute window per bout."""
    start = time.perf_counter()
    out = tmp_path / "run"
    code = cli.main(
        ["pipeline", "--script", str(week_script_path), "--out", str(out),
         "--days", "7", "--span", "2"]
    )
    assert code == 0

    pipeline.stage_label(
        out / "truth_derived.csv", tmp_path / "truth_windows.csv", 2,
        labelling.load_default_priorities(),
    )
    got = labelling.read_window_labels(out / "window_labels.csv")
    want = labelling.read_window_labels(tmp_path / "truth_windows.csv")
    assert got == want

    expected = expected_daily_profile(default_rules)
    doc = json.loads((out / "report.json").read_text())
    assert len(doc["days"]) == 7
    assert doc["week"] is not None
    for day in doc["days"]:
        durations = {row["label"]: row["duration_ms"] for row in day["activities"]}
        assert set(durations) == set(expected)
        for name, (duration_ms, bout_count) in expected.items():
            assert abs(durations[name] - duration_ms) <= 120_000 * bout_count, name
    assert time.perf_counter() - start < 60.0


def test_noisy_pipeline_accuracy_and_durations(
    week_script_path, default_rules, tmp_path
):
    """sigma 0.5, dropout 0.02: >= 90% window accuracy on held-out days
    and per-activity daily durations within 5% of the script."""
    start = time.perf_counter()
    out = tmp_path / "run"
    code = cli.main(
        ["pipeline", "--script", str(week_script_path), "--out", str(out),
         "--days", "2", "--span", "2", "--sigma", "0.5", "--dropout", "0.02",
         "--seed", "42"]
    )
    assert code == 0

    total = correct = 0
    for w_start, w_end, label in pipeline.read_basic_windows(out / "basic_windows.csv"):
        day = w_start // MS_PER_DAY
        clock_start = w_start - day * MS_PER_DAY
        clock_end = w_end - day * MS_PER_DAY
        for e in WEEK_SCRIPT:
            if (e.clock_start_ms <= clock_start
                    and clock_end <= e.clock_start_ms + e.duration_ms):
                total += 1
                correct += label == e.basic
                break
    assert total > 0
    assert correct / total >= 0.90

    expected = expected_daily_profile(default_rules)
    expected_total = sum(d for d, _ in expected.values())
    doc = json.loads((out / "report.json").read_text())
    assert len(doc["days"]) == 2
    for day in doc["days"]:
        durations = {row["label"]: row["duration_ms"] for row in day["activities"]}
        for name, (duration_ms, _bouts) in expected.items():
            assert abs(durations.get(name, 0) - duration_ms) <= 0.05 * duration_ms, name
        stray = sum(v for k, v in durations.items() if k not in expected)
        assert stray <= 0.05 * expected_total
    assert time.perf_counter() - start < 120.0


def test_pipeline_runs_are_byte_identical(week_script_path, tmp_path):
    """Same script, config, and seed twice: every output file matches."""
    start = time.perf_counter()
    outs = []
    for name in ("one", "two"):
        out = tmp_path / name
        code = cli.main(
            ["pipeline", "--script", str(week_script_path), "--out", str(out),
             "--days", "1", "--span", "2", "--sigma", "0.3", "--dropout", "0.01",
             "--seed", "9"]
        )
        assert code == 0
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
    assert time.perf_counter() - start < 60.0
