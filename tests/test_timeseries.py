"""Inertial stream handling: parsing, gap repair, filtering, windowing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homeactivity import timeseries
from homeactivity.timeseries import (
    DEFAULT_PERIOD_MS,
    FilterSpec,
    InertialParseError,
    SampleSeries,
    SeriesError,
    butterworth_lowpass,
    interpolate_gaps,
    join,
    load_inertial,
    parse_inertial_line,
    segment,
    split_on_gaps,
    write_inertial,
)
from oracles import repair_pieces, series_equal


def make_series(values, start=0, subject="s1"):
    values = np.asarray(values, dtype=np.float64)
    if values.ndim == 1:
        values = np.column_stack([values, values, values])
    ts = start + DEFAULT_PERIOD_MS * np.arange(values.shape[0], dtype=np.int64)
    return SampleSeries(subject_id=subject, ts=ts, values=values)


def same_bits(a: SampleSeries, b: SampleSeries) -> bool:
    return (a.subject_id == b.subject_id and a.ts.tobytes() == b.ts.tobytes()
            and a.values.tobytes() == b.values.tobytes())


@st.composite
def on_the_clock(draw, steps):
    """Increasing int64 timestamps with these steps, placed from -2^63,
    up to 2^63 - 1, anywhere between, or split across the whole clock by
    one step wider than int64 holds."""
    rel = [0]
    for step in steps:
        rel.append(rel[-1] + step)
    place = draw(st.sampled_from(["bottom", "top", "across", "anywhere"]))
    bottom, top = -(2**63), 2**63 - 1 - rel[-1]
    if place == "across" and len(rel) > 1:
        k = draw(st.integers(1, len(rel) - 1))
        return np.array([bottom + r for r in rel[:k]] + [top + r for r in rel[k:]],
                        dtype=np.int64)
    if place == "bottom":
        start = bottom
    elif place == "top":
        start = top
    else:
        start = draw(st.integers(-10**12, 10**12))
    return np.array([start + r for r in rel], dtype=np.int64)


@st.composite
def off_grid_logs(draw):
    """1 to 60 samples at steps of one period or of 1 ms to 3 s."""
    steps = draw(st.lists(st.just(DEFAULT_PERIOD_MS) | st.integers(1, 3000), max_size=59))
    ts = draw(on_the_clock(steps))
    width = draw(st.sampled_from([3, 6]))
    seed = draw(st.integers(0, 2**32 - 1))
    return SampleSeries("s", ts, np.random.default_rng(seed).uniform(-1e6, 1e6, (ts.size, width)))


@st.composite
def gapped_logs(draw):
    """1 to 4 gapless stretches of 1 to 150 samples, a gap of any step but
    one period between two; values of one scale, 3 or 6 channels."""
    sizes = draw(st.lists(st.integers(1, 150), min_size=1, max_size=4))
    steps = []
    for i, size in enumerate(sizes):
        if i:
            steps.append(draw(st.integers(1, 3000).filter(lambda k: k != DEFAULT_PERIOD_MS)))
        steps += [DEFAULT_PERIOD_MS] * (size - 1)
    ts = draw(on_the_clock(steps))
    width = draw(st.sampled_from([3, 6]))
    scale = draw(st.sampled_from([1e-3, 1.0, 20.0, 1e6]))
    seed = draw(st.integers(0, 2**32 - 1))
    return SampleSeries("s", ts, scale * np.random.default_rng(seed).normal(size=(ts.size, width)))


class TestSampleSeries:
    def test_timestamps_must_increase(self):
        with pytest.raises(SeriesError, match="increasing"):
            SampleSeries(
                subject_id="s",
                ts=np.array([0, 50, 50]),
                values=np.zeros((3, 3)),
            )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(SeriesError):
            SampleSeries(
                subject_id="s",
                ts=np.array([0, 50]),
                values=np.zeros((3, 3)),
            )


class TestInertialFormat:
    def test_parse_accel_line(self):
        subject, hint, ts, vals = parse_inertial_line("33,Jogging,1000,0.5,9.8,-1.25;")
        assert (subject, hint, ts) == ("33", "Jogging", 1000)
        assert vals == [0.5, 9.8, -1.25]

    def test_parse_gyro_line(self):
        _, _, _, vals = parse_inertial_line("u,,0,1,2,3,4,5,6")
        assert vals == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]

    def test_field_count_checked(self):
        with pytest.raises(InertialParseError, match="6 or 9"):
            parse_inertial_line("u,,0,1,2")

    def test_non_finite_rejected(self):
        with pytest.raises(InertialParseError, match="non-finite"):
            parse_inertial_line("u,,0,1,nan,3")

    def test_timestamp_range_checked(self):
        with pytest.raises(InertialParseError, match="int64 range"):
            parse_inertial_line("u,,9223372036854775808,1,2,3")

    def test_roundtrip(self, tmp_path):
        s = make_series(np.linspace(-2, 2, 7))
        path = tmp_path / "log.csv"
        write_inertial(path, s)
        (back,) = load_inertial(path)
        assert back.subject_id == s.subject_id
        assert np.array_equal(back.ts, s.ts)
        np.testing.assert_allclose(back.xyz, s.xyz, atol=5e-7)

    def test_a_second_subject_is_refused_at_its_line(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("b,,0,1,1,1;\n\nb,,50,1,1,1;\na,,100,2,2,2;\n", encoding="utf-8")
        with pytest.raises(SeriesError) as exc:
            load_inertial(path)
        assert str(exc.value) == (
            f"{path}: line 4: subject 'a' after 'b': a log holds one subject")

    def test_a_last_line_cut_inside_its_value_is_refused(self, tmp_path):
        """`s,,50,1,2,3` with no line end may be cut from `s,,50,1,2,3.25;`."""
        path = tmp_path / "log.csv"
        path.write_text("s,,0,1,2,3;\ns,,50,1,2,3", encoding="utf-8")
        with pytest.raises(InertialParseError) as exc:
            load_inertial(path)
        assert str(exc.value) == (
            f"{path}: line 2: last line lacks its `;` and line end: file may be cut")

    @pytest.mark.parametrize("text", ["s,,0,1,2,3\ns,,50,1,2,3\n", "s,,0,1,2,3\r\ns,,50,1,2,3;",
                                      "s,,0,1,2,3;\ns,,50,1,2,3;"])
    def test_a_line_ends_in_a_line_end_or_a_semicolon(self, text, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text(text, encoding="utf-8", newline="")
        (series,) = load_inertial(path)
        assert series.ts.tolist() == [0, 50]

    def test_error_names_file_and_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("u,,0,1,2,3;\nu,,50,oops,2,3;\n", encoding="utf-8")
        with pytest.raises(InertialParseError, match=r"bad\.csv.*line 2"):
            load_inertial(path)

    def test_mixed_widths_rejected(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("u,,0,1,2,3;\nu,,50,1,2,3,4,5,6;\n", encoding="utf-8")
        with pytest.raises(SeriesError, match="mixes"):
            load_inertial(path)


class TestInterpolateGaps:
    def test_small_gap_filled_linearly(self):
        # samples at 0,50,200: the 150 ms hole gets grid points 100,150
        ts = np.array([0, 50, 200], dtype=np.int64)
        xyz = np.array([[0, 0, 0], [1, 10, -1], [4, 40, -4]], dtype=np.float64)
        s = SampleSeries(subject_id="s", ts=ts, values=xyz)
        out = interpolate_gaps(s, max_gap_ms=1000)
        assert np.array_equal(out.ts, [0, 50, 100, 150, 200])
        expected = np.interp([0, 50, 100, 150, 200], ts, xyz[:, 0])
        np.testing.assert_allclose(out.xyz[:, 0], expected)
        np.testing.assert_allclose(out.xyz[2], [2.0, 20.0, -2.0])

    def test_existing_samples_preserved(self):
        s = make_series(np.sin(np.arange(10)))
        out = interpolate_gaps(s)
        assert series_equal(out, s)

    def test_large_gap_splits(self):
        ts = np.array([0, 50, 2000, 2050], dtype=np.int64)
        s = SampleSeries(
            subject_id="s", ts=ts, values=np.ones((4, 3))
        )
        out = interpolate_gaps(s, max_gap_ms=1000)
        assert out.ts.tolist() == [0, 50, 2000, 2050]  # the gap stays a jump
        assert [p.ts.tolist() for p in split_on_gaps(out)] == [[0, 50], [2000, 2050]]

    def test_gap_at_threshold_is_filled(self):
        ts = np.array([0, 1000], dtype=np.int64)
        s = SampleSeries(
            subject_id="s", ts=ts, values=np.ones((2, 3))
        )
        out = interpolate_gaps(s, max_gap_ms=1000)
        assert len(out) == 21  # 0..1000 inclusive on the 50 ms grid

    def test_off_grid_samples_resampled(self):
        ts = np.array([0, 30, 100], dtype=np.int64)
        xyz = np.array([[0.0] * 3, [3.0] * 3, [10.0] * 3])
        s = SampleSeries(subject_id="s", ts=ts, values=xyz)
        out = interpolate_gaps(s)
        assert np.array_equal(out.ts, [0, 50, 100])
        np.testing.assert_allclose(out.xyz[1], [5.0, 5.0, 5.0])

    @given(
        start=st.integers(-10**12, 10**12),
        steps=st.lists(st.integers(1, 3000), max_size=60),
        max_gap_ms=st.integers(DEFAULT_PERIOD_MS, 2000),
        gyro=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_off_grid_pieces_follow_the_input(self, start, steps, max_gap_ms, gyro, data):
        ts = start + np.cumsum([0, *steps], dtype=np.int64)
        values = st.floats(-1e6, 1e6)
        xyz, gy = (np.array(data.draw(st.lists(st.tuples(values, values, values),
                                               min_size=ts.size, max_size=ts.size)))
                   for _ in range(2))
        s = SampleSeries("s", ts, np.hstack([xyz, gy]) if gyro else xyz)
        pieces = split_on_gaps(interpolate_gaps(s, max_gap_ms=max_gap_ms))
        firsts = [int(p.ts[0]) for p in pieces]
        assert firsts[0] == ts[0]
        for k, p in enumerate(pieces):
            # the input samples of this piece: from its first timestamp to the next piece's
            hi = firsts[k + 1] if k + 1 < len(pieces) else ts[-1] + 1
            src = (ts >= firsts[k]) & (ts < hi)
            src_ts = ts[src]
            assert np.array_equal(p.ts, p.ts[0] + DEFAULT_PERIOD_MS * np.arange(len(p)))
            assert p.ts[-1] <= src_ts[-1] < p.ts[-1] + DEFAULT_PERIOD_MS
            assert (np.diff(src_ts) <= max_gap_ms).all()
            if k + 1 < len(pieces):
                assert p.ts[-1] < firsts[k + 1]
                assert firsts[k + 1] - src_ts[-1] > max_gap_ms
            for axis in range(3):
                assert np.array_equal(p.xyz[:, axis], np.interp(p.ts, src_ts, xyz[src, axis]))
                if gyro:
                    assert np.array_equal(p.gyro[:, axis],
                                          np.interp(p.ts, src_ts, gy[src, axis]))
            assert gyro or p.gyro is None


    @given(log=off_grid_logs(), max_gap_ms=st.integers(DEFAULT_PERIOD_MS, 3000))
    @settings(max_examples=300, deadline=None)
    def test_stretches_are_the_pieces_repaired_one_by_one(self, log, max_gap_ms):
        got = split_on_gaps(interpolate_gaps(log, max_gap_ms))
        want = repair_pieces(log, max_gap_ms)
        assert len(got) == len(want)
        assert all(same_bits(a, b) for a, b in zip(got, want))

    def test_a_max_gap_below_one_period_is_refused(self):
        """Steps of one period would then be gaps, and repair would join
        stretches that the filter and the windows tell apart."""
        with pytest.raises(ValueError, match="at least the sample period, 50 ms, got 49"):
            interpolate_gaps(make_series(np.zeros(3)), max_gap_ms=49)


class TestButterworth:
    def test_spec_validation(self):
        with pytest.raises(ValueError, match=r"invalid cutoff: 10.0 Hz must lie in \(0, 10.0\)"):
            FilterSpec(cutoff_hz=10.0).design()
        butterworth_lowpass(make_series(np.zeros(8)), FilterSpec(cutoff_hz=6.0))
        with pytest.raises(ValueError, match="invalid order: 0"):
            FilterSpec(order=0).design()

    def test_constant_passes_from_sample_zero(self):
        s = make_series(np.full(64, 7.25))
        out = butterworth_lowpass(s, FilterSpec())
        np.testing.assert_allclose(out.xyz, s.xyz, atol=1e-9)

    def test_is_linear_operator(self):
        rng = np.random.default_rng(5)
        a = make_series(rng.normal(size=128))
        b = make_series(rng.normal(size=128))
        spec = FilterSpec()
        lhs = butterworth_lowpass(
            make_series(2.5 * a.xyz[:, 0] - 1.5 * b.xyz[:, 0]), spec
        ).xyz
        rhs = 2.5 * butterworth_lowpass(a, spec).xyz - 1.5 * butterworth_lowpass(
            b, spec
        ).xyz
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_high_tone_attenuated(self):
        t = np.arange(400) / 20.0
        s = make_series(np.sin(2 * np.pi * 8.0 * t))
        out = butterworth_lowpass(s, FilterSpec(order=3, cutoff_hz=3.0))
        steady = out.xyz[200:, 0]
        assert np.abs(steady).max() <= 0.1


@given(log=gapped_logs(), order=st.integers(1, 8), cutoff=st.floats(0.1, 9.9))
@settings(max_examples=100, deadline=None)
def test_filters_are_their_stretches_concatenated(log, order, cutoff):
    """Each filter starts each gapless stretch from its own first sample's
    steady state, as a call over that stretch alone does, bit for bit."""
    spec = FilterSpec(order, cutoff)
    stretches = split_on_gaps(log)
    for lowpass in (butterworth_lowpass, timeseries.lowpass_for_log):
        want = np.concatenate([lowpass(stretch, spec).values for stretch in stretches])
        assert same_bits(lowpass(log, spec), SampleSeries("s", log.ts, want))


# Values on or near a rounding boundary of the log's `%.6f` text, and zeros
# of either sign, whose text keeps the sign.
HELD = [2.0000005, -2.0000005, 0.0000005, 0.0, -0.0, 1e-9, 9.81]


class TestLowpassForLog:
    """lowpass_for_log logs what butterworth_lowpass logs: the same
    micro-units and slow flags, and the same value where one is slow."""

    @staticmethod
    def assert_logged_alike(got, want):
        n_got, slow_got = timeseries._micro_units(got.values)
        n_want, slow_want = timeseries._micro_units(want.values)
        assert n_got.tobytes() == n_want.tobytes()  # tells -0.0 from 0.0
        assert np.array_equal(slow_got, slow_want)
        assert got.values[slow_got].tobytes() == want.values[slow_want].tobytes()
        assert np.array_equal(got.ts, want.ts)

    @given(
        order=st.integers(1, 8),
        cutoff=st.floats(0.1, 9.9),
        scale=st.sampled_from([1e-6, 1e-3, 0.5, 20.0, 1e3, 1e6, 1e9]),
        length=(st.integers(1, 300) | st.integers(1, 300) | st.integers(1, 300)
                | st.integers(timeseries._CHUNK - 64, timeseries._CHUNK + 200)),
        channels=st.sampled_from([3, 6]),
        kind=st.sampled_from(["noise", "walk", "tone", "held"]),
        logged=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_micro_units_and_slow_flags_are_butterworth_lowpass(
            self, order, cutoff, scale, length, channels, kind, logged, seed):
        rng = np.random.default_rng(seed)
        shape = (length, channels)
        if kind == "noise":
            values = scale * rng.normal(size=shape)
        elif kind == "walk":
            values = scale * np.cumsum(rng.normal(size=shape), axis=0) / np.sqrt(length)
        elif kind == "tone":
            t = np.arange(length)[:, None] / 20.0
            values = scale * np.sin(2 * np.pi * rng.uniform(0, 10, channels) * t
                                    + rng.uniform(0, 7, channels)) + rng.normal(size=channels)
        else:
            values = np.broadcast_to(rng.choice(HELD, channels), shape).copy()
        if logged:  # as a log reads back
            values = np.rint(values * 1e6) / 1e6
        series = make_series(values)
        spec = FilterSpec(order, cutoff)
        self.assert_logged_alike(timeseries.lowpass_for_log(series, spec),
                                 butterworth_lowpass(series, spec))

    @pytest.mark.parametrize("held", [2.0000005, -0.0])
    def test_a_channel_on_a_rounding_boundary_reruns_through_lfilter(self, held):
        """Every filtered value of a channel held on 2.0000005 lies on a
        half micro-unit, and every one held on -0.0 may print either sign,
        so the check doubts the last sample and lfilter reruns the whole
        channel; a noisy channel beside it keeps its block products."""
        x = np.full(3 * timeseries._BLOCK + 5, held)
        noise = np.random.default_rng(3).normal(size=x.size)
        series = make_series(np.column_stack([noise, x, noise]))
        spec = FilterSpec()
        blocks = spec.blocks
        assert blocks.run(x, blocks.zi * x[0], np.empty(x.size)) == x.size - 1
        assert blocks.run(noise, blocks.zi * noise[0], np.empty(x.size)) == -1
        got, want = timeseries.lowpass_for_log(series, spec), butterworth_lowpass(series, spec)
        assert got.values[:, 1].tobytes() == want.values[:, 1].tobytes()
        self.assert_logged_alike(got, want)

    def test_a_spec_builds_its_blocks_once(self, monkeypatch):
        built = []

        class Counted(timeseries._BlockLowpass):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(timeseries, "_BlockLowpass", Counted)
        spec = FilterSpec(4, 2.5)
        series = make_series(np.random.default_rng(1).normal(size=300))
        first = timeseries.lowpass_for_log(series, spec)
        assert same_bits(timeseries.lowpass_for_log(series, spec), first)
        assert len(built) == 1

    def test_a_filter_that_certifies_nothing_computes_no_product(self):
        """Poles this close to 1 leave the blocks' carried state unbounded
        (row sums of A^64 above 1), and values of 1e308 overflow any
        product: both channels run through lfilter alone."""
        blocks = FilterSpec(8, 0.2).blocks
        x = np.ones(10)
        assert blocks.run(x, x[:8], None) == 9
        blocks = FilterSpec().blocks
        x = np.full(10, 1e308)
        assert blocks.run(x, np.zeros(3), None) == 9


class TestSegment:
    def test_default_window_plan(self):
        s = make_series(np.arange(256, dtype=np.float64))
        windows = segment(s)
        assert len(windows) == 3  # hop 64: starts at 0, 64, 128
        assert windows.start_ts.tolist() == [0, 3200, 6400]
        assert windows.xyz.shape == (3, 128, 3)
        np.testing.assert_array_equal(windows.xyz[1][:, 0], np.arange(64, 192))

    def test_window_end_is_exclusive(self):
        s = make_series(np.zeros(128))
        ((_, end),) = segment(s).spans()
        assert end == 128 * 50

    def test_short_series_yields_nothing(self):
        assert segment(make_series(np.zeros(127))).spans() == []

    def test_count_formula_holds(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            w = int(rng.integers(1, 200))
            n = int(rng.integers(w, 4 * w + 1))
            f = float(rng.uniform(0, 0.95))
            hop = max(1, round(w * (1 - f)))
            got = segment(make_series(np.zeros(n)), w, f)
            assert len(got) == (n - w) // hop + 1

    def test_never_crosses_a_gap(self):
        # a 1 s hole after sample 200: the window at sample 128 would
        # span 7,400 ms, so only the two windows before the hole remain
        ts = 50 * np.arange(320, dtype=np.int64)
        ts[200:] += 1000
        s = SampleSeries(subject_id="s1", ts=ts, values=np.zeros((320, 3)))
        assert segment(s).spans() == [(0, 6400), (3200, 9600)]

    @given(
        runs=st.lists(st.integers(1, 30), min_size=1, max_size=5),
        holes=st.lists(st.integers(1, 3), min_size=4, max_size=4),
        window_len=st.integers(1, 12),
        overlap=st.sampled_from([0.0, 0.5, 0.9]),
    )
    @settings(max_examples=200, deadline=None)
    def test_windows_tile_each_gapless_run(self, runs, holes, window_len, overlap):
        ts, t = [], 0
        for n, hole in zip(runs, [0] + holes):
            t += 50 * hole  # a missing stretch of 1 to 3 samples before each later run
            ts += range(t, t + 50 * n, 50)
            t = ts[-1] + 50
        ts = np.array(ts, dtype=np.int64)
        xyz = np.arange(3 * ts.size, dtype=np.float64).reshape(-1, 3)
        batch = segment(SampleSeries("s", ts, xyz), window_len, overlap)
        hop = max(1, round(window_len * (1 - overlap)))
        want, lo = [], 0
        for n in runs:
            want += range(lo, lo + n - window_len + 1, hop)
            lo += n
        assert batch.spans() == [(ts[r], ts[r + window_len - 1] + 50) for r in want]
        for i, r in enumerate(want):
            np.testing.assert_array_equal(batch.xyz[i], xyz[r:r + window_len])

    def test_overlap_bounds_checked(self):
        s = make_series(np.zeros(16))
        with pytest.raises(ValueError):
            segment(s, 8, 1.0)
        with pytest.raises(ValueError):
            segment(s, 0, 0.5)


def test_split_on_gaps():
    ts = np.array([0, 50, 100, 250, 300], dtype=np.int64)
    s = SampleSeries(subject_id="s", ts=ts, values=np.zeros((5, 3)))
    parts = split_on_gaps(s)
    assert [len(p) for p in parts] == [3, 2]
    assert parts[1].ts[0] == 250


def test_join_copies_several_pieces_but_not_one():
    ts = np.array([0, 50, 100, 250, 300], dtype=np.int64)
    s = SampleSeries(subject_id="s", ts=ts, values=np.arange(15.0).reshape(5, 3))
    parts = split_on_gaps(s)
    assert series_equal(join(parts), s)
    assert join(parts[:1]) is parts[0]


def test_default_period_matches_20hz():
    assert DEFAULT_PERIOD_MS == 50
