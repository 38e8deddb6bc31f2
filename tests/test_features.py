"""Window feature extraction and the feature file format."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from homeactivity.features import (
    BIN_EDGES,
    FeatureLayoutError,
    extract_all,
    layout_for,
    read_back,
    read_features,
    write_features,
)
from homeactivity.timeseries import SampleSeries, WindowBatch, segment


def make_windows(xyz, gyro=None):
    """A batch of (n, window_len, 3) windows, or of one (window_len, 3)
    window; a 1-D xyz is one window with that signal on every axis."""
    xyz = np.asarray(xyz, dtype=np.float64)
    if xyz.ndim == 1:
        xyz = np.column_stack([xyz, xyz, xyz])
    if xyz.ndim == 2:
        xyz = xyz[None]
        gyro = None if gyro is None else np.asarray(gyro)[None]
    n, length, _ = xyz.shape
    starts = 50 * length * np.arange(n, dtype=np.int64)
    values = xyz if gyro is None else np.concatenate([xyz, gyro], axis=2)
    return WindowBatch(starts, starts + 50 * length, values)


def features_of(xyz, gyro=None, include_gyro=False):
    """The feature vector of one window."""
    matrix, _ = extract_all(make_windows(xyz, gyro=gyro), include_gyro)
    (vec,) = matrix
    return vec


def naive_peaks(x):
    """Reference scan: strict interior maxima above mean + 0.5 std."""
    threshold = np.mean(x) + 0.5 * np.std(x)
    out = []
    for i in range(1, len(x) - 1):
        if x[i] > x[i - 1] and x[i] > x[i + 1] and x[i] > threshold:
            out.append(i)
    return out


class TestPeaks:
    """The peak rule on the per-window oracle, and its spacing in the batch."""

    def test_matches_naive_scan(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            n = int(rng.integers(3, 120))
            x = rng.normal(size=n)
            assert oracles.peak_indices(x).tolist() == naive_peaks(x)

    def test_plateaus_are_not_peaks(self):
        x = np.array([0.0, 5.0, 5.0, 0.0, 0.0])
        assert oracles.peak_indices(x).size == 0

    def test_endpoints_excluded(self):
        x = np.array([9.0, 0.0, 9.0])
        assert oracles.peak_indices(x).size == 0

    def test_spacing_in_milliseconds(self):
        x = np.zeros(40)
        x[[5, 15, 30]] = 10.0
        # gaps of 10 and 15 samples at 50 ms each
        assert features_of(x)[10] == pytest.approx(12.5 * 50)

    def test_fewer_than_two_peaks_is_zero(self):
        assert features_of(np.zeros(40))[10] == 0.0
        one = np.zeros(40)
        one[7] = 1.0
        assert features_of(one)[10] == 0.0


class TestExtract:
    def test_vector_layout_and_values(self):
        rng = np.random.default_rng(3)
        xyz = rng.normal(scale=4.0, size=(128, 3))
        vec = features_of(xyz)
        assert vec.shape == (43,)
        np.testing.assert_allclose(vec[0:3], xyz.mean(axis=0))
        np.testing.assert_allclose(vec[3:6], xyz.std(axis=0))
        np.testing.assert_allclose(
            vec[6:9], np.abs(xyz - xyz.mean(axis=0)).mean(axis=0)
        )
        np.testing.assert_allclose(vec[9], np.sqrt((xyz**2).sum(axis=1)).mean())
        for k in range(3):
            assert vec[10 + k] == oracles.time_between_peaks(xyz[:, k], 50)

    def test_bin_fractions_sum_to_one_per_axis(self):
        rng = np.random.default_rng(4)
        vec = features_of(rng.normal(scale=30, size=(64, 3)))
        bins = vec[13:].reshape(3, 10)
        np.testing.assert_allclose(bins.sum(axis=1), 1.0)

    def test_bins_cover_minus20_to_20_clipped(self):
        # all mass beyond the range lands in the edge bins
        xyz = np.column_stack([np.full(16, -99.0), np.full(16, 99.0), np.zeros(16)])
        vec = features_of(xyz)
        bins = vec[13:].reshape(3, 10)
        assert bins[0, 0] == 1.0  # x pinned at the low edge
        assert bins[1, 9] == 1.0  # y pinned at the high edge
        assert bins[2, 5] == 1.0  # zero falls in [0, 4)

    def test_gyro_extends_vector(self):
        rng = np.random.default_rng(5)
        xyz = rng.normal(size=(32, 3))
        gyro = rng.normal(size=(32, 3))
        vec = features_of(xyz, gyro=gyro, include_gyro=True)
        assert vec.shape == (49,)
        np.testing.assert_allclose(vec[43:46], gyro.mean(axis=0))
        np.testing.assert_allclose(vec[46:49], gyro.std(axis=0))

    def test_layout_tokens(self):
        assert layout_for(False) == "acc43.v1"
        assert layout_for(True) == "accgyro49.v1"


def _ulps_around(x, count):
    out, lo, hi = [x], x, x
    for _ in range(count):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
        out += [lo, hi]
    return out


# Every bin edge and the 3 floats either side of it, where a cast of
# (x - lo) * 10 / 40 to int disagrees with np.histogram; the range
# limits and values beyond them; and ordinary values.
EDGE_VALUES = sorted({float(v) for edge in BIN_EDGES for v in _ulps_around(edge, 3)})
BEYOND = [-1e3, -25.0, 20.000000000000004, 25.0, 1e3, -20.000000000000004]
VALUES = (st.sampled_from(EDGE_VALUES) | st.sampled_from(BEYOND)
          | st.floats(-30, 30, allow_nan=False, allow_infinity=False))


@st.composite
def axis_samples(draw, n):
    """n samples of one axis: free, constant, in plateaus, or flat with
    any number of spikes (so windows have 0, 1, 2 or many peaks)."""
    kind = draw(st.sampled_from(["free", "constant", "plateaus", "spikes"]))
    if kind == "constant":
        return [draw(VALUES)] * n
    if kind == "plateaus":
        runs = draw(st.lists(st.tuples(VALUES, st.integers(1, 6)), min_size=1, max_size=8))
        flat = [v for v, width in runs for _ in range(width)]
        return (flat * n)[:n]
    if kind == "spikes":
        base, spike = draw(VALUES), draw(VALUES)
        at = draw(st.sets(st.integers(0, n - 1), max_size=n))
        return [spike if i in at else base for i in range(n)]
    return draw(st.lists(VALUES, min_size=n, max_size=n))


@st.composite
def segmented_series(draw):
    """segment() of a drawn series: window_len 1 to 40, optional gyro
    (then xyz is a strided column view, as a 9-field log loads), and up
    to three dropped samples, each a gap that segment splits at."""
    window_len = draw(st.sampled_from([1, 2, 3]) | st.integers(4, 40))
    overlap = draw(st.sampled_from([0.0, 0.5, 0.75]))
    n = draw(st.integers(window_len, 3 * window_len + 8))
    with_gyro = draw(st.booleans())
    data = np.column_stack([draw(axis_samples(n)) for _ in range(6 if with_gyro else 3)])
    keep = np.ones(n, dtype=bool)
    keep[list(draw(st.sets(st.integers(0, n - 1), max_size=min(3, n - 1))))] = False
    series = SampleSeries("s", 50 * np.arange(n, dtype=np.int64)[keep], data[keep])
    return segment(series, window_len, overlap), with_gyro


class TestBatchMatchesOracle:
    @given(segmented_series())
    @settings(max_examples=400, deadline=None)
    def test_extract_all_equals_stacked_per_window_oracle(self, case):
        batch, with_gyro = case
        matrix, spans = extract_all(batch, include_gyro=with_gyro)
        want = [
            oracles.extract_features(
                np.array(batch.xyz[i]), 50,
                np.array(batch.gyro[i]) if with_gyro else None,
            )
            for i in range(len(batch))
        ]
        width = 49 if with_gyro else 43
        assert np.array_equal(matrix, np.array(want).reshape(len(batch), width))
        assert spans == batch.spans()

    @given(segmented_series(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_any_split_gives_the_rows_of_one_call(self, case, data):
        """Each row depends on its window alone, so the calibrator may
        extract a class's windows in one call: the pieces of any split,
        1-row pieces included, each a view or a contiguous copy, give the
        bits of one call over the whole batch."""
        batch, with_gyro = case
        n = len(batch)
        cuts = data.draw(st.sets(st.integers(1, n - 1))) if n > 1 else set()
        bounds = [0, *sorted(cuts), n]
        rows = []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            values = batch.values[lo:hi]
            if data.draw(st.booleans()):
                values = values.copy()
            piece = WindowBatch(batch.start_ts[lo:hi], batch.end_ts[lo:hi], values)
            rows.append(extract_all(piece, include_gyro=with_gyro)[0])
        whole, _ = extract_all(batch, include_gyro=with_gyro)
        assert np.concatenate(rows).tobytes() == whole.tobytes()

    def test_every_edge_value_lands_in_the_histogram_bin(self):
        for value in EDGE_VALUES + BEYOND:
            vec = features_of(np.full(4, value))
            assert np.array_equal(vec[13:23], oracles.bin_fractions(np.full(4, value))), value

    @pytest.mark.parametrize("window_len", [1, 2, 3])
    def test_windows_too_short_for_a_peak(self, window_len):
        batch = segment(SampleSeries("s", 50 * np.arange(8), np.ones((8, 3))), window_len)
        matrix, _ = extract_all(batch)
        assert matrix.shape == (len(batch), 43)
        assert np.all(matrix[:, 10:13] == 0.0)


class TestFeatureFile:
    def test_roundtrip_preserves_matrix(self, tmp_path):
        rng = np.random.default_rng(6)
        windows = make_windows(rng.normal(size=(4, 128, 3)))
        mat, spans = extract_all(windows)
        path = tmp_path / "features.csv"
        write_features(path, mat, spans, "acc43.v1")
        back, back_spans, layout = read_features(path)
        assert layout == "acc43.v1"
        assert back_spans == spans
        np.testing.assert_allclose(back, mat, rtol=1e-8)

    def test_layout_guard(self, tmp_path):
        mat = np.zeros((1, 43))
        path = tmp_path / "features.csv"
        write_features(path, mat, [(0, 6400)], "acc43.v1")
        with pytest.raises(FeatureLayoutError, match="accgyro49"):
            read_features(path, expect_layout="accgyro49.v1")

    @pytest.mark.parametrize(
        "edit, line, reason",
        [
            (lambda text: text[: text.rindex(",") - 1], 4, "expected 45 fields, got 44"),
            (lambda text: text.replace("0\r\n", "0,1\r\n"), 3, "expected 45 fields, got 46"),
            (lambda text: text[: text.rindex(",")] + ",1.5x\r\n", 4,
             "could not convert string to float: '1.5x'"),
        ],
        ids=["truncated", "long", "non_numeric"],
    )
    def test_bad_rows_name_file_and_line(self, tmp_path, edit, line, reason):
        path = tmp_path / "features.csv"
        write_features(path, np.zeros((2, 43)), [(0, 6400), (3200, 9600)], "acc43.v1")
        path.write_bytes(edit(path.read_bytes().decode()).encode())
        with pytest.raises(ValueError) as exc:
            read_features(path)
        assert str(exc.value) == f"{path}: line {line}: {reason}"

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
    def test_a_non_finite_value_names_file_and_line(self, tmp_path, text):
        path = tmp_path / "features.csv"
        write_features(path, np.zeros((3, 43)), [(0, 6400), (3200, 9600), (6400, 12800)],
                       "acc43.v1")
        lines = path.read_bytes().decode().split("\r\n")  # the marker ends in \n alone
        lines[2] = lines[2][: lines[2].rindex(",") + 1] + text  # the second row, line 4
        path.write_bytes("\r\n".join(lines).encode())
        with pytest.raises(ValueError) as exc:
            read_features(path)
        assert str(exc.value) == f"{path}: line 4: non-finite feature value"


def _bits(a) -> bytes:
    return np.asarray(a, dtype=np.float64).tobytes()


# Values where the read-back's fast path is easiest to get wrong: zeros,
# subnormals, the ends of the float range, exact half-integer scalings
# (n + 0.5) / 10^k, powers of ten and their neighbours one ulp away.
_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
          123456789.5, -123456788.5, 1234567.845, 0.5, 1e-14, 1e-15, 1e22, 1e23,
          float("nan"), float("inf"), float("-inf")]
_EDGES += [s * np.nextafter(10.0 ** e, d) for e in range(-16, 24) for d in (0, np.inf)
           for s in (1, -1)]
_EDGES += [s * 10.0 ** e for e in range(-20, 25) for s in (1, -1)]


@st.composite
def readback_values(draw):
    """One double: an edge, a scaled tie, a power of ten's neighbour, or any
    finite double of magnitude 1e-300..1e300."""
    kind = draw(st.sampled_from(["edge", "tie", "ten", "any", "subnormal"]))
    if kind == "edge":
        return draw(st.sampled_from(_EDGES))
    if kind == "tie":  # (n + 0.5) / 10^k with a 9-digit n, rounded to a double
        n = draw(st.integers(10**8, 10**9 - 1))
        return draw(st.sampled_from([1, -1])) * (n + 0.5) / 10.0 ** draw(st.integers(0, 22))
    if kind == "ten":
        x = 10.0 ** draw(st.integers(-300, 300))
        return float(np.nextafter(x, np.inf if draw(st.booleans()) else 0) if
                     draw(st.booleans()) else x)
    if kind == "subnormal":
        return draw(st.floats(-2.2e-308, 2.2e-308, allow_subnormal=True))
    v = draw(st.floats(1e-300, 1e300))
    return v if draw(st.booleans()) else -v


class TestReadBack:
    """read_back is float("%.9g" % v), the value write_features' text
    parses to, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(readback_values(), min_size=1, max_size=60), st.integers(1, 5))
    def test_is_the_format_parsed(self, values, width):
        matrix = np.resize(np.array(values), (-(-len(values) // width), width))
        want = [[float("%.9g" % v) for v in row] for row in matrix.tolist()]
        assert _bits(read_back(matrix)) == _bits(want)

    def test_every_edge_and_a_block_boundary(self):
        rng = np.random.default_rng(4)
        matrix = np.concatenate([
            np.resize(np.array(_EDGES), (1100, 43)),
            rng.normal(0, 1, size=(900, 43)) * 10.0 ** rng.integers(-12, 12, size=(900, 43)),
        ])
        want = [[float("%.9g" % v) for v in row] for row in matrix.tolist()]
        assert _bits(read_back(matrix)) == _bits(want)

    def test_is_what_the_file_reads_back(self, tmp_path):
        rng = np.random.default_rng(8)
        mat, spans = extract_all(make_windows(rng.normal(size=(40, 128, 3)) * 3))
        path = tmp_path / "features.csv"
        write_features(path, mat, spans, "acc43.v1")
        back, back_spans, _layout = read_features(path)
        assert _bits(read_back(mat)) == _bits(back) and back_spans == spans


class TestDeviationPass:
    """extract_all's std, mean absolute deviation and magnitude columns are
    np.std's, np.abs(x - mean).mean's and np.linalg.norm's, bit for bit."""

    @pytest.mark.parametrize("strided", [False, True], ids=["contiguous", "strided"])
    def test_columns_match_numpy(self, strided):
        rng = np.random.default_rng(12)
        if strided:  # the (n, window_len, 3) views segment takes of a series
            series = SampleSeries("s", 50 * np.arange(3000),
                                  rng.normal(0, 4, size=(3000, 3)) + [0.1, 9.8, -2.0])
            batch = segment(series, 128, 0.5)
            assert not batch.xyz.flags.c_contiguous
        else:
            batch = make_windows(rng.normal(0, 4, size=(50, 128, 3)) + [0.1, 9.8, -2.0])
        xyz = batch.xyz
        matrix, _ = extract_all(batch)
        mean = xyz.mean(axis=1)
        assert _bits(matrix[:, 3:6]) == _bits(xyz.std(axis=1))
        assert _bits(matrix[:, 6:9]) == _bits(np.abs(xyz - mean[:, None, :]).mean(axis=1))
        assert _bits(matrix[:, 9]) == _bits(np.linalg.norm(xyz, axis=2).mean(axis=1))
