"""Window feature extraction and the feature file format."""

import numpy as np
import pytest

from homeactivity.features import (
    FeatureLayoutError,
    extract_all,
    extract_features,
    layout_for,
    peak_indices,
    read_features,
    time_between_peaks,
    write_features,
)
from homeactivity.timeseries import SampleWindow


def make_window(xyz, period_ms=50, start=0, gyro=None):
    xyz = np.asarray(xyz, dtype=np.float64)
    if xyz.ndim == 1:
        xyz = np.column_stack([xyz, xyz, xyz])
    return SampleWindow(
        start_ts=start,
        end_ts=start + period_ms * xyz.shape[0],
        period_ms=period_ms,
        xyz=xyz,
        gyro=gyro,
    )


def naive_peaks(x):
    """Reference scan: strict interior maxima above mean + 0.5 std."""
    threshold = np.mean(x) + 0.5 * np.std(x)
    out = []
    for i in range(1, len(x) - 1):
        if x[i] > x[i - 1] and x[i] > x[i + 1] and x[i] > threshold:
            out.append(i)
    return out


class TestPeaks:
    def test_matches_naive_scan(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            n = int(rng.integers(3, 120))
            x = rng.normal(size=n)
            assert peak_indices(x).tolist() == naive_peaks(x)

    def test_plateaus_are_not_peaks(self):
        x = np.array([0.0, 5.0, 5.0, 0.0, 0.0])
        assert peak_indices(x).size == 0

    def test_endpoints_excluded(self):
        x = np.array([9.0, 0.0, 9.0])
        assert peak_indices(x).size == 0

    def test_spacing_in_milliseconds(self):
        x = np.zeros(40)
        x[[5, 15, 30]] = 10.0
        # gaps of 10 and 15 samples at 50 ms each
        assert time_between_peaks(x, 50) == pytest.approx(12.5 * 50)

    def test_fewer_than_two_peaks_is_zero(self):
        assert time_between_peaks(np.zeros(40), 50) == 0.0
        one = np.zeros(40)
        one[7] = 1.0
        assert time_between_peaks(one, 50) == 0.0


class TestExtract:
    def test_vector_layout_and_values(self):
        rng = np.random.default_rng(3)
        xyz = rng.normal(scale=4.0, size=(128, 3))
        w = make_window(xyz)
        vec = extract_features(w)
        assert vec.shape == (43,)
        np.testing.assert_allclose(vec[0:3], xyz.mean(axis=0))
        np.testing.assert_allclose(vec[3:6], xyz.std(axis=0))
        np.testing.assert_allclose(
            vec[6:9], np.abs(xyz - xyz.mean(axis=0)).mean(axis=0)
        )
        np.testing.assert_allclose(vec[9], np.sqrt((xyz**2).sum(axis=1)).mean())
        for k in range(3):
            assert vec[10 + k] == time_between_peaks(xyz[:, k], 50)

    def test_bin_fractions_sum_to_one_per_axis(self):
        rng = np.random.default_rng(4)
        vec = extract_features(make_window(rng.normal(scale=30, size=(64, 3))))
        bins = vec[13:].reshape(3, 10)
        np.testing.assert_allclose(bins.sum(axis=1), 1.0)

    def test_bins_cover_minus20_to_20_clipped(self):
        # all mass beyond the range lands in the edge bins
        xyz = np.column_stack([np.full(16, -99.0), np.full(16, 99.0), np.zeros(16)])
        vec = extract_features(make_window(xyz))
        bins = vec[13:].reshape(3, 10)
        assert bins[0, 0] == 1.0  # x pinned at the low edge
        assert bins[1, 9] == 1.0  # y pinned at the high edge
        assert bins[2, 5] == 1.0  # zero falls in [0, 4)

    def test_gyro_extends_vector(self):
        rng = np.random.default_rng(5)
        xyz = rng.normal(size=(32, 3))
        gyro = rng.normal(size=(32, 3))
        vec = extract_features(make_window(xyz, gyro=gyro), include_gyro=True)
        assert vec.shape == (49,)
        np.testing.assert_allclose(vec[43:46], gyro.mean(axis=0))
        np.testing.assert_allclose(vec[46:49], gyro.std(axis=0))
        with pytest.raises(ValueError, match="gyro"):
            extract_features(make_window(xyz), include_gyro=True)

    def test_layout_tokens(self):
        assert layout_for(False) == "acc43.v1"
        assert layout_for(True) == "accgyro49.v1"


class TestFeatureFile:
    def test_roundtrip_preserves_matrix(self, tmp_path):
        rng = np.random.default_rng(6)
        windows = [make_window(rng.normal(size=(128, 3)), start=i * 3200)
                   for i in range(4)]
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

    def test_width_must_match_layout(self, tmp_path):
        with pytest.raises(FeatureLayoutError, match="43"):
            write_features(tmp_path / "x.csv", np.zeros((1, 10)), [(0, 1)], "acc43.v1")
