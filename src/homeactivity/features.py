"""Per-window feature extraction for triaxial accelerometer windows.

The accelerometer layout "acc43.v1" emits 43 values per window:

    0..2    mean of x, y, z
    3..5    standard deviation (population) of x, y, z
    6..8    average absolute difference from the mean, per axis
    9       average resultant magnitude sqrt(x^2 + y^2 + z^2)
    10..12  average gap between consecutive peaks, milliseconds, per axis
    13..42  histogram bin fractions, 10 equal bins per axis over
            [-20, 20] m/s^2 (values clipped into range)

Windows with gyroscope data may append the six gyro mean/std values
under layout "accgyro49.v1". Layout tokens ride along in feature files
so downstream models can refuse mismatched inputs.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .tables import TableError, read_lines
from .timeseries import SampleWindow

BIN_COUNT = 10
BIN_RANGE = (-20.0, 20.0)
LAYOUT_ACC = "acc43.v1"
LAYOUT_ACC_GYRO = "accgyro49.v1"
FEATURE_COUNTS = {LAYOUT_ACC: 43, LAYOUT_ACC_GYRO: 49}


class FeatureLayoutError(ValueError):
    """Raised when a feature file's layout token is unknown or mismatched."""


def peak_indices(channel: np.ndarray) -> np.ndarray:
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


def time_between_peaks(channel: np.ndarray, period_ms: int) -> float:
    """Average spacing of detected peaks in milliseconds; 0.0 if < 2 peaks."""
    peaks = peak_indices(channel)
    if peaks.size < 2:
        return 0.0
    return float(np.diff(peaks).mean() * period_ms)


def _bin_fractions(channel: np.ndarray) -> np.ndarray:
    clipped = np.clip(channel, BIN_RANGE[0], BIN_RANGE[1])
    counts, _ = np.histogram(clipped, bins=BIN_COUNT, range=BIN_RANGE)
    return counts / channel.size


def extract_features(window: SampleWindow, include_gyro: bool = False) -> np.ndarray:
    """Compute the feature vector for one window.

    include_gyro requires gyroscope samples and switches the layout to
    accgyro49.v1 (43 accelerometer values plus gyro means and stds).
    """
    xyz = window.xyz
    parts = [
        xyz.mean(axis=0),
        xyz.std(axis=0),
        np.abs(xyz - xyz.mean(axis=0)).mean(axis=0),
        [np.linalg.norm(xyz, axis=1).mean()],
        [time_between_peaks(xyz[:, k], window.period_ms) for k in range(3)],
    ]
    parts += [_bin_fractions(xyz[:, k]) for k in range(3)]
    vec = np.concatenate([np.asarray(p, dtype=np.float64) for p in parts])
    if include_gyro:
        if window.gyro is None:
            raise ValueError("window has no gyroscope samples")
        vec = np.concatenate([vec, window.gyro.mean(axis=0), window.gyro.std(axis=0)])
    return vec


def layout_for(include_gyro: bool) -> str:
    return LAYOUT_ACC_GYRO if include_gyro else LAYOUT_ACC


def extract_all(windows, include_gyro: bool = False):
    """Feature matrix plus (start_ts, end_ts) spans for a window list."""
    mat = np.array(
        [extract_features(w, include_gyro) for w in windows], dtype=np.float64
    )
    spans = [(w.start_ts, w.end_ts) for w in windows]
    return mat, spans


def write_features(path: str | Path, matrix: np.ndarray, spans, layout: str) -> None:
    if layout not in FEATURE_COUNTS:
        raise FeatureLayoutError(f"unknown layout: {layout}")
    if matrix.ndim != 2 or matrix.shape[1] != FEATURE_COUNTS[layout]:
        raise FeatureLayoutError(
            f"layout {layout} expects {FEATURE_COUNTS[layout]} columns, "
            f"got {matrix.shape}"
        )
    if len(spans) != matrix.shape[0]:
        raise ValueError("one span per feature row required")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["window_start", "window_end"]
            + [f"f{i:02d}" for i in range(matrix.shape[1])]
        )
        fh.write(f"# layout={layout}\n")
        for (start, end), row in zip(spans, matrix):
            writer.writerow([start, end] + [f"{v:.9g}" for v in row])


def read_features(path: str | Path, expect_layout: str | None = None):
    """Read a feature file; returns (matrix, spans, layout). Errors name the line."""
    layout = None
    spans = []
    rows = []
    header = None
    for lineno, line in enumerate(read_lines(path), start=1):
        if header is not None and line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            if key.strip() == "layout":
                layout = value.strip()
                if layout not in FEATURE_COUNTS:
                    raise FeatureLayoutError(f"{path}: line {lineno}: unknown layout: {layout}")
            continue
        try:
            fields = next(csv.reader([line]))
            if header is None:
                header = fields
            elif len(fields) != len(header):
                raise ValueError(f"expected {len(header)} fields, got {len(fields)}")
            else:
                spans.append((int(fields[0]), int(fields[1])))
                rows.append([float(v) for v in fields[2:]])
        except (ValueError, csv.Error) as exc:
            raise TableError(f"{path}: line {lineno}: {exc}") from None
    if layout is None:
        raise FeatureLayoutError(f"{path}: line 2: missing the layout marker")
    n_cols = len(header) - 2
    if n_cols != FEATURE_COUNTS[layout]:
        raise FeatureLayoutError(
            f"{path}: line 1: header advertises {n_cols} features but layout {layout} "
            f"defines {FEATURE_COUNTS[layout]}"
        )
    if expect_layout is not None and layout != expect_layout:
        raise FeatureLayoutError(f"{path}: expected layout {expect_layout}, file has {layout}")
    matrix = np.array(rows, dtype=np.float64).reshape(-1, FEATURE_COUNTS[layout])
    return matrix, spans, layout
