"""Feature extraction for a batch of triaxial accelerometer windows.

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
import math
from pathlib import Path

import numpy as np

from . import tables
from .timeseries import DEFAULT_PERIOD_MS, WindowBatch

BIN_COUNT = 10
BIN_RANGE = (-20.0, 20.0)
LAYOUT_ACC = "acc43.v1"
LAYOUT_ACC_GYRO = "accgyro49.v1"
FEATURE_COUNTS = {LAYOUT_ACC: 43, LAYOUT_ACC_GYRO: 49}
BIN_EDGES = np.linspace(BIN_RANGE[0], BIN_RANGE[1], BIN_COUNT + 1)


class FeatureLayoutError(ValueError):
    """Raised when a feature file's layout token is unknown or mismatched."""


def _peak_spacing(axis: np.ndarray) -> np.ndarray:
    """Average spacing in ms of the peaks of each row; 0.0 below two peaks.

    A peak is a sample strictly greater than both neighbours and than
    the row's mean + 0.5 * std; endpoints are never peaks, and the
    threshold suppresses ripple on near-flat signals.
    """
    n, length = axis.shape
    threshold = axis.mean(axis=1) + 0.5 * axis.std(axis=1)
    peak = np.zeros((n, length), dtype=bool)
    mid = axis[:, 1:-1]
    peak[:, 1:-1] = (mid > axis[:, :-2]) & (mid > axis[:, 2:]) & (mid > threshold[:, None])
    count = peak.sum(axis=1)
    span = length - 1 - peak[:, ::-1].argmax(axis=1) - peak.argmax(axis=1)  # last - first
    return np.where(count >= 2, span / np.maximum(count - 1, 1) * DEFAULT_PERIOD_MS, 0.0)


def _bin_shares(axis: np.ndarray) -> np.ndarray:
    """Share of each row's samples in each bin, values clipped into range.

    Bin i holds BIN_EDGES[i] <= v < BIN_EDGES[i + 1], the last bin its
    right edge too: np.histogram's bins, exact at every edge.
    """
    n, length = axis.shape
    bins = np.clip(np.searchsorted(BIN_EDGES, axis, side="right") - 1, 0, BIN_COUNT - 1)
    bins += BIN_COUNT * np.arange(n)[:, None]
    return np.bincount(bins.ravel(), minlength=n * BIN_COUNT).reshape(n, BIN_COUNT) / length


def layout_for(include_gyro: bool) -> str:
    return LAYOUT_ACC_GYRO if include_gyro else LAYOUT_ACC


def extract_all(batch: WindowBatch, include_gyro: bool = False):
    """Feature matrix, one row per window, plus the (start_ts, end_ts) spans.

    include_gyro requires gyroscope samples and switches the layout to
    accgyro49.v1 (43 accelerometer values plus gyro means and stds).

    Each value sums its samples in the order that fixes its bytes: the
    per-axis statistics reduce axis 1 of the (n, window_len, 3) stack,
    which NumPy sums sample by sample; the peak threshold reduces a
    contiguous copy of one axis, which NumPy sums pairwise. The deviations
    from the mean are taken once, and the std and the magnitude are the
    sums np.std and np.linalg.norm make, in their order, bit for bit.
    """
    xyz = batch.xyz
    mean = xyz.mean(axis=1)
    dev = xyz - mean[:, None, :]
    x, y, z = (xyz[..., k] for k in range(3))
    columns = [
        mean,
        np.sqrt(np.add.reduce(dev * dev, axis=1) / xyz.shape[1]),
        np.abs(dev).mean(axis=1),
        np.sqrt(x * x + y * y + z * z).mean(axis=1)[:, None],
    ]
    spacing, shares = [], []
    for k in range(3):
        axis = np.ascontiguousarray(xyz[:, :, k])
        spacing.append(_peak_spacing(axis))
        shares.append(_bin_shares(axis))
    columns += [np.column_stack(spacing), *shares]
    if include_gyro:
        if batch.gyro is None:
            raise ValueError("window has no gyroscope samples")
        columns += [batch.gyro.mean(axis=1), batch.gyro.std(axis=1)]
    return np.concatenate(columns, axis=1), batch.spans()


_BLOCK_ROWS = 1024


def write_features(path: str | Path, matrix: np.ndarray, spans, layout: str) -> None:
    """One row per span; matrix is extract_all's, of the layout's width."""
    # `%.9g` and `f"{v:.9g}"` share one float formatter; no field needs
    # csv quoting, so each row is one `%` string ending as csv.writer ends it.
    header = ["window_start", "window_end"] + [f"f{i:02d}" for i in range(matrix.shape[1])]
    line = "%d,%d" + ",%.9g" * matrix.shape[1] + "\r\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + f"\r\n# layout={layout}\n")
        for lo in range(0, len(spans), _BLOCK_ROWS):
            rows = zip(spans[lo:lo + _BLOCK_ROWS], matrix[lo:lo + _BLOCK_ROWS].tolist())
            fh.write("".join([line % (*span, *row) for span, row in rows]))


# 10^k for the read-back's scales k = 0..22, each exact in binary64.
_POWERS = 10.0 ** np.arange(23)


def read_back(matrix: np.ndarray) -> np.ndarray:
    """Each value as write_features' text reads back: float("%.9g" % v),
    bit for bit, computed per block of _BLOCK_ROWS rows.

    With k = 8 - floor(log10|v|) in 0..22, n = rint(v·10^k) is the text's
    nine digits when 10^8 <= |n| < 10^9, and n / 10^k, the correctly
    rounded quotient of two exact numbers, is what parsing the text
    gives. v·10^k is rounded once; n is off only where that product is an
    exact half-integer, and n out of range catches a floor(log10) that is
    off by one. A zero reads back as itself. Every other value, NaN,
    infinities and k outside 0..22 included, takes the `%` template.
    """
    out = np.empty_like(matrix, dtype=np.float64)
    for lo in range(0, len(matrix), _BLOCK_ROWS):
        v = matrix[lo:lo + _BLOCK_ROWS]
        with np.errstate(divide="ignore", invalid="ignore"):
            k = 8 - np.floor(np.log10(np.abs(v)))
            fast = (k >= 0) & (k <= 22)
            scale = _POWERS[np.where(fast, k, 0).astype(np.intp)]
            x = v * scale
            n = np.rint(x)
            fast &= (np.abs(n) >= 1e8) & (np.abs(n) < 1e9) & (np.abs(n - x) != 0.5)
            fast |= v == 0  # scale 1: n / 1 is v, its sign kept
        block = out[lo:lo + _BLOCK_ROWS]
        np.divide(n, scale, out=block)
        block[~fast] = [float("%.9g" % t) for t in v[~fast].tolist()]
    return out


def read_features(path: str | Path, expect_layout: str | None = None):
    """Read a feature file; returns (matrix, spans, layout). Errors name
    the line. A non-finite value is refused: it has no nearest centroid,
    as every distance from it is inf or NaN."""
    layout = None
    spans = []
    rows = []
    header = None

    def parse(line):
        nonlocal layout, header
        if header is not None and line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            if key.strip() == "layout":
                layout = value.strip()
                if layout not in FEATURE_COUNTS:
                    raise FeatureLayoutError(f"unknown layout: {layout}")
                if expect_layout is not None and layout != expect_layout:
                    raise FeatureLayoutError(
                        f"expected layout {expect_layout}, file has {layout}")
            return
        fields = next(csv.reader([line]))
        if header is None:
            header = fields
        elif len(fields) != len(header):
            raise ValueError(f"expected {len(header)} fields, got {len(fields)}")
        else:
            row = [float(v) for v in fields[2:]]
            if not all(map(math.isfinite, row)):
                raise ValueError("non-finite feature value")
            spans.append((int(fields[0]), int(fields[1])))
            rows.append(row)

    tables.parse_lines(path, parse)
    if layout is None:
        raise FeatureLayoutError(f"{path}: line 2: missing the layout marker")
    n_cols = len(header) - 2
    if n_cols != FEATURE_COUNTS[layout]:
        raise FeatureLayoutError(
            f"{path}: line 1: header advertises {n_cols} features but layout {layout} "
            f"defines {FEATURE_COUNTS[layout]}"
        )
    matrix = np.array(rows, dtype=np.float64).reshape(-1, FEATURE_COUNTS[layout])
    return matrix, spans, layout
