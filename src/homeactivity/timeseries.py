"""Inertial time-series containers, gap repair, low-pass filtering, windowing.

Series are stored as numpy arrays on a millisecond epoch clock. All
operations are pure: they return new objects and never mutate inputs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from itertools import islice
from pathlib import Path

import numpy as np

DEFAULT_PERIOD_MS = 50
DEFAULT_WINDOW_LEN = 128
DEFAULT_OVERLAP = 0.5
DEFAULT_MAX_GAP_MS = 1000


class SeriesError(ValueError):
    """Raised for malformed or empty sample series."""


class InertialParseError(ValueError):
    def __init__(self, message: str, lineno: int | None = None):
        self.lineno = lineno
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class FilterSpec:
    """Digital Butterworth low-pass design parameters."""

    order: int = 3
    cutoff_hz: float = 3.0
    sample_rate_hz: float = 20.0

    def __post_init__(self):
        if self.order < 1:
            raise ValueError(f"invalid order: {self.order}")
        if self.sample_rate_hz <= 0:
            raise ValueError(f"invalid sample rate: {self.sample_rate_hz}")
        if not (0 < self.cutoff_hz < self.sample_rate_hz / 2):
            raise ValueError(
                f"invalid cutoff: {self.cutoff_hz} Hz must lie in "
                f"(0, {self.sample_rate_hz / 2}) Hz"
            )


@dataclass(frozen=True, eq=False)
class SampleSeries:
    """Ordered triaxial accelerometer samples (optionally with gyroscope).

    ts is epoch milliseconds, strictly increasing. xyz is an (n, 3) float
    array in m/s^2; gyro, when present, is (n, 3) in rad/s.
    """

    subject_id: str
    period_ms: int
    ts: np.ndarray
    xyz: np.ndarray
    gyro: np.ndarray | None = None

    def __post_init__(self):
        if self.period_ms <= 0:
            raise SeriesError(f"nominal period must be positive, got {self.period_ms}")
        ts = np.asarray(self.ts, dtype=np.int64)
        xyz = np.asarray(self.xyz, dtype=np.float64)
        object.__setattr__(self, "ts", ts)
        object.__setattr__(self, "xyz", xyz)
        if ts.ndim != 1 or xyz.shape != (ts.size, 3):
            raise SeriesError(f"shape mismatch: ts {ts.shape} vs xyz {xyz.shape}")
        if ts.size == 0:
            raise SeriesError("empty input")
        if ts.size > 1 and not np.all(np.diff(ts) > 0):
            raise SeriesError("timestamps must be strictly increasing")
        if not np.all(np.isfinite(xyz)):
            raise SeriesError("non-finite acceleration value")
        if self.gyro is not None:
            gyro = np.asarray(self.gyro, dtype=np.float64)
            object.__setattr__(self, "gyro", gyro)
            if gyro.shape != xyz.shape:
                raise SeriesError(f"gyro shape {gyro.shape} != xyz shape {xyz.shape}")
            if not np.all(np.isfinite(gyro)):
                raise SeriesError("non-finite gyroscope value")

    def __len__(self) -> int:
        return int(self.ts.size)

    @property
    def start_ts(self) -> int:
        return int(self.ts[0])

    @property
    def end_ts(self) -> int:
        """Exclusive end: last sample timestamp plus one period."""
        return int(self.ts[-1]) + self.period_ms

    def is_grid_aligned(self) -> bool:
        return bool(np.all(np.diff(self.ts) == self.period_ms))


@dataclass(frozen=True, eq=False)
class WindowBatch:
    """Window i covers [start_ts[i], end_ts[i]) with samples xyz[i] (and
    gyro[i]), each (window_len, 3); read-only views of a gapless series."""

    period_ms: int
    start_ts: np.ndarray
    end_ts: np.ndarray
    xyz: np.ndarray
    gyro: np.ndarray | None = None

    def __len__(self) -> int:
        return int(self.start_ts.size)

    def spans(self) -> list[tuple[int, int]]:
        return list(zip(self.start_ts.tolist(), self.end_ts.tolist()))


def interpolate_gaps(
    series: SampleSeries, max_gap_ms: int = DEFAULT_MAX_GAP_MS
) -> list[SampleSeries]:
    """Fill sampling gaps by per-axis linear interpolation on the nominal grid.

    Consecutive samples further apart than max_gap_ms split the series:
    no synthetic points are fabricated inside such gaps. Each returned
    segment is grid-aligned at the segment's first timestamp with step
    period_ms; off-grid trailing samples that no grid point lands on are
    dropped.
    """
    if len(series) == 0:
        raise SeriesError("empty input")
    if max_gap_ms <= 0:
        raise ValueError(f"max_gap_ms must be positive, got {max_gap_ms}")

    ts = series.ts
    breaks = np.flatnonzero(np.diff(ts) > max_gap_ms)
    bounds = np.concatenate(([0], breaks + 1, [ts.size]))

    out: list[SampleSeries] = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        seg_ts = ts[lo:hi]
        n_steps = int((seg_ts[-1] - seg_ts[0]) // series.period_ms)
        grid = seg_ts[0] + series.period_ms * np.arange(n_steps + 1, dtype=np.int64)
        xyz = np.column_stack(
            [np.interp(grid, seg_ts, series.xyz[lo:hi, k]) for k in range(3)]
        )
        gyro = None
        if series.gyro is not None:
            gyro = np.column_stack(
                [np.interp(grid, seg_ts, series.gyro[lo:hi, k]) for k in range(3)]
            )
        out.append(replace(series, ts=grid, xyz=xyz, gyro=gyro))
    return out


def butter(order: int, wn: float) -> tuple[np.ndarray, np.ndarray]:
    """Digital Butterworth low-pass coefficients (b, a); a[0] is exactly 1.

    wn is the cutoff as a fraction of Nyquist, in (0, 1). The steps and
    their arithmetic are those of scipy.signal.butter(order, wn), so the
    coefficients are the same bits: the analog prototype's poles
    (buttap), moved to the pre-warped cutoff (lp2lp_zpk), mapped by the
    bilinear transform at fs = 2 (bilinear_zpk, which puts every zero at
    z = -1), then multiplied out by sequential convolution (zpk2tf).
    """
    m = np.arange(-order + 1, order, 2, dtype=np.float64)
    poles = -np.exp(1j * np.pi * m / (2 * order))  # the middle pole is exactly real
    warped = float(4.0 * np.tan(np.pi * wn / 2.0))
    poles = warped * poles
    gain = warped**order * np.real(1.0 / np.prod(4.0 - poles))
    poles = (4.0 + poles) / (4.0 - poles)
    return gain * np.poly(-np.ones(order)), np.poly(poles).real


def lfilter_zi(b: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Step-response steady state of the filter's delays (a[0] must be 1).

    Solves zi = A·zi + B for the companion matrix A of a, as
    scipy.signal.lfilter_zi does, with the same single linear solve.
    """
    n = a.size - 1
    companion = np.eye(n, k=-1)
    companion[0] = -a[1:]
    return np.linalg.solve(np.eye(n) - companion.T, b[1:] - a[1:] * b[0])


def lfilter(b: np.ndarray, a: np.ndarray, x: np.ndarray, zi: np.ndarray) -> np.ndarray:
    """Run the filter (b, a), a[0] == 1, forward over x from delay state zi.

    Direct form II transposed, one sample at a time over Python floats in
    the operation order of scipy.signal.lfilter's C loop, so the output
    is the same bits as scipy.signal.lfilter(b, a, x, zi=zi)[0].
    """
    b0, bs, as_ = float(b[0]), b[1:].tolist(), a[1:].tolist()
    last = len(bs) - 1
    middle = range(last)
    z = zi.tolist()
    out = []
    for xi in x.tolist():
        y = z[0] + b0 * xi
        for i in middle:
            z[i] = z[i + 1] + xi * bs[i] - y * as_[i]
        z[last] = xi * bs[last] - y * as_[last]
        out.append(y)
    return np.array(out, dtype=np.float64)


def butterworth_lowpass(series: SampleSeries, spec: FilterSpec) -> SampleSeries:
    """Apply a causal digital Butterworth low-pass to each axis.

    The filter is designed by bilinear transform (butter) and run
    forward-only (lfilter). Initial conditions are set to the step steady
    state of the first sample, so a constant signal passes through
    unchanged from sample zero. Timestamps are preserved.
    """
    if not series.is_grid_aligned():
        raise SeriesError("series must be gapless and grid-aligned before filtering")
    grid_rate = 1000.0 / series.period_ms
    if abs(grid_rate - spec.sample_rate_hz) > 1e-6 * spec.sample_rate_hz:
        raise SeriesError(
            f"filter designed for {spec.sample_rate_hz} Hz but series is "
            f"sampled at {grid_rate} Hz"
        )
    b, a = butter(spec.order, spec.cutoff_hz / (spec.sample_rate_hz / 2))
    zi = lfilter_zi(b, a)

    def run(channel: np.ndarray) -> np.ndarray:
        return lfilter(b, a, channel, zi * channel[0])

    xyz = np.column_stack([run(series.xyz[:, k]) for k in range(3)])
    gyro = None
    if series.gyro is not None:
        gyro = np.column_stack([run(series.gyro[:, k]) for k in range(3)])
    return replace(series, xyz=xyz, gyro=gyro)


def segment(
    series: SampleSeries,
    window_len: int = DEFAULT_WINDOW_LEN,
    overlap_frac: float = DEFAULT_OVERLAP,
) -> WindowBatch:
    """Slice a series into fixed-length windows, never across a gap.

    Each gapless piece of the series (split_on_gaps) of n samples gives
    floor((n - window_len) / hop) + 1 windows, hop = round(window_len *
    (1 - overlap_frac)) clamped to >= 1; a trailing remainder shorter
    than window_len is dropped, and a piece shorter than one window
    gives none.
    """
    if window_len < 1:
        raise ValueError(f"window_len must be positive, got {window_len}")
    if not (0 <= overlap_frac < 1):
        raise ValueError(f"overlap_frac must lie in [0, 1), got {overlap_frac}")
    hop = max(1, round(window_len * (1 - overlap_frac)))
    pieces = split_on_gaps(series)
    first_rows, lo = [], 0
    for piece in pieces:
        first_rows.append(np.arange(lo, lo + len(piece) - window_len + 1, hop))
        lo += len(piece)
    rows = np.concatenate(first_rows)  # the first sample of each window
    # one piece: a strided slice keeps the stacks views of the series
    take = slice(0, rows.size * hop, hop) if len(pieces) == 1 else rows

    def stack(values):
        if values is None:
            return None
        if not rows.size:
            return np.empty((0, window_len, 3))
        view = np.lib.stride_tricks.sliding_window_view(values, window_len, axis=0)
        return view.transpose(0, 2, 1)[take]

    return WindowBatch(
        period_ms=series.period_ms,
        start_ts=series.ts[rows],
        end_ts=series.ts[rows + window_len - 1] + series.period_ms,
        xyz=stack(series.xyz),
        gyro=stack(series.gyro),
    )


def split_on_gaps(series: SampleSeries) -> list[SampleSeries]:
    """Split wherever consecutive timestamps differ from the nominal period."""
    breaks = np.flatnonzero(np.diff(series.ts) != series.period_ms)
    bounds = np.concatenate(([0], breaks + 1, [series.ts.size]))
    return [
        replace(
            series,
            ts=series.ts[lo:hi],
            xyz=series.xyz[lo:hi],
            gyro=None if series.gyro is None else series.gyro[lo:hi],
        )
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]


# Line format, WISDM-compatible:
#   subject_id,activity_hint,timestamp_ms,ax,ay,az[,gx,gy,gz];
# The hint field may be empty and the trailing semicolon is optional.


def parse_inertial_line(line: str, lineno: int | None = None):
    parts = line.strip().rstrip(";").split(",")
    if len(parts) not in (6, 9):
        raise InertialParseError(
            f"expected 6 or 9 comma-separated fields, got {len(parts)}", lineno
        )
    try:
        ts = int(parts[2])
        values = [float(v) for v in parts[3:]]
    except ValueError as exc:
        raise InertialParseError(str(exc), lineno) from None
    if not -(2**63) <= ts < 2**63:
        raise InertialParseError(f"timestamp {ts} outside the int64 range", lineno)
    if not all(np.isfinite(values)):
        raise InertialParseError("non-finite sample value", lineno)
    return parts[0], parts[1], ts, values


# Lines per block of the columnar reader and writer.
_BLOCK_LINES = 16384


def _load_inertial_lines(path, period_ms: int) -> list[SampleSeries]:
    """Parse the log one line at a time.

    This is the reference reader: it accepts every form of the format
    (several subjects, blank lines, CRLF, a missing or doubled `;`) and
    is the path that names the file and line of any error.
    """
    rows: dict[str, list] = {}
    lineno = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                subject, _hint, ts, values = parse_inertial_line(line, lineno)
            except InertialParseError as exc:
                raise InertialParseError(f"{path}: {exc}") from None
            rows.setdefault(subject, []).append((lineno, ts, values))
    if not rows:
        raise SeriesError(f"{path}: line {lineno + 1}: empty input")
    out = []
    for subject, samples in rows.items():
        width = len(samples[0][2])
        for line_at, _ts, values in samples:
            if len(values) != width:
                raise SeriesError(
                    f"{path}: line {line_at}: subject {subject!r} mixes 6- and "
                    "9-field lines"
                )
        ts = np.array([s[1] for s in samples], dtype=np.int64)
        back = np.flatnonzero(np.diff(ts) <= 0)
        if back.size:
            raise SeriesError(
                f"{path}: line {samples[back[0] + 1][0]}: "
                "timestamps must be strictly increasing"
            )
        data = np.array([s[2] for s in samples], dtype=np.float64)
        out.append(_series(subject, period_ms, ts, data))
    return out


def _series(subject: str, period_ms: int, ts: np.ndarray, data: np.ndarray):
    """One series from a timestamp column and an (n, 3 or 6) value block."""
    gyro = data[:, 3:6] if data.shape[1] == 6 else None
    return SampleSeries(
        subject_id=subject, period_ms=period_ms, ts=ts, xyz=data[:, 0:3], gyro=gyro
    )


def _load_inertial_columnar(path, period_ms: int) -> list[SampleSeries] | None:
    """Parse a plain single-subject log block by block with np.loadtxt.

    Each block must pass whole-block tests: ASCII without `\\r` or
    `\\x1c`-`\\x1f`, one subject prefix, a constant width of 6 or 9
    fields, and exactly one `;` per line, right before its `\\n`.
    Timestamps must increase and values be finite. Returns None for any
    log outside that shape, so the caller can fall back to the per-line
    reader, which accepts it or names the bad line.
    """
    columns = None
    blocks = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        while True:
            try:
                lines = list(islice(fh, _BLOCK_LINES))
            except UnicodeDecodeError:
                return None
            if not lines:
                break
            text = "".join(lines)
            if columns is None:
                subject = lines[0].partition(",")[0]
                prefix = subject + ","
                width = lines[0].count(",") + 1
                if width not in (6, 9) or subject != subject.lstrip():
                    return None
                columns = np.dtype([("ts", np.int64), ("v", np.float64, (width - 3,))])
            n = len(lines)
            if not (
                text.isascii()
                # np.loadtxt strips \x1c-\x1f around numbers; int() and float() do not
                and not any(c in text for c in "\r\x1c\x1d\x1e\x1f")
                and text.startswith(prefix)
                and text.count("\n" + prefix) == n - 1
                and text.count(",") == n * (width - 1)
                and text.count(";") == n
                and text.count(";\n") == n
            ):
                return None
            try:
                with warnings.catch_warnings():
                    # NumPy 1.x parses "1.0" as an int64 with a warning only
                    warnings.simplefilter("error")
                    blocks.append(np.loadtxt(
                        lines, dtype=columns, delimiter=",", comments=";",
                        usecols=range(2, width), ndmin=1,
                    ))
            except (ValueError, Warning):
                return None
    if columns is None:
        return None
    table = np.concatenate(blocks)
    ts, data = table["ts"].copy(), table["v"].copy()
    if np.any(np.diff(ts) <= 0) or not np.all(np.isfinite(data)):
        return None
    return [_series(subject, period_ms, ts, data)]


def load_inertial(
    path: str | Path, period_ms: int = DEFAULT_PERIOD_MS
) -> list[SampleSeries]:
    """Read an inertial log, returning one series per subject_id.

    Subjects are returned in order of first appearance; samples keep file
    order and must be strictly increasing in time per subject. A plain
    single-subject log is parsed in blocks; any other log, and any log
    with an error, goes through the per-line reader.
    """
    series = _load_inertial_columnar(path, period_ms)
    if series is None:
        series = _load_inertial_lines(path, period_ms)
    return series


def write_inertial(
    path: str | Path,
    series: SampleSeries,
    append: bool = False,
) -> None:
    """Write one series as log lines, formatted and written in blocks.

    `%.6f` and `f"{v:.6f}"` share one float formatter, so the bytes are
    those of formatting each value on its own.
    """
    values = series.xyz if series.gyro is None else np.hstack([series.xyz, series.gyro])
    line = series.subject_id.replace("%", "%%") + ",,%d" + ",%.6f" * values.shape[1] + ";\n"
    mode = "a" if append else "w"
    with open(path, mode, encoding="utf-8") as fh:
        for lo in range(0, len(series), _BLOCK_LINES):
            hi = lo + _BLOCK_LINES
            columns = [series.ts[lo:hi].tolist(), *values[lo:hi].T.tolist()]
            fh.write("".join([line % row for row in zip(*columns)]))
