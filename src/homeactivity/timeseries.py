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

from . import tables
from .defaults import (
    DEFAULT_CUTOFF_HZ,
    DEFAULT_MAX_GAP_MS,
    DEFAULT_ORDER,
    DEFAULT_OVERLAP,
    DEFAULT_PERIOD_MS,
    DEFAULT_WINDOW_LEN,
)


class SeriesError(ValueError):
    """Raised for malformed or empty sample series."""


class InertialParseError(ValueError):
    """Raised for an inertial log line that does not parse."""


class SampleError(SeriesError):
    """Raised for one sample: the first that holds a non-finite value, or
    the last of a window that would end past the int64 clock. `ts` is its
    timestamp."""

    def __init__(self, message: str, ts: int):
        super().__init__(message)
        self.ts = ts


@dataclass(frozen=True)
class FilterSpec:
    """Digital Butterworth low-pass parameters, designed per series (design)."""

    order: int = DEFAULT_ORDER
    cutoff_hz: float = DEFAULT_CUTOFF_HZ

    def design(self, period_ms: int) -> tuple[np.ndarray, np.ndarray]:
        """Coefficients (b, a) for samples period_ms apart; the cutoff must
        lie below that rate's Nyquist frequency."""
        if self.order < 1:
            raise ValueError(f"invalid order: {self.order}")
        rate = 1000 / period_ms
        if not (0 < self.cutoff_hz < rate / 2):
            raise ValueError(
                f"invalid cutoff: {self.cutoff_hz} Hz must lie in (0, {rate / 2}) Hz"
            )
        return butter(self.order, self.cutoff_hz / (rate / 2))


class _Channels:
    """xyz and gyro as views of the last axis of `values`: acceleration
    in its first 3 columns, then the gyroscope's 3 when it has 6."""

    @property
    def xyz(self) -> np.ndarray:
        return self.values[..., :3]

    @property
    def gyro(self) -> np.ndarray | None:
        return self.values[..., 3:] if self.values.shape[-1] == 6 else None


@dataclass(frozen=True, eq=False)
class SampleSeries(_Channels):
    """Ordered inertial samples, as the log carries them.

    ts is epoch milliseconds, strictly increasing. values is an (n, 3)
    float array of acceleration in m/s^2, or (n, 6) with the gyroscope's
    rad/s after it.
    """

    subject_id: str
    period_ms: int
    ts: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.period_ms <= 0:
            raise SeriesError(f"nominal period must be positive, got {self.period_ms}")
        ts = np.asarray(self.ts, dtype=np.int64)
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "ts", ts)
        object.__setattr__(self, "values", values)
        if ts.ndim != 1 or values.shape not in ((ts.size, 3), (ts.size, 6)):
            raise SeriesError(f"shape mismatch: ts {ts.shape} vs values {values.shape}")
        if ts.size == 0:
            raise SeriesError("empty input")
        if not np.all(ts[1:] > ts[:-1]):  # np.diff would wrap in int64
            raise SeriesError("timestamps must be strictly increasing")
        if not np.all(np.isfinite(values)):
            first = np.argmin(np.isfinite(values).all(axis=1))
            raise SampleError("non-finite sample value", int(ts[first]))

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
class WindowBatch(_Channels):
    """Window i covers [start_ts[i], end_ts[i]) with samples values[i], a
    (window_len, 3 or 6) read-only view of a gapless series."""

    period_ms: int
    start_ts: np.ndarray
    end_ts: np.ndarray
    values: np.ndarray

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
    if max_gap_ms <= 0:
        raise ValueError(f"max_gap_ms must be positive, got {max_gap_ms}")

    ts = series.ts
    # ts increases, so its steps are exact as uint64 where int64 would wrap
    breaks = np.flatnonzero(np.diff(ts.view(np.uint64)) > max_gap_ms)
    bounds = np.concatenate(([0], breaks + 1, [ts.size]))

    out: list[SampleSeries] = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        seg_ts = ts[lo:hi]
        n_steps = int((seg_ts[-1] - seg_ts[0]) // series.period_ms)
        grid = seg_ts[0] + series.period_ms * np.arange(n_steps + 1, dtype=np.int64)
        out.append(replace(series, ts=grid, values=np.column_stack(
            [np.interp(grid, seg_ts, channel[lo:hi]) for channel in series.values.T]
        )))
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
    is the same bits as scipy.signal.lfilter(b, a, x, zi=zi)[0]. Order 3,
    the default, runs as straight-line code with its three delays in
    local variables; every other order runs the loop of `_lfilter_loop`.
    """
    if a.size != 4:
        return _lfilter_loop(b, a, x, zi)
    b0, b1, b2, b3 = b.tolist()
    _, a1, a2, a3 = a.tolist()
    z0, z1, z2 = zi.tolist()
    out = []
    append = out.append
    for xi in x.tolist():
        y = z0 + b0 * xi
        z0 = z1 + xi * b1 - y * a1
        z1 = z2 + xi * b2 - y * a2
        z2 = xi * b3 - y * a3
        append(y)
    return np.array(out, dtype=np.float64)


def _lfilter_loop(b: np.ndarray, a: np.ndarray, x: np.ndarray, zi: np.ndarray) -> np.ndarray:
    """lfilter for any order: the reference that its order-3 code must match."""
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

    The filter is designed for the series' own sample rate by bilinear
    transform (FilterSpec.design) and run forward-only (lfilter). Initial
    conditions are set to the step steady state of the first sample, so a
    constant signal passes through unchanged from sample zero. Timestamps
    are preserved.
    """
    if not series.is_grid_aligned():
        raise SeriesError("series must be gapless and grid-aligned before filtering")
    b, a = spec.design(series.period_ms)
    zi = lfilter_zi(b, a)

    return replace(series, values=np.column_stack(
        [lfilter(b, a, channel, zi * channel[0]) for channel in series.values.T]
    ))


def window_hop(window_len: int, overlap_frac: float) -> int:
    """Samples from one window's start to the next's."""
    return max(1, round(window_len * (1 - overlap_frac)))


def segment(
    series: SampleSeries,
    window_len: int = DEFAULT_WINDOW_LEN,
    overlap_frac: float = DEFAULT_OVERLAP,
) -> WindowBatch:
    """Slice a series into fixed-length windows, never across a gap.

    Each gapless piece of the series (split_on_gaps) of n samples gives
    floor((n - window_len) / hop) + 1 windows (hop: window_hop); a
    trailing remainder shorter than window_len is dropped, and a piece
    shorter than one window gives none. A window that would end past
    2^63 - 1 ms raises SampleError.
    """
    if window_len < 1:
        raise ValueError(f"window_len must be positive, got {window_len}")
    if not (0 <= overlap_frac < 1):
        raise ValueError(f"overlap_frac must lie in [0, 1), got {overlap_frac}")
    hop = window_hop(window_len, overlap_frac)
    pieces = split_on_gaps(series)
    first_rows, lo = [], 0
    for piece in pieces:
        first_rows.append(np.arange(lo, lo + len(piece) - window_len + 1, hop))
        lo += len(piece)
    rows = np.concatenate(first_rows)  # the first sample of each window
    last = rows + window_len - 1
    if rows.size and series.ts[last[-1]] > np.iinfo(np.int64).max - series.period_ms:
        end = int(series.ts[last[-1]]) + series.period_ms
        raise SampleError(f"window end {end} lies outside the int64 range", end - series.period_ms)
    # one piece: a strided slice keeps the stacks views of the series
    take = slice(0, rows.size * hop, hop) if len(pieces) == 1 else rows
    if rows.size:
        view = np.lib.stride_tricks.sliding_window_view(series.values, window_len, axis=0)
        values = view.transpose(0, 2, 1)[take]
    else:
        values = np.empty((0, window_len, series.values.shape[1]))
    return WindowBatch(
        period_ms=series.period_ms,
        start_ts=series.ts[rows],
        end_ts=series.ts[last] + series.period_ms,
        values=values,
    )


def join(pieces) -> SampleSeries:
    """The pieces, of one subject and period, as one series in order."""
    return replace(pieces[0], ts=np.concatenate([p.ts for p in pieces]),
                   values=np.concatenate([p.values for p in pieces]))


def split_on_gaps(series: SampleSeries) -> list[SampleSeries]:
    """Split wherever consecutive timestamps differ from the nominal period."""
    breaks = np.flatnonzero(np.diff(series.ts) != series.period_ms)
    bounds = np.concatenate(([0], breaks + 1, [series.ts.size]))
    return [
        replace(series, ts=series.ts[lo:hi], values=series.values[lo:hi])
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]


# Line format, WISDM-compatible, one subject_id a log:
#   subject_id,activity_hint,timestamp_ms,ax,ay,az[,gx,gy,gz];
# The hint field may be empty; the `;` is optional where a line end follows.


def parse_inertial_line(line: str):
    parts = line.strip().rstrip(";").split(",")
    if len(parts) not in (6, 9):
        raise InertialParseError(f"expected 6 or 9 comma-separated fields, got {len(parts)}")
    ts = int(parts[2])  # a ValueError here reaches a file's reader as InertialParseError
    values = [float(v) for v in parts[3:]]
    if not -(2**63) <= ts < 2**63:
        raise InertialParseError(f"timestamp {ts} outside the int64 range")
    if not all(np.isfinite(values)):
        raise InertialParseError("non-finite sample value")
    return parts[0], parts[1], ts, values


# Lines per block of the columnar reader and writer.
_BLOCK_LINES = 16384


def _load_inertial_lines(path) -> list[SampleSeries]:
    """Parse the log one line at a time.

    This is the reference reader: it accepts every form of the format
    (blank lines, CRLF, a missing or doubled `;`) and is the path that
    names the file and line of its first bad line, such as a second
    subject's first line or a last line that may be cut.
    """
    subject, stamps, samples = None, [], []

    def add(line):
        nonlocal subject
        if not line.strip():
            return
        if not line.endswith(("\n", "\r")) and not line.rstrip().endswith(";"):
            raise InertialParseError("last line lacks its `;` and line end: file may be cut")
        name, _hint, ts, values = parse_inertial_line(line)
        if subject is None:
            subject = name
        elif name != subject:
            raise SeriesError(f"subject {name!r} after {subject!r}: a log holds one subject")
        elif len(values) != len(samples[0]):
            raise SeriesError(f"subject {subject!r} mixes 6- and 9-field lines")
        elif ts <= stamps[-1]:
            raise SeriesError("timestamps must be strictly increasing")
        stamps.append(ts)
        samples.append(values)

    lines = tables.parse_lines(path, add, InertialParseError)
    if subject is None:
        raise SeriesError(f"{path}: line {lines + 1}: empty input")
    return [SampleSeries(subject, DEFAULT_PERIOD_MS, np.array(stamps, dtype=np.int64),
                         np.array(samples, dtype=np.float64))]


def _load_inertial_columnar(path) -> list[SampleSeries] | None:
    """Parse a plain log block by block with np.loadtxt.

    Each block must pass whole-block tests: ASCII without `\\r` or
    `\\x1c`-`\\x1f`, one subject prefix, a constant width of 6 or 9
    fields, and exactly one `;` per line, right before its `\\n`.
    Returns None for any log outside that shape, or whose samples
    SampleSeries refuses, so the caller can fall back to the per-line
    reader, which accepts it or names the bad line.
    """
    columns = None
    blocks = []
    log = tables.read_lines(path, InertialParseError)
    for lines in iter(lambda: list(islice(log, _BLOCK_LINES)), []):
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
    try:
        return [SampleSeries(subject, DEFAULT_PERIOD_MS, table["ts"].copy(), table["v"].copy())]
    except SeriesError:
        return None


def load_inertial(path: str | Path) -> list[SampleSeries]:
    """Read an inertial log of one subject, returning its one series in
    a list, sampled every DEFAULT_PERIOD_MS: the log carries no rate.

    Samples keep file order and must be strictly increasing in time. A
    plain log is parsed in blocks; any other log, and any log with a
    line that does not parse, goes through the per-line reader.
    """
    return _load_inertial_columnar(path) or _load_inertial_lines(path)


def write_inertial(
    path: str | Path,
    series: SampleSeries,
    append: bool = False,
) -> None:
    """Write one series as log lines, formatted and written in blocks.

    The bytes are those of formatting each line with the `%d` and `%.6f`
    template, value by value. A block's text comes from the micro-units
    of its values (_micro_units): their digits fill a (width, lines)
    byte matrix, one row per character position, with a leading zero or
    an absent sign set to _GONE, which the compacting of the block
    deletes. A block that holds an exact tie, a value of magnitude
    2^53/1e6 or more, or a negative timestamp is formatted by the
    template. A subject id that would not read back unchanged is refused.
    """
    if any(c in series.subject_id for c in ",\r\n") or series.subject_id[:1].isspace():
        raise SeriesError(f"subject id {series.subject_id!r} cannot be logged: it holds a "
                          "comma or a line break, or starts with whitespace")
    prefix = (series.subject_id + ",,").encode("utf-8")
    line = (series.subject_id.replace("%", "%%") + ",,%d"
            + ",%.6f" * series.values.shape[1] + ";\n")
    with open(path, "ab" if append else "wb") as fh:
        for lo in range(0, len(series), _BLOCK_LINES):
            ts, values = series.ts[lo:lo + _BLOCK_LINES], series.values[lo:lo + _BLOCK_LINES]
            text = _format_block(prefix, ts, values)
            if text is None:
                columns = [ts.tolist(), *values.T.tolist()]
                text = "".join([line % row for row in zip(*columns)]).encode("utf-8")
            fh.write(text)


# A byte that UTF-8 text never holds: it marks a matrix cell that is no character.
_GONE = 0xFF
_POWERS = 10 ** np.arange(20, dtype=np.uint64)


def _fill_digits(rows: np.ndarray, n: np.ndarray, pad: bool = False) -> None:
    """The last d decimal digits of the non-negative integers n, as ASCII,
    most significant first, into rows[0..d-1] (n's axes after the first).
    Unless pad, the zeros that lead a shorter number are set to _GONE;
    the last digit always stays."""
    d = rows.shape[0]
    ten = n.dtype.type(10)
    q = n
    for j in range(d - 1, -1, -1):
        rest = q // ten
        rows[j] = q - rest * ten
        q = rest
    rows += ord("0")
    for j in range(0 if pad else d - 1):
        rows[j][n < _POWERS[d - 1 - j].astype(n.dtype)] = _GONE


def _format_block(prefix: bytes, ts: np.ndarray, values: np.ndarray) -> bytes | None:
    """The log lines of one block, or None where the template must format it."""
    n, slow = _micro_units(values)
    if slow.any() or ts[0] < 0:  # ts increases: ts[0] is its least
        return None
    lines, k = values.shape
    micro = np.abs(n).T.astype(np.uint64)  # (k, lines); |n| <= 2^53
    stamp = ts.view(np.uint64)
    ts_d = len(str(int(stamp[-1])))  # digits of the widest
    int_d = len(str(int(micro.max()) // 1_000_000))
    field = 3 + int_d + 6  # ",", the sign, the integer part, ".", 6 decimals
    head = len(prefix) + ts_d
    matrix = np.empty((head + k * field + 2, lines), np.uint8)
    matrix[:len(prefix)] = np.frombuffer(prefix, np.uint8)[:, None]
    _fill_digits(matrix[len(prefix):head], stamp)
    cells = matrix[head:head + k * field].reshape(k, field, lines)
    cells[:, 0] = ord(",")
    cells[:, 1] = np.where(np.signbit(values).T, ord("-"), _GONE)
    cells[:, 2 + int_d] = ord(".")
    whole, frac = np.divmod(micro, np.uint64(1_000_000))
    _fill_digits(cells[:, 2:2 + int_d].swapaxes(0, 1), whole)
    _fill_digits(cells[:, 3 + int_d:].swapaxes(0, 1), frac.astype(np.uint32), pad=True)
    matrix[-2:] = np.frombuffer(b";\n", np.uint8)[:, None]
    return matrix.T.tobytes().translate(None, bytes([_GONE]))


# Below this magnitude a value's micro-units are below 2^53, so exact in float64.
_MICRO_EXACT = 2.0**53 / 1e6


def _micro_units(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(n, slow): n = rint(x·1e6), the integer of x's `%.6f` text with the
    point removed, and slow where it may not be: an exact tie in x·1e6,
    NaN, an infinity, or |x| >= 2^53/1e6.

    Where the product p = x·1e6 is not exactly a half-integer, rint(p) is
    that integer: rounding is monotone, so p lies on the same side of each
    half-integer as the exact product, and rint keeps the sign, so a value
    that prints as -0.000000 gives -0.0.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # wide values are slow
        p = x * 1e6
        n = np.rint(p)
        slow = (np.abs(p - n) == 0.5) | ~(np.abs(x) < _MICRO_EXACT)
    return n, slow


def as_logged(values: np.ndarray) -> np.ndarray:
    """values as write_inertial's `%.6f` text reads back: float("%.6f" % v)
    of each value, bit for bit, computed as n / 1e6 of its micro-units n
    (_micro_units) in blocks of rows, which is np.round(v, 6).

    n and 1e6 are exact, so n / 1e6 is the correctly rounded quotient that
    parsing the text gives. The values _micro_units calls slow take the
    formatter and parser.
    """
    values = np.asarray(values, dtype=np.float64)
    out = np.empty_like(values)
    for lo in range(0, len(values), _BLOCK_LINES):
        x = values[lo:lo + _BLOCK_LINES]
        n, slow = _micro_units(x)
        block = out[lo:lo + _BLOCK_LINES]
        block[:] = n / 1e6
        if slow.any():
            block[slow] = [float("%.6f" % v) for v in x[slow].tolist()]
    return out
