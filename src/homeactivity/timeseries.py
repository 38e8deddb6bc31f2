"""Inertial time-series containers, gap repair, low-pass filtering, windowing.

Series are stored as numpy arrays on a millisecond epoch clock, sampled
every DEFAULT_PERIOD_MS where no sample is missing: a log carries no rate.
All operations are pure: they return new objects and never mutate inputs.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
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
    """Digital Butterworth low-pass parameters for the one sample rate."""

    order: int = DEFAULT_ORDER
    cutoff_hz: float = DEFAULT_CUTOFF_HZ

    def design(self) -> tuple[np.ndarray, np.ndarray]:
        """Coefficients (b, a) for samples DEFAULT_PERIOD_MS apart, refused unless the cutoff
        is below Nyquist and each pole inside the unit circle (exact Schur-Cohn on a)."""
        if self.order < 1:
            raise ValueError(f"invalid order: {self.order}")
        rate = 1000 / DEFAULT_PERIOD_MS
        if not (0 < self.cutoff_hz < rate / 2):
            raise ValueError(
                f"invalid cutoff: {self.cutoff_hz} Hz must lie in (0, {rate / 2}) Hz"
            )
        b, a = butter(self.order, self.cutoff_hz / (rate / 2))
        step = [Fraction(v) for v in a.tolist()]
        while len(step) > 1 and abs(step[-1]) < abs(step[0]):
            step = [x - step[-1] / step[0] * y for x, y in zip(step[:-1], step[:0:-1])]
        if len(step) > 1:
            raise ValueError(f"order {self.order} at cutoff {self.cutoff_hz} Hz puts a "
                             "pole of the filter on or outside the unit circle")
        return b, a

    @cached_property
    def blocks(self) -> _BlockLowpass:
        """The designed filter as lowpass_for_log runs it, built once per spec."""
        return _BlockLowpass(*self.design())


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
    ts: np.ndarray
    values: np.ndarray

    def __post_init__(self):
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


@dataclass(frozen=True, eq=False)
class WindowBatch(_Channels):
    """Window i covers [start_ts[i], end_ts[i]) with samples values[i], a
    (window_len, 3 or 6) read-only view of a gapless series."""

    start_ts: np.ndarray
    end_ts: np.ndarray
    values: np.ndarray

    def __len__(self) -> int:
        return int(self.start_ts.size)

    def spans(self) -> list[tuple[int, int]]:
        return list(zip(self.start_ts.tolist(), self.end_ts.tolist()))


def interpolate_gaps(
    series: SampleSeries, max_gap_ms: int = DEFAULT_MAX_GAP_MS
) -> SampleSeries:
    """Fill sampling gaps by per-axis linear interpolation on the nominal grid.

    Consecutive samples further apart than max_gap_ms stay a timestamp
    jump: no synthetic points are fabricated inside such gaps. Each
    stretch between jumps is resampled on its own grid, from its first
    timestamp with step DEFAULT_PERIOD_MS, and becomes one gapless
    stretch of the result (split_on_gaps); off-grid trailing samples that
    no grid point lands on are dropped.
    """
    check_max_gap_ms(max_gap_ms)
    ts = series.ts
    # ts increases, so its steps are exact as uint64 where int64 would wrap
    breaks = np.flatnonzero(np.diff(ts.view(np.uint64)) > max_gap_ms) + 1
    bounds = np.concatenate(([0], breaks, [ts.size]))
    sizes = (ts[bounds[1:] - 1] - ts[bounds[:-1]]) // DEFAULT_PERIOD_MS + 1
    at = np.concatenate(([0], np.cumsum(sizes)))
    stretches = list(zip(bounds[:-1], bounds[1:], at[:-1], at[1:]))
    grid = np.empty(at[-1], dtype=np.int64)
    for lo, _, start, end in stretches:
        grid[start:end] = ts[lo] + DEFAULT_PERIOD_MS * np.arange(end - start, dtype=np.int64)
    # One axis at a time, then stacked: filling the matrix in place raised
    # the 1-day run's peak RSS by up to 3 MB on some seeds (glibc heap).
    columns = []
    for channel in series.values.T:
        column = np.empty(at[-1])
        for lo, hi, start, end in stretches:
            column[start:end] = np.interp(grid[start:end], ts[lo:hi], channel[lo:hi])
        columns.append(column)
    return replace(series, ts=grid, values=np.column_stack(columns))


def check_max_gap_ms(max_gap_ms: int) -> None:
    """Repair bridges at least one period: every other step is a gap."""
    if max_gap_ms < DEFAULT_PERIOD_MS:
        raise ValueError(f"max_gap_ms must be at least the sample period, "
                         f"{DEFAULT_PERIOD_MS} ms, got {max_gap_ms}")


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
    is the same bits as scipy.signal.lfilter(b, a, x, zi=zi)[0]. The
    pipeline runs it only where lowpass_for_log's block products cannot.
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

    The filter is designed for the one sample rate by bilinear
    transform (FilterSpec.design) and run forward-only (lfilter) over
    each gapless stretch (split_on_gaps). Initial conditions are set to
    the step steady state of the stretch's first sample, so a constant
    signal passes through unchanged from sample zero. Timestamps are
    preserved. This is the reference that lowpass_for_log is held to.
    """
    b, a = spec.design()
    zi = lfilter_zi(b, a)
    out = np.empty_like(series.values)
    for lo, hi in _stretches(series.ts):
        for k, channel in enumerate(series.values[lo:hi].T):
            out[lo:hi, k] = lfilter(b, a, channel, zi * channel[0])
    return replace(series, values=out)


def lowpass_for_log(series: SampleSeries, spec: FilterSpec) -> SampleSeries:
    """butterworth_lowpass(series, spec) as it is logged (logged).

    Each value has the micro-units and slow flag (_micro_units) of
    butterworth_lowpass's, and a slow value is that value, so both log
    the same bytes; the values may differ from lfilter's in their last
    bits. Each channel of each gapless stretch runs as block products
    (spec.blocks) in chunks of _CHUNK samples; lfilter reruns it up to a
    value they cannot certify, and runs alone where the bound certifies
    nothing or over a stretch shorter than a block.
    """
    blocks = spec.blocks
    out = np.empty_like(series.values)
    for lo, hi in _stretches(series.ts):
        for k, channel in enumerate(series.values[lo:hi].T):
            z = blocks.zi * channel[0]
            last = hi - lo - 1 if hi - lo < _BLOCK else blocks.run(channel, z, out[lo:hi, k])
            if last >= 0:
                out[lo:lo + last + 1, k] = lfilter(blocks.b, blocks.a, channel[:last + 1], z)
    return replace(series, values=out)


# Samples per block product, and per chunk of blocks of lowpass_for_log.
_BLOCK = 64
_CHUNK = 256 * _BLOCK


class _BlockLowpass:
    """The filter (b, a), a[0] == 1, of order N and step steady state zi
    (lfilter_zi), run as products over blocks of B = _BLOCK samples, with
    the bound ε on how far they may lie from lfilter's values.

    The blocks. After sample k, lfilter's delays are z_k = A·z_{k-1} + v·x_k
    and its output is y_k = c·z_{k-1} + b0·x_k: A is the companion matrix
    of a, v = b[1:] - a[1:]·b0 and c picks delay 0. A block that starts in
    state s gives y_j = O_j·s + Σ_{i<=j} h_{j-i}·x_i at its sample j, and
    ends in state P·s + G·x: h is the impulse response (h_0 = b0,
    h_m = c·A^(m-1)·v), O_j = c·A^j, column i of G is A^(B-1-i)·v, and
    P = A^B. These are computed over the integers, exactly, and each entry
    is rounded once to float64. The products run in float64, the state
    carried from block to block in Python floats.

    The bound, with u = 2^-53, γ_n = n·u/(1 - n·u), M = max|x| and the
    absolute row sums ρ_n of P, ρ = max ρ_n. It needs ρ < 1: then
    A^(tB+j) = A^j·P^t, and each infinite sum below is its first block's
    terms plus a geometric tail. Let
      H = Σ_m |h_m| and H_B = Σ_{m<B} |h_m|, the gain from x to y;
      Γ_n = Σ_{k<B} |(A^k·v)_n| and Γ*_n = Σ_k |(A^k·v)_n|, to delay n;
      Ω = max_j ‖O_j‖_1, the largest gain from a state to y;
      R = Σ_m |r_m|, r the impulse response of 1/a.
    Both outputs are measured from the exact filter that starts from
    x_0·z*, z* the exact steady state: the delays after an endless run of
    x_0. That filter keeps |y| <= Y = H·M and each |z_n| <= S_n = Γ*_n·M.
    Both runs start from the float state zi·x_0 instead, which lies within
    δ = M·max|zi - z*| + u·max|zi·x_0| of x_0·z*; that moves an output by
    at most Ω·δ. Each float operation errs by at most u times its exact
    result, or by 2^-1075 below the normal range: ε adds 2^-1000 for
    those, more than any value gathers.
    - lfilter. Sample k errs on y by at most u·(|b0|M + Y), and on delay n
      by u·(2|b_{n+1}|M + S_{n+1} + |a_{n+1}|Y + S_n), with S_N = 0. An
      error on delay n reaches y n + 1 samples later and then runs through
      1/a, so lfilter errs by at most
      E_l = Ω·δ + u·R·(|b0|M + Y + Σ_n (2|b_{n+1}|M + S_{n+1} + |a_{n+1}|Y + S_n)).
    - Blocks. A sum of n products errs by at most γ_n times the sum of
      their magnitudes, and each rounded entry by u times itself. The
      carried state errs by d with d <= |P|·d + l after each block, where
      l_n = (γ_B + u)·Γ_n·M + γ_{N+1}·((|P|·S)_n + Γ_n·M) + u·(|P|·S)_n,
      so d_n <= D_n = l_n + ρ_n·max(l)/(1 - ρ). So the blocks err by at most
      E_b = Ω·δ + (γ_B + u)·H_B·M + max_j Σ_n |O_jn|·((γ_N + u)·S_n + D_n) + u·Y.
    - The writer rounds p = fl(v·1e6), which errs by u·|p| for each value.
    So lfilter's p and the blocks' p lie within 1e6·ε of each other, where
      ε = 1.01·(E_l + E_b + 2u·(Y + E_l + E_b)).
    Terms of second order in u are left out: each is a first-order term
    times a factor below κ, the bound ε for M = 1 and zi·x_0 = 1, which
    must be at most 2^-30. The factor 1.01 covers them and the float
    evaluation of ε.

    The check (run). A value with p̃ = fl(ỹ·1e6) further than 1e6·ε from
    every half-integer has lfilter's p on the same side of each, so the
    same rint and no tie; and a value with |ỹ| > ε has the sign of
    lfilter's. Every other value is doubtful. ε < 0.5e-6, without which no
    value is certain, implies Y < 2^52/1e6, so no certified value is slow.
    """

    def __init__(self, b: np.ndarray, a: np.ndarray):
        self.b, self.a, self.zi = b, a, lfilter_zi(b, a)
        n = a.size - 1
        o, av, p, dz = _companion_steps(b, a, self.zi)
        self.carry = p.tolist()
        row_sums = np.abs(p).sum(axis=1)
        rho = float(row_sums.max())
        self.per_x = self.per_z = math.inf  # ε per unit of M and of max|zi·x_0|
        if not rho < 1:
            return
        u = 2.0**-53
        gamma_b, gamma_n, gamma_n1 = (k * u / (1 - k * u) for k in (_BLOCK, n, n + 1))
        tail = row_sums / (1 - rho)  # per unit ‖A^j·w‖ summed over the first block
        gamma = np.abs(av).sum(axis=0)
        s = gamma + tail * float(np.abs(av).max(axis=1).sum())  # Γ*
        h = np.r_[b[0], av[:, 0]]
        h_b = float(np.abs(h[:_BLOCK]).sum())
        self.toeplitz_t = np.zeros((_BLOCK, _BLOCK))  # T transposed
        for j in range(_BLOCK):
            self.toeplitz_t[:j + 1, j] = h[j::-1]
        self.gain_t = av[::-1].copy()  # G transposed
        self.state_t = o.T.copy()
        o = np.abs(o)
        omega = float(o.sum(axis=1).max())
        h_all = abs(float(b[0])) + float(s[0])
        r_all = float(o[:, 0].sum()) + float(o.sum()) * rho / (1 - rho)
        ab, aa = np.abs(b).tolist(), np.abs(a).tolist()
        sn = [*s.tolist(), 0.0]
        e_l = u * r_all * (ab[0] + h_all + sum(
            2 * ab[i + 1] + sn[i + 1] + aa[i + 1] * h_all + sn[i] for i in range(n)))
        ps = np.abs(p) @ s
        local = (gamma_b + u) * gamma + gamma_n1 * (ps + gamma) + u * ps
        d = local + row_sums * float(local.max()) / (1 - rho)
        e_b = ((gamma_b + u) * h_b + float((o @ ((gamma_n + u) * s + d)).max())
               + u * h_all)
        self.per_x = 1.01 * (e_l + e_b + 2 * omega * dz
                             + 2 * u * (h_all + e_l + e_b + 2 * omega * dz))
        self.per_z = 1.01 * 2 * omega * u * (1 + 2 * u)
        if self.per_x + self.per_z > 2.0**-30:
            self.per_x = math.inf

    def run(self, x: np.ndarray, z: np.ndarray, out: np.ndarray) -> int:
        """Write the blocks' filter of x from state z into out, and return
        the index of its last doubtful value, or -1; where ε certifies
        nothing, return the last index without computing a product."""
        x_max = max(float(x.max()), -float(x.min()))
        eps = self.per_x * x_max + self.per_z * float(np.abs(z).max()) + 2.0**-1000
        if not 1e6 * eps < 0.5:
            return x.size - 1
        micro_eps = 1e6 * eps
        last, s = -1, z.tolist()
        for lo in range(0, x.size, _CHUNK):
            piece = x[lo:lo + _CHUNK]
            blocks = np.zeros((-(-piece.size // _BLOCK), _BLOCK))
            blocks.ravel()[:piece.size] = piece
            starts, s = self._starts(s, (blocks @ self.gain_t).tolist())
            y = blocks @ self.toeplitz_t
            y += np.array(starts) @ self.state_t
            y = y.ravel()[:piece.size]
            p = y * 1e6
            off = np.abs(p - np.rint(p))
            doubtful = (off + micro_eps >= 0.5) | (np.abs(y) <= eps)
            if doubtful.any():
                last = lo + int(np.flatnonzero(doubtful)[-1])
            out[lo:lo + piece.size] = y
        return last

    def _starts(self, s: list, increments: list) -> tuple[list, list]:
        """The state at each block's start, from s and each block's
        increment q: the next block starts in P·s + q."""
        starts = []
        for q in increments:
            starts.append(s)
            s = [sum(map(operator.mul, row, s), qi) for row, qi in zip(self.carry, q)]
        return starts, s


def _companion_steps(b: np.ndarray, a: np.ndarray, zi: np.ndarray):
    """The exact powers of the filter's companion matrix A that
    _BlockLowpass needs, each entry rounded once to float64: O (B, N),
    row j c·A^j; Av (B, N), row k A^k·v; and P = A^B; then max|zi - z*|
    for the float steady state zi, z* the exact one.

    The coefficients are dyadic, so with 2^e their largest denominator,
    2^e·A, 2^e·a and 2^e·b are integer: the k-th power of A is exact
    over the integers at scale 2^(k·e), and an int / int quotient is
    correctly rounded.
    """
    n = a.size - 1
    ratios = [v.as_integer_ratio() for v in [*b.tolist(), *a.tolist()]]
    e = max(q.bit_length() - 1 for _, q in ratios)
    bi, ai = ([p * (1 << e) // q for p, q in ratios[k:k + n + 1]] for k in (0, n + 1))

    def step(w):  # A·w, one more factor 2^e
        return [(w[i + 1] << e if i + 1 < n else 0) - ai[i + 1] * w[0] for i in range(n)]

    units = [[int(i == c) for i in range(n)] for c in range(n)]
    v = [(bi[i + 1] << e) - ai[i + 1] * bi[0] for i in range(n)]  # at scale 2^(2e)
    rows, av = [], []
    for k in range(_BLOCK):
        rows.append([w[0] / (1 << (k * e)) for w in units])
        av.append([w / (1 << ((k + 2) * e)) for w in v])
        units, v = [step(w) for w in units], step(v)
    scale = 1 << (_BLOCK * e)

    # z*_i = Σ_{m>i} (b_m - a_m·y*), y* = Σb / Σa, over the denominator 2^e·Σa
    den = (1 << e) * sum(ai)
    exact = [sum(bi[i + 1:]) * sum(ai) - sum(ai[i + 1:]) * sum(bi) for i in range(n)]
    dzi = max(abs(p * den - x * q) / abs(q * den)
              for (p, q), x in zip(map(float.as_integer_ratio, zi.tolist()), exact))
    p = [[w[i] / scale for w in units] for i in range(n)]
    return np.array(rows), np.array(av), np.array(p), dzi


def window_hop(window_len: int, overlap_frac: float) -> int:
    """Samples from one window's start to the next's; refuses a window
    below one sample and an overlap outside [0, 1)."""
    if window_len < 1:
        raise ValueError(f"window_len must be positive, got {window_len}")
    if not (0 <= overlap_frac < 1):
        raise ValueError(f"overlap_frac must lie in [0, 1), got {overlap_frac}")
    return max(1, round(window_len * (1 - overlap_frac)))


def segment(
    series: SampleSeries,
    window_len: int = DEFAULT_WINDOW_LEN,
    overlap_frac: float = DEFAULT_OVERLAP,
) -> WindowBatch:
    """Slice a series into fixed-length windows, never across a gap.

    Each gapless stretch of the series (split_on_gaps) of n samples gives
    floor((n - window_len) / hop) + 1 windows (hop: window_hop); a
    trailing remainder shorter than window_len is dropped, and a stretch
    shorter than one window gives none. A window that would end past
    2^63 - 1 ms raises SampleError.
    """
    hop = window_hop(window_len, overlap_frac)
    pieces = split_on_gaps(series)
    first_rows, lo = [], 0
    for piece in pieces:
        first_rows.append(np.arange(lo, lo + len(piece) - window_len + 1, hop))
        lo += len(piece)
    rows = np.concatenate(first_rows)  # the first sample of each window
    last = rows + window_len - 1
    if rows.size and series.ts[last[-1]] > np.iinfo(np.int64).max - DEFAULT_PERIOD_MS:
        end = int(series.ts[last[-1]]) + DEFAULT_PERIOD_MS
        raise SampleError(f"window end {end} lies outside the int64 range",
                          end - DEFAULT_PERIOD_MS)
    # one piece: a strided slice keeps the stacks views of the series
    take = slice(0, rows.size * hop, hop) if len(pieces) == 1 else rows
    if rows.size:
        view = np.lib.stride_tricks.sliding_window_view(series.values, window_len, axis=0)
        values = view.transpose(0, 2, 1)[take]
    else:
        values = np.empty((0, window_len, series.values.shape[1]))
    return WindowBatch(series.ts[rows], series.ts[last] + DEFAULT_PERIOD_MS, values)


def join(pieces) -> SampleSeries:
    """The pieces, of one subject, as one series in order; a single piece
    is that series, not a copy of it."""
    if len(pieces) == 1:
        return pieces[0]
    return replace(pieces[0], ts=np.concatenate([p.ts for p in pieces]),
                   values=np.concatenate([p.values for p in pieces]))


def _stretches(ts: np.ndarray) -> list[tuple[int, int]]:
    """(lo, hi) of each gapless stretch ts[lo:hi]: a gap is any step that
    is not DEFAULT_PERIOD_MS."""
    breaks = (np.flatnonzero(np.diff(ts) != DEFAULT_PERIOD_MS) + 1).tolist()
    return list(zip([0, *breaks], [*breaks, ts.size]))


def split_on_gaps(series: SampleSeries) -> list[SampleSeries]:
    """The gapless stretches of the series (_stretches), in order."""
    return [replace(series, ts=series.ts[lo:hi], values=series.values[lo:hi])
            for lo, hi in _stretches(series.ts)]


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
    return [SampleSeries(subject, np.array(stamps, dtype=np.int64),
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
        return [SampleSeries(subject, table["ts"].copy(), table["v"].copy())]
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


def check_subject_id(subject_id: str) -> None:
    """Refuse a subject id that would not read back unchanged from a log."""
    if any(c in subject_id for c in ",\r\n") or subject_id[:1].isspace():
        raise SeriesError(f"subject id {subject_id!r} cannot be logged: it holds a "
                          "comma or a line break, or starts with whitespace")
    if any("\ud800" <= c <= "\udfff" for c in subject_id):  # as from an argv byte not UTF-8
        raise SeriesError(f"subject id {subject_id!r} cannot be logged: UTF-8 cannot encode it")


def write_inertial(path: str | Path, series: SampleSeries) -> SampleSeries:
    """Write one series as log lines, in blocks, and return it as logged.

    The bytes are those of the `%d` and `%.6f` template, line by line.
    Text and values both come from each block's micro-units n
    (_micro_units): the text is n's digits (_format_block), or the
    template's for a block with a slow value or a negative timestamp,
    and the values are _read_back's. A subject id that would not read
    back unchanged is refused (check_subject_id).
    """
    check_subject_id(series.subject_id)
    prefix = (series.subject_id + ",,").encode("utf-8")
    line = (series.subject_id.replace("%", "%%") + ",,%d"
            + ",%.6f" * series.values.shape[1] + ";\n")
    back = np.empty_like(series.values)
    with open(path, "wb") as fh:
        for lo in range(0, len(series), _BLOCK_LINES):
            ts, values = series.ts[lo:lo + _BLOCK_LINES], series.values[lo:lo + _BLOCK_LINES]
            n, slow = _micro_units(values)
            if slow.any() or ts[0] < 0:  # ts increases: ts[0] is its least
                columns = [ts.tolist(), *values.T.tolist()]
                fh.write("".join([line % row for row in zip(*columns)]).encode("utf-8"))
            else:
                fh.write(_format_block(prefix, ts, n))
            back[lo:lo + _BLOCK_LINES] = _read_back(values, n, slow)
    return replace(series, values=back)


def logged(series: SampleSeries) -> SampleSeries:
    """The series as write_inertial logs it and load_inertial reads it back."""
    return replace(series, values=_read_back(series.values, *_micro_units(series.values)))


def _read_back(values: np.ndarray, n: np.ndarray, slow: np.ndarray) -> np.ndarray:
    """float("%.6f" % v) of each value, bit for bit, from its micro-units n
    and slow flag (_micro_units): n / 1e6, the correctly rounded quotient
    of two exact numbers, as the text parses. A slow value below 2^53/1e6
    is parsed from its text; from there up it is itself (0.5e-6 < ulp/2)."""
    back = n / 1e6
    back[slow] = [v if abs(v) >= _MICRO_EXACT else float("%.6f" % v) for v in values[slow].tolist()]
    return back


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


def _format_block(prefix: bytes, ts: np.ndarray, n: np.ndarray) -> bytes:
    """The log lines of one block from the micro-units n of its values,
    none slow (_micro_units), at timestamps ts >= 0. Their digits fill a
    (width, lines) byte matrix, one row per character position, with a
    leading zero or an absent sign set to _GONE, which the compacting of
    the block deletes. n carries each value's sign, -0.0 included."""
    lines, k = n.shape
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
    cells[:, 1] = np.where(np.signbit(n).T, ord("-"), _GONE)
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
