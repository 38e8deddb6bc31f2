"""Scripted synthetic household: inertial streams, ambient events, truth.

Motion generators are deliberately crude but well separated in feature
space; they exist to give every pipeline stage a ground-truth oracle,
not to imitate human biomechanics. All randomness flows from the
NoiseSpec seed, so identical inputs reproduce identical bytes.
Calibration runs calibrate_centroids in a forked child process. The
classes it scripts and calibrates are fusion.CLASSIFIER_CLASSES.
"""

from __future__ import annotations

import os
import pickle
import select
import signal
import threading
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import NoReturn

import numpy as np

from . import fusion, tables
from .ambient import APPLIANCES, ROOMS, AmbientEvent
from .features import extract_all, layout_for
from .fusion import CLASSIFIER_CLASSES, DEFAULT_TICK_MS, FusionRuleTable
from .neural import CentroidModel
from .timeseries import (
    DEFAULT_OVERLAP,
    DEFAULT_PERIOD_MS,
    DEFAULT_WINDOW_LEN,
    FilterSpec,
    SampleSeries,
    WindowBatch,
    interpolate_gaps,
    join,
    logged,
    lowpass_for_log,
    segment,
    window_hop,
)

GRAVITY = 9.81
MS_PER_DAY = 86_400_000
SCRIPT_COLUMNS = ("clock_start", "duration_s", "room", "basic", "appliances")


class ScriptError(ValueError):
    """Raised for malformed schedule scripts."""


@dataclass(frozen=True)
class NoiseSpec:
    """Per-axis Gaussian noise plus uniform sample dropout."""

    gaussian_sigma: tuple[float, float, float] = (0.0, 0.0, 0.0)
    dropout_prob: float = 0.0
    seed: int = 0

    def __post_init__(self):
        sigma = self.gaussian_sigma
        if np.isscalar(sigma):
            sigma = (float(sigma),) * 3
        sigma = tuple(float(s) for s in sigma)
        object.__setattr__(self, "gaussian_sigma", sigma)
        if len(sigma) != 3 or not all(0 <= s < np.inf for s in sigma):
            raise ValueError(f"gaussian_sigma must be three finite values >= 0, got {sigma}")
        if not (0 <= self.dropout_prob < 1):
            raise ValueError(f"dropout_prob must lie in [0, 1), got {self.dropout_prob}")
        if self.seed < 0:
            raise ValueError(f"seed must not be negative, got {self.seed}")


QUIET = NoiseSpec()


@dataclass(frozen=True)
class ScheduleEntry:
    """One scripted block: clock offset from midnight, activity, context."""

    clock_start_ms: int
    duration_ms: int
    room: str
    basic: str
    appliances: frozenset[str] = frozenset()

    def __post_init__(self):
        if not (0 <= self.clock_start_ms < MS_PER_DAY):
            raise ScriptError(f"clock_start {self.clock_start_ms} outside one day")
        if self.duration_ms <= 0:
            raise ScriptError(f"duration must be positive, got {self.duration_ms}")
        if self.room not in ROOMS:
            raise ScriptError(f"unknown room {self.room!r}")
        if self.basic not in CLASSIFIER_CLASSES:
            if self.basic == "Sleep":
                raise ScriptError("Sleep is derived from Lie; script Lie instead")
            raise ScriptError(f"unknown basic activity {self.basic!r}")
        for name in self.appliances:
            if name not in APPLIANCES:
                raise ScriptError(f"unknown appliance {name!r}")

    @property
    def clock_end_ms(self) -> int:
        return self.clock_start_ms + self.duration_ms


def _parse_clock_ms(text: str) -> int:
    parts = text.strip().split(":")
    if len(parts) not in (2, 3) or not all(p.isdigit() for p in parts):
        raise ScriptError(f"bad clock time {text!r}")
    h, m = int(parts[0]), int(parts[1])
    s = int(parts[2]) if len(parts) == 3 else 0
    if h > 23 or m > 59 or s > 59:
        raise ScriptError(f"bad clock time {text!r}")
    return ((h * 60 + m) * 60 + s) * 1000


def load_script(path: str | Path) -> list[ScheduleEntry]:
    entries = []

    def add(clock_start, duration_s, room, basic, appliances):
        entry = ScheduleEntry(
            clock_start_ms=_parse_clock_ms(clock_start),
            duration_ms=int(duration_s) * 1000,
            room=room.strip(),
            basic=basic.strip(),
            appliances=frozenset(a.strip() for a in appliances.split("|") if a.strip()),
        )
        if entries and entry.clock_start_ms < entries[-1].clock_end_ms:
            raise ScriptError(f"entries overlap at clock offset {entry.clock_start_ms} ms")
        entries.append(entry)

    tables.read_table(path, SCRIPT_COLUMNS, add, ScriptError)
    if not entries:
        raise ScriptError(f"{path}: line 2: script has no entries")
    return entries


def write_script(path: str | Path, script) -> None:
    rows = []
    for e in script:
        total_s = e.clock_start_ms // 1000
        clock = f"{total_s // 3600:02d}:{total_s % 3600 // 60:02d}:{total_s % 60:02d}"
        rows.append(
            [clock, e.duration_ms // 1000, e.room, e.basic, "|".join(sorted(e.appliances))]
        )
    tables.write_table(path, SCRIPT_COLUMNS, rows)


def sawtooth(phase: np.ndarray) -> np.ndarray:
    """Ramp rising from -1 to 1 over each 2*pi of phase (scipy.signal.sawtooth)."""
    return np.mod(phase, 2 * np.pi) / np.pi - 1


def _motion_signal(basic: str, t: np.ndarray) -> np.ndarray:
    """Noise-free (n, 3) acceleration for one activity; t in seconds."""
    n = t.size
    if basic == "Stand":
        return np.tile([0.0, GRAVITY, 0.5], (n, 1))
    if basic == "Sit":
        return np.tile([0.0, 6.9, 6.9], (n, 1))
    if basic == "Lie":
        return np.tile([GRAVITY, 0.3, 0.3], (n, 1))
    if basic in ("Walk", "Jog", "StairUp", "StairDown"):
        if basic == "Jog":
            y_amp, y_hz, x_amp, x_hz = 6.0, 3.0, 1.2, 1.5
        else:
            y_amp, y_hz, x_amp, x_hz = 3.0, 2.0, 0.8, 1.0
        x = x_amp * np.sin(2 * np.pi * x_hz * t)
        y = GRAVITY + y_amp * np.sin(2 * np.pi * y_hz * t)
        z = np.full(n, 0.5)
        # Ramp period (1.6 s) divides the window hop so every window sees
        # the same phase and the per-window peak count never collapses.
        if basic in ("StairUp", "StairDown"):
            ramp = sawtooth(2 * np.pi * 0.625 * t)
            z = z + 1.5 + ramp if basic == "StairUp" else z - 1.5 + ramp
        return np.column_stack([x, y, z])
    raise ValueError(f"no motion generator for {basic!r}")


def synth_motion(
    basic: str,
    duration_ms: int,
    noise: NoiseSpec = QUIET,
    start_ts: int = 0,
    subject_id: str = "sim",
    rng: np.random.Generator | None = None,
) -> SampleSeries:
    """One activity block of duration_ms // DEFAULT_PERIOD_MS >= 1 samples, one every
    DEFAULT_PERIOD_MS; dropout may delete any sample but the first."""
    if rng is None:
        rng = np.random.default_rng(noise.seed)
    n = duration_ms // DEFAULT_PERIOD_MS
    ts = start_ts + DEFAULT_PERIOD_MS * np.arange(n, dtype=np.int64)
    t = (ts - start_ts) / 1000.0
    xyz = _motion_signal(basic, t)
    sigma = np.asarray(noise.gaussian_sigma)
    if sigma.any():
        xyz = xyz + rng.normal(0.0, 1.0, size=xyz.shape) * sigma
    if noise.dropout_prob > 0:
        keep = rng.random(n) >= noise.dropout_prob
        keep[0] = True  # anchor the grid
        ts, xyz = ts[keep], xyz[keep]
    return SampleSeries(subject_id, ts, xyz)


@dataclass(frozen=True, eq=False)
class DayData:
    """Everything one simulated day produces, plus its ground truth."""

    series: SampleSeries
    events: list[AmbientEvent]
    derived_runs: list[tuple[int, int, fusion.DerivedActivity]]
    tick_ms: int

    @property
    def derived_ticks(self) -> list[tuple[int, fusion.DerivedActivity]]:
        return fusion.ticks_of(self.derived_runs, self.tick_ms)


def _context_edges(ts: int, old, new) -> list[AmbientEvent]:
    """The PIR and appliance edges at ts of a move between two contexts,
    each (room, appliances) with room None when nobody is in. The
    water_bottle is a force pad; every other appliance is a relay."""
    (room, appliances), (new_room, new_appliances) = old, new
    edges = []
    if new_room != room:
        edges += [AmbientEvent(ts, "pir", r, on)
                  for r, on in ((room, False), (new_room, True)) if r is not None]
    for name in sorted(appliances ^ new_appliances):
        kind = "force" if name == "water_bottle" else "relay"
        edges.append(AmbientEvent(ts, kind, name, name in new_appliances))
    return edges


def generate_day(
    script,
    noise: NoiseSpec,
    rules: FusionRuleTable,
    day_start_ms: int = 0,
    tick_ms: int = DEFAULT_TICK_MS,
    subject_id: str = "sim",
) -> DayData:
    """Run one scripted day.

    day_start_ms is the epoch timestamp of local midnight; entry clock
    offsets are added to it. PIR edges fire on room changes (the first
    entry opens, the last closes), appliance edges on active-set changes,
    and the ground truth is fused as `fuse` fuses it (fusion.fuse_runs),
    each block a tick run from its start in its own context. The script
    is load_script's (entries in order, none overlapping) and tick_ms >= 1.
    """
    rng = np.random.default_rng([noise.seed, day_start_ms % (2**31)])

    pieces = []
    events: list[AmbientEvent] = []
    basic_runs, starts, contexts = [], [], []

    nobody = (None, frozenset())
    context, prev_end = nobody, None
    for entry in script:
        start = day_start_ms + entry.clock_start_ms
        end = day_start_ms + entry.clock_end_ms
        if prev_end is not None and start > prev_end:
            # Script gap: close out the previous context entirely.
            events += _context_edges(prev_end, context, nobody)
            context = nobody
        here = (entry.room, entry.appliances)
        events += _context_edges(start, context, here)

        pieces.append(
            synth_motion(
                entry.basic,
                entry.duration_ms,
                noise=noise,
                start_ts=start,
                subject_id=subject_id,
                rng=rng,
            )
        )
        basic_runs.append((start, fusion.next_tick(end, start, tick_ms), entry.basic))
        starts.append(start)
        contexts.append(here)
        context, prev_end = here, end

    events += _context_edges(prev_end, context, nobody)
    events.sort()

    derived_runs = fusion.fuse_runs(basic_runs, starts, contexts, rules, tick_ms=tick_ms)
    return DayData(join(pieces), events, derived_runs, tick_ms)


@np.errstate(all="ignore")  # a fit that overflows is refused below
def calibrate_centroids(
    noise: NoiseSpec,
    filter_spec: FilterSpec = FilterSpec(),
    window_len: int = DEFAULT_WINDOW_LEN,
    overlap_frac: float = DEFAULT_OVERLAP,
) -> CentroidModel:
    """Average per-class features from matched-noise synthetic motion.

    Each run goes through the functions that make the windows classify
    sees (logged, repair, lowpass_for_log, logged, segment, extract) so
    noise-induced feature bias cancels instead of shifting the centroids.
    Each class's own run gives 200 windows after its first two, which
    are discarded as filter warm-up.

    Alongside the centroids this fits a per-feature distance scale: the
    within-class feature std pooled over classes, floored at 1% of the
    centroid spread so noiseless features cannot blow up the distance.
    Features that separate no classes and carry no variance get scale 1.

    Each class pool also includes the first windows after a switch from
    every other activity. The causal filter keeps settling into those
    windows, so folding them in widens the scale of settle-sensitive
    features (the stds) and boundary windows stay classified by the
    features a transient cannot fake (means, peak spacing, bins).
    """
    per_class, skip = 200, 2
    hop = window_hop(window_len, overlap_frac)
    n_samples = (per_class + skip - 1) * hop + window_len
    # Lead length is a whole number of hops so the switch lands on a
    # window start, as scripted transitions do on the tick grid.
    lead_n = hop * max(2, -(-window_len // hop))
    feats_by_class = []
    for idx, basic in enumerate(CLASSIFIER_CLASSES):
        rng = np.random.default_rng([noise.seed, 7_000_001 + idx])
        runs = [synth_motion(basic, n_samples * DEFAULT_PERIOD_MS, noise=noise, rng=rng)]
        boundary_ts = lead_n * DEFAULT_PERIOD_MS
        for prev in CLASSIFIER_CLASSES:
            if prev == basic:
                continue
            head = synth_motion(prev, boundary_ts, noise=noise, rng=rng)
            tail = synth_motion(basic, (hop + window_len) * DEFAULT_PERIOD_MS, noise=noise,
                                start_ts=boundary_ts, rng=rng)
            runs.append(join([head, tail]))
        kept = []  # (start_ts, end_ts, values) of the windows each run keeps
        for run_idx, run in enumerate(runs):
            filtered = lowpass_for_log(interpolate_gaps(logged(run)), filter_spec)
            batch = segment(logged(filtered), window_len, overlap_frac)
            keep = (slice(skip, None) if run_idx == 0
                    else np.flatnonzero(batch.start_ts >= boundary_ts)[:2])
            kept.append((batch.start_ts[keep], batch.end_ts[keep], batch.values[keep]))
        # extract_all's rows are independent: one call gives each row's bits
        matrix, _ = extract_all(WindowBatch(*map(np.concatenate, zip(*kept))))
        feats_by_class.append(matrix)
        if not np.isfinite(matrix).all():
            break  # its centroid is not finite: refused below, without the classes left
    centroids = np.vstack([f.mean(axis=0) for f in feats_by_class])
    pooled = np.sqrt(np.mean([f.var(axis=0) for f in feats_by_class], axis=0))
    spread = centroids.max(axis=0) - centroids.min(axis=0)
    scale = np.maximum(pooled, 0.01 * spread)
    scale[scale == 0] = 1.0
    if not (np.isfinite(centroids).all() and np.isfinite(scale).all()):
        raise ValueError(f"sigma {noise.gaussian_sigma}: calibration features overflow float64")
    return CentroidModel(
        class_names=CLASSIFIER_CLASSES,
        centroids=centroids,
        layout=layout_for(False),
        scale=scale,
    )


class Calibration:
    """calibrate_centroids(*args), begun in a forked child where
    os.fork exists, so that it runs beside the stages before classify;
    where it does not, join() runs it in process.

    The fork comes before any stage opens a file. The parent's only other
    thread is OpenBLAS's pool, which shuts itself down across a fork
    (pthread_atfork). The child sends its outcome back through a pipe and
    leaves through os._exit, so it runs no exit handler and flushes none
    of the parent's buffers. join() returns the model; it raises a
    ValueError or OSError of the child's as a ValueError with its message,
    and any other exception as a RuntimeError holding the child's
    traceback. close() kills and reaps a child that was not joined; a
    `with` block calls it on leaving, and first joins a calibration not
    yet joined if a ValueError or OSError ends it, so that a refused
    calibration raises its own error instead, forked or in process.
    SIGTERM unwinds no `with` block, so while the child lives, a parent
    on its main thread whose SIGTERM has its default action kills and
    reaps the child on that signal, then dies of it as before.
    """

    def __init__(self, *args):
        self.args, self.pid, self.guarded, self.joined, self.model = args, None, False, False, None
        if hasattr(os, "fork"):
            import numpy.random  # noqa: F401  imported once here, not again in the child

            read, write = os.pipe()
            self.pid = os.fork()
            if self.pid == 0:
                os.close(read)
                _calibrate_into(write, args)
            os.close(write)
            self.pipe = read
            self.guarded = (threading.current_thread() is threading.main_thread()
                            and signal.getsignal(signal.SIGTERM) is signal.SIG_DFL)
            if self.guarded:
                signal.signal(signal.SIGTERM, self._die_with_child)

    def _die_with_child(self, signum, frame) -> None:
        signal.signal(signum, signal.SIG_DFL)
        self.close()
        signal.raise_signal(signum)

    def __enter__(self) -> Calibration:
        return self

    def __exit__(self, kind, error, trace) -> None:
        if not self.joined and isinstance(error, (ValueError, OSError)):
            self.join()
        self.close()

    def poll(self) -> None:
        """join() now if the child has sent its outcome: a refusal raises at once."""
        if self.pid is not None and select.select([self.pipe], [], [], 0)[0]:
            self.model = self.join()

    def join(self) -> CentroidModel:
        if self.joined:  # by poll()
            return self.model
        self.joined = True
        if self.pid is None:
            return calibrate_centroids(*self.args)
        chunks = []
        while chunk := os.read(self.pipe, 1 << 16):
            chunks.append(chunk)
        outcome = b"".join(chunks)
        status = self._reap()
        if not outcome:
            raise ValueError(
                f"centroid calibration ended without a model (wait status {status})")
        kind, value = pickle.loads(outcome)
        if kind == "error":
            raise ValueError(value)
        if kind == "crash":
            raise RuntimeError(f"centroid calibration failed in its child process:\n{value}")
        return value

    def close(self) -> None:
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            self._reap()

    def _reap(self) -> int:
        """Wait for the child and release its pipe and SIGTERM handler;
        returns its wait status."""
        pid, self.pid = self.pid, None
        _, status = os.waitpid(pid, 0)
        os.close(self.pipe)
        if self.guarded:
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            self.guarded = False
        return status


def _calibrate_into(fd: int, args) -> NoReturn:
    """The calibrator child: calibrate, write the pickled outcome to fd, exit."""
    code = 1
    try:
        try:
            outcome = ("model", calibrate_centroids(*args))
        except (ValueError, OSError) as exc:
            outcome = ("error", str(exc))
        except Exception:
            outcome = ("crash", traceback.format_exc())
        with open(fd, "wb") as pipe:
            pipe.write(pickle.dumps(outcome))
        code = 0
    finally:
        os._exit(code)
