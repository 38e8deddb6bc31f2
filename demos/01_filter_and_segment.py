"""
Repairing, smoothing, and windowing an accelerometer stream
===========================================================

A phone in a pocket reports acceleration at 20 Hz, but the log that
reaches us has dropped samples and high-frequency jitter. This script
walks the preprocessing path: fill small gaps by linear interpolation,
low-pass what remains, and cut the stream into half-overlapping
windows ready for feature extraction.
"""

import numpy as np

from homeactivity import timeseries

rng = np.random.default_rng(0)

# Fake ten seconds of walking: gravity on y plus a 2 Hz stride, with
# wideband jitter on top.
n = 200
t = np.arange(n) / 20.0
xyz = np.column_stack([
    0.8 * np.sin(2 * np.pi * 1.0 * t),
    9.81 + 3.0 * np.sin(2 * np.pi * 2.0 * t),
    np.full(n, 0.5),
]) + rng.normal(0.0, 0.8, (n, 3))

# A series holds its samples as one matrix, a row per log line: (n, 3)
# for acceleration alone, (n, 6) with the gyroscope after it. `xyz` and
# `gyro` are column views of it. Every series is sampled on one clock, a
# sample every timeseries.DEFAULT_PERIOD_MS (50 ms): the log carries no
# rate, so a series holds none.
series = timeseries.SampleSeries(
    subject_id="demo", ts=np.arange(n, dtype=np.int64) * 50, values=xyz
)

# Knock out a 400 ms stretch to imitate a recording hiccup.
keep = np.ones(n, dtype=bool)
keep[60:68] = False
gappy = timeseries.SampleSeries(
    subject_id="demo", ts=series.ts[keep], values=series.values[keep]
)
print(f"stream: {len(gappy)} samples with a "
      f"{int(np.diff(gappy.ts).max())} ms hole")

# Gaps up to a second are filled back onto the 50 ms grid; anything
# wider would stay a jump in the timestamps instead of inventing data.
repaired = timeseries.interpolate_gaps(gappy, max_gap_ms=1000)
print(f"repaired: {len(repaired)} samples, gapless "
      f"({int(np.diff(repaired.ts).max())} ms stride)")

# Order-3 Butterworth low-pass at 3 Hz, as the `filter` command runs it.
# The stride survives, the jitter does not.
smooth = timeseries.lowpass_for_log(repaired, timeseries.FilterSpec())
print(f"y-axis std before {repaired.xyz[:, 1].std():.2f}  "
      f"after {smooth.xyz[:, 1].std():.2f}")

# 128-sample windows with 50% overlap: starts advance by 64 samples.
# One batch holds them all: spans plus an (n, 128, 3) sample stack.
windows = timeseries.segment(smooth)
print(f"{len(windows)} windows of {windows.values.shape[1]} samples:")
for start, end in windows.spans():
    print(f"  [{start:5d}, {end:5d})")
