"""
The 43-value feature vector of one motion window
================================================

Each 128-sample window is summarized by 43 numbers: per-axis means,
standard deviations, and average absolute differences, the average
resultant acceleration, the per-axis time between acceleration peaks,
and ten-bin histograms of each axis. This script extracts the vector
for a synthetic walking window and labels every slice.
"""

import numpy as np

from homeactivity import features, timeseries

t = np.arange(128) / 20.0
xyz = np.column_stack([
    0.8 * np.sin(2 * np.pi * 1.0 * t),
    9.81 + 3.0 * np.sin(2 * np.pi * 2.5 * t),
    np.full(128, 0.5),
])
# One sample every 50 ms, the one rate of every series: peak spacing
# below is counted in samples and reported at that rate.
series = timeseries.SampleSeries(
    subject_id="demo", ts=np.arange(128, dtype=np.int64) * 50, values=xyz
)
windows = timeseries.segment(series)

matrix, spans = features.extract_all(windows)  # one row per window
(vec,) = matrix
print(f"layout {features.layout_for(include_gyro=False)}: {vec.shape[0]} values")

names = ["x", "y", "z"]
print("\nmeans:            ", np.round(vec[0:3], 3))
print("stds:             ", np.round(vec[3:6], 3))
print("avg abs diff:     ", np.round(vec[6:9], 3))
print("avg resultant:    ", round(vec[9], 3))
print("ms between peaks: ", vec[10:13])

# The 2.5 Hz bounce on y puts its peaks 400 ms apart; x sways at 1 Hz;
# the constant z axis has no interior peaks at all, reported as 0.
for axis, period in zip(names, vec[10:13]):
    print(f"  {axis}: {period:.0f} ms")

# Each axis gets 10 bin fractions over the clipped [-20, 20) range;
# they sum to one per axis.
bins = vec[13:].reshape(3, features.BIN_COUNT)
for axis, row in zip(names, bins):
    print(f"bins {axis}: {np.round(row, 2)}  (sum {row.sum():.0f})")
