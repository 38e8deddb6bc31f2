"""
A scripted household day, end to end
====================================

The simulator turns a daily schedule into the two sensor logs a real
deployment would produce (inertial samples and ambient event edges)
plus the ground-truth derived timeline. This script runs the whole
pipeline over one simulated day and compares the reconstruction
against that truth. The same stages are available on the command line:

    homeactivity pipeline --script day.csv --out run/ --span 2
"""

import tempfile
from pathlib import Path

from homeactivity import fusion, labelling, pipeline, simulate

SIX_AM = 21_600_000

day = [
    simulate.ScheduleEntry(SIX_AM, 480_000, "Bedroom", "Lie"),
    simulate.ScheduleEntry(SIX_AM + 480_000, 240_000, "Kitchen", "Walk"),
    simulate.ScheduleEntry(SIX_AM + 720_000, 240_000, "Kitchen", "Sit",
                           frozenset({"water_bottle"})),
    simulate.ScheduleEntry(SIX_AM + 960_000, 480_000, "Hall", "Sit",
                           frozenset({"tv"})),
    simulate.ScheduleEntry(SIX_AM + 1_440_000, 480_000, "Outside", "Walk"),
]

out = Path(tempfile.mkdtemp(prefix="homeactivity_demo_"))
rules = fusion.load_default_rules()
noise = simulate.NoiseSpec(gaussian_sigma=(0.3, 0.3, 0.3), dropout_prob=0.01, seed=11)

script = out / "day.csv"
simulate.write_script(script, day)
info = pipeline.stage_simulate(
    script, out / "inertial.csv", out / "events.ndjson", out / "truth.csv",
    noise, rules,
)
print(f"simulated {info['truth_ticks']} ticks into {out}")

# Preprocess, window, featurize.
pipeline.stage_filter(out / "inertial.csv", out / "filtered.csv")
pipeline.stage_features(out / "filtered.csv", out / "features.csv")

# Calibrate a centroid model from the same noise level and classify with
# it as loaded; `pipeline.load_model(path)` loads one from a model file.
model = simulate.calibrate_centroids(noise)
pipeline.stage_classify(out / "features.csv", out / "basic.csv", model)

# Ambient context and fusion.
pipeline.stage_occupancy(out / "events.ndjson", out / "intervals.csv")
pipeline.stage_fuse(out / "basic.csv", out / "intervals.csv", out / "derived.csv",
                    rules)

got = fusion.read_derived(out / "derived.csv")
want = fusion.read_derived(out / "truth.csv")
agree = sum(g == w for g, w in zip(got, want))
print(f"derived timeline matches truth on {agree}/{len(want)} ticks")

current = None
print("\nreconstructed day:")
for ts, derived in got:
    if derived.name != current:
        clock = ts // 1000
        print(f"  {clock // 3600:02d}:{clock % 3600 // 60:02d} {derived.name}")
        current = derived.name

# Two-minute labelling and the day report.
pipeline.stage_label(out / "derived.csv", out / "labels.csv", 2,
                     labelling.load_default_priorities())
pipeline.stage_profile(out / "labels.csv", out / "report.json")
print(f"\nreport written to {out / 'report.json'}")
