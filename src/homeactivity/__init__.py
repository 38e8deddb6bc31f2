"""Smart-home activity recognition over inertial and ambient sensor logs.

The package is organized as a pipeline: repair and filter raw motion
(timeseries), summarize windows (features), classify them (neural),
reconstruct room occupancy from binary events (ambient, occupancy),
fuse everything into contextual activities (fusion), collapse the label
stream into profiling windows (labelling), and aggregate behaviour
(profiles). A scripted simulator (simulate) provides ground truth, and
pipeline/cli chain the stages over files.

Each name lives in its module (`from homeactivity import occupancy`),
and importing the package imports none of them. Only timeseries,
features, neural and simulate need NumPy, so the context commands
(occupancy, fuse, label, profile, report) run without it.
"""

__version__ = "0.1.0"
