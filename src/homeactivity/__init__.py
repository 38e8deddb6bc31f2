"""Smart-home activity recognition over inertial and ambient sensor logs.

The package is organized as a pipeline: repair and filter raw motion
(timeseries), summarize windows (features), classify them (neural),
reconstruct room occupancy from binary events (ambient, occupancy),
fuse everything into contextual activities (fusion), collapse the label
stream into profiling windows (labelling), and aggregate behaviour
(profiles). A scripted simulator (simulate) provides ground truth, and
pipeline/cli chain the stages over files.

Importing the package loads no module: each name below is imported from
its module on first access. Only timeseries, features, neural and
simulate need NumPy, so the context commands (occupancy, fuse, label,
profile, report) run without it.
"""

import importlib

__version__ = "0.1.0"

_MODULE_OF = {
    name: module
    for module, names in {
        "ambient": ("AmbientEvent", "merge_streams", "parse_event_line"),
        "features": ("extract_all",),
        "fusion": ("DerivedActivity", "FusionRuleTable", "derive_sleep", "load_default_rules"),
        "labelling": ("PriorityTable", "label_window", "windowize"),
        "neural": ("CentroidModel", "WeightsBundle", "gru_cell_step", "lstm_cell_step"),
        "occupancy": ("Interval", "detect_room_intervals", "locate", "resolve_single_person"),
        "profiles": ("bouts", "day_profile", "interval_query", "week_profile"),
        "simulate": ("NoiseSpec", "ScheduleEntry", "generate_day", "synth_motion"),
        "timeseries": ("FilterSpec", "SampleSeries", "butterworth_lowpass",
                       "interpolate_gaps", "segment"),
    }.items()
    for name in names
}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
