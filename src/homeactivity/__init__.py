"""Smart-home activity recognition over inertial and ambient sensor logs.

The package is organized as a pipeline: repair and filter raw motion
(timeseries), summarize windows (features), classify them (neural),
reconstruct room occupancy from binary events (ambient, occupancy),
fuse everything into contextual activities (fusion), collapse the label
stream into profiling windows (labelling), and aggregate behaviour
(profiles). A scripted simulator (simulate) provides ground truth, and
pipeline/cli chain the stages over files.
"""

from .ambient import AmbientEvent, merge_streams, parse_event_line
from .features import extract_all
from .fusion import DerivedActivity, FusionRuleTable, derive_sleep, load_default_rules
from .labelling import PriorityTable, label_window, windowize
from .neural import CentroidModel, WeightsBundle, gru_cell_step, lstm_cell_step
from .occupancy import Interval, detect_room_intervals, locate, resolve_single_person
from .profiles import bouts, day_profile, interval_query, week_profile
from .simulate import NoiseSpec, ScheduleEntry, generate_day, synth_motion
from .timeseries import (
    FilterSpec,
    SampleSeries,
    butterworth_lowpass,
    interpolate_gaps,
    segment,
)

__version__ = "0.1.0"

__all__ = [
    "AmbientEvent",
    "CentroidModel",
    "DerivedActivity",
    "FilterSpec",
    "FusionRuleTable",
    "Interval",
    "NoiseSpec",
    "PriorityTable",
    "SampleSeries",
    "ScheduleEntry",
    "WeightsBundle",
    "bouts",
    "butterworth_lowpass",
    "day_profile",
    "derive_sleep",
    "detect_room_intervals",
    "extract_all",
    "generate_day",
    "gru_cell_step",
    "interpolate_gaps",
    "interval_query",
    "label_window",
    "load_default_rules",
    "locate",
    "lstm_cell_step",
    "merge_streams",
    "parse_event_line",
    "resolve_single_person",
    "segment",
    "synth_motion",
    "week_profile",
    "windowize",
]
