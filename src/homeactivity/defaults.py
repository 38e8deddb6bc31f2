"""Defaults of the inertial options, defined once and free of NumPy.

The option registry (cli.OPTIONS) and the stage signatures (pipeline)
read them when they are imported, and a context command imports those
two without the numeric modules; timeseries takes its defaults from here.
"""

DEFAULT_PERIOD_MS = 50  # the sample period of every inertial log
DEFAULT_WINDOW_LEN = 128
DEFAULT_OVERLAP = 0.5
DEFAULT_MAX_GAP_MS = 1000
DEFAULT_ORDER = 3  # of the Butterworth low-pass
DEFAULT_CUTOFF_HZ = 3.0
