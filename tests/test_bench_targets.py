"""Every program attribute the benchmark's tracer wraps still exists.

The traced benchmark run replaces each `TARGETS` entry of
`bench/tracing.py` with a wrapper, so a renamed or deleted function
crashes it. This reads the tracer's table without installing it.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_tracer_target_exists_and_is_callable():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _role in tracing.TARGETS
               if not callable(getattr(owner, attr, None))]
    assert missing == []
