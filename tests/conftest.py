"""Shared fixtures. Calibration is slow enough to be worth caching."""

import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from homeactivity.fusion import load_default_rules
from homeactivity.simulate import QUIET, calibrate_centroids

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(scope="session")
def default_rules():
    return load_default_rules()


@pytest.fixture(scope="session")
def quiet_model():
    """Noise-free centroid model over the seven motion classes."""
    return calibrate_centroids(QUIET)


@pytest.fixture(scope="session")
def cli_child():
    """run(*argv) -> (exit code, stderr) of `python -m homeactivity.cli argv`
    in a child interpreter. A command that loops or grows without end
    fails the test: the child is killed after `timeout` seconds, and its
    address space (set in the child alone) is capped at `memory_mb`."""

    def run(*argv, timeout=15, memory_mb=1024):
        def limit():
            cap = memory_mb * 2**20
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

        path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-m", "homeactivity.cli", *map(str, argv)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
            timeout=timeout, preexec_fn=limit, check=False,
        )
        return out.returncode, out.stderr

    return run
