"""The benchmark's own calls into the program still work.

The traced benchmark run replaces each `TARGETS` entry of
`bench/tracing.py` with a wrapper, so a renamed or deleted function
crashes it. The `bundle_classify` workload checks `probs.csv` against
`bench/workloads.py::reference_forward`, and `bench/run.py` times
`forward_bundle` on one window at a time. These tests load the bench
modules without running the benchmark.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from homeactivity import neural, simulate

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_exists_and_is_callable():
    tracing = load("tracing")
    assert tracing.TARGETS
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _role in tracing.TARGETS
               if not callable(getattr(owner, attr, None))]
    assert missing == []


class TestBundleForward:
    bundle = neural.make_default_bundle(simulate.CLASSIFIER_CLASSES, seed=1)
    windows = np.random.default_rng(1).normal(9.0, 2.0, (16, 128, 3))

    def test_stack_agrees_with_the_reference_forward(self):
        """Within the 1e-7 bound of workloads.check_probs."""
        reference = load("workloads").reference_forward(self.bundle, self.windows)
        np.testing.assert_allclose(neural.forward_bundle(self.bundle, self.windows),
                                   reference, rtol=0, atol=1e-7)

    @pytest.mark.parametrize("n", [0, 1, 31, 32, 33, 70])
    def test_stacks_across_block_bounds(self, n):
        """Stacks short of, at and past one and two blocks of 32 windows
        give the scores of their windows run one at a time, and of the
        reference forward pass."""
        assert neural.FORWARD_BLOCK == 32
        windows = np.random.default_rng(2).normal(9.0, 2.0, (n, 128, 3))
        got = neural.forward_bundle(self.bundle, windows)
        assert got.shape == (n, len(simulate.CLASSIFIER_CLASSES))
        one_at_a_time = [neural.forward_bundle(self.bundle, w) for w in windows]
        np.testing.assert_allclose(got, np.reshape(one_at_a_time, got.shape), rtol=0, atol=1e-12)
        reference = load("workloads").reference_forward(self.bundle, windows)
        np.testing.assert_allclose(got, reference, rtol=0, atol=1e-7)

    def test_one_window_as_run_times_it(self):
        for w in self.windows[:2]:
            probs = neural.forward_bundle(self.bundle, w)
            assert probs.shape == (len(simulate.CLASSIFIER_CLASSES),)
            assert abs(probs.sum() - 1.0) < 1e-12
