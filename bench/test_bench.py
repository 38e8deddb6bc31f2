"""Smoke test of the benchmark itself, at its smoke size.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py

Takes two to three minutes: one traced run per workload, one timed run,
and one run in a directory without the program.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402


def bench(*args, cwd=ROOT):
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--seed", "3", "--seconds", "0",
         "--size", "smoke", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False,
    )
    return out


def report(stdout: str, workload: str) -> dict:
    """metric -> (value, unit) from the lines before the JSON result."""
    out = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0] == workload and parts[1] != "sha256":
            out[parts[1]] = (float(parts[2]), parts[3])
    return out


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_prints_every_metric_and_spans_cover_wall(workload):
    out = bench("--workload", workload, "--trace", "1")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    names = tracing.per_layer_names()
    assert list(result["metrics"]) == names
    for name in names:
        assert result["metrics"][name]["unit"] == tracing.metric_unit(name)

    lines = report(out.stdout, workload)
    for name, unit in {**run.END_TO_END, **run.QUALITY}.items():
        if workload == "bundle_classify" and name in ("accuracy", "duration_err"):
            continue
        assert lines[name][1] == unit, name
    assert lines["failed_frac"][0] == 0
    for name in names:
        assert lines[name][1] == tracing.metric_unit(name), name

    wall = lines["trace.wall_s"][0]
    remainder = lines["trace.remainder_s"][0]
    stages = sum(lines[f"pipeline.{s}_s"][0] for s in tracing.STAGES)
    assert stages > 0 and remainder >= 0
    assert stages + remainder == pytest.approx(wall, rel=0.05, abs=0.005)
    # The stage spans cover the traced wall time apart from a small remainder.
    assert remainder <= 0.1 * wall


def test_timed_run_reports_end_to_end_metrics():
    out = bench("--workload", "context_week", "--trace", "0")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= run.MIN_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = bench("--workload", "week_pipeline", "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert not out.stdout.strip()
