"""Every demo script runs to completion against the package as it is."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS, "no demo found"


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_exits_zero(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "TMPDIR": str(tmp_path)}
    out = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr


def test_readme_library_tour_runs():
    """The code block of README's library tour runs as printed, and its
    shapes are the ones its comment gives."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = text[text.index("## Library tour"):]
    block = tour[tour.index("```python\n") + len("```python\n"):]
    namespace = {}
    exec(compile(block[:block.index("```")], "README.md", "exec"), namespace)
    batch = namespace["batch"]
    assert (batch.values.shape, batch.gyro.shape) == ((3, 128, 6), (3, 128, 3))
