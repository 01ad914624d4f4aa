"""Each demo runs without a warning and prints its committed output.

The demos' output is deterministic, so `demos/expected/<demo>.txt` pins
it; a change that alters what a demo prints must update that file.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_prints_expected_output(demo):
    path = os.pathsep.join(filter(None, (str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-W", "error", str(demo)],
                          capture_output=True, text=True, timeout=300,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    expected = ROOT / "demos" / "expected" / f"{demo.stem}.txt"
    assert proc.stdout == expected.read_text(encoding="utf-8")
