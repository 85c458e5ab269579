"""Each demo runs to completion as a script and prints its headline line."""

import os
import subprocess
import sys
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SRC = DEMOS.parent / "src"


def _run(tmp_path, script, *args) -> str:
    path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, str(DEMOS / script), *args],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_loop_closure_minimal(tmp_path):
    assert "3 closures accepted over 63 frames" in _run(tmp_path, "loop_closure_minimal.py")


def test_evaluation_run(tmp_path):
    assert "max F1" in _run(tmp_path, "evaluation_run.py", "--dir", str(tmp_path / "tour"))


def test_descriptor_walkthrough(tmp_path):
    out = _run(tmp_path, "descriptor_walkthrough.py", "--out", str(tmp_path / "walk"))
    assert f"wrote {tmp_path / 'walk' / 'bev.pgm'}" in out
    assert (tmp_path / "walk" / "bev.pgm").exists()
