"""The example scripts run end to end in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=300,
    )


def test_build_reference_sets(tmp_path):
    proc = run_script("build_reference_sets.py", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert sum("PASS" in line for line in proc.stdout.splitlines()) == 4
    assert "(legendre)" in proc.stdout and "(dft)" in proc.stdout
    assert sorted(p.name for p in tmp_path.iterdir()) == ["set_35x1225.json", "set_7x49.json"]


def test_zone_survey():
    proc = run_script("zone_survey.py", "5")
    assert proc.returncode == 0, proc.stderr
    assert "5 sequences of length 25 (dft)" in proc.stdout
    assert "maximal rectangles [(5, 5)]" in proc.stdout
