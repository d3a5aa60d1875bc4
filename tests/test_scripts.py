"""Smoke tests: the experiment scripts run end to end on a small grid."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", ["run_stable_matrix.py",
                                    "sweep_energy_levels.py"])
def test_script_runs(tmp_path, script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--n", "15",
         "--horizon", "0.5", "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.strip().splitlines()[1:]
    assert rows
    if script == "run_stable_matrix.py":
        assert len(rows) == 10
        assert not any(row.split()[-1] == "FAIL" for row in rows)
    assert any((tmp_path / "out").glob("*.csv"))
