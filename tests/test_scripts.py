"""Smoke test: each experiment script runs to completion on small arguments."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT_ARGS = {
    "mp_convergence.py": ["--assets", "10", "--teff", "40", "--samples", "3", "--bins", "10"],
    "spectrum_decay.py": ["--assets", "20", "--length", "30", "--tau0", "200",
                          "--eval-dates", "5"],
}


def test_scripts_run(tmp_path):
    scripts = sorted((ROOT / "scripts").glob("*.py"))
    assert [p.name for p in scripts] == sorted(SCRIPT_ARGS), "give new scripts arguments"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    for script in scripts:
        csv = tmp_path / f"{script.stem}.csv"
        proc = subprocess.run(
            [sys.executable, str(script), *SCRIPT_ARGS[script.name], "--csv", str(csv)],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, f"{script.name}: {proc.stderr}"
        assert csv.read_text().count("\n") > 1
