"""Smoke test: each script runs to completion on small arguments."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# the experiment scripts, each also given --csv
SCRIPT_ARGS = {
    "mp_convergence.py": ["--assets", "10", "--teff", "40", "--samples", "3", "--bins", "10"],
    "spectrum_decay.py": ["--assets", "20", "--length", "30", "--tau0", "200",
                          "--eval-dates", "5"],
}
SOAK_ARGS = ["--values", "10000", "--seed", "3"]
LAPACK_SOAK_ARGS = ["--matrices", "60", "--seed", "3"]


def run_script(name, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_scripts_run(tmp_path):
    scripts = sorted(p.name for p in (ROOT / "scripts").glob("*.py"))
    assert scripts == sorted([*SCRIPT_ARGS, "format_soak.py", "lapack_soak.py",
                              "code_lines.py"]), (
        "give new scripts arguments"
    )
    for name, args in SCRIPT_ARGS.items():
        csv = tmp_path / f"{Path(name).stem}.csv"
        proc = run_script(name, [*args, "--csv", str(csv)])
        assert proc.returncode == 0, f"{name}: {proc.stderr}"
        assert csv.read_text().count("\n") > 1


def test_format_soak_finds_no_mismatch():
    proc = run_script("format_soak.py", SOAK_ARGS)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout == "seed 3: 10000 values, kernel equals %.17g\n"


def test_lapack_soak_finds_no_mismatch():
    proc = run_script("lapack_soak.py", LAPACK_SOAK_ARGS)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout == (
        "seed 3: 60 matrices, binding equals scipy, Sturm counts equal dsterf's\n"
    )


# 9 code lines: the docstrings, the comment line and the blank lines are not
# counted; a code line with a comment, a string that is no docstring and
# each line of a bracketed expression are
CODE_FIXTURE = '''"""Module docstring,
over two lines."""

import os  # a comment on a code line


# a comment line
class Point:
    """Class docstring."""

    x: int = 0

    def norm(self):
        """Method
        docstring."""
        text = """a string
that is no docstring"""
        return (
            self.x
        )
'''


def test_code_lines_counts_code_only(tmp_path):
    (tmp_path / "fixture.py").write_text(CODE_FIXTURE)
    (tmp_path / "one.py").write_text("x = 1\n")
    proc = run_script("code_lines.py", [str(tmp_path / "fixture.py"), str(tmp_path / "one.py")])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"9 {tmp_path / 'fixture.py'}\n1 {tmp_path / 'one.py'}\n10 total\n"
