"""Importing covspec before numpy runs OpenBLAS on one thread, unless
OPENBLAS_NUM_THREADS is already set. Each check runs in a fresh interpreter,
because this one has loaded numpy already."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# 100 assets and a 150-date kernel: large enough that OpenBLAS on two
# threads and on one give different last bits.
CONFIG = """
ensemble.kind = one-factor
ensemble.assets = 100
ensemble.dates = 170
ensemble.beta = 0.4
ensemble.seed = 5
kernel.scheme = exponential
kernel.length = 150
kernel.mu = 0.02
analyses = spectrum,projectors,lagged
projectors.ranks = 1,3
lagged.length = 20
lagged.lags = 0,1,5
"""

# One product and one tridiagonal reduction large enough to run threaded, on
# numpy's OpenBLAS, which runs covspec's LAPACK calls too, then the
# environment value and the process's thread count (-1 where /proc/self/task
# does not exist).
PROBE = """
import os
import covspec
import numpy as np
from covspec import _lapack
a = np.ones((600, 600))
a @ a
_lapack.dsytrd(np.asfortranarray(a + np.eye(600)))
task = "/proc/self/task"
threads = len(os.listdir(task)) if os.path.isdir(task) else -1
print(os.environ.get("OPENBLAS_NUM_THREADS", "unset"), threads)
"""


def child_env(blas):
    """This environment with OPENBLAS_NUM_THREADS set to ``blas`` (removed
    for None) and covspec importable."""
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas is not None:
        env["OPENBLAS_NUM_THREADS"] = blas
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def probe(blas):
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], env=child_env(blas),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    value, threads = proc.stdout.split()
    return value, int(threads)


def test_import_runs_blas_on_one_thread():
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("no /proc/self/task to count threads")
    assert probe(None)[1] == 1


def test_preset_thread_count_is_kept():
    value, threads = probe("2")
    assert value == "2"
    assert probe(None)[0] == "1"
    # the probe sees BLAS threads where there are any (2 with OpenBLAS on
    # two), so one thread above is not vacuous.
    # OpenBLAS takes no more threads than the CPUs this process may run on.
    if os.path.isdir("/proc/self/task") and usable_cpus() > 1:
        assert threads > 1


# The main stage's worker count for 100 dates in a process that imports
# ``first`` before covspec, and this process's usable CPUs.
WORKERS = """
{first}
import covspec
from covspec import workers
print(workers._worker_count(100), workers._usable_cpus())
"""


def worker_count(first):
    proc = subprocess.run(
        [sys.executable, "-c", WORKERS.format(first=first)], env=child_env(None),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    workers, cpus = map(int, proc.stdout.split())
    return workers, cpus


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the main stage needs os.fork")
def test_numpy_imported_first_runs_the_main_stage_on_one_worker():
    # covspec first: OpenBLAS starts on one thread, and the main stage forks
    workers, cpus = worker_count("")
    assert workers == min(cpus, 100)
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("no /proc/self/task to count OpenBLAS's threads")
    # numpy first: OpenBLAS has started one thread per CPU before covspec
    # set OPENBLAS_NUM_THREADS, and a fork would inherit them mid-state
    assert worker_count("import numpy") == (1, cpus)


def usable_cpus():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def bundle(tmp_path, blas):
    config = tmp_path / "run.cfg"
    config.write_text(CONFIG)
    out = tmp_path / f"out-{blas}"
    proc = subprocess.run(
        [sys.executable, "-m", "covspec.cli", "analyze", str(config), "--out", str(out)],
        env=child_env(blas), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_bundle_bytes_do_not_depend_on_the_variable(tmp_path):
    unset, one = bundle(tmp_path, None), bundle(tmp_path, "1")
    assert sorted(unset) == sorted(one)
    assert [name for name in unset if unset[name] != one[name]] == []
