"""The main stage's dates, and the lagged stage's blocks of dates, are dealt
in turn to one worker per usable CPU: this process and forked children,
which send back every result through their pipes, taken here in date order. The bundle bytes do not depend on the number of workers,
a failure gives the error and the files of a one-worker run, and no child
outlives the run. The worker count is set here through
``workers._usable_cpus``."""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from covspec import (
    EnsembleSpec,
    _lapack,
    build_kernel,
    bundle,
    generate_returns,
    make_business_dates,
    rolling_spectra,
    run_analysis,
    runner,
    subspace,
    validate_config,
    workers,
)
from covspec.errors import AnalysisError, DegenerateAssetError, NumericalError
from covspec.moments import correlation_of, covariance_at, weighted_windows
from testutil import TableSink, bundle_bytes

# 40 return dates, a 30-date kernel: 11 evaluation dates
BASE_CFG = """
ensemble.kind = one-factor
ensemble.assets = 12
ensemble.dates = 40
ensemble.beta = 0.5
ensemble.seed = 5
kernel.scheme = long-memory
kernel.length = 30
projectors.ranks = 1,3
"""
DATES = make_business_dates(40)[-11:]

CONFIGS = {
    "covariance-csv-dump": "matrix.flavor = covariance\noutput.format = csv\n"
    "output.dump_matrices = true\n"
    "analyses = spectrum,density,mp-compare,ansatz,projectors,fluctuation\n",
    "correlation-json": "matrix.flavor = correlation\noutput.format = json\n"
    "analyses = spectrum,mp-compare,projectors,fluctuation,lagged\n"
    "lagged.length = 8\nlagged.lags = 0,1,5\n",
    # lagged windows of L = 16 > N = 12: their vectors solved as the main
    # stage solves its matrices
    "correlation-long-lagged": "matrix.flavor = correlation\n"
    "analyses = spectrum,projectors,lagged\nlagged.length = 16\nlagged.lags = 0,1,5\n",
    # 11 points, at most N = 12: Sturm counts of the correlation eigenvalues
    "covariance-sturm-counts": "matrix.flavor = covariance\nanalyses = mp-compare\n"
    "density.bins = 8\n",
}

# 1, 2 and 3 workers, and more CPUs than dates: one worker per date
CPU_COUNTS = (1, 2, 3, 50)

forking = pytest.mark.skipif(
    not hasattr(os, "fork") or os.environ.get("OPENBLAS_NUM_THREADS") != "1",
    reason="the main stage runs on one worker in this environment",
)


def run_config(tmp_path, name, settings=CONFIGS["covariance-csv-dump"]):
    """A validated run config writing into ``tmp_path / name``."""
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(BASE_CFG + settings + f"output.dir = {tmp_path / name}\n")
    return validate_config(str(cfg))


def run(tmp_path, monkeypatch, name, cpus, settings):
    """A run with ``cpus`` usable CPUs; returns its output directory."""
    with monkeypatch.context() as patch:
        patch.setattr(workers, "_usable_cpus", lambda: cpus)
        run_analysis(run_config(tmp_path, name, settings))
    return tmp_path / name


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@forking
@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_bundles_identical_for_every_worker_count(tmp_path, monkeypatch, config):
    log = tmp_path / "dates.log"

    def logged(returns, kernel, j):
        # one short O_APPEND write per date, from whichever process runs it
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {returns.dates[j]}\n")
        return covariance_at(returns, kernel, j)

    monkeypatch.setattr(runner, "covariance_at", logged)
    bundles = {}
    for cpus in CPU_COUNTS:
        log.write_text("")
        bundles[cpus] = bundle_bytes(run(tmp_path, monkeypatch, f"cpus-{cpus}", cpus,
                                         CONFIGS[config]))
        assert_no_child_left()
        by_pid = {}
        for line in log.read_text().splitlines():
            pid, date = line.split()
            by_pid.setdefault(int(pid), []).append(date)
        # one process per worker, this one first; worker w runs dates w,
        # w + P, ... in date order, every date once
        workers_run = min(cpus, len(DATES))
        assert len(by_pid) == workers_run, cpus
        assert by_pid[os.getpid()] == list(DATES[::workers_run]), cpus
        assert sorted(by_pid.values()) == sorted(
            list(DATES[w::workers_run]) for w in range(workers_run)
        ), cpus

    reference = bundles.pop(1)
    if config == "covariance-csv-dump":
        assert sum(name.startswith("matrices") for name in reference) == len(DATES)
    for cpus, got in bundles.items():
        assert got.keys() == reference.keys(), cpus
        for name, data in reference.items():
            assert got[name] == data, (cpus, name)


@forking
@pytest.mark.parametrize("flavor", ["covariance", "correlation"])
def test_library_spectra_identical_for_every_worker_count(monkeypatch, flavor):
    """``rolling_spectra``'s values and kept vectors, sent back through the
    workers' pipes, are the same bits on any number of workers."""
    returns = generate_returns(EnsembleSpec("one-factor", 12, 40, beta=0.5, seed=5))
    kernel = build_kernel("long-memory", 30)
    spectra = {}
    for cpus in CPU_COUNTS:
        monkeypatch.setattr(workers, "_usable_cpus", lambda: cpus)
        spectra[cpus] = rolling_spectra(returns, kernel, flavor, n_vectors=3)
        assert_no_child_left()
    reference = spectra.pop(1)
    assert reference.dates == DATES
    assert reference.vectors.shape == (len(DATES), 12, 3)
    for cpus, got in spectra.items():
        assert got.dates == reference.dates, cpus
        assert np.array_equal(got.values, reference.values), cpus
        assert np.array_equal(got.vectors, reference.vectors), cpus


def failing_run(tmp_path, monkeypatch, name, cpus, settings=CONFIGS["covariance-csv-dump"]):
    """A run on ``cpus`` CPUs that fails, by default a covariance run with
    dump and mp-compare; returns the error's type and message and the
    bundle's files."""
    monkeypatch.setattr(workers, "_usable_cpus", lambda: cpus)
    with pytest.raises(AnalysisError) as err:
        run_analysis(run_config(tmp_path, name, settings))
    assert_no_child_left()
    manifest = json.loads((tmp_path / name / "manifest.json").read_text())
    assert manifest["complete"] is False and manifest["error"] == str(err.value)
    files = bundle_bytes(tmp_path / name)
    # the incomplete manifest lists every other file on disk
    assert sorted(entry["name"] for entry in manifest["files"]) == sorted(
        set(files) - {"manifest.json"}
    )
    return type(err.value), str(err.value), files


# (where the fault is injected, the index of its date): the correlation is
# formed and the solve run before the date's dump is written
FAULTS = [("correlation_of", 0), ("correlation_of", 4), ("correlation_of", 7),
          ("_solved", 5), ("_solved", 10)]


@forking
@pytest.mark.parametrize("where, fail_at", FAULTS)
def test_failure_matches_one_worker(tmp_path, monkeypatch, where, fail_at):
    """A fault at one date, on this process or a child, early, in the middle
    or last: the same error and the same files as one worker, the dumps of
    later dates that other workers wrote deleted."""
    target = DATES[fail_at]
    solved = runner._solved

    def faulty_correlation(cov, date, assets):
        if date == target:
            raise DegenerateAssetError(f"at date {date!r}: asset 'x' variance below the floor")
        return correlation_of(cov, date, assets)

    def faulty_solve(date, matrix, k):
        if date == target:
            raise NumericalError(f"at date {date!r}: injected")
        return solved(date, matrix, k)

    monkeypatch.setattr(
        runner, where, faulty_correlation if where == "correlation_of" else faulty_solve
    )
    results = {cpus: failing_run(tmp_path, monkeypatch, f"cpus-{cpus}", cpus)
               for cpus in CPU_COUNTS}
    reference = results.pop(1)
    stage = "moments" if where == "correlation_of" else "spectral"
    assert reference[1].startswith(f"{stage}: at date {target!r}")
    dumps = sorted(name for name in reference[2] if name.startswith("matrices"))
    assert len(dumps) == fail_at
    for cpus, (kind, message, files) in results.items():
        assert (kind, message) == reference[:2], cpus
        assert files.keys() == reference[2].keys(), cpus
        assert files == reference[2], cpus


@forking
@pytest.mark.parametrize("fail_at", [0, 5])
def test_sturm_count_failure_matches_one_worker(tmp_path, monkeypatch, fail_at):
    """A dsytrd failure in the Sturm counts of one date's correlation, on
    this process or a child, fails the run naming the date, with the error
    and the manifest of one worker."""
    config = run_config(tmp_path, "probe", CONFIGS["covariance-sturm-counts"])
    returns = generate_returns(config.ensemble)
    j = returns.dates.index(DATES[fail_at])
    cov = covariance_at(returns, build_kernel("long-memory", 30), j)
    target = correlation_of(cov, DATES[fail_at], returns.asset_ids)
    dsytrd = _lapack.dsytrd

    def faulty(a):
        failing = np.array_equal(a, target)
        d, e, tau, info = dsytrd(a)
        return d, e, tau, 3 if failing else info

    monkeypatch.setattr(_lapack, "dsytrd", faulty)
    results = {
        cpus: failing_run(tmp_path, monkeypatch, f"cpus-{cpus}", cpus,
                          CONFIGS["covariance-sturm-counts"])
        for cpus in CPU_COUNTS
    }
    reference = results.pop(1)
    assert reference[:2] == (
        AnalysisError,
        f"spectral: at date {DATES[fail_at]!r}: dsytrd failed for 12x12 matrix (info 3)",
    )
    assert set(reference[2]) == {"manifest.json"}
    for cpus, got in results.items():
        assert got == reference, cpus


@forking
def test_killed_worker_fails_the_run(tmp_path, monkeypatch):
    """A child that dies before it reports a date (here by SIGKILL once that
    date's dump is written) fails the run with a NumericalError naming the
    date. The manifest, marked incomplete, lists the dumps of the dates
    before it, and no other dump is left on disk."""
    parent = os.getpid()
    write_matrix = bundle._BundleWriter.write_matrix

    def killed(writer, flavor, date, matrix):
        entry = write_matrix(writer, flavor, date, matrix)
        if os.getpid() != parent and date == DATES[5]:
            os.kill(os.getpid(), signal.SIGKILL)
        return entry

    monkeypatch.setattr(workers, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(bundle._BundleWriter, "write_matrix", killed)
    with pytest.raises(NumericalError) as err:
        run_analysis(run_config(tmp_path, "killed"))
    assert_no_child_left()
    # the child runs dates 1, 3, 5, ...
    assert str(err.value) == (
        f"main stage: the worker for date {DATES[5]!r} ended without reporting"
    )
    manifest = json.loads((tmp_path / "killed" / "manifest.json").read_text())
    assert manifest["complete"] is False and manifest["error"] == str(err.value)
    listed = [f["name"] for f in manifest["files"]]
    assert listed == [f"matrices/covariance_{date}.csv" for date in DATES[:5]]
    on_disk = sorted(set(bundle_bytes(tmp_path / "killed")) - {"manifest.json"})
    assert on_disk == listed


@forking
def test_interrupt_kills_and_reaps_the_workers(tmp_path, monkeypatch):
    """An interrupt in this process while it waits for a child's date (here
    from SIGALRM, one second in) kills every child at once, rather than
    waiting for their dates."""
    parent = os.getpid()

    def stalled(returns, kernel, j):
        if os.getpid() != parent:
            time.sleep(60)
        return covariance_at(returns, kernel, j)

    def interrupt(signum, frame):
        raise KeyboardInterrupt

    monkeypatch.setattr(workers, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(runner, "covariance_at", stalled)
    previous = signal.signal(signal.SIGALRM, interrupt)
    start = time.monotonic()
    try:
        signal.setitimer(signal.ITIMER_REAL, 1.0)
        with pytest.raises(KeyboardInterrupt):
            run_analysis(run_config(tmp_path, "interrupted"))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - start < 30
    assert_no_child_left()


LAGGED_SETTINGS = "analyses = lagged\nlagged.length = 8\nlagged.lags = 0,1,2,5\n"
# 40 return dates, an 8-date window: 33 lagged dates, in 9 blocks of 4
BLOCK_DATES = [make_business_dates(40)[-33:][lo : lo + 4] for lo in range(0, 33, 4)]


@forking
def test_lagged_blocks_identical_for_every_worker_count(tmp_path, monkeypatch):
    """The lagged stage's blocks, with every series of projectors.ranks, are
    dealt to the workers in turn, and the lagged correlation is the same
    bytes on any number of them."""
    log = tmp_path / "blocks.log"

    def logged(returns, kernel, idx):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {returns.dates[idx[-1]]}\n")
        return weighted_windows(returns, kernel, idx)

    monkeypatch.setattr(runner, "DATES_PER_BLOCK", 4)
    monkeypatch.setattr(runner, "weighted_windows", logged)
    written = {}
    for cpus in CPU_COUNTS:
        log.write_text("")
        out = run(tmp_path, monkeypatch, f"lagged-{cpus}", cpus, LAGGED_SETTINGS)
        assert_no_child_left()
        written[cpus] = (out / "lagged_correlation.csv").read_bytes()
        by_pid = {}
        for line in log.read_text().splitlines():
            pid, last = line.split()
            by_pid.setdefault(int(pid), []).append(last)
        # a block walks the max(lags) dates before it, a gather ending at
        # the date before it, then its own dates, one chunk ending at its
        # last date; this process then gathers the first and last max(lags)
        # dates once more
        workers_run = min(cpus, len(BLOCK_DATES))
        ends = [block[-1] for block in BLOCK_DATES]

        def walks(w):
            blocks = range(w, len(ends), workers_run)
            return [d for b in blocks for d in ends[max(0, b - 1) : b + 1]]

        assert by_pid.pop(os.getpid()) == walks(0) + [ends[-1]], cpus
        assert sorted(by_pid.values()) == sorted(walks(w) for w in range(1, workers_run)), cpus
    assert b"projector_k3" in written[1]
    assert all(got == written[1] for got in written.values())


def gather_ends(per_block, per_chunk, blocks):
    """The last date of each window gather of the lagged ``blocks`` (their
    numbers), in blocks of ``per_block`` dates walked in chunks of
    ``per_chunk``: the dates before a block, one gather, then its chunks."""
    lagged = make_business_dates(40)[-33:]
    ends = []
    for b in blocks:
        lo, hi = b * per_block, min(b * per_block + per_block, len(lagged))
        if lo:
            ends.append(lagged[lo - 1])
        ends += [lagged[min(a + per_chunk, hi) - 1] for a in range(lo, hi, per_chunk)]
    return ends


@forking
def test_near_static_lagged_bundle_identical_for_every_worker_count(tmp_path, monkeypatch):
    """At beta = 0.999 the correlation and the rank-1 projector are
    near-static: after the first walk and the gather of the first and last
    max(lags) dates, their blocks are walked once more, centred, dealt to
    the workers in turn as the first walk's are, and the bundle is the same
    bytes on 1, 2 and 3 CPUs. So it is in blocks of 12 dates with
    CHUNK_BYTES below the windows of max(lags) = 5 dates: a chunk then
    holds 5 dates, and carries its last 5 terms into the next."""
    log = tmp_path / "blocks.log"

    def logged(returns, kernel, idx):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {returns.dates[idx[-1]]}\n")
        return weighted_windows(returns, kernel, idx)

    monkeypatch.setattr(runner, "weighted_windows", logged)
    window_bytes = 8 * 8 * 12  # one date's 12 x 8 window
    # (dates per block, windows CHUNK_BYTES holds, dates per chunk)
    for per_block, windows, per_chunk in ((4, None, 33), (12, 2, 5)):
        bundles = {}
        for cpus in (1, 2, 3):
            log.write_text("")
            name = f"near-static-{per_block}-{cpus}"
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(
                BASE_CFG.replace("ensemble.beta = 0.5", "ensemble.beta = 0.999")
                + LAGGED_SETTINGS + f"output.dir = {tmp_path / name}\n"
            )
            with monkeypatch.context() as patch:
                patch.setattr(workers, "_usable_cpus", lambda: cpus)
                patch.setattr(runner, "DATES_PER_BLOCK", per_block)
                if windows is not None:
                    patch.setattr(subspace, "CHUNK_BYTES", windows * window_bytes)
                run_analysis(validate_config(str(cfg)))
            assert_no_child_left()
            bundles[cpus] = bundle_bytes(tmp_path / name)
            mine = [line.split()[1] for line in log.read_text().splitlines()
                    if int(line.split()[0]) == os.getpid()]
            walk = gather_ends(per_block, per_chunk, range(0, -(-33 // per_block), cpus))
            assert mine == walk + [DATES[-1]] + walk, (per_block, cpus)
        assert b"projector_k1" in bundles[1]["lagged_correlation.csv"]
        assert bundles[2] == bundles[1], per_block
        assert bundles[3] == bundles[1], per_block


@forking
def test_lagged_stage_of_600_dates_runs_on_two_workers(tmp_path, monkeypatch):
    """600 lagged dates at N = 80, lags up to 42: the default blocks split
    them in two, one per worker on two CPUs."""
    n_dates, length = 600, 21
    returns = generate_returns(EnsembleSpec("one-factor", 80, length + n_dates - 1, seed=4))
    config = SimpleNamespace(
        lagged_length=length, lags=(0, 1, 2, 5, 10, 21, 42), projector_ranks=(1, 3)
    )
    log = tmp_path / "blocks.log"

    def logged(returns, kernel, idx):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return weighted_windows(returns, kernel, idx)

    monkeypatch.setattr(workers, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(runner, "weighted_windows", logged)
    dates = runner._lagged_dates(returns, config, None)
    assert len(dates) == n_dates
    sink = TableSink()
    runner._lagged_file(sink, returns, config, dates)
    assert_no_child_left()
    assert len(set(log.read_text().split())) == 2
    assert len(sink.tables["lagged_correlation"]) == 4 * len(config.lags)


@forking
def test_killed_lagged_worker_fails_the_run(tmp_path, monkeypatch):
    """A lagged worker that dies without reporting its block fails the run
    with an error naming the lagged stage and the block's dates, and an
    incomplete manifest."""
    parent = os.getpid()

    def killed(returns, kernel, idx):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return weighted_windows(returns, kernel, idx)

    monkeypatch.setattr(runner, "DATES_PER_BLOCK", 4)
    monkeypatch.setattr(runner, "weighted_windows", killed)
    monkeypatch.setattr(workers, "_usable_cpus", lambda: 2)
    with pytest.raises(AnalysisError) as err:
        run_analysis(run_config(tmp_path, "killed", LAGGED_SETTINGS))
    assert_no_child_left()
    # the child's first block is the second
    first, last = BLOCK_DATES[1][0], BLOCK_DATES[1][-1]
    assert str(err.value) == (
        f"subspace: lagged stage: the worker for dates {first!r} to {last!r} "
        "ended without reporting"
    )
    manifest = json.loads((tmp_path / "killed" / "manifest.json").read_text())
    assert manifest["complete"] is False and manifest["error"] == str(err.value)
    assert manifest["files"] == []


ORPHAN_RUN = """
import os, sys, time
from covspec import run_analysis, runner, validate_config, workers
from covspec.moments import covariance_at

parent = os.getpid()

def slowed(returns, kernel, j):
    if os.getpid() != parent:
        with open(sys.argv[2], "w") as fh:
            fh.write(str(os.getpid()))
    time.sleep(1.5)
    return covariance_at(returns, kernel, j)

runner.covariance_at = slowed
workers._usable_cpus = lambda: 2
run_analysis(validate_config(sys.argv[1]))
"""


def running(pid):
    """Whether ``pid`` runs: it exists and, where /proc shows it, is no zombie
    left for its new parent to reap."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return not Path("/proc").is_dir()


@forking
def test_workers_end_with_a_killed_run(tmp_path):
    """A run killed by SIGKILL, which no handler sees, leaves no worker
    running: a worker checks its parent before each date and leaves at once
    when the parent is gone. Here its 5 dates would take 7.5 s."""
    cfg = tmp_path / "orphan.cfg"
    cfg.write_text(BASE_CFG + CONFIGS["covariance-csv-dump"]
                   + f"output.dir = {tmp_path / 'orphan'}\n")
    pid_file = tmp_path / "worker.pid"
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen([sys.executable, "-c", ORPHAN_RUN, str(cfg), str(pid_file)],
                            env=env)
    try:
        deadline = time.monotonic() + 60
        while not (pid_file.exists() and pid_file.read_text().isdigit()):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        worker = int(pid_file.read_text())
    finally:
        proc.kill()
        proc.wait(timeout=30)
    deadline = time.monotonic() + 5
    while running(worker) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not running(worker)


def test_worker_count(monkeypatch):
    """One worker per usable CPU, at most one per date; one wherever a fork
    is unsafe."""
    monkeypatch.setattr(workers, "_usable_cpus", lambda: 4)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    assert workers._worker_count(10) == 4
    assert workers._worker_count(3) == 3
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    assert workers._worker_count(10) == 1
    monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    assert workers._worker_count(10) == 1
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(30,))
    thread.start()
    try:
        assert workers._worker_count(10) == 1
    finally:
        release.set()
        thread.join(timeout=30)
    assert not thread.is_alive()
    # join returns before the OS thread has left /proc/self/task
    deadline = time.monotonic() + 5
    while workers._thread_count() > 1 and time.monotonic() < deadline:
        time.sleep(0.01)
    assert workers._worker_count(10) == 4
    monkeypatch.delattr(os, "fork")
    assert workers._worker_count(10) == 1


def test_import_loads_no_process_pool():
    """A fresh ``import covspec`` loads no multiprocessing or
    concurrent.futures module beyond what numpy loads itself."""
    probe = """
import sys
import numpy
before = set(sys.modules)
import covspec
print(*sorted(set(sys.modules) - before))
print("multiprocessing" in sys.modules)
"""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    added, multiprocessing = proc.stdout.splitlines()
    assert "covspec.runner" in added.split()
    assert [m for m in added.split() if m.startswith(("multiprocessing", "concurrent"))] == []
    assert multiprocessing == "False"
