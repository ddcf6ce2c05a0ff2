"""Forked workers: a stage's independent items run on every usable CPU.

``_forked`` runs a stage's items (today the main stage's dates) in
contiguous chunks, one per usable CPU: chunk 0 in this process and the
others in children forked from it, each writing its rows of result arrays
held in anonymous shared memory (``_shared_array``) and sending back only
its items' small results. Every item runs the same code whatever the number
of workers, so the results do not depend on it, and a failure raises what a
one-worker run raises. No child outlives the run.
"""

import math
import mmap
import os
import pickle
import signal
import threading

import numpy as np

from .errors import NumericalError


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _thread_count() -> int:
    """The OS threads of this process: the entries of /proc/self/task where
    it exists (OpenBLAS's threads included), else Python's own threads."""
    task = "/proc/self/task"
    return len(os.listdir(task)) if os.path.isdir(task) else threading.active_count()


def _worker_count(n_items: int) -> int:
    """How many processes share a stage's items: one per usable CPU, at most
    one per item. One where ``os.fork`` is missing, where OpenBLAS may run
    threads of its own (``OPENBLAS_NUM_THREADS`` other than "1": they use the
    cores already, and a forked child would inherit their locks in whatever
    state they were), or where this process runs any other thread, for the
    same reason: numpy imported before covspec has started OpenBLAS's threads
    before the variable was set."""
    if (
        not hasattr(os, "fork")
        or os.environ.get("OPENBLAS_NUM_THREADS") != "1"
        or _thread_count() > 1
    ):
        return 1
    return min(_usable_cpus(), n_items)


def _shared_array(*shape: int) -> np.ndarray:
    """A zeroed float array in anonymous shared memory: the rows a forked
    worker writes are the rows its parent reads."""
    count = math.prod(shape)
    return np.frombuffer(mmap.mmap(-1, 8 * count), count=count).reshape(shape)


def _end_if_orphaned(parent: int) -> None:
    """End a forked worker at once, writing nothing more, when ``parent``,
    the pid of the process that forked it, has died: the worker then has
    another parent pid. In ``parent`` itself this does nothing."""
    if os.getpid() != parent and os.getppid() != parent:
        os._exit(1)


def _chunk(run_item, lo: int, hi: int, parent: int):
    """Items lo to hi - 1 in order, each after checking that ``parent`` still
    lives. Returns the {item: result} of the items that ran, the error that
    stopped them or None, and its __cause__, kept apart because pickling an
    error drops it."""
    results = {}
    try:
        for i in range(lo, hi):
            _end_if_orphaned(parent)
            results[i] = run_item(i)
    except Exception as exc:
        return results, exc, exc.__cause__
    return results, None, None


def _child(write_fd: int, run_item, lo: int, hi: int, parent: int):
    """A forked worker's whole life: run its chunk, send the outcome pickled
    through its pipe, and leave by ``os._exit``, with status 0 only once the
    outcome is sent. It runs none of the parent's exit handlers and flushes
    none of its buffers."""
    status = 1
    try:
        with open(write_fd, "wb") as pipe:
            pickle.dump(_chunk(run_item, lo, hi, parent), pipe)
        status = 0
    finally:
        os._exit(status)


def _forked(dates, run_item) -> list:
    """``run_item(i)`` for every index i of ``dates``, the items' dates, over
    contiguous chunks, one per worker (``_worker_count``): chunk 0 in this
    process and each other chunk in a forked child, all at once. Returns each
    item's result in item order; a child sends its items' results back
    pickled, so they should be small: larger results go to ``_shared_array``.

    A failure raises what a one-worker run raises, once every child is
    reaped: the error of the earliest failing item, from its __cause__, or,
    for a child that ended without reporting, a NumericalError naming its
    chunk's first and last date. That error carries in ``results`` the
    {item: result} of every item that ran, those after the failure included.
    Any other error, an interrupt included, kills every child still running
    before it is raised."""
    workers = _worker_count(len(dates))
    bounds = [len(dates) * c // workers for c in range(workers + 1)]
    chunks = list(zip(bounds, bounds[1:]))
    parent = os.getpid()
    children = []  # (pid, read end of its pipe) for chunks 1 on, in order
    reaped = set()
    try:
        for lo, hi in chunks[1:]:
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                _child(write_fd, run_item, lo, hi, parent)
            os.close(write_fd)
            children.append((pid, open(read_fd, "rb")))
        outcomes = [_chunk(run_item, *chunks[0], parent)]
        for (lo, hi), (pid, pipe) in zip(chunks[1:], children):
            report = pipe.read()
            status = os.waitpid(pid, 0)[1]
            reaped.add(pid)
            if os.waitstatus_to_exitcode(status) == 0:
                outcomes.append(pickle.loads(report))
            else:
                worker = f"main stage: the worker for dates {dates[lo]!r} to {dates[hi - 1]!r}"
                outcomes.append(({}, NumericalError(f"{worker} ended without reporting"), None))
    finally:
        for pid, pipe in children:
            pipe.close()
            if pid not in reaped:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    results = {i: result for done, _, _ in outcomes for i, result in done.items()}
    for _, error, cause in outcomes:
        if error is not None:
            error.results = results
            raise error from cause
    return list(results.values())
