"""Forked workers: a stage's independent items run on every usable CPU.

``_forked`` runs a stage's items (the main stage's dates, the lagged
stage's blocks of dates) on one worker per usable CPU, dealt in turn: this
process and children forked from it, each sending back its items' results
through its pipe as it goes, the only way a result comes back. This process
takes the results in item order. Every item runs the same code whatever the
number of workers, so the results do not depend on it, and a failure raises
what a one-worker run raises. No child outlives the run.
"""

import os
import pickle
import signal
import threading

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


def _end_if_orphaned(parent: int) -> None:
    """End a forked worker at once, writing nothing more, when ``parent``,
    the pid of the process that forked it, has died: the worker then has
    another parent pid. In ``parent`` itself this does nothing."""
    if os.getpid() != parent and os.getppid() != parent:
        os._exit(1)


def _child(write_fd: int, run_item, items: range, parent: int):
    """A forked worker's whole life: run its items in order, each after
    checking that ``parent`` still lives, and send each one's outcome
    through its pipe as soon as it is known: (result, None, None), or
    (None, error, its __cause__), kept apart because pickling an error drops
    it, after which it runs no more. It leaves by ``os._exit``, running none
    of the parent's exit handlers and flushing none of its buffers."""
    status = 1
    try:
        with open(write_fd, "wb") as pipe:
            for i in items:
                _end_if_orphaned(parent)
                try:
                    outcome = run_item(i), None, None
                except Exception as exc:
                    outcome = None, exc, exc.__cause__
                pickle.dump(outcome, pipe)
                pipe.flush()
                if outcome[1] is not None:
                    break
        status = 0
    finally:
        os._exit(status)


def _forked(stage: str, items, run_item, take) -> None:
    """``take(i, run_item(i))`` for every index i of ``items``, each the
    sequence of its item's dates, in item order and in this process. The
    items are dealt to the workers (``_worker_count``) in turn: with P of
    them, this process runs items 0, P, 2P, ... and forked child w runs
    items w, w + P, ..., all at once. A child sends each result pickled
    through its pipe as soon as it has it, and this process takes them in
    item order: no child runs ahead of the taking by more than one result
    beyond what its pipe buffers, so results do not pile up in any process.

    A failure raises what a one-worker run raises, once every child is
    killed and reaped: the error of the earliest failing item, from its
    __cause__, or, for a child that ended before it reported an item, a
    NumericalError naming the ``stage`` and that item's dates. Every item
    before it has been taken; no later one is. An error in ``take``, or an
    interrupt, kills every child the same way before it is raised."""
    workers = _worker_count(len(items))
    parent = os.getpid()
    pipes = []  # the read end of child w's pipe at w - 1
    pids = []
    try:
        for w in range(1, workers):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                # the read ends, closed here, so a write fails once the run is gone
                os.close(read_fd)
                for pipe in pipes:
                    pipe.close()
                _child(write_fd, run_item, range(w, len(items), workers), parent)
            pids.append(pid)
            os.close(write_fd)
            pipes.append(open(read_fd, "rb"))
        for i in range(len(items)):
            if i % workers == 0:
                take(i, run_item(i))
                continue
            try:
                result, error, cause = pickle.load(pipes[i % workers - 1])
            except (EOFError, pickle.UnpicklingError):
                first, last = items[i][0], items[i][-1]
                dates = f"date {first!r}" if first == last else f"dates {first!r} to {last!r}"
                raise NumericalError(
                    f"{stage}: the worker for {dates} ended without reporting"
                ) from None
            if error is not None:
                raise error from cause
            take(i, result)
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
