"""Independent tasks on forked worker processes.

``fork_map`` is the one place the package starts processes: forest
training fits its trees on it, and a sweep its k-medoids and other
selections.  Workers are forked, not spawned, so they start with numpy and
the caller's data already in memory and need no pickled inputs; only their
results travel back, through a pipe.
"""

from __future__ import annotations

import os
import pickle
import signal
from operator import itemgetter
from typing import BinaryIO, Callable, Iterable, NoReturn

from .errors import WorkerLost


def usable_cpus() -> int:
    """The number of CPUs this process may run on: its CPU affinity where
    the platform reports one, else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def fork_map(fn: Callable, tasks: Iterable, threads: int) -> list:
    """``[fn(t) for t in tasks]``, computed by W = min(``threads``, number
    of tasks, ``usable_cpus()``) processes.

    Task i runs on worker i mod W.  Worker 0 is this process, which does its
    share while the others, forked from it, do theirs; a forked worker sees
    this process's memory as it was at the fork, and what its tasks change
    there is lost.  With W = 1, or where ``os.fork`` is missing, this is the
    comprehension itself.

    Raises what the comprehension would raise first: the exception of the
    lowest-numbered failing task.  A forked worker that ends without sending
    its results (killed, or out of memory) counts as failing at its first
    task and raises WorkerLost, which names its exit status.  Every forked
    worker has ended and been reaped before this returns or raises.
    """
    tasks = list(tasks)
    workers = min(threads, len(tasks), usable_cpus())
    if workers <= 1 or not hasattr(os, "fork"):
        return [fn(t) for t in tasks]
    return _forked(fn, tasks, workers)


def _share(fn: Callable, tasks: list, w: int, workers: int) -> tuple[list, tuple | None]:
    """Worker ``w``'s results in task order, up to its first failing task,
    and that task's (index, exception), or None."""
    results = []
    for i in range(w, len(tasks), workers):
        try:
            results.append(fn(tasks[i]))
        except Exception as e:
            return results, (i, e)
    return results, None


def _child(fn: Callable, tasks: list, w: int, workers: int, write_end: int) -> NoReturn:
    # os._exit, whatever happens: a forked worker must not unwind into the
    # caller's frames, run its exit handlers or flush the buffers it shares
    # with the parent.
    status = 1
    try:
        payload = pickle.dumps(_share(fn, tasks, w, workers), pickle.HIGHEST_PROTOCOL)
        with open(write_end, "wb") as pipe:
            pipe.write(payload)
        status = 0
    finally:
        os._exit(status)


def _unpack(payload: bytes, w: int, pid: int, status: int) -> tuple[list, tuple | None]:
    """The share that worker ``w`` sent; a WorkerLost failure at its first
    task where it sent nothing, or a cut-off share."""
    try:
        return pickle.loads(payload)
    except Exception:
        code = os.waitstatus_to_exitcode(status)
        how = f"exit status {code}" if code >= 0 else f"killed by signal {-code}"
        return [], (w, WorkerLost(f"worker process {pid} ended without sending "
                                  f"its results ({how})"))


def _forked(fn: Callable, tasks: list, workers: int) -> list:
    children: list[tuple[int, BinaryIO]] = []       # (pid, read end of its pipe)
    reaped = 0
    try:
        for w in range(1, workers):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(read_end)
                os.close(write_end)
                raise
            if pid == 0:
                os.close(read_end)
                _child(fn, tasks, w, workers, write_end)
            os.close(write_end)
            children.append((pid, open(read_end, "rb")))
        shares = [_share(fn, tasks, 0, workers)]
        for w, (pid, pipe) in enumerate(children, start=1):
            # read to the end before reaping: a share larger than the pipe's
            # buffer would otherwise block its worker
            payload = pipe.read()
            status = os.waitpid(pid, 0)[1]
            reaped = w
            shares.append(_unpack(payload, w, pid, status))
    finally:
        for pid, _ in children[reaped:]:    # only when this process stopped early
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for _, pipe in children:
            pipe.close()
    failures = [failure for _, failure in shares if failure is not None]
    if failures:
        raise min(failures, key=itemgetter(0))[1]
    results = [None] * len(tasks)
    for w, (share, _) in enumerate(shares):
        results[w::workers] = share
    return results
