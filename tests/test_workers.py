"""fork_map gives what the comprehension gives, results and errors alike,
and leaves no child process behind."""

from __future__ import annotations

import os
import signal

import pytest

from disco import workers
from disco.errors import DiscoError, InvalidConfig, WorkerLost
from disco.workers import fork_map, usable_cpus


@pytest.fixture(autouse=True)
def many_cpus(monkeypatch):
    """Enough usable CPUs that fork_map starts as many workers as asked,
    whatever the machine; each test then checks that none is left."""
    monkeypatch.setattr(workers, "usable_cpus", lambda: 8)
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def in_child_only(action):
    """A task that runs ``action`` in a forked worker and returns its
    input in the calling process."""
    caller = os.getpid()

    def task(t):
        if os.getpid() != caller:
            action()
        return t
    return task


@pytest.mark.parametrize("threads", [1, 2, 3, 8])
@pytest.mark.parametrize("n", [0, 1, 2, 5, 17])
def test_task_i_runs_on_worker_i_mod_w(threads, n):
    caller = os.getpid()
    pids = fork_map(lambda t: (t * t, os.getpid()), range(n), threads)
    assert [value for value, _ in pids] == [t * t for t in range(n)]
    w = min(threads, n, 8)
    for i, (_, pid) in enumerate(pids):
        assert (pid == caller) == (i % w == 0)
        assert pid == pids[i % w][1]


@pytest.mark.parametrize("failing", [{3, 5}, {1, 4}, {2, 5}, {0, 1}, {6}])
def test_raises_what_the_comprehension_raises_first(failing):
    def task(t):
        if t in failing:
            raise InvalidConfig(f"task {t} failed")
        return t

    with pytest.raises(InvalidConfig) as serial:
        [task(t) for t in range(7)]
    with pytest.raises(InvalidConfig) as forked:
        fork_map(task, range(7), 3)
    assert str(forked.value) == str(serial.value) == f"task {min(failing)} failed"


def test_a_worker_that_exits_without_results_is_an_error():
    with pytest.raises(WorkerLost, match=r"ended without sending its results "
                                         r"\(exit status 3\)") as lost:
        fork_map(in_child_only(lambda: os._exit(3)), range(4), 2)
    assert isinstance(lost.value, DiscoError) and lost.value.exit_code == 2


def test_a_killed_worker_is_an_error():
    with pytest.raises(WorkerLost, match=f"killed by signal {int(signal.SIGKILL)}"):
        fork_map(in_child_only(lambda: os.kill(os.getpid(), signal.SIGKILL)), range(4), 2)


def test_a_result_that_cannot_be_sent_is_an_error():
    # a worker that cannot pickle its share still ends with os._exit
    with pytest.raises(WorkerLost, match=r"exit status 1"):
        fork_map(lambda t: (lambda: t), range(4), 2)


def test_a_failure_before_the_lost_worker_wins():
    def task(t):
        if t == 0:
            raise InvalidConfig("task 0 failed")
        return in_child_only(lambda: os._exit(3))(t)

    with pytest.raises(InvalidConfig, match="task 0 failed"):
        fork_map(task, range(4), 2)


def test_serial_without_fork(monkeypatch):
    monkeypatch.delattr(os, "fork")
    assert fork_map(lambda t: os.getpid(), range(5), 4) == [os.getpid()] * 5


@pytest.mark.parametrize("affinity, cpus, want", [
    ({0, 5}, 64, 2), ({3}, 8, 1), (None, 6, 6), (None, None, 1)])
def test_usable_cpus_reads_the_affinity_first(monkeypatch, affinity, cpus, want):
    if affinity is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert usable_cpus() == want
