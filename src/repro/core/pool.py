"""A fork-join job pool for the offline studies.

:func:`run_jobs` runs a list of independent zero-argument jobs across the
host's usable cores and returns their results in job order.  The caller
lists the jobs longest first.  Forked workers claim jobs from the front of
the queue and the calling process (the parent, itself one of the workers)
claims from the back until the two ends meet, so the workers start on the
longest jobs and the parent on the shortest.  Which process runs the
longest job does not depend on a race: worker *k* starts on job *k* and the
parent on the last job, before any process claims another.

The queue is a ``(head, tail)`` pair in an anonymous shared mapping,
guarded by one byte in a pipe: a claim reads the byte (the lock), moves one
end and writes the byte back.  Jobs and their inputs reach a worker
copy-on-write through the fork, so nothing is pickled on the way in.  Each
worker pickles ``{job: result}`` back over its own pipe and leaves through
``os._exit``.  The parent reads every pipe to EOF before it reaps that
worker.  A job's exception reaches the caller with its original type,
whichever process ran the job; a worker that dies is a
:class:`RuntimeError` naming its exit status.  Every worker is killed and
reaped on every exit path.

The pool runs the jobs in process, in queue order, when the host has fewer
than two usable CPUs, when the platform is not Linux, or when another
Python thread is alive: a child forked beside another thread may inherit a
lock that thread held.  The service (event loop plus executor threads)
therefore never forks.  Threads cannot share the engine's kernels either:
an SGD step is ~23 small ufunc calls that hand the GIL back and forth.  A
spawned process pool would pickle its inputs and need a ``__main__`` guard
in every calling script; a fork needs neither.

Examples::

    >>> run_jobs([lambda: 1 + 1, lambda: "two"])
    [2, 'two']
"""

from __future__ import annotations

import mmap
import os
import pickle
import signal
import struct
import sys
import threading
import traceback
from typing import Callable, NoReturn, Sequence, TypeVar

__all__ = ["pool_workers", "run_jobs"]

T = TypeVar("T")

#: The shared queue state: the next job from the front, then from the back.
_ENDS = struct.Struct("qq")


def pool_workers(n_jobs: int) -> int:
    """How many processes :func:`run_jobs` uses for *n_jobs* jobs (1: no fork)."""
    if n_jobs < 2 or not sys.platform.startswith("linux") or threading.active_count() > 1:
        return 1
    return min(len(os.sched_getaffinity(0)), n_jobs)


def run_jobs(jobs: Sequence[Callable[[], T]]) -> list[T]:
    """Run every job, across processes when that is safe; results in job order."""
    workers = pool_workers(len(jobs))
    if workers == 1:
        return [job() for job in jobs]
    return _fork_join(jobs, workers)


class _Queue:
    """Job indices still to claim, shared by the parent and its workers."""

    def __init__(self, head: int, tail: int) -> None:
        self._ends = mmap.mmap(-1, _ENDS.size)
        _ENDS.pack_into(self._ends, 0, head, tail)
        self._lock_read, self._lock_write = os.pipe()
        os.write(self._lock_write, b"\0")

    def claim(self, front: bool) -> int | None:
        """Take the next job from the front or the back; ``None`` once empty."""
        os.read(self._lock_read, 1)
        try:
            head, tail = _ENDS.unpack_from(self._ends)
            if head > tail:
                return None
            if front:
                _ENDS.pack_into(self._ends, 0, head + 1, tail)
                return head
            _ENDS.pack_into(self._ends, 0, head, tail - 1)
            return tail
        finally:
            os.write(self._lock_write, b"\0")

    def close(self) -> None:
        os.close(self._lock_read)
        os.close(self._lock_write)
        self._ends.close()


def _fork_join(jobs: Sequence[Callable[[], T]], workers: int) -> list[T]:
    """Run *jobs* in the parent plus ``workers - 1`` forked children."""
    n_jobs = len(jobs)
    _flush_std_streams()                # else each child inherits pending output
    # Child k starts on job k, the parent on the last one; both ends of
    # the rest are claimed from here on.
    queue = _Queue(head=workers - 1, tail=n_jobs - 2)
    children: dict[int, int] = {}      # unreaped child pid -> its pipe's read end
    read_ends: list[int] = []
    results: dict[int, T] = {}
    try:
        for first in range(workers - 1):
            read_end, write_end = os.pipe()
            read_ends.append(read_end)
            try:
                pid = os.fork()
                if pid == 0:
                    _work(jobs, queue, first, write_end)
            finally:
                os.close(write_end)
            children[pid] = read_end
        job = n_jobs - 1
        while job is not None:
            results[job] = jobs[job]()
            job = queue.claim(front=False)
        for pid, read_end in list(children.items()):
            payload = b"".join(iter(lambda: os.read(read_end, 1 << 20), b""))
            _, status = os.waitpid(pid, 0)
            del children[pid]
            code = os.waitstatus_to_exitcode(status)
            if code != 0:
                raise RuntimeError(f"job pool worker {pid} exited with status {code}")
            done, failure = pickle.loads(payload)
            if failure is not None:
                job, error, trace = failure
                raise error from RuntimeError(f"job {job} failed in worker {pid}:\n{trace}")
            results.update(done)
        return [results[job] for job in range(n_jobs)]
    finally:
        for pid in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for read_end in read_ends:
            os.close(read_end)
        queue.close()


def _work(jobs: Sequence[Callable[[], T]], queue: _Queue, job: int | None,
          write_end: int) -> NoReturn:
    """Body of a forked worker: run *job*, then claim from the front; exit.

    A job's exception ends the worker's claims and is sent back with the
    results; the other processes run the jobs left in the queue.
    ``os._exit`` skips the parent's ``atexit`` handlers and flushes no
    buffer, so the worker flushes what its jobs printed and leaves nothing
    else behind but its pipe's bytes and its exit status.
    """
    # No re-raise: a worker must never unwind into the caller's frames, so
    # any failure outside a job, an interrupt included, is its exit status.
    status = 1
    try:
        done: dict[int, T] = {}
        failure = None
        while job is not None:
            try:
                done[job] = jobs[job]()
            except BaseException as error:
                failure = (job, error, traceback.format_exc())
                break
            job = queue.claim(front=True)
        with os.fdopen(write_end, "wb") as pipe:
            pickle.dump((done, failure), pipe, protocol=pickle.HIGHEST_PROTOCOL)
        _flush_std_streams()
        status = 0
    except BaseException:
        os.write(2, traceback.format_exc().encode())
    finally:
        os._exit(status)


def _flush_std_streams() -> None:
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()
