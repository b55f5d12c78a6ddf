"""The ``processes`` mode's worker pool: forked once, reused across runs.

In the paper's pipeline (§IV, Fig. 2) the workers live for the whole
profiling session.  One :class:`WorkerPool` per Python process plays that
part: :func:`worker_pool` forks it on the first processes-mode run and
hands it to every later run with the same ``workers``, so such a run
forks nothing and its workers keep the pages earlier runs faulted in.

The pool forks with what its workers share with the parent for its whole
life:

* an :class:`Arena`, one anonymous ``MAP_SHARED`` map.  Each run copies
  the arrays of its loop index and, for an in-memory trace, the trace's
  eight columns into it, and its workers read them as views.  A spilled
  trace is handed over by its path and never copied: each worker maps the
  spill files itself.
* the :class:`~repro.parallel.heartbeat.HeartbeatBoard`;
* one task queue per worker and one result queue.  The task queues are
  unbounded: a run's trace is in the arena (or its spill files) before
  its first task is sent, so they carry only a start message, window
  index triples and an end marker.

Runs of one process take turns on the pool, each inside
:func:`worker_pool`, which closes the pool and forks a new one for
another worker count, a hand-off that does not fit the arena, or a dead
worker, and closes it after a run that raised.  An ``atexit`` hook closes
it at interpreter exit, and an idle worker whose parent is gone exits by
itself (:mod:`repro.parallel.procworker`).  Between runs the pool holds
its idle processes, the arena pages its largest hand-off touched, and
the copy-on-write pages its workers still share with the parent as it
was when they were forked.
"""

from __future__ import annotations

import atexit
import contextlib
import mmap
import multiprocessing
import os
import threading
from typing import Iterator

import numpy as np

from repro.parallel.heartbeat import HeartbeatBoard
from repro.parallel.procworker import EXIT, run_worker

#: Smallest arena a pool forks with, in bytes: room for the hand-off of
#: every bundled trace but the amplified ones (the largest, kmeans', is
#: 7.4 MiB), so runs of different sizes share one pool.  Pages the
#: hand-offs never touch cost nothing.
ARENA_MIN = 16 << 20
#: Byte alignment of every array placed in the arena.
_ALIGN = 64

#: Group name -> array name -> (byte offset, dtype string, shape).
Layout = dict[str, dict[str, tuple[int, str, tuple[int, ...]]]]


def _place(groups: dict[str, dict[str, np.ndarray]]) -> tuple[Layout, int]:
    """Lay ``groups`` of named arrays out back to back from offset 0;
    returns the layout and the bytes it spans."""
    layout: Layout = {}
    end = 0
    for group, arrays in groups.items():
        placed = layout[group] = {}
        for name, array in arrays.items():
            start = -(-end // _ALIGN) * _ALIGN
            placed[name] = (start, array.dtype.str, array.shape)
            end = start + array.nbytes
    return layout, end


class Arena:
    """An anonymous ``MAP_SHARED`` map holding one run's arrays.

    The parent writes groups of named arrays with :meth:`write` and sends
    the layout it returns; a worker turns the layout back into read-only
    views of the same pages with :meth:`read`.  Each run writes over the
    last one's arrays, which no worker reads once it has delivered its
    part.
    """

    def __init__(self, size: int) -> None:
        self.size = size
        self._map = mmap.mmap(-1, size)

    @staticmethod
    def nbytes(groups: dict[str, dict[str, np.ndarray]]) -> int:
        """Bytes :meth:`write` needs for ``groups``."""
        return _place(groups)[1]

    def write(self, groups: dict[str, dict[str, np.ndarray]]) -> Layout:
        layout, end = _place(groups)
        if end > self.size:
            raise ValueError(f"hand-off of {end} bytes exceeds the {self.size}-byte arena")
        for group, arrays in groups.items():
            for name, array in arrays.items():
                offset, dtype, shape = layout[group][name]
                np.ndarray(shape, dtype, buffer=self._map, offset=offset)[...] = array
        return layout

    def read(self, layout: Layout) -> dict[str, dict[str, np.ndarray]]:
        views: dict[str, dict[str, np.ndarray]] = {}
        for group, placed in layout.items():
            views[group] = {}
            for name, (offset, dtype, shape) in placed.items():
                view = np.ndarray(shape, dtype, buffer=self._map, offset=offset)
                view.flags.writeable = False
                views[group][name] = view
        return views

    def close(self) -> None:
        try:
            self._map.close()
        except BufferError:  # a live view still pins the map
            pass


def _arena_size(nbytes: int) -> int:
    """The power of two that holds twice ``nbytes``: later runs a little
    larger than the one that forked the pool still fit."""
    return max(ARENA_MIN, 1 << (2 * nbytes - 1).bit_length())


class WorkerPool:
    """``workers`` forked worker processes with their queues, arena and
    heartbeat board (see the module docstring)."""

    def __init__(self, workers: int, arena_bytes: int) -> None:
        ctx = multiprocessing.get_context("fork")
        self.workers = workers
        #: The process that forked the pool: the only one that may use it.
        self.owner = os.getpid()
        self.arena = Arena(arena_bytes)
        self.board = HeartbeatBoard(workers)
        self.task_qs = [ctx.Queue() for _ in range(workers)]
        self.result_q = ctx.Queue()
        self.procs = [
            ctx.Process(
                target=run_worker,
                args=(w, self.task_qs[w], self.result_q, self.arena, self.board),
                daemon=True,
                name=f"ddprof-worker-{w}",
            )
            for w in range(workers)
        ]
        try:
            for p in self.procs:
                p.start()
        except BaseException:
            self.close(terminate=True)
            raise

    def fits(self, workers: int, nbytes: int) -> bool:
        """Whether a run of ``workers`` and this hand-off size, in this
        process, can use the pool (a forked child's copy of its parent's
        pool is not its to use)."""
        return (
            self.owner == os.getpid()
            and self.workers == workers
            and nbytes <= self.arena.size
            and all(p.is_alive() for p in self.procs)
        )

    def close(self, terminate: bool = False) -> None:
        """Stop the workers; release the queues, the board and the arena.

        Idle workers are sent ``EXIT`` and given a second to leave; with
        ``terminate`` (after a failed run, whose workers may be busy) and
        for stragglers, they get SIGTERM.
        """
        started = [p for p in self.procs if p.pid is not None]
        if not terminate:
            for q in self.task_qs:
                try:
                    q.put_nowait(EXIT)
                except (ValueError, OSError):
                    pass
            for p in started:
                p.join(timeout=1.0)
        for p in started:
            if p.is_alive():
                p.terminate()
                p.join(timeout=5.0)
        for q in (*self.task_qs, self.result_q):
            q.cancel_join_thread()  # nothing left on them is needed
            q.close()
        self.board.close()
        self.arena.close()


_pool: WorkerPool | None = None
#: Held by the run using :data:`_pool`.
_lock = threading.Lock()


@contextlib.contextmanager
def worker_pool(workers: int, nbytes: int) -> Iterator[tuple[WorkerPool, bool]]:
    """Hold this process's pool for one run of ``workers`` whose hand-off
    takes ``nbytes``; yields the pool and whether it was forked for the run.

    The current pool is reused when it fits (:meth:`WorkerPool.fits`);
    otherwise it is closed and a new one forked.  A run that raises may
    leave work or busy workers behind, so the pool is then terminated and
    the next run forks a fresh one.
    """
    global _pool
    with _lock:
        forked = _pool is None or not _pool.fits(workers, nbytes)
        if forked:
            close_pool()
            _pool = WorkerPool(workers, _arena_size(nbytes))
        try:
            yield _pool, forked
        except BaseException:
            close_pool(terminate=True)
            raise


def close_pool(terminate: bool = False) -> None:
    """Close this process's pool, if it has one (see :meth:`WorkerPool.close`)."""
    global _pool
    pool, _pool = _pool, None
    if pool is not None and pool.owner == os.getpid():
        pool.close(terminate)


atexit.register(close_pool)
