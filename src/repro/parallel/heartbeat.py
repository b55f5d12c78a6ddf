"""Worker liveness for the ``processes`` execution mode.

A forked worker that deadlocks, spins, or gets OOM-killed is invisible to
the parent until a queue timeout fires; the heartbeat plane makes worker
health *observable while the run executes*.  Two halves:

* :class:`HeartbeatBoard` — a tiny anonymous shared map, one ``(monotonic
  timestamp, beat count)`` float64 pair per worker, which the workers
  inherit through ``fork``.  Workers stamp their slot at startup, per task,
  and per kernel call (:func:`HeartbeatBoard.beat` is two array stores —
  nanoseconds, safe on the hot path).  ``time.monotonic``
  is ``CLOCK_MONOTONIC`` on Linux, one system-wide clock, so the parent can
  subtract a child's stamp from its own reading directly.
* :class:`WorkerWatchdog` — a parent-side daemon thread ticking on the
  drift-free :func:`~repro.obs.sampler.deadline_loop` grid.  Each tick it
  classifies every worker — ``live`` / ``stalled`` (no beat for longer
  than ``stall_after_s``) / ``dead`` (nonzero exitcode) — and publishes the
  verdicts as ``worker.heartbeat.*`` gauges in the run's registry, which is
  the *single* source of truth every consumer reads
  (:func:`~repro.obs.report.liveness_summary`, the HTTP ``/healthz``
  endpoint, the run report's liveness section).  Stall episodes additionally
  bump a ``worker.heartbeat.stalls`` counter and are recorded as
  ``worker.heartbeat_stall`` slices on the worker's tracer track (the
  ``_stall`` suffix folds them into the existing busy/stall/idle timeline
  accounting).  Each transition to ``stalled`` or ``dead``, and each
  recovery from a stall, is one ``heartbeat`` record in the run's
  telemetry stream.

The watchdog only ever *reports* — recovery (kill, raise, rebalance) stays
with the engine, whose queue timeouts already guarantee the parent cannot
hang on a dead worker.
"""

from __future__ import annotations

import mmap
import threading
import time
from typing import Any, Callable, Sequence

import numpy as np

from repro.obs.metrics import MetricsRegistry
from repro.obs.report import HEARTBEAT_STATES
from repro.obs.sampler import deadline_loop
from repro.obs.tracing import worker_track

STATE_LIVE = HEARTBEAT_STATES.index("live")
STATE_STALLED = HEARTBEAT_STATES.index("stalled")
STATE_DEAD = HEARTBEAT_STATES.index("dead")

#: Default watchdog cadence (seconds).
DEFAULT_INTERVAL_S = 0.05

#: A worker is stalled when its slot has not been stamped for this many
#: watchdog intervals.
STALL_AFTER_INTERVALS = 10


class HeartbeatBoard:
    """Heartbeat slots in an anonymous shared map: ``(n_workers, 2)`` float64.

    Column 0 is the worker's last ``time.monotonic()`` stamp, column 1 its
    cumulative beat count.  Slots are pre-stamped at creation so a worker
    that dies before its first beat ages from run start instead of from the
    monotonic epoch.  The map is ``MAP_SHARED | MAP_ANONYMOUS``: worker
    processes forked after :meth:`create` inherit it, so a child's stamps
    land in the pages the parent reads, with no name to attach by and
    nothing to unlink.
    """

    SLOTS = 2  # timestamp, beat count

    def __init__(self, n_workers: int) -> None:
        self.n_workers = n_workers
        self._map = mmap.mmap(-1, n_workers * self.SLOTS * 8)
        self.arr = np.ndarray(
            (n_workers, self.SLOTS), dtype=np.float64, buffer=self._map
        )
        self.arr[:, 0] = time.monotonic()
        self.arr[:, 1] = 0.0

    @classmethod
    def create(cls, n_workers: int) -> "HeartbeatBoard":
        return cls(n_workers)

    # -- worker side ---------------------------------------------------------
    def beat(self, wid: int) -> None:
        """Stamp worker ``wid``'s slot (hot path: two array stores)."""
        self.arr[wid, 1] += 1.0
        self.arr[wid, 0] = time.monotonic()

    # -- parent side ---------------------------------------------------------
    def age_seconds(self, wid: int, now: float | None = None) -> float:
        if now is None:
            now = time.monotonic()
        return max(0.0, now - float(self.arr[wid, 0]))

    def beats(self, wid: int) -> int:
        return int(self.arr[wid, 1])

    def close(self) -> None:
        """Drop the view and close the map.  Idempotent."""
        self.arr = None  # drop the view before closing the buffer
        try:
            self._map.close()
        except BufferError:  # a live export still pins the buffer
            pass


class WorkerWatchdog:
    """Classifies workers from their heartbeat slots; publishes verdicts.

    ``exitcodes(w)`` decouples the watchdog from ``multiprocessing``: the
    engine passes a closure over its ``Process`` list, tests pass plain
    dicts.  Classification order matters — exitcode beats heartbeat age,
    so a worker that exited cleanly milliseconds ago is ``live`` (finished),
    not ``stalled``, and a crashed one is ``dead`` even while its last
    stamp is still fresh.
    """

    def __init__(
        self,
        board: HeartbeatBoard,
        registry: MetricsRegistry,
        exitcodes: Callable[[int], int | None],
        interval_s: float = DEFAULT_INTERVAL_S,
        stall_after_s: float | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        self.board = board
        self.registry = registry
        self.exitcodes = exitcodes
        self.interval_s = interval_s
        self.stall_after_s = (
            stall_after_s
            if stall_after_s is not None
            else STALL_AFTER_INTERVALS * interval_s
        )
        self._clock = clock
        n = board.n_workers
        self.states = [STATE_LIVE] * n
        #: monotonic stamp of each worker's ongoing stall episode (-1 = none).
        self._stall_t0 = [-1.0] * n
        self.n_ticks = 0
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()

    # -- classification ------------------------------------------------------
    def classify(self, wid: int, now: float | None = None) -> int:
        exitcode = self.exitcodes(wid)
        if exitcode is not None and exitcode != 0:
            return STATE_DEAD
        if exitcode == 0:
            return STATE_LIVE  # finished cleanly
        if self.board.age_seconds(wid, now) > self.stall_after_s:
            return STATE_STALLED
        return STATE_LIVE

    def _end_stall(self, wid: int, now: float) -> None:
        """Close the open stall episode as a tracer slice."""
        t0 = self._stall_t0[wid]
        self._stall_t0[wid] = -1.0
        tracer = self.registry.tracer
        if tracer.enabled and t0 >= 0.0:
            # The board runs on time.monotonic, the tracer on perf_counter;
            # convert the episode length into the tracer's clock domain.
            end = tracer.now()
            dur = now - t0
            tracer.complete(
                "worker.heartbeat_stall", worker_track(wid), end - dur, end,
                worker=wid,
            )

    def tick(self) -> None:
        """One classification pass over every worker."""
        self.n_ticks += 1
        reg = self.registry
        now = self._clock()
        for w in range(self.board.n_workers):
            state = self.classify(w, now)
            age = self.board.age_seconds(w, now)
            reg.gauge("worker.heartbeat.age_seconds", worker=w).set(age)
            reg.gauge("worker.heartbeat.beats", worker=w).set(
                self.board.beats(w)
            )
            reg.gauge("worker.heartbeat.state", worker=w).set(state)
            prev = self.states[w]
            if state == STATE_STALLED and prev != STATE_STALLED:
                self._stall_t0[w] = now - age  # stall began at the last beat
                reg.counter("worker.heartbeat.stalls", worker=w).inc()
                reg.emit(
                    {"type": "heartbeat", "worker": w, "state": "stalled",
                     "age_seconds": round(age, 6), "beats": self.board.beats(w)}
                )
            elif state != STATE_STALLED and prev == STATE_STALLED:
                self._end_stall(w, now)
                if state == STATE_LIVE:
                    reg.emit(
                        {"type": "heartbeat", "worker": w, "state": "recovered"}
                    )
            if state == STATE_DEAD and prev != STATE_DEAD:
                reg.emit(
                    {"type": "heartbeat", "worker": w, "state": "dead",
                     "exitcode": self.exitcodes(w)}
                )
            self.states[w] = state

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> None:
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=deadline_loop,
            args=(self.tick, self.interval_s, self._stop.wait),
            kwargs={"registry": self.registry, "label": "watchdog"},
            name="obs-watchdog",
            daemon=True,
        )
        self._thread.start()

    def stop(self) -> None:
        """Join the thread, take one final pass, close open stall slices.

        The final tick runs even when :meth:`start` never did (manual
        driving in tests), so the gauges always reflect end-of-run state.
        """
        if self._thread is not None:
            self._stop.set()
            self._thread.join(timeout=5)
            self._thread = None
        self.tick()
        now = self._clock()
        for w in range(self.board.n_workers):
            if self._stall_t0[w] >= 0.0:
                self._end_stall(w, now)

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()


def process_exitcodes(procs: Sequence[Any]) -> Callable[[int], int | None]:
    """Adapter: ``multiprocessing.Process`` list -> watchdog exitcode fn."""

    def exitcode(wid: int) -> int | None:
        return procs[wid].exitcode

    return exitcode
