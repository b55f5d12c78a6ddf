"""Execution-timeline tracing — *when* did each pipeline actor do what.

The metrics registry answers "how much"; the tracer answers "when and in
what order".  It records pipeline lifecycle events (chunks processed per
worker, load-balancing quiesces and redistributions, heartbeat stalls,
merge phases) on a set of *tracks* — track 0 is the main
thread, track ``w + 1`` is worker ``w`` — with timestamps from one shared
``perf_counter`` epoch, so the whole run can be laid out as a timeline and
exported to Chrome ``trace_event`` JSON (:mod:`repro.obs.chrometrace`).

Hot-path contract, mirroring the sink design: the default
:class:`NullTracer` has ``enabled = False`` and every instrumented call
site is guarded by ``tracer.enabled``, so an untraced run executes the
identical code path and *never* calls a record method.  ``NullTracer``
counts any call it does receive (``record_calls``) — the overhead benchmark
asserts that counter stays at zero.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Iterator

#: Track id of the producer / main thread.
MAIN_TRACK = 0

#: Soft cap on recorded events; beyond it events are counted, not stored,
#: so a runaway trace cannot exhaust memory.
DEFAULT_MAX_EVENTS = 1_000_000


def worker_track(worker: int) -> int:
    """Track id of worker ``worker`` (main thread owns track 0)."""
    return worker + 1


class TraceEvent:
    """One timeline event.

    ``ts`` is seconds since the tracer's epoch.  ``dur`` is ``None`` for
    instant events and the duration in seconds for complete (slice) events.
    """

    __slots__ = ("name", "track", "ts", "dur", "args")

    def __init__(
        self,
        name: str,
        track: int,
        ts: float,
        dur: float | None = None,
        args: dict[str, Any] | None = None,
    ) -> None:
        self.name = name
        self.track = track
        self.ts = ts
        self.dur = dur
        self.args = args or {}

    @property
    def is_complete(self) -> bool:
        return self.dur is not None

    @property
    def end(self) -> float:
        return self.ts + (self.dur or 0.0)

    def to_dict(self) -> dict[str, Any]:
        d: dict[str, Any] = {"name": self.name, "track": self.track, "ts": self.ts}
        if self.dur is not None:
            d["dur"] = self.dur
        if self.args:
            d["args"] = self.args
        return d

    def __repr__(self) -> str:
        kind = f"dur={self.dur:.6f}" if self.dur is not None else "instant"
        return f"TraceEvent({self.name!r}, track={self.track}, ts={self.ts:.6f}, {kind})"


class NullTracer:
    """Disabled tracer: ``enabled=False`` lets call sites skip recording.

    Record methods are still safe to call; each call bumps
    ``record_calls`` so tests can prove the guarded hot path never
    reaches them.
    """

    enabled = False
    #: Empty, immutable event view so consumers can iterate unconditionally.
    events: tuple[TraceEvent, ...] = ()
    track_names: dict[int, str] = {}
    n_dropped = 0
    run_id: str | None = None

    def __init__(self) -> None:
        self.record_calls = 0

    def set_track(self, track: int, name: str) -> None:
        self.record_calls += 1

    def instant(self, name: str, track: int = MAIN_TRACK, **args: Any) -> None:
        self.record_calls += 1

    def complete(
        self,
        name: str,
        track: int,
        start: float,
        end: float | None = None,
        **args: Any,
    ) -> None:
        self.record_calls += 1

    def now(self) -> float:
        return time.perf_counter()

    @contextmanager
    def slice(self, name: str, track: int = MAIN_TRACK, **args: Any) -> Iterator[None]:
        self.record_calls += 1
        yield

    def summary(self) -> dict[str, Any]:
        return {}


#: Shared default instance — registries without a tracer all point here.
NULL_TRACER = NullTracer()


class Tracer:
    """Recording tracer: one shared clock epoch, one event list.

    All record methods take *absolute* ``time.perf_counter()`` values (or
    stamp "now" themselves) and store timestamps relative to the tracer's
    construction epoch, so events from different threads land on one
    comparable timeline.  Appending to a list is atomic under the GIL,
    which is all the thread-safety the pipeline's workers need.
    """

    enabled = True

    def __init__(
        self, max_events: int = DEFAULT_MAX_EVENTS, run_id: str | None = None
    ) -> None:
        self.epoch = time.perf_counter()
        self.max_events = max_events
        #: Correlation id of the run this timeline belongs to (lands in the
        #: Chrome trace export's ``otherData`` so a trace file can be matched
        #: to its telemetry stream).
        self.run_id = run_id
        self.events: list[TraceEvent] = []
        self.track_names: dict[int, str] = {MAIN_TRACK: "main"}
        self.n_dropped = 0

    # -- recording ---------------------------------------------------------
    def now(self) -> float:
        """Absolute clock value; pass back into :meth:`complete`."""
        return time.perf_counter()

    def set_track(self, track: int, name: str) -> None:
        self.track_names[track] = name

    def _record(self, event: TraceEvent) -> None:
        if len(self.events) >= self.max_events:
            self.n_dropped += 1
            return
        self.events.append(event)

    def instant(self, name: str, track: int = MAIN_TRACK, **args: Any) -> None:
        """Record a zero-duration event stamped now."""
        self._record(
            TraceEvent(name, track, time.perf_counter() - self.epoch, None, args)
        )

    def complete(
        self,
        name: str,
        track: int,
        start: float,
        end: float | None = None,
        **args: Any,
    ) -> None:
        """Record a slice from absolute ``start`` to ``end`` (default: now)."""
        if end is None:
            end = time.perf_counter()
        self._record(
            TraceEvent(name, track, start - self.epoch, max(0.0, end - start), args)
        )

    @contextmanager
    def slice(self, name: str, track: int = MAIN_TRACK, **args: Any) -> Iterator[None]:
        """Context manager recording one complete event around its body."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.complete(name, track, t0, **args)

    # -- cross-process transfer --------------------------------------------
    def adopt(
        self,
        events: list[TraceEvent],
        epoch: float,
        track_names: dict[int, str] | None = None,
    ) -> None:
        """Fold events recorded by another tracer into this timeline.

        ``epoch`` is the donor tracer's construction epoch.  On Linux
        ``time.perf_counter`` is ``CLOCK_MONOTONIC``, which is system-wide,
        so re-basing by the epoch difference puts a forked child's events on
        the parent's timeline exactly.  The ``max_events`` cap still
        applies.
        """
        shift = epoch - self.epoch
        for e in events:
            self._record(TraceEvent(e.name, e.track, e.ts + shift, e.dur, e.args))
        if track_names:
            for track, name in track_names.items():
                self.track_names.setdefault(track, name)

    # -- derived views -----------------------------------------------------
    @property
    def n_events(self) -> int:
        return len(self.events)

    def events_on(self, track: int) -> list[TraceEvent]:
        return [e for e in self.events if e.track == track]

    def of_name(self, name: str) -> list[TraceEvent]:
        return [e for e in self.events if e.name == name]

    def wall_seconds(self) -> float:
        """Span from the earliest event start to the latest event end."""
        if not self.events:
            return 0.0
        start = min(e.ts for e in self.events)
        end = max(e.end for e in self.events)
        return max(0.0, end - start)

    def summary(self) -> dict[str, Any]:
        """Per-track busy/stall/idle accounting for the run report.

        ``busy`` sums complete-event durations except stall intervals;
        ``stall`` sums events whose name ends in ``_stall``; ``idle`` is
        whatever remains of the wall-clock window.  Fractions are of the
        whole-trace wall time, so tracks are directly comparable.
        """
        wall = self.wall_seconds()
        tracks: dict[str, Any] = {}
        for track in sorted(set(e.track for e in self.events) | set(self.track_names)):
            evs = self.events_on(track)
            stall = sum(
                e.dur for e in evs if e.dur is not None and e.name.endswith("_stall")
            )
            busy = sum(
                e.dur
                for e in evs
                if e.dur is not None and not e.name.endswith("_stall")
            )
            busy = min(busy, wall)
            idle = max(0.0, wall - busy - stall)
            name = self.track_names.get(track, f"track {track}")
            tracks[name] = {
                "events": len(evs),
                "busy_seconds": busy,
                "stall_seconds": stall,
                "busy_frac": busy / wall if wall else 0.0,
                "stall_frac": stall / wall if wall else 0.0,
                "idle_frac": idle / wall if wall else 0.0,
            }
        return {
            "wall_seconds": wall,
            "n_events": len(self.events),
            "n_dropped": self.n_dropped,
            "tracks": tracks,
        }
