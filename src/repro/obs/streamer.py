"""The run's one telemetry stream — registry deltas and discrete records.

The post-hoc planes (``RunReport``, the ledger bundle) only exist once a
run finishes; the :class:`TelemetryStreamer` makes the same registry
observable *while it runs*, in one JSONL file.  A daemon thread wakes on a
drift-free deadline grid (:func:`~repro.obs.sampler.deadline_loop`),
freezes the registry with :meth:`~repro.obs.metrics.MetricsRegistry.state`,
and writes only what changed since the previous tick as one ``delta``
record.  Deltas have the exact shape
:meth:`~repro.obs.metrics.MetricsRegistry.merge_state` consumes — counters
as increments, gauges as last values, histograms (phase timings among
them) as bucket-count deltas — so a consumer rebuilds the live registry at
any point by folding them in order; :func:`replay_stream` does exactly
that and is the round-trip tests' oracle.  Callback gauges (signature
fill, peak RSS) are evaluated by each tick's ``state()``, so the deltas
are the stream's time series of those readings.

The streamer is also the registry's sink: the discrete records the
pipeline emits (``rebalance`` at a redistribution round, ``heartbeat``
from the processes-mode watchdog) land in the same file.  One lock orders
all writers, so ``seq`` counts records 0, 1, 2, ... in file order whichever
thread wrote them.

Stream layout (``ddprof.telemetry-stream/3``); every record carries
``type``, ``seq``, ``ts`` and ``run_id``::

    {"type": "header", "seq": 0, "schema": ..., "interval_s": ...,
     "command": ..., "workload": ...}
    {"type": "delta", "seq": 1, "counters": [[name, [[k, v], ...], inc], ...],
     "gauges": [...], "histograms": [...]}
    {"type": "rebalance", "seq": 2, "round": 1, ...}
    {"type": "heartbeat", "seq": 3, "worker": 1, "state": "stalled", ...}
    ...
    {"type": "final", "seq": N, ...full display snapshot..., "ledger": ...}

Every record is written and flushed as one line, so a reader tailing the
file never sees a torn record.  Ticks on which nothing changed write
nothing — an idle run costs one ``state()`` walk per interval and zero I/O.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from typing import Any

from repro.common.errors import ObsError
from repro.obs.metrics import MetricsRegistry
from repro.obs.sampler import deadline_loop
from repro.obs.sinks import Sink, read_jsonl

SCHEMA = "ddprof.telemetry-stream/3"

#: Default emission cadence (seconds) — coarse enough to stay far off the
#: hot path, fine enough that a dashboard feels live.
DEFAULT_INTERVAL_S = 0.25


def _key(name: str, labels: Any) -> tuple[str, tuple]:
    return (name, tuple(tuple(kv) for kv in labels))


def state_delta(
    prev: dict[str, Any] | None, cur: dict[str, Any]
) -> dict[str, Any]:
    """What changed between two :meth:`MetricsRegistry.state` dumps.

    Returns a ``state``-shaped dict (mergeable via ``merge_state``):
    counters carry increments, gauges their current values (merge
    overwrites), and histograms element-wise bucket-count deltas.  Empty
    sections are empty lists, so ``is_empty_delta`` can cheaply decide
    whether a tick needs a record at all.
    """
    if prev is None:
        prev = {"counters": [], "gauges": [], "histograms": []}
    pc = {_key(n, l): v for n, l, v in prev["counters"]}
    # A key absent from prev is emitted even at value 0: instrument
    # *creation* is state too, or replay would drop zero-valued counters.
    counters = [
        (n, l, v - pc.get(_key(n, l), 0))
        for n, l, v in cur["counters"]
        if _key(n, l) not in pc or v != pc[_key(n, l)]
    ]
    pg = {_key(n, l): v for n, l, v in prev["gauges"]}
    gauges = [
        (n, l, v)
        for n, l, v in cur["gauges"]
        if _key(n, l) not in pg or v != pg[_key(n, l)]
    ]
    ph = {
        _key(n, l): (counts, total, count)
        for n, l, _, counts, total, count in prev["histograms"]
    }
    histograms = []
    for n, l, buckets, counts, total, count in cur["histograms"]:
        is_new = _key(n, l) not in ph
        old_counts, old_total, old_count = ph.get(
            _key(n, l), ([0] * len(counts), 0.0, 0)
        )
        if is_new or count != old_count or total != old_total:
            histograms.append(
                (
                    n,
                    l,
                    buckets,
                    [c - o for c, o in zip(counts, old_counts)],
                    total - old_total,
                    count - old_count,
                )
            )
    return {"counters": counters, "gauges": gauges, "histograms": histograms}


def is_empty_delta(delta: dict[str, Any]) -> bool:
    return not any(delta[k] for k in ("counters", "gauges", "histograms"))


class TelemetryStreamer(Sink):
    """Writes a run's registry deltas and discrete records to one file.

    Construction opens ``path``, writes the ``header`` record (``meta``
    fields ride on it) and installs the streamer as ``registry.sink``, so
    the file exists from the start of any run that asked for it.  Driving
    is either threaded (:meth:`start` / :meth:`stop`) or manual
    (:meth:`tick`).

    :meth:`stop` takes one final delta tick and appends a ``final`` record
    with the full display snapshot of that same registry dump (plus any
    fields passed to it), so a consumer that only reads the last line
    still gets the end-of-run totals.  ``stop`` and ``close`` are
    idempotent; emitting after either raises
    :class:`~repro.common.errors.ObsError`.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        path: str | Path,
        interval_s: float = DEFAULT_INTERVAL_S,
        **meta: Any,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        self.registry = registry
        self.path = Path(path)
        self.interval_s = interval_s
        self.run_id = registry.run_id
        #: Records written so far; the next record's ``seq``.
        self.seq = 0
        self._prev: dict[str, Any] | None = None
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._closed = False
        self._fh = self.path.open("w", encoding="utf-8")
        self._write(
            {"type": "header", "schema": SCHEMA, "interval_s": interval_s, **meta}
        )
        registry.sink = self

    # -- record emission ----------------------------------------------------
    def _write(self, record: dict[str, Any]) -> None:
        """Stamp and write one record; the caller holds ``_lock``."""
        if self._closed:
            raise ObsError(f"emit() on closed telemetry stream ({self.path})")
        record["seq"] = self.seq
        record["ts"] = round(time.time(), 6)
        if self.run_id is not None:
            record["run_id"] = self.run_id
        self._fh.write(
            json.dumps(record, sort_keys=True, separators=(",", ":"), default=str)
            + "\n"
        )
        self._fh.flush()
        self.seq += 1

    def emit(self, event: dict[str, Any]) -> None:
        """Write one discrete record (``rebalance``, ``heartbeat``)."""
        with self._lock:
            self._write(event)

    def tick(self) -> bool:
        """Write one delta record if anything changed; True when written.

        Serialized by the lock: the final forced tick from :meth:`stop` and
        a late grid tick from the thread cannot interleave their state
        reads.
        """
        with self._lock:
            if self._closed:
                return False
            return self._write_delta()

    def _write_delta(self) -> bool:
        """Dump the registry, write what changed; the caller holds ``_lock``."""
        cur = self.registry.state()
        delta = state_delta(self._prev, cur)
        self._prev = cur
        if is_empty_delta(delta):
            return False
        self._write({"type": "delta", **delta})
        return True

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> None:
        """Start the streaming thread."""
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=deadline_loop,
            args=(self.tick, self.interval_s, self._stop.wait),
            kwargs={"registry": self.registry, "label": "stream"},
            name="obs-streamer",
            daemon=True,
        )
        self._thread.start()

    def stop(self, **final: Any) -> None:
        """Final delta + ``final`` full-snapshot record, then close the file.

        ``final`` fields (the CLI passes the ledger bundle path) ride on the
        ``final`` record.  Idempotent, and safe to call without
        :meth:`start` (manual driving): the trailing records are written
        exactly once.
        """
        if self._closed:
            return
        if self._thread is not None:
            self._stop.set()
            self._thread.join(timeout=5)
            self._thread = None
        with self._lock:
            if self._closed:
                return
            self._write_delta()  # whatever changed since the last grid point
            # The final snapshot displays that same dump, so a callback
            # gauge (peak RSS) is read once for both records and replaying
            # the deltas reproduces the final record exactly.
            last = MetricsRegistry()
            last.merge_state(self._prev)
            self._write({"type": "final", **last.snapshot(), **final})
            self._closed = True
            self._fh.close()

    def close(self) -> None:
        self.stop()

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def __enter__(self) -> "TelemetryStreamer":
        self.start()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.stop()


def replay_stream(path: str | Path) -> tuple[MetricsRegistry, dict[str, Any]]:
    """Reconstruct a registry from a telemetry stream file.

    Folds every ``delta`` record into a fresh registry via ``merge_state``
    and returns ``(registry, info)``.  ``info`` carries the ``header``
    record, the embedded ``final`` snapshot (if the stream was closed
    cleanly), the delta count, the set of ``run_ids`` seen, and
    ``records``: every discrete record (``rebalance``, ``heartbeat``) in
    file order.  The round-trip contract —
    ``replay_stream(p)[0].snapshot() == final snapshot`` — is what makes
    the stream a faithful live view rather than a lossy log.
    """
    reg = MetricsRegistry()
    info: dict[str, Any] = {
        "header": None,
        "final": None,
        "n_deltas": 0,
        "run_ids": set(),
        "records": [],
    }
    for rec in read_jsonl(path):
        if "run_id" in rec:
            info["run_ids"].add(rec["run_id"])
        kind = rec.get("type")
        if kind == "header":
            info["header"] = rec
        elif kind == "delta":
            info["n_deltas"] += 1
            reg.merge_state(rec)
        elif kind == "final":
            info["final"] = rec
        else:
            info["records"].append(rec)
    return reg, info
