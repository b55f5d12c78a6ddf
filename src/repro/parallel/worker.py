"""A profiling worker: owns one address subset's signatures and dependences."""

from __future__ import annotations

import time

import numpy as np

from repro.common.config import ProfilerConfig
from repro.core.controlflow import LoopStateIndex
from repro.core.deps import DependenceStore
from repro.core.vectorized import ChunkKernel
from repro.obs.heatmap import AddressHeatmap
from repro.obs.metrics import MetricsRegistry
from repro.obs.provenance import ProvenanceCollector
from repro.obs.tracing import worker_track
from repro.parallel.heartbeat import HeartbeatBoard
from repro.sigmem import DenseKeySpace, DensePlaneTracker, SlotPlaneTracker
from repro.sigmem.signature import AccessRecord, AccessTracker
from repro.trace import TraceBatch


class Worker:
    """Cuts its rows into chunks and runs Algorithm 1 on its private trackers.

    Each worker is exclusively responsible for the addresses routed to it,
    so its read/write signature pair and its dependence map need no
    synchronization — the core of the paper's parallelization argument.

    Both transports drive the same loop: :meth:`feed` takes the worker's
    rows of one routed window, runs every full ``chunk_size`` chunk in one
    kernel call and keeps the remainder for the next window; :meth:`flush`
    runs that remainder at a rebalance quiesce and at the end of the run.
    A worker's chunks therefore span windows, and it numbers them itself
    from 0.  The chunk stays the unit of the chunk log, the chunk counters
    and provenance; the kernel call is the unit of the latency histogram,
    the ``chunk.process`` trace slice and the heartbeat.

    Every worker runs the incremental array kernel
    (:class:`~repro.core.vectorized.ChunkKernel`) over numpy signature
    planes: slot planes for the lossy array signature, dense planes for the
    perfect one.  The event-at-a-time
    :class:`~repro.core.reference.ReferenceEngine` is the test oracle the
    kernel is diffed against, not a runtime choice.

    ``loop_index`` is the run's one
    :class:`~repro.core.controlflow.LoopStateIndex` over the trace the
    worker will be fed; the profiler builds it before any worker exists.
    A worker process passes its :class:`~repro.parallel.heartbeat.HeartbeatBoard`
    as ``heartbeat``.

    The worker instruments itself in ``registry``, a
    :class:`~repro.obs.metrics.MetricsRegistry`: per-call kernel latency
    histogram, signature hash-conflict eviction counters
    (``sigmem.evictions``, lossy signatures), address heat (unless
    ``config.heatmap`` is off), and callback gauges over its live trackers
    (``sigmem.occupied``, plus ``sigmem.fill_ratio`` over slot planes),
    read whenever the registry is: a stream tick, a scrape, the report,
    or, in a worker process, the ``state()`` it ships home.  A
    :class:`~repro.obs.provenance.ProvenanceCollector` makes the kernel
    attribute every merged dependence to this worker, its chunks and sink
    timestamps, with the suspect-FP verdict.
    """

    def __init__(
        self,
        wid: int,
        config: ProfilerConfig,
        loop_index: LoopStateIndex,
        registry: MetricsRegistry,
        provenance: ProvenanceCollector | None = None,
        heartbeat: HeartbeatBoard | None = None,
    ) -> None:
        self.wid = wid
        self.config = config
        self._registry = registry
        # The memory observability plane: per-worker log2 address heatmaps
        # (reads/writes/conflicts/occupancy), behind its own config switch.
        self._heat = AddressHeatmap(registry, wid) if config.heatmap else None
        # Shared bank geometry (sharded signature memory); None = unbanked.
        self._geometry = config.bank_geometry
        self._keyspace = DenseKeySpace() if config.perfect_signature else None
        self.engine = ChunkKernel(
            config,
            loop_index,
            self._make_tracker("read"),
            self._make_tracker("write"),
            heat=self._heat,
            provenance=provenance,
        )
        self.provenance = provenance
        #: Stamped after every kernel call (at most one window's rows), so a
        #: busy worker never reads as a stall.
        self._heartbeat = heartbeat
        #: Rows fed but not yet run: less than one chunk, in trace order.
        self._pending = np.empty(0, dtype=np.int64)
        self.accesses_processed = 0
        self.chunks_processed = 0
        self._chunk_hist = registry.histogram("worker.chunk_seconds", worker=wid)
        self._tracer = registry.tracer

    def _make_tracker(self, kind: str) -> AccessTracker:
        """Build one read/write tracker for this worker's kernel.

        The single construction point — the in-process pipeline and the
        processes-mode worker both build their workers here, so slot
        sizing, salt, and telemetry wiring cannot drift apart.
        """
        cfg = self.config
        reg = self._registry
        tracker: AccessTracker
        if cfg.perfect_signature:
            assert self._keyspace is not None
            tracker = DensePlaneTracker(self._keyspace, geometry=self._geometry)
        else:
            tracker = SlotPlaneTracker(
                cfg.slots_per_worker,
                cfg.hash_salt,
                eviction_counter=reg.counter(
                    "sigmem.evictions", worker=self.wid, kind=kind
                ),
                conflict_heat=(
                    self._heat.record_conflicts if self._heat is not None else None
                ),
                geometry=self._geometry,
            )
        reg.gauge_fn("sigmem.occupied", tracker.occupied, worker=self.wid, kind=kind)
        if isinstance(tracker, SlotPlaneTracker):
            reg.gauge_fn(
                "sigmem.fill_ratio", tracker.fill_ratio, worker=self.wid, kind=kind
            )
        return tracker

    @property
    def store(self) -> DependenceStore:
        return self.engine.store

    def resume_row(self, end: int) -> int:
        """The first row this worker still reads after being fed every row
        before ``end``: the first of its partial chunk, else ``end``."""
        return int(self._pending[0]) if len(self._pending) else end

    def feed(self, batch: TraceBatch, rows: np.ndarray) -> list[int]:
        """Take this worker's ``rows`` of one window (ascending, after every
        row fed before): run all full chunks now in one kernel call, keep
        the remainder.

        Returns the row count of every chunk run, in order.
        """
        if len(self._pending):
            rows = np.concatenate((self._pending, rows))
        size = self.config.chunk_size
        n_full = len(rows) // size
        if n_full:
            self.process_rows(batch, rows[: n_full * size], n_full)
        self._pending = rows[n_full * size :].copy()
        return [size] * n_full

    def flush(self, batch: TraceBatch) -> list[int]:
        """Run the partial chunk :meth:`feed` kept, if any (a rebalance
        quiesce, or the end of the run); returns its row count as
        :meth:`feed` does."""
        rows, self._pending = self._pending, self._pending[:0]
        if not len(rows):
            return []
        self.process_rows(batch, rows)
        return [len(rows)]

    def process_rows(
        self, batch: TraceBatch, rows: np.ndarray, n_chunks: int = 1
    ) -> None:
        """Run ``rows`` of ``batch`` as this worker's next ``n_chunks``
        chunks, of equal size, in one kernel call."""
        t0 = time.perf_counter()
        seq = self.chunks_processed
        chunk = None
        if self.provenance is not None:
            chunk = np.repeat(
                np.arange(seq, seq + n_chunks, dtype=np.int64), len(rows) // n_chunks
            )
        before = self.engine.stats.n_accesses
        self.engine.process_rows(batch, rows, chunk)
        self.accesses_processed += self.engine.stats.n_accesses - before
        self.chunks_processed += n_chunks
        t1 = time.perf_counter()
        self._chunk_hist.observe(t1 - t0)
        if self._tracer.enabled:
            self._tracer.complete(
                "chunk.process",
                worker_track(self.wid),
                t0,
                t1,
                seq=seq,
                chunks=n_chunks,
                rows=len(rows),
            )
        if self._heartbeat is not None:
            self._heartbeat.beat(self.wid)

    # -- signature-state migration (redistribution support) -----------------
    def migrate_out(
        self, addr: int
    ) -> tuple[AccessRecord | None, AccessRecord | None]:
        """Extract and clear this worker's state for ``addr``.

        For an array signature the slot may be shared with colliding
        addresses; migration then moves the conflated record — the same
        approximation the signature makes everywhere else.
        """
        r = self.engine.read_tracker.lookup(addr)
        w = self.engine.write_tracker.lookup(addr)
        self.engine.read_tracker.remove(addr)
        self.engine.write_tracker.remove(addr)
        return r, w

    def migrate_in(
        self,
        addr: int,
        read_rec: AccessRecord | None,
        write_rec: AccessRecord | None,
    ) -> None:
        """Install migrated state for a redistributed address."""
        if read_rec is not None:
            self.engine.read_tracker.insert(addr, read_rec)
        if write_rec is not None:
            self.engine.write_tracker.insert(addr, write_rec)

    def migrate_bank_out(self, bank: int) -> dict:
        """Export-and-clear this worker's read/write state for one bank."""
        return {
            "bank": int(bank),
            "read": self.engine.read_tracker.export_bank(bank),
            "write": self.engine.write_tracker.export_bank(bank),
        }

    def migrate_bank_in(self, state: dict) -> None:
        """Merge a bank exported by another worker (newest access wins)."""
        self.engine.read_tracker.import_bank(state["read"])
        self.engine.write_tracker.import_bank(state["write"])

    def publish(self) -> dict:
        """End of run: publish this worker's totals and return its result.

        Writes the engine statistics, occupancy heat, access and chunk
        counts and tracker memory into the registry the worker was built
        with, and returns the part the pipeline merge folds: ``wid``,
        ``store`` and ``provenance``.  Both transports call it, so the two
        modes cannot publish different counters.
        """
        reg = self._registry
        self.engine.stats.publish(reg, worker=self.wid)
        self.publish_heat()
        reg.counter("worker.accesses", worker=self.wid).inc(self.accesses_processed)
        reg.counter("worker.chunks", worker=self.wid).inc(self.chunks_processed)
        # Authoritative tracker memory: allocated signature arrays count
        # even for workers that never processed a chunk.
        reg.gauge("engine.tracker_memory_bytes", worker=self.wid).set(self.memory_bytes)
        return {"wid": self.wid, "store": self.store, "provenance": self.provenance}

    def publish_heat(self) -> None:
        """Attribute end-of-run signature occupancy to address buckets.

        Called once, by :meth:`publish`.  Both plane trackers know their
        owner addresses.  Banked trackers additionally publish per-bank
        occupancy (``heat.banks``) so bank skew is visible on the heat
        surfaces.
        """
        if self._heat is None:
            return
        for kind, tracker in (
            ("read", self.engine.read_tracker),
            ("write", self.engine.write_tracker),
        ):
            self._heat.record_occupancy(tracker.occupied_addrs(), kind)
            occ = tracker.bank_occupancy()
            if occ is not None:
                self._heat.record_bank_occupancy(occ, kind)

    @property
    def memory_bytes(self) -> int:
        return (
            self.engine.read_tracker.memory_bytes
            + self.engine.write_tracker.memory_bytes
        )
