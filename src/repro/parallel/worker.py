"""A profiling worker: owns one address subset's signatures and dependences."""

from __future__ import annotations

import time

import numpy as np

from repro.common.config import ProfilerConfig
from repro.core.deps import DependenceStore
from repro.core.reference import ReferenceEngine
from repro.core.vectorized import ChunkKernel
from repro.obs.heatmap import AddressHeatmap
from repro.obs.metrics import MetricsRegistry
from repro.obs.provenance import ProvenanceCollector
from repro.obs.tracing import NULL_TRACER, worker_track
from repro.parallel.chunks import Chunk
from repro.sigmem import (
    ArraySignature,
    DenseKeySpace,
    DensePlaneTracker,
    PerfectSignature,
    SlotPlaneTracker,
)
from repro.sigmem.signature import AccessRecord, AccessTracker
from repro.trace import TraceBatch


class Worker:
    """Consumes chunks, runs Algorithm 1 on its private trackers.

    Each worker is exclusively responsible for the addresses routed to it,
    so its read/write signature pair and its dependence map need no
    synchronization — the core of the paper's parallelization argument.

    Two per-chunk engines are available (``config.worker_engine``):

    * ``"vectorized"`` — the incremental array kernel
      (:class:`~repro.core.vectorized.ChunkKernel`) over numpy signature
      planes; the fast default.
    * ``"reference"`` — the event-at-a-time
      :class:`~repro.core.reference.ReferenceEngine`; kept as the
      differential-test oracle, and selected automatically whenever
      per-instance observation is requested (provenance), since the batch
      kernel cannot attribute individual instances.

    When a :class:`~repro.obs.metrics.MetricsRegistry` is supplied the
    worker instruments itself: per-chunk latency histogram, signature
    hash-conflict eviction counters (reference engine only), and
    callback-backed fill gauges that the sampler scrapes from the live
    trackers.  Without a registry the hot path is exactly the
    uninstrumented one.
    """

    def __init__(
        self,
        wid: int,
        config: ProfilerConfig,
        registry: MetricsRegistry | None = None,
        provenance: ProvenanceCollector | None = None,
    ) -> None:
        self.wid = wid
        self.config = config
        self._registry = registry
        self._track_conflicts = provenance is not None
        # The memory observability plane: per-worker log2 address heatmaps
        # (reads/writes/conflicts/occupancy).  Registry-gated like every
        # other instrument, plus its own config switch.
        self._heat = (
            AddressHeatmap(registry, wid)
            if registry is not None and config.heatmap
            else None
        )
        # Provenance notes every dependence *instance* with its chunk and
        # suspect-collision verdict — inherently per-event observations, so
        # it pins the worker to the reference engine (mirroring how the
        # sequential DependenceProfiler forces the reference engine).
        self.engine_kind = (
            "reference" if provenance is not None else config.worker_engine
        )
        # Shared bank geometry (sharded signature memory); None = unbanked.
        self._geometry = config.bank_geometry
        self._keyspace = (
            DenseKeySpace()
            if self.engine_kind == "vectorized" and config.perfect_signature
            else None
        )
        read_t = self._make_tracker("read")
        write_t = self._make_tracker("write")
        self.engine: ReferenceEngine | ChunkKernel
        if self.engine_kind == "vectorized":
            # The kernel records heat inline from the access masks it
            # computes anyway; the reference path records at worker level.
            self.engine = ChunkKernel(config, read_t, write_t, heat=self._heat)
        else:
            self.engine = ReferenceEngine(
                config, read_t, write_t, provenance=provenance
            )
        self.provenance = provenance
        self.accesses_processed = 0
        self.chunks_processed = 0
        self._chunk_hist = (
            registry.histogram("worker.chunk_seconds", worker=wid)
            if registry is not None
            else None
        )
        self._tracer = registry.tracer if registry is not None else NULL_TRACER

    def _make_tracker(self, kind: str) -> AccessTracker:
        """Build one read/write tracker for this worker's engine.

        The single construction point for every tracker flavour — the
        in-process pipeline and the processes-mode worker factory both call
        it, so slot sizing, salt, and telemetry wiring cannot drift apart.
        """
        cfg = self.config
        geo = self._geometry
        if self.engine_kind == "vectorized":
            if cfg.perfect_signature:
                assert self._keyspace is not None
                return DensePlaneTracker(self._keyspace, geometry=geo)
            return SlotPlaneTracker(
                cfg.slots_per_worker,
                cfg.hash_salt,
                track_addrs=self._heat is not None,
                geometry=geo,
            )
        if cfg.perfect_signature:
            return PerfectSignature(geometry=geo)
        eviction = (
            self._registry.counter("sigmem.evictions", worker=self.wid, kind=kind)
            if self._registry is not None
            else None
        )
        return ArraySignature(
            cfg.slots_per_worker,
            cfg.hash_salt,
            eviction_counter=eviction,
            track_conflicts=self._track_conflicts,
            conflict_heat=(
                self._heat.record_conflict if self._heat is not None else None
            ),
            geometry=geo,
        )

    @property
    def store(self) -> DependenceStore:
        return self.engine.store

    def process_rows(
        self, batch: TraceBatch, rows: np.ndarray, seq: int = -1
    ) -> None:
        """Run this worker's engine over ``rows`` of ``batch`` (one chunk)."""
        hist = self._chunk_hist
        tracer = self._tracer
        need_t = hist is not None or tracer.enabled
        t0 = time.perf_counter() if need_t else 0.0
        if self.provenance is not None:
            self.provenance.chunk = seq
        before = self.engine.stats.n_accesses
        if isinstance(self.engine, ChunkKernel):
            self.engine.process_rows(batch, rows)
        else:
            self.engine.process(batch.select(rows))
            # process() only totals n_accesses at run() time; track it here.
            self.engine.stats.n_accesses = (
                self.engine.stats.n_reads + self.engine.stats.n_writes
            )
        self.accesses_processed += self.engine.stats.n_accesses - before
        self.chunks_processed += 1
        if self._heat is not None and not isinstance(self.engine, ChunkKernel):
            self._heat.record_batch_rows(batch, rows)
        if need_t:
            t1 = time.perf_counter()
            if hist is not None:
                hist.observe(t1 - t0)
            if tracer.enabled:
                tracer.complete(
                    "chunk.process",
                    worker_track(self.wid),
                    t0,
                    t1,
                    seq=seq,
                    rows=len(rows),
                )

    def process_chunk(self, batch: TraceBatch, chunk: Chunk) -> None:
        self.process_rows(batch, chunk.view(), seq=chunk.seq)

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

        Called once, by :meth:`publish`.  Trackers that do not know their
        owner addresses (``occupied_addrs() is None``) are skipped, never
        guessed.  Banked trackers additionally publish per-bank occupancy
        (``heat.banks``) so bank skew is visible on the heat surfaces.
        """
        if self._heat is None:
            return
        for kind, tracker in (
            ("read", self.engine.read_tracker),
            ("write", self.engine.write_tracker),
        ):
            addrs = tracker.occupied_addrs()
            if addrs is not None:
                self._heat.record_occupancy(addrs, kind)
            occ = tracker.bank_occupancy()
            if occ is not None:
                self._heat.record_bank_occupancy(occ, kind)

    @property
    def memory_bytes(self) -> int:
        return (
            self.engine.read_tracker.memory_bytes
            + self.engine.write_tracker.memory_bytes
        )
