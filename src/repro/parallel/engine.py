"""The parallel profiling pipeline (Figure 2): one pipeline, two transports.

``ParallelProfiler.profile`` plays the producer role over an instrumented
trace.  Every trace window is routed by the one rule in
:func:`~repro.parallel.address_map.route_window`: each memory access goes
to the worker owning its address, and the events every worker needs for
context (FREE for lifetime analysis, loop markers for carried-dependence
classification) are broadcast.  Workers run the Algorithm 1 kernel on
private trackers, publish their totals through
:meth:`~repro.parallel.worker.Worker.publish`, and one merge folds the
duplicate-free local stores together at the end ("this step incurs only
minor overhead since the local maps are free of duplicates").

Two transports carry the routed rows (``mode``):

* ``deterministic`` — in-process queues: the producer fills fixed-size
  chunks of row indices, pushes them onto per-worker rings, and drains a
  ring inline whenever it fills.  Fully reproducible; it runs the
  Section IV-A load balancer and is the cost model's source of pipeline
  statistics (its ``chunk_log`` is replayed there).
* ``processes`` — real ``multiprocessing`` workers with private
  signatures, reading the trace zero-copy out of one shared-memory block
  (:mod:`repro.trace.shm`); only window index ranges cross the task
  queues and each worker routes its windows itself, so this mode shows
  *measured* multi-core speedup.  Load rebalancing and the gauge sampler
  are producer-side features and are disabled here (static address
  partition); worker processes ship their published parts, metrics state,
  tracer events, chunk logs and broadcast counts home for the merge.

Telemetry: the run is instrumented through one
:class:`~repro.obs.metrics.MetricsRegistry` — stall counters live *inside*
the queues, rebalance counters inside the :class:`Rebalancer`, per-chunk
latencies inside the workers, and a :class:`~repro.obs.sampler.Sampler`
scrapes queue occupancy / signature fill / chunk-pool gauges once per
producer window in deterministic mode.  :class:`ParallelRunInfo` and the
aggregate :class:`~repro.core.result.ProfileStats` are derived *views* of
that registry rather than independently maintained bookkeeping.  Pass a
registry with a sink to capture the event stream; the default private
registry has a ``NullSink`` and costs only the plain counters.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_mod
import time
from dataclasses import dataclass, field

import numpy as np

from repro.common.config import ProfilerConfig
from repro.common.errors import ProfilerError
from repro.core.controlflow import LoopStateIndex, extract_loop_info
from repro.core.deps import DependenceStore
from repro.core.result import ProfileResult, ProfileStats
from repro.obs.environment import peak_rss_bytes
from repro.obs.metrics import MetricsRegistry
from repro.obs.provenance import ProvenanceCollector
from repro.obs.sampler import Sampler
from repro.obs.tracing import MAIN_TRACK, worker_track
from repro.parallel.address_map import AddressMap, route_window
from repro.parallel.balance import AccessStats, Rebalancer
from repro.parallel.chunks import Chunk, ChunkPool
from repro.parallel.heartbeat import (
    HeartbeatBoard,
    WorkerWatchdog,
    process_exitcodes,
)
from repro.parallel.procworker import run_worker
from repro.parallel.queues import LockedQueue, SpscRingQueue
from repro.parallel.worker import Worker
from repro.trace import TraceBatch
from repro.trace.shm import share_batch

MODES = ("deterministic", "processes")


@dataclass
class ParallelRunInfo:
    """Pipeline statistics of one run — the cost model's raw material.

    Constructed by :meth:`from_registry` as a frozen view over the run's
    metrics registry (stall counters are the queues' own counters, worker
    loads the workers' published counters, and so on); the dataclass keeps
    the cost model's stable field-level API.
    """

    n_workers: int = 0
    n_chunks: int = 0
    n_broadcast_rows: int = 0
    per_worker_accesses: list[int] = field(default_factory=list)
    per_worker_chunks: list[int] = field(default_factory=list)
    rebalance_rounds: int = 0
    addresses_migrated: int = 0
    #: Bank-granularity migrations (sharded signature memory); each move
    #: relocated one address-range bank *with* its signature state.
    banks_migrated: int = 0
    #: Producer-order log: (worker, rows_in_chunk) per pushed chunk, with
    #: (-1, 0) markers at rebalance quiesce points — the cost model replays
    #: this sequence through its discrete-event pipeline.
    chunk_log: list[tuple[int, int]] = field(default_factory=list)
    push_stalls: int = 0
    pop_stalls: int = 0
    lock_ops: int = 0
    chunks_allocated: int = 0
    queue_memory_bytes: int = 0
    signature_memory_bytes: int = 0
    #: Full audit trail of the run's rebalancing decisions (one dict per
    #: round, see :attr:`~repro.parallel.balance.Rebalancer.audit`).  Empty
    #: in processes mode, which uses a static address partition.
    rebalance_audit: list[dict] = field(default_factory=list)

    @property
    def access_imbalance(self) -> float:
        """max/mean per-worker access load; 1.0 is perfectly balanced."""
        if not self.per_worker_accesses:
            return 1.0
        mean = sum(self.per_worker_accesses) / len(self.per_worker_accesses)
        return max(self.per_worker_accesses) / mean if mean > 0 else 1.0

    @classmethod
    def from_registry(
        cls,
        registry: MetricsRegistry,
        n_workers: int,
        chunk_log: list[tuple[int, int]],
        rebalance_audit: list[dict] | None = None,
    ) -> "ParallelRunInfo":
        """Derive the statistics view from the run's registry."""

        def per_worker(name: str) -> list[int]:
            by_worker = {
                int(dict(c.labels)["worker"]): c.value
                for c in registry.counters()
                if c.name == name and "worker" in dict(c.labels)
            }
            return [by_worker.get(w, 0) for w in range(n_workers)]

        def gauge_value(name: str) -> int:
            return int(
                sum(g.value for g in registry.gauges() if g.name == name)
            )

        return cls(
            n_workers=n_workers,
            n_chunks=registry.counter("pipeline.chunks").value,
            n_broadcast_rows=registry.counter("pipeline.broadcast_rows").value,
            per_worker_accesses=per_worker("worker.accesses"),
            per_worker_chunks=per_worker("worker.chunks"),
            rebalance_rounds=registry.counter("rebalance.rounds").value,
            addresses_migrated=registry.counter("rebalance.moves").value,
            banks_migrated=registry.counter("rebalance.bank_moves").value,
            chunk_log=chunk_log,
            push_stalls=registry.sum_counters("queue.push_stalls"),
            pop_stalls=registry.sum_counters("queue.pop_stalls"),
            lock_ops=registry.sum_counters("queue.lock_ops"),
            chunks_allocated=gauge_value("chunkpool.allocated"),
            queue_memory_bytes=gauge_value("chunkpool.memory_bytes"),
            signature_memory_bytes=gauge_value("engine.tracker_memory_bytes"),
            rebalance_audit=rebalance_audit if rebalance_audit is not None else [],
        )


class ParallelProfiler:
    """The chunk/queue/worker pipeline of Section IV."""

    def __init__(
        self,
        config: ProfilerConfig,
        mode: str = "deterministic",
        rebalance_threshold: float = 1.25,
        window: int = 1 << 15,
        registry: MetricsRegistry | None = None,
        provenance: bool = False,
        heartbeat_interval: float | None = 0.05,
        ledger=None,
    ) -> None:
        if mode not in MODES:
            raise ProfilerError(f"unknown mode {mode!r}; pick from {MODES}")
        self.config = config
        self.mode = mode
        self.rebalance_threshold = rebalance_threshold
        self.window = window
        #: Watchdog cadence for ``processes`` mode (seconds); ``None`` or
        #: ``0`` disables the heartbeat plane entirely.
        self.heartbeat_interval = heartbeat_interval
        #: Telemetry registry; ``None`` means each run builds a private
        #: sinkless one (counters still work, no event stream).
        self.registry = registry
        #: When True, every worker keeps a :class:`ProvenanceCollector`
        #: (attributing each dependence to worker/chunk/timestamps) and the
        #: merge phase folds them into ``result.provenance``.
        self.provenance = provenance
        #: Optional :class:`~repro.obs.ledger.RunLedger`: the pipeline
        #: checkpoints a partial bundle (atomic tmp+rename) on every exit
        #: from :meth:`profile`, so even a worker crash leaves a valid,
        #: never-torn run bundle behind.  The CLI's success path later
        #: finalizes the full document over it.
        self.ledger = ledger

    def _ledger_checkpoint(self, reg: MetricsRegistry) -> None:
        """Crash-safe partial-bundle write; never raises into the pipeline."""
        if self.ledger is None:
            return
        try:
            self.ledger.checkpoint(reg)
        except OSError:  # a full/readonly ledger must not mask the run error
            pass

    # ------------------------------------------------------------------
    def profile(self, batch: TraceBatch) -> tuple[ProfileResult, ParallelRunInfo]:
        """Route ``batch`` to the workers, run them, and merge their parts."""
        cfg = self.config
        # One registry per run: counters are monotonic, so a shared
        # externally-supplied registry must not be reused across runs.
        reg = self.registry if self.registry is not None else MetricsRegistry()
        tracer = reg.tracer
        if tracer.enabled:
            tracer.set_track(MAIN_TRACK, "main")
            for w in range(cfg.workers):
                tracer.set_track(worker_track(w), f"worker {w}")
        # Producer-side facts are read off the trace before dispatch; from
        # then on only the workers read it (a spilled trace stays paged out).
        loops = extract_loop_info(batch)
        n_unique_addresses = batch.n_unique_addresses
        multithreaded = batch.n_threads > 1 or cfg.multithreaded_target
        transport = (
            self._run_processes if self.mode == "processes" else self._run_in_process
        )
        try:
            parts, chunk_log, rebalance_audit = transport(batch, reg)
            store, prov, stats = self._merge(reg, parts)
        finally:
            # Telemetry written so far must survive a failure propagating
            # out of this frame: flush (never close — the caller may still
            # emit a final snapshot) and checkpoint on every path.
            reg.sink.flush()
            self._ledger_checkpoint(reg)
        # The per-worker sums double-count broadcast rows; the producer's
        # facts replace them.
        stats.n_events = len(batch)
        stats.n_unique_addresses = n_unique_addresses
        info = ParallelRunInfo.from_registry(
            reg, cfg.workers, chunk_log, rebalance_audit=rebalance_audit
        )
        result = ProfileResult(
            store=store,
            loops=loops,
            stats=stats,
            var_names=batch.var_names,
            file_names=batch.file_names,
            multithreaded=multithreaded,
            provenance=prov,
        )
        return result, info

    def _merge(
        self, reg: MetricsRegistry, parts: list[dict]
    ) -> tuple[DependenceStore, ProvenanceCollector | None, ProfileStats]:
        """Fold the workers' parts into one store, provenance and stats.

        ``parts`` are :meth:`Worker.publish` results in worker order.  A
        worker process published into a private registry, so its part also
        carries that registry's ``metrics`` state and its ``tracer`` events.
        The statistics are a *view* of the merged registry.
        """
        tracer = reg.tracer
        with reg.span("merge"):
            store = DependenceStore()
            prov = ProvenanceCollector() if self.provenance else None
            for part in parts:
                store.merge(part["store"])
                if prov is not None:
                    prov.merge(part["provenance"])
                if "metrics" in part:
                    reg.merge_state(part["metrics"])
                if tracer.enabled and part.get("tracer") is not None:
                    epoch, events, track_names = part["tracer"]
                    tracer.adopt(events, epoch, track_names)
            # Parent-process RSS high-water; a worker process published its
            # own labeled gauge before exiting.
            reg.gauge("process.peak_rss_bytes").set(peak_rss_bytes())
            return store, prov, ProfileStats.from_registry(reg)

    # ------------------------------------------------------------------
    def _run_in_process(
        self, batch: TraceBatch, reg: MetricsRegistry
    ) -> tuple[list[dict], list[tuple[int, int]], list[dict]]:
        """In-process transport: rings the producer drains inline when full.

        Returns the workers' parts, the producer-order chunk log and the
        rebalancer's audit trail.
        """
        cfg = self.config
        tracer = reg.tracer
        workers = [
            Worker(
                w,
                cfg,
                reg,
                provenance=ProvenanceCollector(worker=w) if self.provenance else None,
            )
            for w in range(cfg.workers)
        ]
        vec_workers = [w for w in workers if w.engine_kind == "vectorized"]
        if vec_workers:
            # One push-order loop-snapshot index per run, shared by every
            # in-process vectorized kernel (it is batch-global, read-only).
            shared_loops = LoopStateIndex(batch)
            for w in vec_workers:
                w.engine.bind_loop_index(batch, shared_loops)
        if cfg.lock_free_queues:
            queues: list[SpscRingQueue | LockedQueue] = [
                SpscRingQueue(
                    cfg.queue_depth,
                    push_stalls=reg.counter("queue.push_stalls", worker=w),
                    pop_stalls=reg.counter("queue.pop_stalls", worker=w),
                )
                for w in range(cfg.workers)
            ]
        else:
            queues = [
                LockedQueue(
                    cfg.queue_depth,
                    push_stalls=reg.counter("queue.push_stalls", worker=w),
                    pop_stalls=reg.counter("queue.pop_stalls", worker=w),
                    lock_ops_counter=reg.counter("queue.lock_ops", worker=w),
                )
                for w in range(cfg.workers)
            ]
        pool = ChunkPool(cfg.chunk_size)
        open_chunks: list[Chunk] = [pool.acquire() for _ in range(cfg.workers)]
        amap = AddressMap(cfg.workers, bank_geometry=cfg.bank_geometry)
        stats = AccessStats()
        rebalancer = Rebalancer(amap, cfg.hot_addresses, registry=reg)
        chunk_log: list[tuple[int, int]] = []
        chunk_counter = reg.counter("pipeline.chunks")

        # -- periodic telemetry sampling --------------------------------
        sampler = Sampler(reg)
        for w in range(cfg.workers):
            sampler.add(
                "queue.occupancy", queues[w].__len__, worker=w
            )
            tr = workers[w].engine.read_tracker
            tw = workers[w].engine.write_tracker
            sampler.add("sigmem.occupied", tr.occupied, worker=w, kind="read")
            sampler.add("sigmem.occupied", tw.occupied, worker=w, kind="write")
            if hasattr(tr, "fill_ratio"):
                sampler.add("sigmem.fill_ratio", tr.fill_ratio, worker=w, kind="read")
                sampler.add(
                    "sigmem.fill_ratio", tw.fill_ratio, worker=w, kind="write"
                )
        sampler.add("chunkpool.free", lambda: pool.free_count)
        sampler.add("chunkpool.allocated", lambda: pool.allocated)
        sampler.add("chunkpool.memory_bytes", lambda: pool.memory_bytes)
        sampler.add("process.peak_rss_bytes", peak_rss_bytes)

        def drain(w: int, limit: int | None = None) -> None:
            popped = 0
            while limit is None or popped < limit:
                ok, chunk = queues[w].try_pop()
                if not ok:
                    return
                workers[w].process_chunk(batch, chunk)
                pool.release(chunk)
                popped += 1

        def push_chunk(w: int) -> None:
            chunk = open_chunks[w]
            if chunk.count == 0:
                return
            chunk.seq = chunk_counter.value
            if not queues[w].try_push(chunk):
                stall_t0 = time.perf_counter() if tracer.enabled else 0.0
                while True:
                    drain(w, limit=1)
                    if queues[w].try_push(chunk):
                        break
                if tracer.enabled:
                    tracer.complete("queue.push_stall", MAIN_TRACK, stall_t0, worker=w)
            if tracer.enabled:
                tracer.instant(
                    "chunk.push", MAIN_TRACK, worker=w, seq=chunk.seq, rows=chunk.count
                )
            chunk_counter.inc()
            chunk_log.append((w, chunk.count))
            open_chunks[w] = pool.acquire()

        def bulk_append(w: int, rows: np.ndarray) -> None:
            i, n = 0, len(rows)
            while i < n:
                i += open_chunks[w].extend(rows, start=i)
                if open_chunks[w].full:
                    push_chunk(w)

        # Hysteresis: remember the hot-load ratio right after the previous
        # redistribution.  If the current ratio is no worse, the previous
        # spread is still in effect (or the workload's hot set simply cannot
        # be balanced below the threshold) and redoing the move would only
        # thrash — the paper performs redistribution at most ~20 times per
        # benchmark for the same reason.
        post_rebalance_imbalance: list[float | None] = [None]

        def maybe_rebalance() -> None:
            imbalance = rebalancer.imbalance(stats)
            if imbalance <= self.rebalance_threshold:
                return
            prev = post_rebalance_imbalance[0]
            if prev is not None and imbalance <= prev * 1.1:
                return
            # Flush buffered rows first: rows sitting in open chunks were
            # routed under the old rules and must land in their worker's
            # trackers *before* state is exported, or the migrated bank
            # would miss them (surfacing as phantom INIT dependences).
            for w in range(cfg.workers):
                push_chunk(w)
            # Quiesce: preserve per-address ordering across the move.
            t0 = time.perf_counter() if tracer.enabled else 0.0
            for w in range(cfg.workers):
                drain(w)
            if tracer.enabled:
                tracer.complete("pipeline.quiesce", MAIN_TRACK, t0)
            decision = rebalancer.rebalance(stats)
            for addr, old, new in decision.moves:
                r, wrec = workers[old].migrate_out(addr)
                workers[new].migrate_in(addr, r, wrec)
            # Banked mode: a moved bank's addresses were spread over every
            # worker before its first rule, so the new owner collects the
            # bank's signature state from *all* other workers (newest access
            # wins on slot collisions) — state follows routing instead of
            # being dropped to go cold.
            for bank, _old, new in decision.bank_moves:
                for w, worker in enumerate(workers):
                    if w == new:
                        continue
                    workers[new].migrate_bank_in(worker.migrate_bank_out(bank))
            post_rebalance_imbalance[0] = rebalancer.imbalance(stats)
            if decision.n_moves or decision.n_bank_moves:
                chunk_log.append((-1, 0))

        # ---- producer loop over windows of the trace ------------------
        bcast_counter = reg.counter("pipeline.broadcast_rows")
        # Spilled batches support dropping consumed windows' resident pages.
        # Purely an RSS hint (dropped pages re-read transparently), so the
        # lag bound only has to be generous, not exact: pushed rows sit in at
        # most queue_depth+1 chunks per worker plus the current window.
        release = getattr(batch, "release_window", None)
        release_lag = (
            self.window + cfg.workers * (cfg.queue_depth + 2) * cfg.chunk_size
        )
        released_upto = 0
        # The paper re-checks the access statistics every 50 000 chunks; we
        # measure the interval in *routed accesses* (interval x chunk_size)
        # so the cadence does not depend on how many workers the control
        # rows are replicated to.
        rebalance_every = cfg.rebalance_interval_chunks * cfg.chunk_size
        accesses_at_last_check = 0
        accesses_routed = 0
        n = len(batch)
        try:
            for s in range(0, n, self.window):
                e = min(s + self.window, n)
                with reg.span("route", window_start=s):
                    route = route_window(batch, s, e, amap)
                    bcast_counter.inc(route.n_broadcast)
                    acc_addrs = route.addr[route.access]
                    if len(acc_addrs):
                        stats.record_many(acc_addrs)
                        accesses_routed += len(acc_addrs)
                with reg.span("push", window_start=s):
                    for w in range(cfg.workers):
                        wrows = route.rows_for(w)
                        if len(wrows):
                            bulk_append(w, wrows)
                sampler.poll()
                if accesses_routed - accesses_at_last_check >= rebalance_every:
                    accesses_at_last_check = accesses_routed
                    maybe_rebalance()
                if release is not None:
                    upto = max(0, e - release_lag)
                    if upto - released_upto >= (1 << 22):
                        release(released_upto, upto)
                        released_upto = upto

            # ---- flush + drain + publish ----------------------------------
            with reg.span("drain"):
                for w in range(cfg.workers):
                    push_chunk(w)
                    queues[w].close()
                for w in range(cfg.workers):
                    drain(w)
                    reg.gauge("queue.high_water", worker=w).set(queues[w].high_water)
                parts = [worker.publish() for worker in workers]
        finally:
            sampler.poll(force=True)  # final post-drain sample, even on abort
        return parts, chunk_log, rebalancer.audit

    # ------------------------------------------------------------------
    def _run_processes(
        self, batch: TraceBatch, reg: MetricsRegistry
    ) -> tuple[list[dict], list[tuple[int, int]], list[dict]]:
        """Processes transport: worker processes over one shared trace block.

        The producer ships only ``(start, end, window_idx)`` index ranges;
        each worker process routes its windows with the same
        :func:`route_window` (see :mod:`repro.parallel.procworker`).  The
        static address partition makes results independent of scheduling,
        so this mode is bit-for-bit equivalent to ``deterministic`` minus
        the load balancer (which needs producer-side signature migration).
        Returns the workers' parts, their chunk logs folded into window
        order, and an empty rebalance audit.
        """
        cfg = self.config
        tracer = reg.tracer
        methods = multiprocessing.get_all_start_methods()
        # fork shares the parent's pages (cheap start, no re-import);
        # required anyway for the monkeypatch-based tests, preferred always.
        ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else methods[0]
        )
        shared = share_batch(batch)
        task_qs = [ctx.Queue(maxsize=cfg.queue_depth) for _ in range(cfg.workers)]
        result_q = ctx.Queue()
        hb_interval = self.heartbeat_interval
        board = (
            HeartbeatBoard.create(cfg.workers)
            if hb_interval is not None and hb_interval > 0
            else None
        )
        opts = {
            "provenance": self.provenance,
            "trace": tracer.enabled,
            "run_id": reg.run_id,
            "heartbeat": board.meta if board is not None else None,
        }
        procs = [
            ctx.Process(
                target=run_worker,
                args=(w, cfg, shared.meta, task_qs[w], result_q, opts),
                daemon=True,
                name=f"ddprof-worker-{w}",
            )
            for w in range(cfg.workers)
        ]
        payloads: dict[int, dict] = {}

        def receive(timeout: float) -> None:
            """Take one worker message, or fail for a worker that exited
            without delivering its part (any exit code: a payload that
            fails to pickle in the queue's feeder thread is dropped and the
            worker still exits 0)."""
            # Exit codes before the read: whatever an exited worker sent is
            # then already in the pipe, so an empty read means it is lost.
            exited = [w for w, p in enumerate(procs) if p.exitcode is not None]
            try:
                msg = result_q.get(timeout=timeout)
            except queue_mod.Empty:
                lost = [procs[w] for w in exited if w not in payloads]
                if lost:
                    raise ProfilerError(
                        "worker process(es) exited without delivering a result: "
                        + ", ".join(f"{p.name} (exit code {p.exitcode})" for p in lost)
                    ) from None
                return
            if msg[0] == "error":
                _, wid, tb = msg
                raise ProfilerError(f"worker process {wid} failed:\n{tb}")
            payloads[msg[1]["wid"]] = msg[1]

        # The bounded task queues ARE the spill tier's backpressure: when the
        # producer outruns the consumers, put() blocks until a worker frees a
        # slot, so in-flight windows never exceed workers x queue_depth
        # regardless of trace length.  The counter makes the stalls visible.
        backpressure = reg.counter("pipeline.backpressure_stalls")

        def put_blocking(q: "multiprocessing.queues.Queue", item: object) -> None:
            stalled = False
            while True:
                try:
                    q.put(item, timeout=1.0)
                    return
                except queue_mod.Full:
                    if not stalled:
                        stalled = True
                        backpressure.inc()
                    receive(timeout=0.05)

        watchdog = (
            WorkerWatchdog(
                board, reg, process_exitcodes(procs), interval_s=hb_interval
            )
            if board is not None
            else None
        )
        try:
            for p in procs:
                p.start()
            if watchdog is not None:
                watchdog.start()
            n = len(batch)
            with reg.span("push"):
                for widx, s in enumerate(range(0, n, self.window)):
                    e = min(s + self.window, n)
                    task = (s, e, widx)
                    for q in task_qs:
                        put_blocking(q, task)
            with reg.span("drain"):
                for q in task_qs:
                    put_blocking(q, None)
                while len(payloads) < cfg.workers:
                    receive(timeout=1.0)
                for p in procs:
                    p.join(timeout=30.0)
        finally:
            # Watchdog before terminate(): the final classification pass must
            # see the workers' true exit state, not the SIGTERM we send next.
            if watchdog is not None:
                watchdog.stop()
            for p in procs:
                if p.is_alive():
                    p.terminate()
            if board is not None:
                board.close()
            shared.close()

        parts = [payloads[w] for w in range(cfg.workers)]
        # Producer-order chunk log for the cost model: interleave the
        # workers' chunks in window order, matching how the in-process
        # producer would have pushed them.
        entries = [(widx, p["wid"], rows) for p in parts for widx, rows in p["chunk_log"]]
        entries.sort(key=lambda t: (t[0], t[1]))
        chunk_log = [(wid, rows) for _, wid, rows in entries]
        reg.counter("pipeline.chunks").inc(len(chunk_log))
        # Every worker routed every window, so any one's count is the run's.
        reg.counter("pipeline.broadcast_rows").inc(parts[0]["n_broadcast"])
        return parts, chunk_log, []
