"""The parallel profiling pipeline (Figure 2): one pipeline, two transports.

``ParallelProfiler.profile`` plays the producer role over an instrumented
trace.  Every trace window is routed by the one rule in
:func:`~repro.parallel.address_map.route_window`: each memory access goes
to the worker owning its address, and FREEs, whose ranges may span
owners, go to every worker.  Workers run the Algorithm 1 kernel on
private trackers, publish their totals through
:meth:`~repro.parallel.worker.Worker.publish`, and one merge folds the
duplicate-free local stores together at the end ("this step incurs only
minor overhead since the local maps are free of duplicates").

Two transports carry the routed rows (``mode``):

* ``deterministic`` — in process: the producer routes each window and
  feeds every worker its rows in worker order, on its own thread.  Fully
  reproducible; it runs the Section IV-A load balancer and is the cost
  model's source of pipeline statistics (its ``chunk_log`` is replayed
  there).
* ``processes`` — real ``multiprocessing`` workers with private
  signatures, from the process's one worker pool
  (:mod:`repro.parallel.pool`): forked on the first processes-mode run
  and reused by later runs of the same worker count.  Each run copies its
  loop index and an in-memory trace's columns into the pool's shared
  arena (a spilled trace travels as its path); only window index ranges
  cross the task queues and each worker routes its windows itself, so
  this mode shows *measured* multi-core speedup.  It needs the ``fork``
  start method.  Load rebalancing is a producer-side feature and is disabled
  here (static address partition); worker processes ship their published
  parts, metrics state, tracer events and chunk logs home for the merge.

Both transports run one worker loop: :meth:`Worker.feed` cuts a worker's
rows into ``chunk_size`` chunks that span windows, running a window's full
chunks in one kernel call, and :meth:`Worker.flush` runs the partial chunk
at a rebalance quiesce and at the end, so both modes cut the same chunks,
make the same kernel calls and log the chunks in the same order.

Before dispatch, every run builds its one
:class:`~repro.core.controlflow.LoopStateIndex` (the loop-frame snapshots
every worker's kernel reads, and the run's loop table) inside one
``loop-index`` span.  It is the only consumer of the loop markers: no
worker is fed a control event.

Telemetry: the run is instrumented through one
:class:`~repro.obs.metrics.MetricsRegistry` — phase times live only in its
``span.seconds{phase}`` histograms, rebalance counters inside the
:class:`Rebalancer`, and per-call kernel latencies and the callback gauges
over the signature trackers (``sigmem.occupied``, ``sigmem.fill_ratio``)
inside the workers, in both transports.  Every process of the run
publishes its peak RSS, CPU seconds and minor page faults
(``process.peak_rss_bytes``, ``process.cpu_seconds``,
``process.minor_faults``): the parent, unlabelled, over
:meth:`ParallelProfiler.profile`, each worker process, labelled, over its
part of the run (its peak RSS since the pool forked).
:class:`ParallelRunInfo` and the aggregate
:class:`~repro.core.result.ProfileStats` are derived *views* of that
registry rather than independently maintained bookkeeping.  Attach a
:class:`~repro.obs.streamer.TelemetryStreamer` to the registry to capture
the run's telemetry stream.  A run given no registry builds a private
one with a ``NullSink``: it records the same instruments (counters,
kernel-latency histograms, address heat) and emits no stream.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_mod
import time
from dataclasses import dataclass, field

from repro.common.config import ProfilerConfig
from repro.common.errors import ProfilerError
from repro.core.controlflow import LoopStateIndex
from repro.core.deps import DependenceStore
from repro.core.result import ProfileResult, ProfileStats
from repro.obs.environment import (
    peak_rss_bytes,
    process_usage,
    publish_process_usage,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.provenance import ProvenanceCollector
from repro.obs.tracing import MAIN_TRACK, worker_track
from repro.parallel import heartbeat
from repro.parallel.address_map import AddressMap, route_window
from repro.parallel.balance import AccessStats, Rebalancer
from repro.parallel.pool import Arena, WorkerPool, worker_pool
from repro.parallel.worker import Worker
from repro.trace import TraceBatch
from repro.trace.spill import SpilledTraceBatch

MODES = ("deterministic", "processes")
#: Trace rows per producer window: the unit the pipeline routes.
WINDOW = 1 << 15
#: The load balancer redistributes when the hot addresses' max/mean worker
#: load exceeds this (Section IV-A).
REBALANCE_THRESHOLD = 1.25


@dataclass
class ParallelRunInfo:
    """Pipeline statistics of one run — the cost model's raw material.

    Constructed by :meth:`from_registry` as a frozen view over the run's
    metrics registry (worker loads are the workers' published counters,
    rebalance counts the rebalancer's, and so on); the dataclass keeps the
    cost model's stable field-level API.
    """

    n_workers: int = 0
    n_chunks: int = 0
    #: Trace rows that are not memory accesses (loop markers, alloc/free,
    #: locks, ...), each recorded once by the producer; set by
    #: :meth:`ParallelProfiler.profile`, not read from the registry.
    n_control_events: int = 0
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
            per_worker_accesses=per_worker("worker.accesses"),
            per_worker_chunks=per_worker("worker.chunks"),
            rebalance_rounds=registry.counter("rebalance.rounds").value,
            addresses_migrated=registry.counter("rebalance.moves").value,
            banks_migrated=registry.counter("rebalance.bank_moves").value,
            chunk_log=chunk_log,
            signature_memory_bytes=gauge_value("engine.tracker_memory_bytes"),
            rebalance_audit=rebalance_audit if rebalance_audit is not None else [],
        )


class ParallelProfiler:
    """The route/chunk/worker pipeline of Section IV."""

    def __init__(
        self,
        config: ProfilerConfig,
        mode: str = "deterministic",
        window: int = WINDOW,
        registry: MetricsRegistry | None = None,
        provenance: bool = False,
        ledger=None,
    ) -> None:
        if mode not in MODES:
            raise ProfilerError(f"unknown mode {mode!r}; pick from {MODES}")
        if mode == "processes" and "fork" not in multiprocessing.get_all_start_methods():
            raise ProfilerError(
                "processes mode needs the 'fork' start method, which this "
                "platform does not offer"
            )
        if window < 1:
            raise ProfilerError(f"window must be a positive row count, got {window}")
        self.config = config
        self.mode = mode
        self.window = window
        #: Telemetry registry; ``None`` means each run builds a private
        #: sinkless one (every instrument records, no telemetry stream).
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
        usage_at_start = process_usage()
        # One registry per run: counters are monotonic, so a shared
        # externally-supplied registry must not be reused across runs.
        reg = self.registry if self.registry is not None else MetricsRegistry()
        # Parent-process RSS high-water, read whenever the registry is; a
        # worker process ships its own labelled gauge with its part.
        reg.gauge_fn("process.peak_rss_bytes", peak_rss_bytes)
        tracer = reg.tracer
        if tracer.enabled:
            tracer.set_track(MAIN_TRACK, "main")
            for w in range(cfg.workers):
                tracer.set_track(worker_track(w), f"worker {w}")
        # Producer-side facts are read off the trace before dispatch; from
        # then on only the workers read it (a spilled trace stays paged out).
        with reg.span("loop-index"):
            loop_index = LoopStateIndex(batch)  # rejects malformed nesting
        n_unique_addresses = batch.n_unique_addresses
        multithreaded = batch.n_threads > 1 or cfg.multithreaded_target
        transport = (
            self._run_processes if self.mode == "processes" else self._run_in_process
        )
        try:
            parts, chunk_log, rebalance_audit = transport(batch, loop_index, reg)
            store, prov, stats = self._merge(reg, parts)
            # This process's CPU time and faults over the run; a worker
            # process shipped its own, labelled, with its part.
            publish_process_usage(reg, since=usage_at_start)
        finally:
            # Checkpoint on every path.  The sink stays open: the caller
            # writes the stream's final record, and the stream flushed
            # every record it wrote before a failure.
            self._ledger_checkpoint(reg)
        # Workers see accesses (each once) and FREEs (each once per
        # worker); the producer's facts replace their event sum.
        stats.n_events = len(batch)
        stats.n_unique_addresses = n_unique_addresses
        info = ParallelRunInfo.from_registry(
            reg, cfg.workers, chunk_log, rebalance_audit=rebalance_audit
        )
        # Not ``batch.n_accesses``: its trace-length masks would page a
        # spilled trace back in.
        info.n_control_events = len(batch) - stats.n_accesses
        result = ProfileResult(
            store=store,
            loops=loop_index.loops,
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
        The other stores fold into the first part's store, so a one-worker
        run copies nothing.  The statistics are a *view* of the merged
        registry.
        """
        tracer = reg.tracer
        with reg.span("merge"):
            store = parts[0]["store"]
            for part in parts[1:]:
                store.merge(part["store"])
            prov = ProvenanceCollector() if self.provenance else None
            for part in parts:
                if prov is not None:
                    prov.merge(part["provenance"])
                if "metrics" in part:
                    reg.merge_state(part["metrics"])
                if tracer.enabled and part.get("tracer") is not None:
                    epoch, events, track_names = part["tracer"]
                    tracer.adopt(events, epoch, track_names)
            return store, prov, ProfileStats.from_registry(reg)

    # ------------------------------------------------------------------
    def _run_in_process(
        self, batch: TraceBatch, loop_index: LoopStateIndex, reg: MetricsRegistry
    ) -> tuple[list[dict], list[tuple[int, int]], list[dict]]:
        """In-process transport: route each window, then feed the workers
        in order on this thread.

        Returns the workers' parts, the producer-order chunk log and the
        rebalancer's audit trail.
        """
        cfg = self.config
        tracer = reg.tracer
        workers = [
            Worker(
                w,
                cfg,
                loop_index,
                reg,
                provenance=ProvenanceCollector(worker=w) if self.provenance else None,
            )
            for w in range(cfg.workers)
        ]
        amap = AddressMap(cfg.workers, bank_geometry=cfg.bank_geometry)
        # The paper re-checks the access statistics every 50 000 chunks; we
        # measure the interval in *routed accesses* (interval x chunk_size)
        # so the cadence does not depend on the trace's control events or on
        # how many workers a FREE is sent to.  Routed accesses never exceed
        # the trace's rows, so a shorter trace never reaches a check and
        # keeps no statistics.
        rebalance_every = cfg.rebalance_interval_chunks * cfg.chunk_size
        balancing = len(batch) >= rebalance_every
        stats = AccessStats() if balancing else None
        rebalancer = (
            Rebalancer(amap, cfg.hot_addresses, registry=reg) if balancing else None
        )
        chunk_log: list[tuple[int, int]] = []
        chunk_counter = reg.counter("pipeline.chunks")

        def log_chunks(w: int, sizes: list[int]) -> None:
            chunk_counter.inc(len(sizes))
            chunk_log.extend((w, rows) for rows in sizes)

        def flush_all() -> None:
            for w, worker in enumerate(workers):
                log_chunks(w, worker.flush(batch))

        # Hysteresis: remember the hot-load ratio right after the previous
        # redistribution.  If the current ratio is no worse, the previous
        # spread is still in effect (or the workload's hot set simply cannot
        # be balanced below the threshold) and redoing the move would only
        # thrash — the paper performs redistribution at most ~20 times per
        # benchmark for the same reason.
        post_rebalance_imbalance: list[float | None] = [None]

        def maybe_rebalance() -> None:
            imbalance = rebalancer.imbalance(stats)
            if imbalance <= REBALANCE_THRESHOLD:
                return
            prev = post_rebalance_imbalance[0]
            if prev is not None and imbalance <= prev * 1.1:
                return
            decision = rebalancer.rebalance(stats)
            post_rebalance_imbalance[0] = rebalancer.imbalance(stats)
            if not (decision.n_moves or decision.n_bank_moves):
                return  # nothing migrates, so nothing needs to quiesce
            # Quiesce: rows held in partial chunks were routed under the old
            # rules and must land in their worker's trackers *before* state
            # is exported, or the migrated bank would miss them (surfacing
            # as phantom INIT dependences).  The marker closes the epoch in
            # the chunk log, so the cost model replays the quiesce.
            t0 = time.perf_counter() if tracer.enabled else 0.0
            flush_all()
            if tracer.enabled:
                tracer.complete("pipeline.quiesce", MAIN_TRACK, t0)
            chunk_log.append((-1, 0))
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

        # ---- producer loop over windows of the trace ------------------
        # Drop consumed windows' resident pages (an RSS hint, a no-op on an
        # in-memory batch).  After a window is fed, the workers still read
        # only their partial chunks.
        released_upto = 0
        accesses_at_last_check = 0
        accesses_routed = 0
        n = len(batch)
        for s in range(0, n, self.window):
            e = min(s + self.window, n)
            with reg.span("route", window_start=s):
                route = route_window(batch, s, e, amap)
                if balancing:
                    acc_addrs = route.addr[route.access]
                    if len(acc_addrs):
                        stats.record_many(acc_addrs)
                        accesses_routed += len(acc_addrs)
            with reg.span("drain", window_start=s):
                for w, worker in enumerate(workers):
                    log_chunks(w, worker.feed(batch, route.rows_for(w)))
            if accesses_routed - accesses_at_last_check >= rebalance_every:
                accesses_at_last_check = accesses_routed
                maybe_rebalance()
            upto = min(worker.resume_row(e) for worker in workers)
            batch.release_window(released_upto, upto)
            released_upto = upto

        # ---- flush + publish ----------------------------------------------
        with reg.span("drain"):
            flush_all()
            parts = [worker.publish() for worker in workers]
        return parts, chunk_log, rebalancer.audit if balancing else []

    # ------------------------------------------------------------------
    def _run_processes(
        self, batch: TraceBatch, loop_index: LoopStateIndex, reg: MetricsRegistry
    ) -> tuple[list[dict], list[tuple[int, int]], list[dict]]:
        """Processes transport: the process's worker pool over the run's
        hand-off.

        The run holds the pool of its ``workers``
        (:func:`~repro.parallel.pool.worker_pool`; ``pipeline.worker_forks``
        counts the workers forked for it), which closes it if the run
        fails.  The static address partition makes results independent of
        scheduling, so this mode is bit-for-bit equivalent to
        ``deterministic`` minus the load balancer (which needs
        producer-side signature migration).  Returns the workers' parts,
        their chunk logs folded into the order the in-process transport
        logs the same chunks in, and an empty rebalance audit.
        """
        cfg = self.config
        spill = batch.spill_path if isinstance(batch, SpilledTraceBatch) else ""
        groups = {"index": loop_index.arrays()}
        if not spill:
            groups["trace"] = batch.columns()
        with worker_pool(cfg.workers, Arena.nbytes(groups)) as (pool, forked):
            reg.counter("pipeline.worker_forks").inc(cfg.workers if forked else 0)
            parts = self._drive_pool(pool, groups, spill, len(batch), reg)
        # Producer-order chunk log for the cost model: interleave the
        # workers' chunks by the window each was cut in, then by worker —
        # the order the in-process transport logs the same chunks in.
        # The sort is stable, so each worker's chunks keep their order.
        entries = [(widx, p["wid"], rows) for p in parts for widx, rows in p["chunk_log"]]
        entries.sort(key=lambda t: (t[0], t[1]))
        chunk_log = [(wid, rows) for _, wid, rows in entries]
        reg.counter("pipeline.chunks").inc(len(chunk_log))
        return parts, chunk_log, []

    def _drive_pool(
        self,
        pool: WorkerPool,
        groups: dict[str, dict],
        spill: str,
        n: int,
        reg: MetricsRegistry,
    ) -> list[dict]:
        """Run one run's ``n`` trace rows on ``pool``; return the parts.

        Copies ``groups`` (the loop index's arrays and, unless the trace is
        spilled, its columns) into the pool's arena in one ``handoff``
        span, sends every worker a start message with the arena layout
        (and the ``spill`` path), then ``(start, end, window_idx)`` index
        ranges and ``None`` in one ``push`` span; each worker routes its
        windows with the same :func:`route_window` (see
        :mod:`repro.parallel.procworker`).  The ``drain`` span waits for
        the workers' parts.
        """
        cfg = self.config
        procs, task_qs, result_q = pool.procs, pool.task_qs, pool.result_q
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

        def exitcode(w: int) -> int | None:
            # A worker that delivered its part has finished this run.
            return 0 if w in payloads else procs[w].exitcode

        watchdog = heartbeat.WorkerWatchdog(
            pool.board, reg, exitcode, interval_s=heartbeat.DEFAULT_INTERVAL_S
        )
        try:
            with reg.span("handoff"):
                layout = pool.arena.write(groups)
            spec = {
                "config": cfg,
                "layout": layout,
                "spill": spill,
                "provenance": self.provenance,
                "trace": reg.tracer.enabled,
                "run_id": reg.run_id,
            }
            pool.board.reset()
            watchdog.start()
            with reg.span("push"):
                for q in task_qs:
                    q.put(spec)
                for widx, s in enumerate(range(0, n, self.window)):
                    task = (s, min(s + self.window, n), widx)
                    for q in task_qs:
                        q.put(task)
                for q in task_qs:
                    q.put(None)
            with reg.span("drain"):
                while len(payloads) < cfg.workers:
                    receive(timeout=1.0)
        finally:
            # Before any close: the watchdog's final pass must see the
            # workers' true exit state, not the SIGTERM it sends.
            watchdog.stop()
        return [payloads[w] for w in range(cfg.workers)]
