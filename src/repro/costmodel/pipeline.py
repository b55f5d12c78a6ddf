"""Discrete-event replay of the profiling pipeline.

``estimate_parallel`` walks the *real* chunk sequence a
:class:`~repro.parallel.ParallelProfiler` run produced (``info.chunk_log``)
through a virtual-time model of Figure 2's pipeline:

* the producer spends ``capture`` per routed row, ``control_event`` once
  per control event (spread evenly over the rows it routes) and a handoff
  per chunk; if the target queue is full (``queue_depth`` chunks in
  flight), it stalls until the worker starts an older chunk — the paper's
  bounded chunk queues (§IV, Fig. 2);
* each worker processes its chunks FIFO at ``analyze`` per row (its
  accesses, plus every FREE);
* rebalance markers quiesce the pipeline (producer waits for all workers)
  and charge the migration cost;
* the makespan couples the producer with the critical worker according to
  ``overlap`` (see :mod:`repro.costmodel.costs` for why the default is
  fully coupled), and the final merge pays per surviving store entry.

Per-benchmark differences (imbalance, rebalances, chunk counts) therefore
come from measured behaviour; only the per-operation constants are modelled.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.costmodel.costs import CostParams
from repro.parallel.engine import ParallelRunInfo


@dataclass
class PipelineEstimate:
    """Virtual-time results of one pipeline replay."""

    slowdown: float
    native_time: float
    producer_time: float
    worker_busy: list[float]
    critical_worker_time: float
    queue_wait_time: float
    merge_time: float
    rebalance_time: float
    makespan: float


def estimate_serial(
    n_accesses: int,
    params: CostParams | None = None,
    mt_target: bool = False,
    n_control_events: int = 0,
) -> float:
    """Slowdown of the serial profiler (single thread does everything).

    ``n_control_events`` (loop markers, alloc/free) adds the per-benchmark
    variation around the ~190x anchor: loop-dense programs pay more
    bookkeeping per access.  Each costs ``control_event``, as in
    :func:`estimate_parallel`.
    """
    p = params if params is not None else CostParams()
    per_access = p.native_access + p.capture + p.analyze
    if mt_target:
        per_access += p.mt_capture_extra + (p.mt_worker_factor - 1.0) * p.analyze
    total = n_accesses * per_access + n_control_events * p.control_event
    native = max(n_accesses, 1) * p.native_access
    return total / native if n_accesses else per_access / p.native_access


def estimate_parallel(
    info: ParallelRunInfo,
    n_accesses: int,
    store_entries: int,
    params: CostParams | None = None,
    lock_free: bool = True,
    queue_depth: int = 32,
    mt_target: bool = False,
) -> PipelineEstimate:
    """Replay ``info.chunk_log`` through the virtual-time pipeline.

    Chunks hold only rows a worker reads, so every chunk row costs
    ``analyze`` on its worker and ``capture`` on the producer.  The
    producer also pays ``control_event`` once for each of
    ``info.n_control_events``, spread evenly over the rows it routes.
    """
    p = params if params is not None else CostParams()
    n_workers = max(info.n_workers, 1)

    lock_tax = 0.0 if lock_free else p.lock_tax_per_access
    # Per chunk row: capture on the producer, analysis on the worker.
    capture = p.capture + (p.mt_capture_extra if mt_target else 0.0) + lock_tax
    analyze = p.analyze * (p.mt_worker_factor if mt_target else 1.0) + lock_tax
    total_rows = sum(rows for w, rows in info.chunk_log if w >= 0)
    if total_rows:
        capture += info.n_control_events * p.control_event / total_rows

    producer = 0.0
    queue_wait = 0.0
    rebalance_time = 0.0
    worker_free = [0.0] * n_workers  # when each worker finishes current work
    worker_busy = [0.0] * n_workers  # accumulated processing time
    # Start times of in-flight chunks per worker: a queue slot frees when the
    # worker *starts* the chunk (pops it off the ring).
    in_flight: list[list[float]] = [[] for _ in range(n_workers)]

    for w, rows in info.chunk_log:
        if w < 0:  # rebalance marker: quiesce + migration charge
            drain = max([producer] + worker_free)
            rebalance_time += (drain - producer) + p.rebalance_fixed
            producer = drain + p.rebalance_fixed
            migrated = (
                info.addresses_migrated / max(info.rebalance_rounds, 1)
            )
            producer += migrated * p.migrate_per_address
            continue
        producer += rows * capture + p.chunk_handoff / 2.0
        # Back-pressure: wait for a free slot in worker w's ring.
        fl = in_flight[w]
        while len(fl) >= queue_depth:
            start = fl.pop(0)
            if start > producer:
                queue_wait += start - producer
                producer = start
        start = max(worker_free[w], producer)
        cost = rows * analyze + p.chunk_handoff / 2.0
        worker_free[w] = start + cost
        worker_busy[w] += cost
        fl.append(start)

    critical = max(worker_busy) if worker_busy else 0.0
    merge_time = store_entries * p.merge_per_entry
    # Coupled makespan: the producer and the critical worker share the
    # memory system (overlap=1 -> additive, the paper's Amdahl behaviour);
    # tail completion of the other workers is covered by max().
    overlapped = max(producer, max(worker_free, default=0.0))
    coupled = producer + p.overlap * critical
    makespan = max(overlapped, coupled) + merge_time

    native = n_accesses * p.native_access
    if mt_target:
        # The paper accumulates native time over target threads; our trace
        # already counts every thread's accesses, so the sum is unchanged.
        native = max(native, 1.0)
    return PipelineEstimate(
        slowdown=makespan / max(native, 1.0),
        native_time=native,
        producer_time=producer,
        worker_busy=worker_busy,
        critical_worker_time=critical,
        queue_wait_time=queue_wait,
        merge_time=merge_time,
        rebalance_time=rebalance_time,
        makespan=makespan,
    )


@dataclass
class SpeedupValidation:
    """Measured multi-core speedup checked against the model's prediction.

    The ``processes`` execution mode turns the cost model's *estimated*
    Figure 5/6 speedups into wall-clock measurements; this record pairs the
    two so benchmarks can assert the model stays honest where hardware
    permits measuring.
    """

    workers: int
    measured_speedup: float
    estimated_speedup: float
    relative_error: float
    tolerance: float

    @property
    def within_tolerance(self) -> bool:
        return self.relative_error <= self.tolerance


def validate_speedup(
    info_1: ParallelRunInfo,
    info_n: ParallelRunInfo,
    n_accesses: int,
    store_entries: int,
    measured_seconds_1: float,
    measured_seconds_n: float,
    params: CostParams | None = None,
    queue_depth: int = 32,
    tolerance: float = 0.5,
) -> SpeedupValidation:
    """Compare a measured 1-vs-N-worker speedup with the model's makespans.

    ``info_1``/``info_n`` are the pipeline statistics of the two runs (same
    trace, 1 and N workers); the estimated speedup is the ratio of the
    replayed virtual-time makespans, the measured one the ratio of wall
    clocks.  ``tolerance`` is deliberately loose (default 50% relative):
    the model predicts trend, not microarchitecture.
    """
    est_1 = estimate_parallel(
        info_1, n_accesses, store_entries, params=params, queue_depth=queue_depth
    )
    est_n = estimate_parallel(
        info_n, n_accesses, store_entries, params=params, queue_depth=queue_depth
    )
    estimated = est_1.makespan / max(est_n.makespan, 1e-12)
    measured = measured_seconds_1 / max(measured_seconds_n, 1e-12)
    rel_err = abs(measured - estimated) / max(estimated, 1e-12)
    return SpeedupValidation(
        workers=max(info_n.n_workers, 1),
        measured_speedup=measured,
        estimated_speedup=estimated,
        relative_error=rel_err,
        tolerance=tolerance,
    )
