"""Worker-process side of the ``processes`` execution mode: a loop over runs.

A pool worker (:mod:`repro.parallel.pool`) is forked once and serves every
processes-mode run of its parent that has the pool's worker count.  A run
reaches it on its task queue as

1. a start message (a dict): the run's config and observability switches,
   and where its trace and loop index are — the layout of the arrays the
   parent copied into the pool's shared :class:`~repro.parallel.pool.Arena`
   (the :class:`~repro.core.controlflow.LoopStateIndex` arrays, and an
   in-memory trace's eight columns), or a spilled trace's path, which the
   worker maps itself;
2. window index ranges ``(start, end, window_idx)``, a few dozen bytes
   each.  Routing happens worker-side through the pipeline's one routing
   rule (:func:`~repro.parallel.address_map.route_window`): every worker
   routes the same window and keeps only its own rows (its accesses, and
   every FREE), so no per-row data crosses a queue;
3. ``None``: the worker flushes, calls
   :meth:`~repro.parallel.worker.Worker.publish` into the run's private
   :class:`~repro.obs.metrics.MetricsRegistry` and ships that part home
   with the registry's :meth:`~repro.obs.metrics.MetricsRegistry.state`,
   optional tracer events and its chunk log (each chunk tagged with the
   window it was cut in).  The parent folds these in the pipeline's one
   merge.

Each run builds a fresh :class:`~repro.parallel.worker.Worker`, registry
and :class:`~repro.parallel.address_map.AddressMap`, so nothing carries
over from one run to the next but the process itself.  :data:`EXIT` ends
the worker, and so does its parent's death, which it checks for whenever
its task queue stays empty for :data:`PARENT_POLL_S`.  A worker that fails
ships its traceback and exits; the parent then closes the pool.
"""

from __future__ import annotations

import os
import queue as queue_mod
import traceback
from typing import Any

from repro.core.controlflow import LoopStateIndex
from repro.obs.environment import peak_rss_bytes, process_usage, publish_process_usage
from repro.obs.metrics import MetricsRegistry
from repro.obs.provenance import ProvenanceCollector
from repro.obs.tracing import Tracer, worker_track
from repro.parallel.address_map import AddressMap, route_window
from repro.parallel.worker import Worker
from repro.trace import TraceBatch
from repro.trace.spill import open_spill

#: The task that closes a pool worker.
EXIT = "exit"
#: Seconds an idle worker waits on its task queue between parent checks.
PARENT_POLL_S = 1.0


class _Orphaned(Exception):
    """The process that forked this worker is gone."""


def _next_task(task_q: Any, parent: int) -> Any:
    while True:
        try:
            return task_q.get(timeout=PARENT_POLL_S)
        except queue_mod.Empty:
            if os.getppid() != parent:
                raise _Orphaned from None


def run_worker(wid: int, task_q: Any, result_q: Any, arena: Any, board: Any) -> None:
    """Process entry point: serve runs until :data:`EXIT` or the parent's
    death.  ``arena`` and ``board`` are the pool's
    :class:`~repro.parallel.pool.Arena` and
    :class:`~repro.parallel.heartbeat.HeartbeatBoard`."""
    parent = os.getppid()
    try:
        while True:
            spec = _next_task(task_q, parent)
            if spec == EXIT:
                return
            try:
                part = _serve_run(wid, spec, task_q, parent, arena, board)
            except _Orphaned:
                raise
            except BaseException:  # noqa: BLE001 — ship the traceback home
                result_q.put(("error", wid, traceback.format_exc()))
                return
            result_q.put(("ok", part))
    except _Orphaned:
        # Nobody reads the result queue any more: do not wait at exit for
        # a part to drain into it.
        result_q.cancel_join_thread()


def _serve_run(
    wid: int, spec: dict[str, Any], task_q: Any, parent: int, arena: Any, board: Any
) -> dict:
    """Run one run's windows from ``task_q`` and return the part to ship.

    ``spec`` keys: ``config``; ``layout`` (the run's arena layout: an
    ``index`` group and, unless the trace is spilled, a ``trace`` group);
    ``spill`` (a spilled trace's directory, or ``None``); ``provenance``
    and ``trace`` mirror the parent pipeline's observability switches;
    ``run_id`` propagates the parent's correlation id.  The worker stamps
    ``board`` when it takes the run, per task and per kernel call.
    """
    usage_at_start = process_usage()
    board.beat(wid)  # first stamp: the worker has the run
    config = spec["config"]
    views = arena.read(spec["layout"])
    batch = open_spill(spec["spill"]) if spec["spill"] else TraceBatch(**views["trace"])
    loop_index = LoopStateIndex.from_arrays(views["index"])
    tracer = Tracer() if spec["trace"] else None
    reg = MetricsRegistry(tracer=tracer, run_id=spec["run_id"])
    if tracer is not None:
        tracer.set_track(worker_track(wid), f"worker {wid}")
    prov = ProvenanceCollector(worker=wid) if spec["provenance"] else None
    worker = Worker(wid, config, loop_index, reg, provenance=prov, heartbeat=board)
    amap = AddressMap(config.workers, bank_geometry=config.bank_geometry)
    # Only the rows this worker still reads should be resident: a spilled
    # batch may be far larger than RAM.
    released = 0
    chunk_log: list[tuple[int, int]] = []
    widx = -1
    while True:
        task = _next_task(task_q, parent)
        board.beat(wid)
        if task is None:
            break
        s, e, widx = task
        route = route_window(batch, s, e, amap)
        for rows in worker.feed(batch, route.rows_for(wid)):
            chunk_log.append((widx, rows))
        # Keep the partial chunk's pages: it reads them when it runs.
        upto = worker.resume_row(e)
        batch.release_window(released, upto)
        released = upto
    # The partial chunk runs after the last window, as in-process.
    for rows in worker.flush(batch):
        chunk_log.append((widx + 1, rows))
    # -- publish & ship ------------------------------------------------
    part = worker.publish()
    # The high-water since the pool forked; CPU time and faults of this run.
    reg.gauge("process.peak_rss_bytes", worker=wid).set(peak_rss_bytes())
    publish_process_usage(reg, since=usage_at_start, worker=wid)
    part.update(
        metrics=reg.state(),
        tracer=(
            (tracer.epoch, tracer.events, tracer.track_names)
            if tracer is not None
            else None
        ),
        chunk_log=chunk_log,
    )
    return part
