"""Worker-process entry point for the ``processes`` execution mode.

Worker processes are forked, so each one starts with the parent's objects
in its address space: the :class:`~repro.trace.batch.TraceBatch` (in-memory
columns or a spilled batch's file mappings), the run's one
:class:`~repro.core.controlflow.LoopStateIndex` and the
:class:`~repro.parallel.heartbeat.HeartbeatBoard`.  The worker builds the
same :class:`~repro.parallel.worker.Worker` the in-process pipeline uses
and consumes *window index ranges* — ``(start, end, window_idx)`` tuples,
a few dozen bytes each — from a task queue.  Routing happens worker-side
through the pipeline's one routing rule
(:func:`~repro.parallel.address_map.route_window`): every process routes
the same window over the inherited columns and keeps only its own rows
(its accesses, and every FREE), so no per-row data ever crosses a process
boundary.

At shutdown (a ``None`` sentinel) the worker calls
:meth:`~repro.parallel.worker.Worker.publish` into a private
:class:`~repro.obs.metrics.MetricsRegistry` and ships that part home with
the registry's :meth:`~repro.obs.metrics.MetricsRegistry.state`, optional
tracer events and its chunk log (each chunk tagged with the window it
was cut in).  The parent folds these in the pipeline's one merge.
"""

from __future__ import annotations

import traceback
from typing import Any

from repro.common.config import ProfilerConfig
from repro.core.controlflow import LoopStateIndex
from repro.obs.environment import peak_rss_bytes, publish_process_usage
from repro.obs.metrics import MetricsRegistry
from repro.obs.provenance import ProvenanceCollector
from repro.obs.tracing import Tracer, worker_track
from repro.parallel.address_map import AddressMap, route_window
from repro.parallel.worker import Worker
from repro.trace import TraceBatch


def run_worker(
    wid: int,
    config: ProfilerConfig,
    batch: TraceBatch,
    loop_index: LoopStateIndex,
    task_q: Any,
    result_q: Any,
    opts: dict[str, Any],
) -> None:
    """Process entry point: consume window ranges until the ``None`` sentinel.

    ``opts`` keys: ``provenance`` (bool) and ``trace`` (bool) mirror the
    parent pipeline's observability switches; ``run_id`` propagates the
    parent's correlation id; ``heartbeat`` is the run's
    :class:`~repro.parallel.heartbeat.HeartbeatBoard` (``None`` disables
    stamping).
    """
    try:
        hb = opts.get("heartbeat")
        if hb is not None:
            hb.beat(wid)  # first stamp: the worker is up
        tracer = Tracer() if opts.get("trace") else None
        reg = MetricsRegistry(tracer=tracer, run_id=opts.get("run_id"))
        if tracer is not None:
            tracer.set_track(worker_track(wid), f"worker {wid}")
        prov = (
            ProvenanceCollector(worker=wid) if opts.get("provenance") else None
        )
        worker = Worker(wid, config, loop_index, reg, provenance=prov, heartbeat=hb)
        amap = AddressMap(config.workers, bank_geometry=config.bank_geometry)
        # Only the rows this worker still reads should be resident: a
        # spilled batch may be far larger than RAM.
        released = 0
        chunk_log: list[tuple[int, int]] = []
        widx = -1
        while True:
            task = task_q.get()
            if hb is not None:
                hb.beat(wid)
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
        reg.gauge("process.peak_rss_bytes", worker=wid).set(peak_rss_bytes())
        # Fork reset this process's rusage: its whole life is this run.
        publish_process_usage(reg, worker=wid)
        part.update(
            metrics=reg.state(),
            tracer=(
                (tracer.epoch, tracer.events, tracer.track_names)
                if tracer is not None
                else None
            ),
            chunk_log=chunk_log,
        )
        result_q.put(("ok", part))
    except BaseException:  # noqa: BLE001 — ship the traceback to the parent
        result_q.put(("error", wid, traceback.format_exc()))
