"""Worker-process entry point for the ``processes`` execution mode.

Each worker process attaches the shared-memory trace
(:func:`repro.trace.shm.attach_batch`), rebuilds the same
:class:`~repro.parallel.worker.Worker` the in-process pipeline uses, and
consumes *window index ranges* — ``(start, end, window_idx)`` tuples, a few
dozen bytes each — from a task queue.  Routing happens worker-side through
the pipeline's one routing rule
(:func:`~repro.parallel.address_map.route_window`): every process routes
the same window over the shared columns and keeps only its own rows (plus
the broadcast rows everyone needs), so no per-row data ever crosses a
process boundary.

At shutdown (a ``None`` sentinel) the worker calls
:meth:`~repro.parallel.worker.Worker.publish` into a private
:class:`~repro.obs.metrics.MetricsRegistry` and ships that part home with
the registry's :meth:`~repro.obs.metrics.MetricsRegistry.state`, optional
tracer events, its chunk log and its broadcast-row count.  The parent folds
these in the pipeline's one merge.
"""

from __future__ import annotations

import traceback
from typing import Any

from repro.common.config import ProfilerConfig
from repro.obs.environment import peak_rss_bytes
from repro.obs.metrics import MetricsRegistry
from repro.obs.provenance import ProvenanceCollector
from repro.obs.tracing import Tracer, worker_track
from repro.parallel.address_map import AddressMap, route_window
from repro.parallel.heartbeat import HeartbeatBoard
from repro.parallel.worker import Worker
from repro.trace.shm import SharedBatchMeta, attach_batch


def run_worker(
    wid: int,
    config: ProfilerConfig,
    meta: SharedBatchMeta,
    task_q: Any,
    result_q: Any,
    opts: dict[str, Any],
) -> None:
    """Process entry point: consume window ranges until the ``None`` sentinel.

    ``opts`` keys: ``provenance`` (bool) and ``trace`` (bool) mirror the
    parent pipeline's observability switches; ``run_id`` propagates the
    parent's correlation id; ``heartbeat`` is a
    :class:`~repro.parallel.heartbeat.HeartbeatBoard` attach descriptor
    (``None`` disables stamping).
    """
    shm = None
    hb = None
    try:
        batch, shm = attach_batch(meta)
        hb_meta = opts.get("heartbeat")
        if hb_meta is not None:
            hb = HeartbeatBoard.attach(hb_meta)
            hb.beat(wid)  # first stamp: attach succeeded, worker is up
        tracer = Tracer() if opts.get("trace") else None
        reg = MetricsRegistry(tracer=tracer, run_id=opts.get("run_id"))
        if tracer is not None:
            tracer.set_track(worker_track(wid), f"worker {wid}")
        prov = (
            ProvenanceCollector(worker=wid) if opts.get("provenance") else None
        )
        worker = Worker(wid, config, reg, provenance=prov)
        amap = AddressMap(config.workers, bank_geometry=config.bank_geometry)
        # Only the window being processed should be resident: a spilled
        # batch may be far larger than RAM.
        release = getattr(batch, "release_window", None)
        chunk_size = config.chunk_size
        chunk_log: list[tuple[int, int]] = []
        n_broadcast = 0
        seq = 0
        while True:
            task = task_q.get()
            if hb is not None:
                hb.beat(wid)
            if task is None:
                break
            s, e, widx = task
            route = route_window(batch, s, e, amap)
            # Every worker sees every broadcast row, so each one's count
            # is the run's count.
            n_broadcast += route.n_broadcast
            wrows = route.rows_for(wid)
            for i in range(0, len(wrows), chunk_size):
                crows = wrows[i : i + chunk_size]
                worker.process_rows(batch, crows, seq=seq)
                chunk_log.append((widx, len(crows)))
                seq += 1
                if hb is not None:
                    hb.beat(wid)
            if release is not None:
                release(s, e)
        # -- publish & ship ------------------------------------------------
        part = worker.publish()
        reg.gauge("process.peak_rss_bytes", worker=wid).set(peak_rss_bytes())
        part.update(
            metrics=reg.state(),
            tracer=(
                (tracer.epoch, tracer.events, tracer.track_names)
                if tracer is not None
                else None
            ),
            chunk_log=chunk_log,
            n_broadcast=n_broadcast,
        )
        result_q.put(("ok", part))
    except BaseException:  # noqa: BLE001 — ship the traceback to the parent
        result_q.put(("error", wid, traceback.format_exc()))
    finally:
        if hb is not None:
            hb.close()
        if shm is not None:
            shm.close()
