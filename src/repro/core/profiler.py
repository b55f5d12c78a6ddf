"""High-level profiler facade.

Wires a :class:`~repro.common.ProfilerConfig` to the profiler's one
Algorithm 1 implementation, so callers profile a trace in one line::

    result = DependenceProfiler(ProfilerConfig(signature_slots=10**7)).profile(batch)

A sequential run is the parallel pipeline with one worker and no
transport: one :class:`~repro.parallel.worker.Worker` (the chunk kernel
over signature planes) fed the trace in ascending row windows of the
pipeline's window size.  The worker owns every address, so its signature
gets all ``signature_slots``.

Telemetry: pass a :class:`~repro.obs.metrics.MetricsRegistry` to record a
``loop-index`` span (the run's one loop-snapshot index, built before the
worker starts), an ``engine`` span, access/dependence counters, signature
evictions and address heat for the run; with no registry the worker runs
uninstrumented.
A :class:`~repro.obs.provenance.ProvenanceCollector` attributes every
dependence to the window (``chunk``) and sink timestamps it came from, with
the suspect-FP verdict.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np

from repro.common.config import ProfilerConfig
from repro.core.controlflow import LoopStateIndex
from repro.core.result import ProfileResult
from repro.obs.metrics import MetricsRegistry
from repro.obs.provenance import ProvenanceCollector
from repro.parallel.engine import WINDOW
from repro.parallel.worker import Worker
from repro.trace import TraceBatch


class DependenceProfiler:
    """Profile traces under one configuration."""

    def __init__(
        self,
        config: ProfilerConfig | None = None,
        registry: MetricsRegistry | None = None,
        provenance: ProvenanceCollector | None = None,
    ) -> None:
        self.config = config if config is not None else ProfilerConfig()
        self.registry = registry
        self.provenance = provenance

    def profile(self, batch: TraceBatch) -> ProfileResult:
        """Run Algorithm 1 over ``batch`` and return the result."""
        cfg = self.config
        reg = self.registry
        with reg.span("loop-index") if reg is not None else nullcontext():
            loop_index = LoopStateIndex(batch)  # rejects malformed nesting
        worker = Worker(0, cfg.with_(workers=1), loop_index, reg, self.provenance)
        n = len(batch)
        with reg.span("engine") if reg is not None else nullcontext():
            # Each row window is one chunk of the worker's.
            for s in range(0, n, WINDOW):
                rows = np.arange(s, min(s + WINDOW, n), dtype=np.int64)
                worker.process_rows(batch, rows)
        stats = worker.engine.stats
        stats.n_unique_addresses = batch.n_unique_addresses
        stats.tracker_memory_bytes = worker.memory_bytes
        if reg is not None:
            stats.publish(reg)
            worker.publish_heat()
            reg.gauge("engine.unique_addresses").set(stats.n_unique_addresses)
            reg.gauge("deps.merged_entries").set(worker.store.n_entries)
        return ProfileResult(
            store=worker.store,
            loops=loop_index.loops,
            stats=stats,
            var_names=batch.var_names,
            file_names=batch.file_names,
            multithreaded=batch.n_threads > 1 or cfg.multithreaded_target,
            provenance=self.provenance,
        )


def profile_trace(
    batch: TraceBatch,
    config: ProfilerConfig | None = None,
    registry: MetricsRegistry | None = None,
    provenance: ProvenanceCollector | None = None,
) -> ProfileResult:
    """Convenience one-shot profiling call."""
    return DependenceProfiler(config, registry, provenance).profile(batch)
