"""The one-call profiling entry point.

:func:`profile_trace` runs the profiler's one pipeline
(:class:`~repro.parallel.engine.ParallelProfiler`, Figure 2) at one worker
in deterministic mode, so callers profile a trace in one line::

    result = profile_trace(batch, ProfilerConfig(signature_slots=10**7))

The one worker owns every address, so its signature gets all
``signature_slots``.  The run records the pipeline's spans (``loop-index``,
``route``, ``drain``, ``merge``) and its per-worker metric families, like
any other pipeline run.
"""

from __future__ import annotations

from repro.common.config import ProfilerConfig
from repro.core.result import ProfileResult
from repro.obs.metrics import MetricsRegistry
from repro.parallel.engine import ParallelProfiler
from repro.trace import TraceBatch


def profile_trace(
    batch: TraceBatch,
    config: ProfilerConfig | None = None,
    registry: MetricsRegistry | None = None,
    provenance: bool = False,
) -> ProfileResult:
    """Profile ``batch`` through the pipeline at one worker.

    ``config.workers`` is ignored: the one worker holds every slot.
    ``registry`` follows the pipeline's one-registry-per-run rule: the
    result's statistics are read back from its counters, so pass a fresh
    registry for every call, or none for a private one.  With
    ``provenance`` the result carries a
    :class:`~repro.obs.provenance.ProvenanceCollector` that attributes
    every dependence to its chunks and sink timestamps, with the
    suspect-FP verdict.
    """
    cfg = config if config is not None else ProfilerConfig()
    result, _ = ParallelProfiler(
        cfg.with_(workers=1), registry=registry, provenance=provenance
    ).profile(batch)
    return result
