"""repro.obs — the profiler's telemetry subsystem.

A first-class measurement plane for the whole pipeline, kept free of
profiler imports so every layer (workers, signatures, engines, CLI) can
depend on it without cycles:

* :class:`MetricsRegistry` + :class:`Counter` / :class:`Gauge` /
  :class:`Histogram` — the instrument registry (``metrics``);
* ``registry.span(name)`` — phase timing as a context manager, into the
  ``span.seconds{phase}`` histogram;
* :class:`TelemetryStreamer` — the run's one telemetry stream: registry
  deltas plus the discrete records (``rebalance``, ``heartbeat``) in one
  JSONL file, folded back by :func:`replay_stream`; its thread ticks on
  :func:`deadline_loop`'s grid;
* sinks — :class:`NullSink` (default, zero overhead) and
  :class:`MemorySink` (tests); the streamer is the one file sink;
* :class:`Tracer` / :class:`NullTracer` — the execution-timeline plane
  (``tracing``), exportable as Chrome ``trace_event`` JSON
  (``chrometrace``);
* :class:`ProvenanceCollector` — per-dependence attribution records
  (``provenance``), including the ``suspect_fp`` collision flag;
* :func:`prometheus_text` / :func:`parse_prometheus` — text exposition;
* :class:`RunReport` — the structured per-run JSON report;
* :class:`BenchRecorder` / :func:`compare` — structured benchmark records
  (``BENCH_<suite>.json``) and the noise-aware regression gate behind
  ``ddprof bench`` (``bench``), sharing one environment fingerprint with
  the run report (``environment``).

Hot-path contract: plain counters are always live (an ``inc()`` is one
integer add), while *record* construction is guarded by ``sink.enabled``
and timeline recording by ``tracer.enabled``, so a run without a
configured sink or tracer does no extra allocation.
"""

from repro.obs.bench import (
    BenchComparison,
    BenchRecorder,
    BenchSession,
    MetricComparison,
    MetricRecord,
    TimedSamples,
    classify_delta,
    compare,
    load_bench,
    repeat_timed,
)
from repro.obs.chrometrace import (
    chrome_trace_dict,
    validate_chrome_trace,
    validate_chrome_trace_file,
    write_chrome_trace,
)
from repro.obs.environment import environment_fingerprint, git_sha, peak_rss_bytes
from repro.obs.export import (
    parse_prometheus,
    prometheus_text,
    sanitize_label_name,
)
from repro.obs.heatmap import (
    HEAT_BOUNDS,
    AddressHeatmap,
    bucket_of,
    bucket_range,
    heatmap_dict,
    heatmap_summary,
)
from repro.obs.httpd import TelemetryHTTPServer, healthz_dict
from repro.obs.ledger import (
    RunLedger,
    bundle_summary,
    default_ledger_dir,
    dependence_digest,
    dependence_edges,
    gc_ledger,
    list_runs,
    load_bundle,
    new_run_id,
    resolve_bundle,
    validate_run_id,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    format_name,
)
from repro.obs.provenance import (
    ProvenanceCollector,
    ProvenanceRecord,
    oracle_cross_check,
)
from repro.obs.report import (
    HEARTBEAT_STATES,
    RunReport,
    liveness_summary,
    memory_section,
)
from repro.obs.rundiff import (
    MetricDelta,
    RunDiff,
    VerdictFlip,
    diff_bundles,
)
from repro.obs.sampler import deadline_loop
from repro.obs.sinks import MemorySink, NullSink, Sink, read_jsonl
from repro.obs.streamer import TelemetryStreamer, replay_stream, state_delta
from repro.obs.top import render_top, run_top
from repro.obs.tracing import (
    MAIN_TRACK,
    NULL_TRACER,
    NullTracer,
    TraceEvent,
    Tracer,
    worker_track,
)

__all__ = [
    "AddressHeatmap",
    "BenchComparison",
    "BenchRecorder",
    "BenchSession",
    "Counter",
    "Gauge",
    "HEARTBEAT_STATES",
    "HEAT_BOUNDS",
    "Histogram",
    "MAIN_TRACK",
    "MemorySink",
    "MetricComparison",
    "MetricDelta",
    "MetricRecord",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullSink",
    "NullTracer",
    "ProvenanceCollector",
    "ProvenanceRecord",
    "RunDiff",
    "RunLedger",
    "RunReport",
    "Sink",
    "TelemetryHTTPServer",
    "TelemetryStreamer",
    "TimedSamples",
    "TraceEvent",
    "Tracer",
    "VerdictFlip",
    "bucket_of",
    "bucket_range",
    "bundle_summary",
    "chrome_trace_dict",
    "classify_delta",
    "compare",
    "deadline_loop",
    "default_ledger_dir",
    "dependence_digest",
    "dependence_edges",
    "diff_bundles",
    "environment_fingerprint",
    "format_name",
    "gc_ledger",
    "git_sha",
    "healthz_dict",
    "heatmap_dict",
    "heatmap_summary",
    "list_runs",
    "liveness_summary",
    "load_bench",
    "load_bundle",
    "memory_section",
    "new_run_id",
    "oracle_cross_check",
    "parse_prometheus",
    "peak_rss_bytes",
    "prometheus_text",
    "read_jsonl",
    "render_top",
    "repeat_timed",
    "replay_stream",
    "resolve_bundle",
    "run_top",
    "sanitize_label_name",
    "state_delta",
    "validate_chrome_trace",
    "validate_chrome_trace_file",
    "validate_run_id",
    "worker_track",
    "write_chrome_trace",
]
