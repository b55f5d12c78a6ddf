"""Telemetry overhead: instrumented vs. uninstrumented profiling runs.

The observability layer promises near-zero cost when no sink is attached
(counters are plain attribute bumps; record construction is guarded by
``sink.enabled``) and modest cost with the telemetry stream on.  This
experiment measures both deltas on a real pipeline run, records the
overhead ratios into the ``obs`` suite record (with the tracing budget
declared as a ceiling on the metric itself), and folds the instrumented
run's own pipeline-health numbers — producer fast-path share, load
imbalance — into the same record through
:meth:`BenchRecorder.record_run_report`.
"""

from repro.common.config import ProfilerConfig
from repro.obs import (
    NULL_TRACER,
    MetricsRegistry,
    RunReport,
    TelemetryStreamer,
    Tracer,
    repeat_timed,
    replay_stream,
)
from repro.parallel import ParallelProfiler
from repro.workloads import get_trace

PERFECT = ProfilerConfig(perfect_signature=True)


def _run(batch, registry=None):
    cfg = PERFECT.with_(workers=4)
    return ParallelProfiler(cfg, registry=registry).profile(batch)


def _timed(batch, make_registry, repeats=3):
    """Median seconds over the shared repeat/warmup policy, plus the last
    run's (result, registry) pair."""
    regs = []

    def once():
        reg = make_registry()
        regs.append(reg)
        return _run(batch, reg)

    timed = repeat_timed(once, repeats=repeats, warmup=1)
    return timed, timed.last, regs[-1]


def test_telemetry_overhead(benchmark, bench_record, tmp_path):
    """Null-sink and telemetry-stream overhead against the uninstrumented
    run (the JSONL arm writes the run's one stream at its default
    cadence).  Each round runs the two instrumented configurations next to
    a plain run, so machine drift cancels; the gated values are the median
    pairwise ratios, and their spread is the metric's noise band."""
    import time

    batch = get_trace("kmeans")

    def once(registry, stream_path=None):
        t0 = time.perf_counter()
        if stream_path is None:
            out = _run(batch, registry)
        else:
            with TelemetryStreamer(registry, stream_path):
                out = _run(batch, registry)
        return time.perf_counter() - t0, out

    def jsonl_path(k):
        return tmp_path / f"telemetry-{k}.jsonl"

    once(None), once(MetricsRegistry())
    once(MetricsRegistry(), jsonl_path("warmup"))
    plain_s, null_s, jsonl_s = [], [], []
    for k in range(7):
        dt, (r_counters, _) = once(MetricsRegistry())
        null_s.append(dt)
        jsonl_reg = MetricsRegistry()
        dt, (r_jsonl, info_jsonl) = once(jsonl_reg, jsonl_path(k))
        jsonl_s.append(dt)
        dt, (r_plain, _) = once(None)
        plain_s.append(dt)

    # Telemetry must never change the profile itself.
    assert r_plain.store == r_counters.store == r_jsonl.store

    p = bench_record.record(
        "obs.plain_seconds", samples=plain_s, unit="seconds",
        direction="lower", warmup=1,
    )
    c = bench_record.record(
        "obs.null_sink_seconds", samples=null_s, unit="seconds",
        direction="lower", warmup=1,
    )
    null = bench_record.record(
        "obs.null_sink_overhead",
        samples=[on / off for on, off in zip(null_s, plain_s)],
        unit="ratio", direction="lower", warmup=1,
    )
    jsonl = bench_record.record(
        "obs.jsonl_sink_overhead",
        samples=[on / off for on, off in zip(jsonl_s, plain_s)],
        unit="ratio", direction="lower", warmup=1,
    )
    bench_record.table(
        "telemetry_overhead",
        ["configuration", "seconds", "vs plain"],
        [
            ["no registry", p.value, 1.0],
            ["registry, null sink", c.value, null.value],
            ["registry, jsonl sink", sorted(jsonl_s)[len(jsonl_s) // 2], jsonl.value],
        ],
        title="Telemetry overhead (kmeans analog, 4 workers)",
    )

    # The last instrumented run's pipeline-health counters ride the same
    # record.
    report = RunReport.build(jsonl_reg, r_jsonl, info_jsonl, workload="kmeans")
    bench_record.record_run_report(report, "obs.kmeans_pipeline")
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_heatmap_overhead(benchmark, bench_record):
    """The memory plane's hot-path budget, gated on the chunk loop itself.

    Heat recording lives in the worker's chunk path (one fused
    searchsorted + bincount per chunk, plus the owner-address scatter for
    occupancy attribution), so that is the loop this experiment times —
    full pipeline runs would drown the signal in trace-analysis and
    scheduling noise.  On/off samples are interleaved in pairs so machine
    drift cancels, and the gated value is the median pairwise ratio.
    """
    import time

    import numpy as np

    from repro.core.controlflow import LoopStateIndex
    from repro.obs.heatmap import heatmap_summary
    from repro.parallel.worker import Worker

    batch = get_trace("kmeans")
    loop_index = LoopStateIndex(batch)
    n = len(batch.addr)
    step = ProfilerConfig().chunk_size
    blocks = [np.arange(i, min(i + step, n)) for i in range(0, n, step)]
    workers = {}

    def sample(heat_on, inner=2):
        # Aggregate a couple of fresh chunk loops per sample so scheduler
        # jitter shrinks relative to the measured region.
        dt = 0.0
        for _ in range(inner):
            reg = MetricsRegistry()
            w = Worker(
                0, ProfilerConfig(workers=1, heatmap=heat_on), loop_index, registry=reg
            )
            w.process_rows(batch, blocks[0])  # warm-up chunk: not timed
            t0 = time.perf_counter()
            for rows in blocks[1:]:
                w.process_rows(batch, rows)
            w.publish_heat()
            dt += time.perf_counter() - t0
            workers[heat_on] = (w, reg)
        return dt

    sample(True, inner=1)
    sample(False, inner=1)  # warmup both paths
    ratios = [sample(True) / sample(False) for _ in range(9)]

    # Heat must never change the profile, and its totals must reconcile
    # exactly with the events the worker processed.
    w_on, reg_on = workers[True]
    w_off, _ = workers[False]
    assert w_on.store == w_off.store
    doc = heatmap_summary(reg_on)
    heat_total = doc["total_reads"] + doc["total_writes"]
    assert heat_total == w_on.accesses_processed

    rec = bench_record.record(
        "obs.heatmap_overhead", samples=ratios, unit="ratio",
        direction="lower", ceiling=1.15, heat_accesses=heat_total,
    )
    ratio = rec.value
    bench_record.table(
        "heatmap_overhead",
        ["configuration", "vs heat off"],
        [
            ["chunk loop, heatmap off", 1.0],
            ["chunk loop, heatmap on", ratio],
        ],
        title=f"Address-heatmap overhead (kmeans analog, {len(blocks)} chunks)",
    )
    assert ratio < 1.15, f"heatmap overhead {ratio:.2f}x exceeds budget"
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_provenance_overhead(benchmark, bench_record):
    """Provenance at kernel speed, gated: a provenance run (per-dependence
    workers, chunks, timestamps and suspect-FP flags) against the plain
    pipeline run on a lossy 4096-slot signature at 2 workers.  Both run
    the vectorized chunk kernel, so the budget is the cost of folding
    provenance per merged record.  On/off samples are interleaved in pairs
    so machine drift cancels; the gated value is the median pairwise
    ratio."""
    import time

    batch = get_trace("kmeans")
    cfg = ProfilerConfig(signature_slots=4096, workers=2)

    def once(provenance):
        t0 = time.perf_counter()
        result, _ = ParallelProfiler(cfg, provenance=provenance).profile(batch)
        return time.perf_counter() - t0, result

    once(True), once(False)  # warmup both paths
    ratios = []
    for _ in range(7):
        on, r_on = once(True)
        off, r_off = once(False)
        ratios.append(on / off)

    # Provenance never changes the profile; it annotates every merged
    # dependence, and the small signature gives it collisions to flag.
    assert r_on.store == r_off.store
    assert len(r_on.provenance) == r_on.store.n_entries
    assert r_on.provenance.n_suspect > 0

    rec = bench_record.record(
        "obs.provenance_overhead", samples=ratios, unit="ratio",
        direction="lower", ceiling=1.3, suspect=r_on.provenance.n_suspect,
    )
    assert rec.value < 1.3, f"provenance overhead {rec.value:.2f}x exceeds budget"
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_tracing_overhead_guard(benchmark, bench_record, results_dir, tmp_path):
    """The null-tracer contract, measured: an untraced pipeline run never
    reaches a tracer record method (the NullTracer call counter stays
    flat), and a fully traced run stays within a small multiple of the
    untraced time."""
    batch = get_trace("kmeans")

    calls_before = NULL_TRACER.record_calls
    plain, (r_plain, _), _ = _timed(batch, lambda: None)
    null_reg, (r_null_reg, _), _ = _timed(batch, MetricsRegistry)
    assert NULL_TRACER.record_calls == calls_before, (
        "untraced hot path called a tracer record method"
    )

    traced, (r_traced, _), reg = _timed(
        batch, lambda: MetricsRegistry(tracer=Tracer())
    )
    tracer = reg.tracer
    assert tracer.n_events > 0
    assert r_traced.store == r_plain.store == r_null_reg.store

    baseline = min(plain.median, null_reg.median)
    ratio = traced.median / baseline
    # Generous CI budget (declared as the metric's ceiling, enforced by the
    # bench gate): timeline recording is a list append per event.
    bench_record.record(
        "obs.tracing_overhead", ratio, unit="ratio", direction="lower",
        ceiling=2.5, trace_events=tracer.n_events,
    )
    bench_record.table(
        "tracing_overhead",
        ["configuration", "seconds", "vs untraced"],
        [
            ["untraced", baseline, 1.0],
            ["traced", traced.median, ratio],
        ],
        title=f"Tracing overhead (kmeans analog, {tracer.n_events} events)",
    )
    from repro.obs import validate_chrome_trace_file, write_chrome_trace

    trace_path = tmp_path / "tracing_overhead.trace.json"
    write_chrome_trace(trace_path, tracer, meta={"workload": "kmeans"})
    assert validate_chrome_trace_file(trace_path) == []
    assert ratio < 2.5, f"tracing overhead {ratio:.2f}x exceeds budget"
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_streaming_overhead_guard(benchmark, bench_record, tmp_path):
    """The live-telemetry tentpole, gated: a TelemetryStreamer emitting
    delta snapshots at a tight cadence alongside the run must stay within a
    declared multiple of the unstreamed time (the ceiling rides the metric
    into the bench gate), and the stream must replay to the run's final
    registry state.  Plain and streamed runs are interleaved in pairs so
    machine drift cancels; the gated value is the median pairwise ratio,
    and the ratios' spread is the metric's noise band."""
    import statistics
    import time

    batch = get_trace("kmeans")
    stream_path = tmp_path / "stream.jsonl"

    def once(streamed):
        t0 = time.perf_counter()
        if streamed:
            reg = MetricsRegistry(run_id="bench")
            with TelemetryStreamer(reg, stream_path, interval_s=0.02):
                out = _run(batch, reg)
        else:
            out = _run(batch)
        return time.perf_counter() - t0, out

    once(False), once(True)  # warm-up both paths
    plain_s, streamed_s = [], []
    for _ in range(7):
        dt, (r_plain, _) = once(False)
        plain_s.append(dt)
        dt, (r_streamed, _) = once(True)
        streamed_s.append(dt)
    assert r_streamed.store == r_plain.store  # streaming never alters results

    replayed, info = replay_stream(stream_path)  # last streamed run's stream
    assert info["final"] is not None
    assert replayed.snapshot()["counters"] == info["final"]["counters"]

    rec = bench_record.record(
        "obs.streaming_overhead",
        samples=[on / off for on, off in zip(streamed_s, plain_s)],
        unit="ratio", direction="lower", warmup=1,
        ceiling=2.0, stream_deltas=info["n_deltas"],
    )
    ratio = rec.value
    bench_record.table(
        "streaming_overhead",
        ["configuration", "seconds", "vs plain"],
        [
            ["no registry", statistics.median(plain_s), 1.0],
            ["streamed @20ms", statistics.median(streamed_s), ratio],
        ],
        title=f"Live-stream overhead (kmeans analog, {info['n_deltas']} deltas)",
    )
    assert ratio < 2.0, f"streaming overhead {ratio:.2f}x exceeds budget"
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_metrics_jsonl_event_stream(metrics_registry, results_dir, benchmark):
    """The fixture captures a readable telemetry stream — in a temp dir,
    never under ``benchmarks/results/`` (only curated tables are checked
    in) — whose deltas carry the run's phase timings."""
    batch = get_trace("ep")
    ParallelProfiler(PERFECT.with_(workers=2), registry=metrics_registry).profile(batch)
    stream = metrics_registry.sink
    stream.stop()
    path = stream.path
    assert path.exists()
    assert results_dir not in path.parents
    replayed, info = replay_stream(path)
    assert {"route", "drain", "merge"} <= set(replayed.phase_totals())
    assert replayed.snapshot()["counters"] == info["final"]["counters"]
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_ledger_overhead(benchmark, bench_record, tmp_path):
    """The run-ledger budget, gated: profiling with a ledger attached (the
    engine checkpoint plus the full finalize — report build, canonical edge
    list, digest, loop table, atomic write) must stay within 1.05x of the
    bare profile.  On/off samples are interleaved in pairs so machine drift
    cancels; the gated value is the median pairwise ratio.  Measured on the
    amplified cg trace: bundle cost is a per-run constant (report + edge
    list + digest + one atomic write) while profiling scales with the
    trace, so the gate uses a trace of representative length rather than a
    toy one that would inflate the ratio."""
    from repro.obs import RunLedger, diff_bundles, load_bundle

    batch = get_trace("amp-cg")
    n_runs = [0]

    def once(with_ledger):
        reg = MetricsRegistry(run_id=f"bench-{n_runs[0]}")
        ledger = None
        if with_ledger:
            ledger = RunLedger(
                tmp_path, f"bench-{n_runs[0]}", meta={"workload": "amp-cg"}
            )
        n_runs[0] += 1
        cfg = PERFECT.with_(workers=4)
        result, info = ParallelProfiler(
            cfg, registry=reg, ledger=ledger
        ).profile(batch)
        if ledger is not None:
            report = RunReport.build(reg, result=result, info=info)
            ledger.finalize(reg, report=report, result=result, info=info)
        return result, ledger

    (r_on, led), _ = once(True), once(False)  # warmup both paths
    samples = []
    for _ in range(11):
        on = repeat_timed(lambda: once(True), repeats=1, warmup=0)
        off = repeat_timed(lambda: once(False), repeats=1, warmup=0)
        samples.append(on.seconds[0] / off.seconds[0])

    # The ledger must never change the profile, and its bundle must satisfy
    # the self-diff contract on the spot.
    r_off, _ = off.last
    assert r_on.store == r_off.store
    doc = load_bundle(led.path)
    assert diff_bundles(doc, doc).identical

    rec = bench_record.record(
        "obs.ledger_overhead", samples=samples, unit="ratio",
        direction="lower", ceiling=1.05,
        bundle_bytes=led.path.stat().st_size,
    )
    bench_record.table(
        "ledger_overhead",
        ["configuration", "vs no ledger"],
        [
            ["profile, no ledger", 1.0],
            ["profile + bundle finalize", rec.value],
        ],
        title="Run-ledger overhead (amplified cg trace, 4 workers)",
    )
    assert rec.value < 1.05, f"ledger overhead {rec.value:.3f}x exceeds budget"
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
