"""Run-report construction, pipeline telemetry views, and the CLI surface.

``TestStatsCli`` is the acceptance check for the telemetry subsystem:
``ddprof stats kmeans --live-metrics FILE`` must produce valid JSONL with
per-phase span durations, per-worker signature occupancy readings, and a
final snapshot of every counter and gauge.
"""

import json

import pytest

from repro import (
    MemorySink,
    MetricsRegistry,
    ParallelProfiler,
    ProfilerConfig,
    ProfilerConfig as _PC,
    RunReport,
    profile_trace,
)
from repro.cli import main
from repro.obs import format_name, read_jsonl, replay_stream

PERFECT = ProfilerConfig(perfect_signature=True)


def delta_gauge_keys(deltas):
    """Display names of every gauge the stream's ``delta`` records carry."""
    return {
        format_name(name, tuple(tuple(kv) for kv in labels))
        for d in deltas
        for name, labels, _ in d["gauges"]
    }


@pytest.fixture(scope="module")
def mg_trace():
    from repro.workloads import get_trace

    return get_trace("mg")


class TestRunReport:
    def test_build_from_sequential_run(self, mg_trace):
        reg = MetricsRegistry()
        res = profile_trace(mg_trace, PERFECT, registry=reg)
        report = RunReport.build(reg, res, workload="mg", mode="deterministic")
        d = report.to_dict()
        assert d["schema"] == "ddprof.run-report/1"
        assert d["meta"] == {"workload": "mg", "mode": "deterministic"}
        assert d["profile"]["accesses"] == res.stats.n_accesses
        assert d["profile"]["merged_dependences"] == res.store.n_entries
        assert d["parallel"] is None
        phases = {p["phase"] for p in d["phases"]}
        assert {"loop-index", "route", "drain", "merge"} <= phases
        # to_json parses back identically
        assert json.loads(report.to_json()) == d

    def test_build_from_pipeline_run(self, mg_trace):
        reg = MetricsRegistry()
        res, info = ParallelProfiler(
            PERFECT.with_(workers=4), registry=reg
        ).profile(mg_trace)
        report = RunReport.build(reg, res, info, workload="mg")
        d = report.to_dict()
        assert d["parallel"]["workers"] == 4
        assert d["parallel"]["chunks"] == info.n_chunks
        assert d["parallel"]["per_worker_chunks"] == info.per_worker_chunks
        assert {"route", "drain", "merge"} <= {
            p["phase"] for p in d["phases"]
        }
        assert d["counters"]['worker.accesses{worker="0"}'] == (
            info.per_worker_accesses[0]
        )

    def test_render_is_human_readable(self, mg_trace):
        reg = MetricsRegistry()
        res, info = ParallelProfiler(
            PERFECT.with_(workers=2), registry=reg
        ).profile(mg_trace)
        text = RunReport.build(reg, res, info, workload="mg").render()
        assert "run report" in text and "phases:" in text
        assert "pipeline: 2 workers" in text


class TestPipelineTelemetry:
    """The registry is the single source of truth for pipeline statistics."""

    def test_info_views_match_registry(self, mg_trace):
        reg = MetricsRegistry()
        _, info = ParallelProfiler(
            PERFECT.with_(workers=3), registry=reg
        ).profile(mg_trace)
        assert info.n_chunks == reg.counter("pipeline.chunks").value
        assert info.per_worker_accesses == [
            reg.counter("worker.accesses", worker=w).value for w in range(3)
        ]
        assert info.per_worker_chunks == [
            reg.counter("worker.chunks", worker=w).value for w in range(3)
        ]

    def test_stats_equal_unregistered_run(self, mg_trace):
        """Attaching telemetry must not change profiling results."""
        plain_res, plain_info = ParallelProfiler(
            PERFECT.with_(workers=4)
        ).profile(mg_trace)
        reg = MetricsRegistry(MemorySink())
        obs_res, obs_info = ParallelProfiler(
            PERFECT.with_(workers=4), registry=reg
        ).profile(mg_trace)
        assert plain_res.store == obs_res.store
        assert plain_res.stats == obs_res.stats
        assert plain_info.per_worker_accesses == obs_info.per_worker_accesses
        assert plain_info.n_chunks == obs_info.n_chunks

    def test_chunk_latency_histogram_recorded(self, mg_trace):
        reg = MetricsRegistry()
        ParallelProfiler(PERFECT.with_(workers=2), registry=reg).profile(mg_trace)
        h = reg.histogram("worker.chunk_seconds", worker=0)
        assert h.count > 0 and h.sum > 0

    def test_sigmem_eviction_counter(self):
        """A 2-slot signature over many addresses must evict on conflicts."""
        from tests.trace_helpers import seq_trace

        ops = [("w", a, 1) for a in range(64)] + [("r", a, 1) for a in range(64)]
        batch = seq_trace(ops)
        reg = MetricsRegistry()
        profile_trace(batch, _PC(signature_slots=2), registry=reg)
        assert reg.sum_counters("sigmem.evictions") > 0


class TestStatsCli:
    def test_stats_prints_report(self, capsys):
        assert main(["stats", "mg", "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "run report" in out and "phases:" in out and "pipeline:" in out

    def test_stats_json(self, capsys):
        assert main(["stats", "mg", "--workers", "2", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "ddprof.run-report/1"
        assert doc["meta"]["workload"] == "mg"
        assert doc["parallel"]["workers"] == 2

    def test_stats_live_metrics_acceptance(self, tmp_path, capsys):
        path = tmp_path / "m.jsonl"
        assert main(["stats", "kmeans", "--live-metrics", str(path)]) == 0
        capsys.readouterr()
        events = read_jsonl(path)  # every line is valid JSON
        assert events

        deltas = [e for e in events if e["type"] == "delta"]
        spans = [h for e in deltas for h in e["histograms"] if h[0] == "span.seconds"]
        span_phases = {dict(labels)["phase"] for _, labels, *_ in spans}
        assert {"trace-build", "route", "drain", "merge"} <= span_phases
        assert all(seconds >= 0 for *_, seconds, _ in spans)

        gauge_keys = delta_gauge_keys(deltas)
        assert 'sigmem.occupied{kind="read",worker="0"}' in gauge_keys
        assert 'sigmem.occupied{kind="write",worker="3"}' in gauge_keys

        finals = [e for e in events if e["type"] == "final"]
        assert len(finals) == 1 and events[-1] is finals[0]
        counters = finals[0]["counters"]
        assert 'worker.chunks{worker="0"}' in counters
        assert 'worker.chunks{worker="3"}' in counters
        gauges = finals[0]["gauges"]
        assert any(g.startswith("sigmem.occupied{") for g in gauges)

    def test_stats_prometheus_out(self, tmp_path, capsys):
        path = tmp_path / "metrics.prom"
        assert main(["stats", "mg", "--prometheus-out", str(path)]) == 0
        capsys.readouterr()
        from repro.obs import parse_prometheus

        samples = parse_prometheus(path.read_text())
        assert any(k.startswith("ddprof_worker_chunks") for k in samples)

    def test_stats_with_signature_slots_has_fill_ratio(self, tmp_path, capsys):
        path = tmp_path / "m.jsonl"
        assert main(
            ["stats", "mg", "--slots", "4096", "--live-metrics", str(path)]
        ) == 0
        capsys.readouterr()
        deltas = [e for e in read_jsonl(path) if e["type"] == "delta"]
        keys = delta_gauge_keys(deltas)
        assert any(k.startswith("sigmem.fill_ratio{") for k in keys)

    def test_profile_json_flag(self, capsys):
        assert main(["profile", "ep", "--json"]) == 0
        out = capsys.readouterr().out
        assert "NOM" in out  # dependences still printed
        json_start = out.index('{\n  "schema"')
        doc = json.loads(out[json_start:])
        assert doc["schema"] == "ddprof.run-report/1"
        assert doc["profile"]["accesses"] > 0
        assert {"trace-build", "loop-index", "route", "drain", "merge"} <= {
            p["phase"] for p in doc["phases"]
        }

    def test_profile_live_metrics(self, tmp_path, capsys):
        path = tmp_path / "p.jsonl"
        assert main(["profile", "ep", "--live-metrics", str(path)]) == 0
        capsys.readouterr()
        replayed, info = replay_stream(path)
        assert info["header"]["command"] == "profile"
        assert {"loop-index", "route", "drain", "merge"} <= set(
            replayed.phase_totals()
        )
        assert replayed.snapshot()["counters"] == info["final"]["counters"]

    def test_loops_json_flag(self, capsys):
        """loops --json emits a single ddprof.loops/1 document (the run
        report stays off stdout: the loop table *is* the output here)."""
        assert main(["loops", "mg", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "ddprof.loops/1"
        assert doc["workload"] == "mg"
        assert doc["loops"]
        row = doc["loops"][0]
        assert {"site", "end", "executions", "total_iterations",
                "parallelizable", "verdict", "note"} <= set(row)
        assert {r["verdict"] for r in doc["loops"]} <= {
            "doall", "reduction", "pipeline", "sequential", None
        }


class TestProducerCoverageSurface:
    """producer.fastpath_coverage is a first-class metric: a gauge in the
    registry, a field in the run report's producer section, and a line in
    the rendered ``ddprof stats`` output."""

    @pytest.fixture(scope="class")
    def cg_registry(self):
        from repro.minivm import run_program
        from repro.workloads import get_workload

        wl = get_workload("cg")
        program, _meta = wl.build_seq(wl.default_scale)
        reg = MetricsRegistry()
        run_program(program, fastpath=True, registry=reg)
        return reg

    def test_coverage_gauge_matches_counters(self, cg_registry):
        snap = cg_registry.snapshot()
        fast = snap["counters"]["producer.events_fastpath"]
        interp = snap["counters"]["producer.events_interpreted"]
        cov = snap["gauges"]["producer.fastpath_coverage"]
        assert cov == pytest.approx(fast / (fast + interp))
        assert cov > 0.3  # cg's reductions vectorize now

    def test_verdict_counters_published(self, cg_registry):
        counters = cg_registry.snapshot()["counters"]
        assert counters['producer.loop_verdicts{verdict="reduction"}'] > 0
        assert counters['producer.loop_verdicts{verdict="doall"}'] > 0

    def test_report_producer_section(self, cg_registry):
        prod = RunReport.build(cg_registry).producer_summary()
        assert prod["fastpath_coverage"] == pytest.approx(
            prod["events_fastpath"] / prod["events_total"]
        )
        assert prod["loop_verdicts"].get("reduction", 0) > 0
        assert "classify_cache_hits" in prod

    def test_render_has_coverage_and_verdict_lines(self, cg_registry):
        text = RunReport.build(cg_registry).render()
        assert "fastpath coverage" in text
        assert "loop verdicts:" in text and "reduction=" in text

    def test_blocker_reasons_split_out(self, cg_registry):
        prod = RunReport.build(cg_registry).producer_summary()
        # The totals stay (run bundles carry them); the maps say why.
        assert sum(prod["reject_reasons"].values()) == prod["template_rejects"]
        assert sum(prod["bailout_reasons"].values()) == prod["bailouts"]
        assert prod["reject_reasons"]["stmt:for"] > 0
        assert prod["bailout_reasons"]["short_trip"] > 0

    def test_render_has_blockers_line(self, cg_registry):
        text = RunReport.build(cg_registry).render()
        line = next(ln for ln in text.splitlines() if "fast-path blockers:" in ln)
        assert "reject stmt:for=" in line and "bailout short_trip=" in line

    def test_kmeans_names_its_blockers(self):
        from repro.minivm import run_program
        from repro.workloads import get_workload

        wl = get_workload("kmeans")
        reg = MetricsRegistry()
        run_program(wl.build_seq(wl.default_scale)[0], registry=reg)
        prod = RunReport.build(reg).producer_summary()
        assert set(prod["reject_reasons"]) == {"stmt:for"}
        assert set(prod["bailout_reasons"]) == {"short_trip"}

    def test_no_blockers_no_line(self):
        reg = MetricsRegistry(run_id="clean")
        reg.counter("producer.events_fastpath").inc(10)
        report = RunReport.build(reg)
        prod = report.producer_summary()
        assert prod["reject_reasons"] == {} and prod["bailout_reasons"] == {}
        assert "fast-path blockers" not in report.render()


class TestProducerSectionCacheHitOnly:
    """Regression: a run served entirely from the trace cache has only
    ``producer.trace_cache_hits`` — no events_* counters, no coverage gauge
    — and must still render its producer section."""

    @pytest.fixture()
    def cache_hit_registry(self):
        reg = MetricsRegistry(run_id="cached")
        reg.counter("producer.trace_cache_hits").inc()
        return reg

    def test_summary_not_none(self, cache_hit_registry):
        prod = RunReport.build(cache_hit_registry).producer_summary()
        assert prod is not None
        assert prod["trace_cache_hits"] == 1
        assert prod["events_total"] == 0
        assert prod["fastpath_coverage"] == 0.0

    def test_render_includes_producer_line(self, cache_hit_registry):
        text = RunReport.build(cache_hit_registry).render()
        assert "producer:" in text

    def test_no_producer_instruments_still_omits_section(self):
        reg = MetricsRegistry(run_id="bare")
        reg.counter("worker.accesses", worker=0).inc()
        report = RunReport.build(reg)
        assert report.producer_summary() is None
        assert "producer:" not in report.render()
