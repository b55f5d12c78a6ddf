"""Tracer behaviour and Chrome trace_event export."""

import json

import pytest

from repro.common.config import ProfilerConfig
from repro.obs import (
    MAIN_TRACK,
    NULL_TRACER,
    MetricsRegistry,
    NullTracer,
    Tracer,
    chrome_trace_dict,
    validate_chrome_trace,
    validate_chrome_trace_file,
    worker_track,
    write_chrome_trace,
)
from repro.parallel import ParallelProfiler
from tests.trace_helpers import seq_trace


def small_trace(n_addr=32, rounds=4):
    ops = []
    for _ in range(rounds):
        for i in range(n_addr):
            a = 0x1000 + 8 * i
            ops.append(("w", a, 10 + i % 7, "x"))
            ops.append(("r", a, 20 + i % 5, "x"))
    return seq_trace(ops)


class TestTracer:
    def test_instant_and_complete(self):
        tr = Tracer()
        tr.instant("chunk.push", MAIN_TRACK, worker=1, seq=0)
        t0 = tr.now()
        tr.complete("chunk.process", worker_track(1), t0, t0 + 0.25, seq=0)
        assert tr.n_events == 2
        inst, comp = tr.events
        assert inst.dur is None and not inst.is_complete
        assert inst.args == {"worker": 1, "seq": 0}
        assert comp.is_complete
        assert comp.dur == pytest.approx(0.25)
        assert comp.track == worker_track(1)

    def test_slice_records_body_duration(self):
        tr = Tracer()
        with tr.slice("merge", MAIN_TRACK, n=3):
            pass
        (ev,) = tr.events
        assert ev.name == "merge" and ev.is_complete and ev.args == {"n": 3}

    def test_shared_epoch_orders_events(self):
        tr = Tracer()
        tr.instant("a")
        tr.instant("b")
        a, b = tr.events
        assert a.ts <= b.ts

    def test_event_cap_counts_drops(self):
        tr = Tracer(max_events=2)
        for _ in range(5):
            tr.instant("e")
        assert tr.n_events == 2
        assert tr.n_dropped == 3
        assert tr.summary()["n_dropped"] == 3

    def test_track_views(self):
        tr = Tracer()
        tr.instant("a", MAIN_TRACK)
        tr.instant("b", worker_track(0))
        tr.instant("a", worker_track(0))
        assert len(tr.events_on(worker_track(0))) == 2
        assert [e.name for e in tr.of_name("a")] == ["a", "a"]

    def test_summary_busy_stall_idle_fractions(self):
        tr = Tracer()
        tr.set_track(worker_track(0), "worker 0")
        epoch = tr.epoch
        tr.complete("chunk.process", worker_track(0), epoch, epoch + 0.6)
        tr.complete("queue.pop_stall", worker_track(0), epoch + 0.6, epoch + 0.8)
        tr.complete("route", MAIN_TRACK, epoch, epoch + 1.0)
        s = tr.summary()
        assert s["wall_seconds"] == pytest.approx(1.0)
        w = s["tracks"]["worker 0"]
        assert w["busy_frac"] == pytest.approx(0.6)
        assert w["stall_frac"] == pytest.approx(0.2)
        assert w["idle_frac"] == pytest.approx(0.2)
        assert s["tracks"]["main"]["busy_frac"] == pytest.approx(1.0)

    def test_null_tracer_counts_calls_but_records_nothing(self):
        tr = NullTracer()
        assert not tr.enabled
        tr.instant("a")
        tr.complete("b", 0, 0.0, 1.0)
        with tr.slice("c"):
            pass
        tr.set_track(1, "w")
        assert tr.record_calls == 4
        assert tr.events == ()
        assert tr.summary() == {}

    def test_registry_defaults_to_shared_null_tracer(self):
        assert MetricsRegistry().tracer is NULL_TRACER

    def test_registry_span_feeds_tracer(self):
        reg = MetricsRegistry(tracer=Tracer())
        with reg.span("merge", n=2):
            pass
        (ev,) = reg.tracer.of_name("merge")
        assert ev.is_complete and ev.track == MAIN_TRACK


class TestChromeTraceExport:
    def test_dict_shape_and_validation(self):
        tr = Tracer()
        tr.set_track(worker_track(0), "worker 0")
        tr.instant("chunk.push", MAIN_TRACK, worker=0)
        t0 = tr.now()
        tr.complete("chunk.process", worker_track(0), t0, t0 + 0.01, seq=0)
        obj = chrome_trace_dict(tr, meta={"workload": "unit"})
        assert validate_chrome_trace(obj) == []
        phases = sorted(e["ph"] for e in obj["traceEvents"])
        assert "M" in phases and "X" in phases and "i" in phases
        assert obj["otherData"]["workload"] == "unit"

    def test_validator_flags_garbage(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({"traceEvents": [{"ph": "X"}]}) != []
        bad_dur = {"traceEvents": [
            {"ph": "X", "name": "e", "pid": 1, "tid": 0, "ts": 0.0}
        ]}
        assert any("dur" in e for e in validate_chrome_trace(bad_dur))

    def test_write_and_validate_file(self, tmp_path):
        tr = Tracer()
        tr.instant("a")
        path = tmp_path / "run.trace.json"
        write_chrome_trace(path, tr, meta={"workload": "unit"})
        assert validate_chrome_trace_file(path) == []
        json.loads(path.read_text())  # plain JSON, loadable anywhere


class TestPipelineTimeline:
    def test_pipeline_emits_one_track_per_worker(self):
        batch = small_trace()
        cfg = ProfilerConfig(perfect_signature=True, workers=3, chunk_size=16)
        reg = MetricsRegistry(tracer=Tracer())
        ParallelProfiler(cfg, registry=reg).profile(batch)
        tr = reg.tracer
        assert tr.track_names[MAIN_TRACK] == "main"
        for w in range(3):
            assert tr.track_names[worker_track(w)] == f"worker {w}"
            names = {e.name for e in tr.events_on(worker_track(w))}
            assert "chunk.process" in names
        main_names = {e.name for e in tr.events_on(MAIN_TRACK)}
        assert {"route", "drain", "merge"} <= main_names
        obj = chrome_trace_dict(tr, meta={})
        assert validate_chrome_trace(obj) == []
        # One metadata row and >= one event row per worker track.
        tids = {e["tid"] for e in obj["traceEvents"] if e["ph"] != "M"}
        assert {worker_track(w) for w in range(3)} <= tids

    def test_untraced_pipeline_never_touches_the_tracer(self):
        batch = small_trace()
        cfg = ProfilerConfig(perfect_signature=True, workers=2, chunk_size=16)
        before = NULL_TRACER.record_calls
        ParallelProfiler(cfg).profile(batch)
        ParallelProfiler(cfg, registry=MetricsRegistry()).profile(batch)
        assert NULL_TRACER.record_calls == before

    def test_traced_and_untraced_results_identical(self):
        batch = small_trace()
        cfg = ProfilerConfig(perfect_signature=True, workers=3, chunk_size=16)
        plain, _ = ParallelProfiler(cfg).profile(batch)
        reg = MetricsRegistry(tracer=Tracer())
        traced, _ = ParallelProfiler(cfg, registry=reg).profile(batch)
        assert traced.store == plain.store
        assert reg.tracer.n_events > 0
