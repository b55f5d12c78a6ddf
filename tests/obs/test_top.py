"""``ddprof top``: snapshot/heatmap parsing and frame rendering."""

import io

import numpy as np

from repro.obs import (
    AddressHeatmap,
    MetricsRegistry,
    TelemetryHTTPServer,
    heatmap_dict,
)
from repro.obs.top import parse_metric_name, render_top, run_top


def make_registry():
    reg = MetricsRegistry(run_id="toprun")
    reg.counter("pipeline.chunks").inc(7)
    reg.counter("worker.accesses", worker=0).inc(1200)
    reg.counter("worker.accesses", worker=1).inc(800)
    reg.counter("worker.chunks", worker=0).inc(4)
    reg.counter("worker.chunks", worker=1).inc(3)
    reg.counter("rebalance.rounds").inc(1)
    reg.counter("rebalance.moves").inc(3)
    reg.gauge("worker.heartbeat.state", worker=0).set(0)
    reg.gauge("worker.heartbeat.state", worker=1).set(2)
    reg.gauge("sigmem.fill_ratio", worker=0, kind="read").set(0.5)
    reg.gauge("process.peak_rss_bytes", worker=0).set(64 * (1 << 20))
    heat = AddressHeatmap(reg, worker=0)
    heat.record_accesses(
        np.array([64, 64, 64, 4096], dtype=np.int64),
        np.array([False, False, True, False]),
    )
    return reg


class TestParsing:
    def test_parse_metric_name(self):
        assert parse_metric_name("pipeline.chunks") == ("pipeline.chunks", {})
        name, labels = parse_metric_name('worker.accesses{kind="read",worker="3"}')
        assert name == "worker.accesses"
        assert labels == {"kind": "read", "worker": "3"}


class TestRender:
    def test_frame_contents(self):
        reg = make_registry()
        frame = render_top(
            {"run_id": "toprun", **reg.snapshot()}, heatmap_dict(reg)
        )
        assert "run toprun" in frame
        assert "(7 chunks)" in frame
        assert "live" in frame and "dead" in frame  # heartbeat verdicts
        assert "1200" in frame  # worker 0 accesses
        assert "rebalances 1 (3 moved)" in frame
        assert "hottest address buckets" in frame
        assert "peak rss: w0=64MiB" in frame

    def test_render_without_heatmap(self):
        reg = make_registry()
        frame = render_top({"run_id": "toprun", **reg.snapshot()}, None)
        assert "run toprun" in frame
        assert "hottest" not in frame

    def test_render_empty_snapshot(self):
        frame = render_top({"counters": {}, "gauges": {}}, None)
        assert frame.startswith("ddprof top")


class TestLoop:
    def test_once_against_live_server(self):
        reg = make_registry()
        with TelemetryHTTPServer(reg, port=0) as srv:
            out = io.StringIO()
            rc = run_top(srv.url, once=True, out=out)
        assert rc == 0
        assert "run toprun" in out.getvalue()
        assert "hottest address buckets" in out.getvalue()

    def test_once_unreachable_exits_nonzero(self):
        rc = run_top("http://127.0.0.1:9", once=True, out=io.StringIO())
        assert rc == 1


class TestProducerLine:
    def test_coverage_from_gauge(self):
        reg = make_registry()
        reg.gauge("producer.fastpath_coverage").set(0.378)
        reg.counter("producer.events_fastpath").inc(26592)
        reg.counter("producer.events_interpreted").inc(43799)
        frame = render_top(reg.snapshot())
        assert "producer: fastpath coverage 37.8%" in frame
        assert "27k fast / 44k interpreted" in frame

    def test_coverage_derived_from_counters_when_gauge_absent(self):
        reg = make_registry()
        reg.counter("producer.events_fastpath").inc(75)
        reg.counter("producer.events_interpreted").inc(25)
        frame = render_top(reg.snapshot())
        assert "producer: fastpath coverage 75.0%" in frame

    def test_no_producer_metrics_no_line(self):
        frame = render_top(make_registry().snapshot())
        assert "producer:" not in frame
