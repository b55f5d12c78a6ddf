"""Unit tests for the metrics registry, instruments and spans."""

import pytest

from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MemorySink,
    MetricsRegistry,
    NullSink,
    format_name,
)


class TestCounter:
    def test_inc_and_value(self):
        c = Counter("x")
        c.inc()
        c.inc(5)
        assert c.value == 6
        assert int(c) == 6

    def test_registry_get_or_create(self):
        reg = MetricsRegistry()
        assert reg.counter("a", worker=1) is reg.counter("a", worker=1)
        assert reg.counter("a", worker=1) is not reg.counter("a", worker=2)
        assert reg.counter("a") is not reg.counter("a", worker=1)

    def test_label_order_is_canonical(self):
        reg = MetricsRegistry()
        assert reg.counter("a", x=1, y=2) is reg.counter("a", y=2, x=1)

    def test_sum_counters_across_labels(self):
        reg = MetricsRegistry()
        reg.counter("q.stalls", worker=0).inc(3)
        reg.counter("q.stalls", worker=1).inc(4)
        reg.counter("other").inc(100)
        assert reg.sum_counters("q.stalls") == 7

    def test_type_clash_raises(self):
        reg = MetricsRegistry()
        reg.counter("m")
        with pytest.raises(TypeError):
            reg.gauge("m")
        with pytest.raises(TypeError):
            reg.histogram("m")


class TestGauge:
    def test_set_get(self):
        g = Gauge("g")
        g.set(2.5)
        assert g.value == 2.5

    def test_callback_backed(self):
        reg = MetricsRegistry()
        state = {"v": 1}
        g = reg.gauge_fn("live", lambda: state["v"])
        assert g.value == 1.0
        state["v"] = 42
        assert g.value == 42.0


class TestHistogram:
    def test_bucketing_and_overflow(self):
        h = Histogram("h", buckets=(1.0, 10.0))
        for v in (0.5, 0.7, 5.0, 100.0):
            h.observe(v)
        assert h.counts == [2, 1, 1]
        assert h.count == 4
        assert h.sum == pytest.approx(106.2)
        assert h.mean == pytest.approx(106.2 / 4)

    def test_invalid_buckets_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=())
        with pytest.raises(ValueError):
            Histogram("h", buckets=(2.0, 1.0))


class TestFormatName:
    def test_plain_and_labelled(self):
        assert format_name("a.b", ()) == "a.b"
        assert format_name("a", (("k", "v"),)) == 'a{k="v"}'


class TestSpan:
    def test_span_records_histogram_not_a_sink_record(self):
        """A span lands only in the ``span.seconds`` histogram, which the
        telemetry stream carries in its deltas; the sink gets no record of
        its own."""
        sink = MemorySink()
        reg = MetricsRegistry(sink)
        with reg.span("route", window_start=0):
            pass
        h = reg.histogram("span.seconds", phase="route")
        assert h.count == 1
        assert reg.phase_totals() == {"route": {"seconds": h.sum, "count": 1}}
        assert sink.events == []

    def test_span_records_even_on_exception(self):
        reg = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with reg.span("bad"):
                raise RuntimeError("boom")
        assert reg.phase_totals()["bad"]["count"] == 1

    def test_phase_totals_aggregates(self):
        reg = MetricsRegistry()
        for _ in range(3):
            with reg.span("route"):
                pass
        with reg.span("merge"):
            pass
        totals = reg.phase_totals()
        assert list(totals) == ["route", "merge"]  # first-run order
        assert totals["route"]["count"] == 3
        assert totals["route"]["seconds"] >= 0.0


class TestRunIdStamp:
    def test_registry_stamps_events_with_run_id(self):
        sink = MemorySink()
        reg = MetricsRegistry(sink, run_id="runx")
        reg.emit({"type": "sample", "n": 1})
        assert sink.events[0]["run_id"] == "runx"

    def test_no_run_id_no_stamp(self):
        sink = MemorySink()
        reg = MetricsRegistry(sink)
        reg.emit({"type": "sample", "n": 1})
        assert "run_id" not in sink.events[0]


class TestNullSinkOverhead:
    def test_null_sink_suppresses_events(self):
        reg = MetricsRegistry()  # defaults to the shared NullSink
        assert isinstance(reg.sink, NullSink)
        assert not reg.sink.enabled
        reg.emit({"type": "x"})  # must be a no-op, not an error

    def test_counters_still_work_without_sink(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        assert reg.snapshot()["counters"]["c"] == 1


class TestSnapshot:
    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("c", worker=0).inc(2)
        reg.gauge("g").set(1.5)
        reg.histogram("h", buckets=(1.0,)).observe(0.5)
        snap = reg.snapshot()
        assert snap["counters"] == {'c{worker="0"}': 2}
        assert snap["gauges"] == {"g": 1.5}
        assert snap["histograms"]["h"]["counts"] == [1, 0]


class TestMergeStateEdgeCases:
    """merge_state edge cases: empty, disjoint, repeated, mismatched."""

    def test_empty_state_is_a_noop(self):
        reg = MetricsRegistry()
        reg.counter("a").inc(3)
        before = reg.state()
        reg.merge_state(MetricsRegistry().state())
        assert reg.state() == before

    def test_merge_into_empty_registry_reproduces_source(self):
        src = MetricsRegistry()
        src.counter("a", worker=0).inc(2)
        src.gauge("g").set(1.5)
        src.histogram("h", buckets=(1.0,)).observe(0.5)
        with src.span("p"):
            pass
        dst = MetricsRegistry()
        dst.merge_state(src.state())
        assert dst.snapshot() == src.snapshot()

    def test_disjoint_instrument_sets_union(self):
        a = MetricsRegistry()
        a.counter("only.a").inc(1)
        a.gauge("gauge.a").set(10.0)
        b = MetricsRegistry()
        b.counter("only.b", worker=1).inc(2)
        a.merge_state(b.state())
        snap = a.snapshot()
        assert snap["counters"] == {"only.a": 1, 'only.b{worker="1"}': 2}
        assert snap["gauges"] == {"gauge.a": 10.0}

    def test_repeated_merge_counters_add_gauges_overwrite(self):
        src = MetricsRegistry()
        src.counter("c").inc(5)
        src.gauge("g").set(7.0)
        src.histogram("h", buckets=(1.0,)).observe(0.5)
        dst = MetricsRegistry()
        state = src.state()
        dst.merge_state(state)
        dst.merge_state(state)
        assert dst.counter("c").value == 10  # counters accumulate
        assert dst.gauge("g").value == 7.0  # gauges are point-in-time
        h = dst.histogram("h", buckets=(1.0,))
        assert h.count == 2 and h.sum == pytest.approx(1.0)

    def test_histogram_bucket_layout_mismatch_raises(self):
        src = MetricsRegistry()
        src.histogram("h", buckets=(1.0, 2.0)).observe(0.5)
        dst = MetricsRegistry()
        dst.histogram("h", buckets=(5.0, 50.0)).observe(0.5)
        with pytest.raises(ValueError, match="bucket layout mismatch"):
            dst.merge_state(src.state())

    def test_merged_span_histograms_add_once(self):
        src = MetricsRegistry()
        with src.span("phase.x"):
            pass
        dst = MetricsRegistry()
        with dst.span("phase.x"):
            pass
        dst.merge_state(src.state())
        # A phase's time travels only as its span.seconds histogram.
        assert dst.histogram("span.seconds", phase="phase.x").count == 2
        assert dst.phase_totals()["phase.x"]["count"] == 2
