"""Sink behaviour and Prometheus text export round-trips."""

import pytest

from repro.common.errors import ObsError
from repro.obs import (
    MetricsRegistry,
    NullSink,
    parse_prometheus,
    prometheus_text,
)
from repro.obs.export import escape_label_value, sanitize_label_name


class TestNullSink:
    def test_null_sink_is_disabled(self):
        assert not NullSink().enabled


class TestPrometheusExport:
    @pytest.fixture
    def registry(self):
        reg = MetricsRegistry()
        reg.counter("queue.push_stalls", worker=0).inc(3)
        reg.counter("queue.push_stalls", worker=1).inc(4)
        reg.gauge("chunkpool.allocated").set(16)
        h = reg.histogram("worker.chunk_seconds", buckets=(0.001, 0.01), worker=0)
        h.observe(0.0005)
        h.observe(0.5)
        return reg

    def test_text_format_shape(self, registry):
        text = prometheus_text(registry)
        lines = text.splitlines()
        assert "# TYPE ddprof_queue_push_stalls counter" in lines
        assert 'ddprof_queue_push_stalls{worker="0"} 3' in lines
        assert 'ddprof_queue_push_stalls{worker="1"} 4' in lines
        assert "# TYPE ddprof_chunkpool_allocated gauge" in lines
        assert "ddprof_chunkpool_allocated 16" in lines
        # histogram series: cumulative buckets + sum + count
        assert 'ddprof_worker_chunk_seconds_bucket{worker="0",le="0.001"} 1' in lines
        assert 'ddprof_worker_chunk_seconds_bucket{worker="0",le="0.01"} 1' in lines
        assert 'ddprof_worker_chunk_seconds_bucket{worker="0",le="+Inf"} 2' in lines
        assert 'ddprof_worker_chunk_seconds_count{worker="0"} 2' in lines

    def test_parse_roundtrip(self, registry):
        samples = parse_prometheus(prometheus_text(registry))
        assert samples['ddprof_queue_push_stalls{worker="0"}'] == 3.0
        assert samples['ddprof_queue_push_stalls{worker="1"}'] == 4.0
        assert samples["ddprof_chunkpool_allocated"] == 16.0
        assert samples['ddprof_worker_chunk_seconds_sum{worker="0"}'] == (
            pytest.approx(0.5005)
        )

    def test_each_type_header_once(self, registry):
        text = prometheus_text(registry)
        assert text.count("# TYPE ddprof_queue_push_stalls ") == 1

    def test_empty_registry(self):
        assert prometheus_text(MetricsRegistry()) == ""
        assert parse_prometheus("") == {}

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_prometheus("!!! not a sample")


class TestLabelEscaping:
    def test_escape_rules(self):
        assert escape_label_value('a"b') == 'a\\"b'
        assert escape_label_value("a\\b") == "a\\\\b"
        assert escape_label_value("a\nb") == "a\\nb"

    def test_awkward_values_roundtrip(self):
        reg = MetricsRegistry()
        reg.counter("deps.instances", type='say "hi"').inc(1)
        reg.counter("deps.instances", type="back\\slash").inc(2)
        reg.counter("deps.instances", type="two\nlines").inc(3)
        reg.counter("deps.instances", type="closing}brace").inc(4)
        text = prometheus_text(reg)
        assert "\n\n" not in text.strip()  # newline in a value stays escaped
        samples = parse_prometheus(text)
        assert samples['ddprof_deps_instances{type="say \\"hi\\""}'] == 1.0
        assert samples['ddprof_deps_instances{type="back\\\\slash"}'] == 2.0
        assert samples['ddprof_deps_instances{type="two\\nlines"}'] == 3.0
        assert samples['ddprof_deps_instances{type="closing}brace"}'] == 4.0


class TestLabelNameValidation:
    """Label *names* outside the Prometheus grammar: sanitize vs error."""

    def make_registry(self):
        reg = MetricsRegistry()
        reg.counter("deps.instances", **{"kind-of": "raw"}).inc(5)
        return reg

    def test_sanitize_label_name_rules(self):
        assert sanitize_label_name("kind-of") == "kind_of"
        assert sanitize_label_name("a.b c") == "a_b_c"
        assert sanitize_label_name("9lives") == "_9lives"
        assert sanitize_label_name("") == "_"
        # idempotent on already-valid names
        assert sanitize_label_name("worker_id") == "worker_id"

    def test_sanitize_policy_rewrites_names(self):
        text = prometheus_text(self.make_registry())  # default policy
        samples = parse_prometheus(text)
        assert samples['ddprof_deps_instances{kind_of="raw"}'] == 5.0

    def test_error_policy_raises(self):
        with pytest.raises(ObsError, match="kind-of"):
            prometheus_text(self.make_registry(), invalid_names="error")

    def test_sanitize_collision_always_raises(self):
        reg = MetricsRegistry()
        reg.counter("x", **{"a-b": "1", "a_b": "2"}).inc()
        with pytest.raises(ObsError, match="a_b"):
            prometheus_text(reg)  # merging two series would be silent loss

    def test_valid_names_untouched_under_both_policies(self):
        reg = MetricsRegistry()
        reg.counter("x", worker="0").inc(3)
        for policy in ("sanitize", "error"):
            samples = parse_prometheus(prometheus_text(reg, invalid_names=policy))
            assert samples['ddprof_x{worker="0"}'] == 3.0

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            prometheus_text(MetricsRegistry(), invalid_names="ignore")
