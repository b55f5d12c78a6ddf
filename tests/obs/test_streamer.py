"""The telemetry stream: delta computation, the one JSONL file, replay."""

import json
import threading

import pytest

from repro.common.errors import ObsError
from repro.obs import (
    MetricsRegistry,
    TelemetryStreamer,
    read_jsonl,
    replay_stream,
    state_delta,
)
from repro.obs.streamer import SCHEMA, is_empty_delta


def streamer_threads():
    return [t for t in threading.enumerate() if t.name == "obs-streamer"]


class TestStateDelta:
    def test_counter_increments_only_changes(self):
        reg = MetricsRegistry()
        reg.counter("a").inc(5)
        reg.counter("b", worker=0).inc(2)
        prev = reg.state()
        reg.counter("a").inc(3)
        delta = state_delta(prev, reg.state())
        assert delta["counters"] == [("a", (), 3)]
        assert delta["gauges"] == [] and delta["histograms"] == []

    def test_first_delta_against_none_is_full_state(self):
        reg = MetricsRegistry()
        reg.counter("a").inc(4)
        reg.gauge("g").set(1.5)
        delta = state_delta(None, reg.state())
        assert ("a", (), 4) in delta["counters"]
        assert ("g", (), 1.5) in delta["gauges"]

    def test_gauges_report_changed_values_only(self):
        reg = MetricsRegistry()
        reg.gauge("g1").set(1.0)
        reg.gauge("g2").set(2.0)
        prev = reg.state()
        reg.gauge("g2").set(7.0)
        delta = state_delta(prev, reg.state())
        assert delta["gauges"] == [("g2", (), 7.0)]

    def test_histogram_delta_is_bucketwise(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", buckets=(1.0, 10.0))
        h.observe(0.5)
        prev = reg.state()
        h.observe(0.5)
        h.observe(100.0)  # overflow bucket
        (entry,) = state_delta(prev, reg.state())["histograms"]
        name, labels, buckets, counts, total, count = entry
        assert name == "h" and counts == [1, 0, 1] and count == 2
        assert total == pytest.approx(100.5)

    def test_empty_delta_detected(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        st = reg.state()
        assert is_empty_delta(state_delta(st, st))
        assert not is_empty_delta(state_delta(None, st))


class TestStreamerManual:
    def test_tick_emits_only_on_change(self, tmp_path):
        path = tmp_path / "s.jsonl"
        reg = MetricsRegistry(run_id="r1")
        s = TelemetryStreamer(reg, path)
        reg.counter("c").inc()
        assert s.tick() is True
        assert s.tick() is False  # nothing changed
        reg.counter("c").inc()
        assert s.tick() is True
        s.stop()
        records = read_jsonl(path)
        kinds = [e["type"] for e in records]
        assert kinds == ["header", "delta", "delta", "final"]
        assert [e["seq"] for e in records] == [0, 1, 2, 3]
        assert all(e["run_id"] == "r1" for e in records)

    def test_stop_is_idempotent_and_final_has_snapshot(self, tmp_path):
        path = tmp_path / "s.jsonl"
        reg = MetricsRegistry()
        s = TelemetryStreamer(reg, path)
        reg.counter("c").inc(9)
        s.stop(ledger="bundle.json")
        s.stop()
        finals = [e for e in read_jsonl(path) if e["type"] == "final"]
        assert len(finals) == 1
        assert finals[0]["counters"] == {"c": 9}
        assert finals[0]["ledger"] == "bundle.json"

    def test_final_record_shows_the_last_gauge_reading(self, tmp_path):
        """A callback gauge (peak RSS) can move between two reads; the
        final record displays the last delta's reading, so replaying the
        deltas reproduces it exactly."""
        path = tmp_path / "s.jsonl"
        reg = MetricsRegistry()
        reads = iter(range(100))
        reg.gauge_fn("g", lambda: next(reads))
        s = TelemetryStreamer(reg, path)
        assert s.tick()
        s.stop()
        replayed, info = replay_stream(path)
        assert replayed.snapshot()["gauges"] == info["final"]["gauges"] == {"g": 1.0}

    def test_interval_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            TelemetryStreamer(MetricsRegistry(), tmp_path / "s.jsonl", interval_s=0)

    def test_tick_after_stop_is_noop(self, tmp_path):
        path = tmp_path / "s.jsonl"
        reg = MetricsRegistry()
        s = TelemetryStreamer(reg, path)
        s.stop()
        reg.counter("c").inc()
        assert s.tick() is False
        assert [e["type"] for e in read_jsonl(path)] == ["header", "final"]


class TestStreamFile:
    """The stream is the registry's one file sink: every record is one
    sorted-key line, flushed as written, numbered by ``seq``."""

    def test_one_record_per_line_and_roundtrip(self, tmp_path):
        path = tmp_path / "s.jsonl"
        reg = MetricsRegistry(run_id="r2")
        s = TelemetryStreamer(reg, path)
        reg.emit({"type": "rebalance", "round": 1, "moves": 3})
        reg.emit({"type": "sample", "n": 1, "values": {"q": 3}})
        s.stop()
        lines = path.read_text().splitlines()
        records = [json.loads(line) for line in lines]  # every line alone
        assert records == read_jsonl(path)
        assert [r["type"] for r in records] == [
            "header", "rebalance", "sample", "final",
        ]
        assert records[1]["moves"] == 3 and records[2]["values"] == {"q": 3}
        assert all({"ts", "run_id", "seq"} <= r.keys() for r in records)
        assert {r["run_id"] for r in records} == {"r2"}
        _, info = replay_stream(path)
        assert info["records"] == records[1:3]

    def test_stable_field_order(self, tmp_path):
        path = tmp_path / "s.jsonl"
        reg = MetricsRegistry()
        s = TelemetryStreamer(reg, path)
        reg.emit({"b": 1, "a": 2, "type": "x"})
        s.stop()
        for line in path.read_text().splitlines():
            keys = list(json.loads(line))
            assert keys == sorted(keys)

    def test_seq_counts_every_record(self, tmp_path):
        path = tmp_path / "s.jsonl"
        reg = MetricsRegistry()
        s = TelemetryStreamer(reg, path)
        for i in range(5):
            reg.emit({"type": "e", "i": i})
        assert s.seq == 6  # header + 5 records
        s.stop()
        assert [r["seq"] for r in read_jsonl(path)] == list(range(7))

    def test_file_exists_from_construction(self, tmp_path):
        path = tmp_path / "s.jsonl"
        s = TelemetryStreamer(MetricsRegistry(), path)
        (header,) = read_jsonl(path)
        assert header["type"] == "header" and header["schema"] == SCHEMA
        s.stop()

    def test_recordless_close_leaves_header_and_final(self, tmp_path):
        path = tmp_path / "s.jsonl"
        TelemetryStreamer(MetricsRegistry(), path).close()
        assert [r["type"] for r in read_jsonl(path)] == ["header", "final"]

    def test_every_record_is_durable_before_close(self, tmp_path):
        path = tmp_path / "s.jsonl"
        reg = MetricsRegistry()
        s = TelemetryStreamer(reg, path)
        reg.emit({"type": "a"})
        reg.emit({"type": "b"})
        assert [r["type"] for r in read_jsonl(path)] == ["header", "a", "b"]
        s.stop()

    def test_close_is_idempotent(self, tmp_path):
        path = tmp_path / "s.jsonl"
        reg = MetricsRegistry()
        s = TelemetryStreamer(reg, path)
        reg.emit({"type": "x"})
        s.close()
        s.close()  # second close: no error, no second final record
        s.stop()
        assert [r["type"] for r in read_jsonl(path)] == ["header", "x", "final"]

    def test_emit_after_close_raises_obs_error(self, tmp_path):
        s = TelemetryStreamer(MetricsRegistry(), tmp_path / "s.jsonl")
        s.close()
        with pytest.raises(ObsError, match="closed telemetry stream"):
            s.emit({"type": "x"})

    def test_registry_close_closes_the_stream(self, tmp_path):
        path = tmp_path / "s.jsonl"
        reg = MetricsRegistry()
        s = TelemetryStreamer(reg, path)
        reg.emit({"type": "x"})
        reg.close()
        assert read_jsonl(path)[-1]["type"] == "final"
        with pytest.raises(ObsError):
            s.emit({"type": "y"})

    def test_writer_threads_share_one_seq(self, tmp_path):
        """Records from several threads interleave in the file, but one
        lock orders them: ``seq`` is 0..N-1 in file order.  The writers
        also create instruments while the stream thread walks the
        registry, which must not kill the stream thread."""
        import sys

        path = tmp_path / "s.jsonl"
        reg = MetricsRegistry()
        s = TelemetryStreamer(reg, path, interval_s=0.001)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            s.start()

            def create(k):  # new instruments, outside the stream's lock
                for i in range(1000):
                    reg.counter("w", k=k, i=i).inc()

            def emit(k):
                for i in range(300):
                    reg.emit({"type": "sample", "n": i, "values": {}})

            threads = [
                threading.Thread(target=fn, args=(k,))
                for fn in (create, emit)
                for k in range(2)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert s.running  # the stream thread survived the writers
        finally:
            sys.setswitchinterval(interval)
            s.stop()
        records = read_jsonl(path)
        assert [r["seq"] for r in records] == list(range(len(records)))
        assert sum(r["type"] == "sample" for r in records) == 600
        replayed, info = replay_stream(path)
        assert replayed.snapshot()["counters"] == info["final"]["counters"]
        assert len(info["final"]["counters"]) == 2000


class TestStreamerThreaded:
    def test_stream_file_replays_to_final_snapshot(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        reg = MetricsRegistry(run_id="runz")
        with TelemetryStreamer(reg, path, interval_s=0.01) as s:
            assert s.running
            for i in range(4):
                reg.counter("work.items").inc(10)
                reg.gauge("work.phase").set(i)
                reg.histogram("work.h").observe(0.01)
        assert not s.running
        assert streamer_threads() == []

        replayed, info = replay_stream(path)
        assert info["header"]["schema"] == SCHEMA
        assert info["run_ids"] == {"runz"}
        assert info["final"] is not None
        snap = replayed.snapshot()
        assert snap["counters"] == info["final"]["counters"]
        assert snap["gauges"] == info["final"]["gauges"]
        assert snap["histograms"] == info["final"]["histograms"]
        assert snap["counters"]["work.items"] == 40

    def test_every_line_is_valid_json_while_running(self, tmp_path):
        """Every record is flushed as one line: a tail-reader never sees a
        torn line, even mid-run."""
        path = tmp_path / "stream.jsonl"
        reg = MetricsRegistry()
        s = TelemetryStreamer(reg, path, interval_s=0.01)
        s.start()
        try:
            reg.counter("c").inc()
            deadline = 200
            while s.seq < 2 and deadline:  # header + first delta
                deadline -= 1
                threading.Event().wait(0.005)
            events = read_jsonl(path)  # parses or raises
            assert events and events[0]["type"] == "header"
        finally:
            s.stop()

    def test_failing_tick_keeps_the_stream_alive(self, tmp_path, monkeypatch):
        """A registry whose ``state()`` raises once costs one tick: the
        stream thread goes on writing deltas, and the failure is counted in
        ``obs.tick_errors{loop="stream"}``, which the final record shows."""
        path = tmp_path / "stream.jsonl"
        reg = MetricsRegistry()
        calls = []
        state = reg.state

        def flaky_state():
            calls.append(1)
            if len(calls) == 1:
                raise RuntimeError("state failed")
            return state()

        monkeypatch.setattr(reg, "state", flaky_state)
        s = TelemetryStreamer(reg, path, interval_s=0.005)
        s.start()
        try:
            for _ in range(400):
                reg.counter("work.items").inc()
                if len(calls) >= 4:
                    break
                threading.Event().wait(0.005)
            assert s.running
        finally:
            s.stop()
        records = read_jsonl(path)
        deltas = [r for r in records if r["type"] == "delta"]
        assert deltas, [r["type"] for r in records]
        key = 'obs.tick_errors{loop="stream"}'
        assert reg.snapshot()["counters"][key] == 1
        assert records[-1]["counters"][key] == 1
        replayed, _ = replay_stream(path)
        assert replayed.snapshot()["counters"][key] == 1

    def test_quiet_registry_emits_no_deltas(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        reg = MetricsRegistry()
        s = TelemetryStreamer(reg, path, interval_s=0.005)
        s.start()
        threading.Event().wait(0.03)
        s.stop()
        kinds = [e["type"] for e in read_jsonl(path)]
        assert kinds == ["header", "final"]


@pytest.fixture
def fast_cli_stream(monkeypatch):
    """CLI streams tick every millisecond, so the stream thread races the
    producer and the watchdog for the file."""
    import repro.obs

    class FastStreamer(TelemetryStreamer):
        def __init__(self, registry, path, **meta):
            super().__init__(registry, path, interval_s=0.001, **meta)

    monkeypatch.setattr(repro.obs, "TelemetryStreamer", FastStreamer)


class TestOneStreamCli:
    """A ``--live-metrics`` run writes every record the run's telemetry
    has in one file, one ``seq`` order and one ``run_id``."""

    def check_stream(self, path, command, workload):
        from pathlib import Path

        records = read_jsonl(path)
        assert [r["seq"] for r in records] == list(range(len(records)))
        assert len({r["run_id"] for r in records}) == 1
        header, final = records[0], records[-1]
        assert header["type"] == "header" and header["schema"] == SCHEMA
        assert header["command"] == command and header["workload"] == workload
        assert final["type"] == "final"
        assert Path(final["ledger"]).name == "bundle.json"
        assert Path(final["ledger"]).is_file()
        kinds = [r["type"] for r in records]
        assert kinds.count("header") == kinds.count("final") == 1
        assert "delta" in kinds
        # Deltas carry the phase histograms and the workers' gauges.
        assert not {"span", "snapshot", "sample"} & set(kinds)
        assert any(
            g[0] == "sigmem.occupied"
            for r in records
            if r["type"] == "delta"
            for g in r["gauges"]
        )
        replayed, info = replay_stream(path)
        assert replayed.snapshot()["counters"] == final["counters"]
        assert {"loop-index", "merge"} <= set(replayed.phase_totals())
        assert info["records"] == [
            r for r in records if r["type"] not in ("header", "delta", "final")
        ]
        return info["records"]

    def test_deterministic_rebalancing_run(
        self, tmp_path, monkeypatch, capsys, fast_cli_stream
    ):
        import repro.cli as cli

        config_from = cli._config_from
        monkeypatch.setattr(
            cli,
            "_config_from",
            lambda args: config_from(args).with_(
                chunk_size=256, rebalance_interval_chunks=4
            ),
        )
        path = tmp_path / "det.jsonl"
        assert cli.main(["stats", "ep", "--live-metrics", str(path)]) == 0
        capsys.readouterr()
        records = self.check_stream(path, "stats", "ep")
        kinds = {r["type"] for r in records}
        assert kinds == {"rebalance"}
        (rebalance,) = [r for r in records if r["type"] == "rebalance"]
        assert rebalance["moves"] > 0

    def test_processes_stall_and_recovery_run(
        self, tmp_path, monkeypatch, capsys, fast_cli_stream
    ):
        import time

        import repro.parallel.heartbeat as heartbeat_mod
        import repro.parallel.worker as worker_mod
        from repro.cli import main

        process_rows = worker_mod.Worker.process_rows

        def slow(self, batch, rows, n_chunks=1):
            if self.wid == 1 and self.chunks_processed == 0:
                time.sleep(0.6)  # >> the 0.1 s stall threshold
            return process_rows(self, batch, rows, n_chunks)

        monkeypatch.setattr(worker_mod.Worker, "process_rows", slow)
        monkeypatch.setattr(heartbeat_mod, "DEFAULT_INTERVAL_S", 0.01)
        path = tmp_path / "proc.jsonl"
        assert main(
            ["stats", "ep", "--mode", "processes", "--workers", "2",
             "--live-metrics", str(path)]
        ) == 0
        capsys.readouterr()
        records = self.check_stream(path, "stats", "ep")
        assert {r["type"] for r in records} == {"heartbeat"}
        slow_worker = [r for r in records if r["worker"] == 1]
        assert [r["state"] for r in slow_worker[:2]] == ["stalled", "recovered"]
        assert slow_worker[0]["age_seconds"] > 0.1
        assert slow_worker[0]["beats"] >= 1
