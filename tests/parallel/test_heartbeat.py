"""Worker heartbeats and the liveness watchdog (processes mode).

Unit layer: the anonymous shared-map :class:`HeartbeatBoard` and a
:class:`WorkerWatchdog` driven with a fake clock and synthetic exitcodes.
Integration layer: a real processes-mode run with a deliberately stalled
worker must flag the stall *live* — gauges, stall counter, tracer span —
and still complete without hanging.
"""

import multiprocessing
import threading
import time

import pytest

from repro.common.config import ProfilerConfig
from repro.obs import HEARTBEAT_STATES, MemorySink, MetricsRegistry, liveness_summary
from repro.obs.tracing import Tracer, worker_track
from repro.parallel import ParallelProfiler
from repro.parallel.heartbeat import (
    STATE_DEAD,
    STATE_LIVE,
    STATE_STALLED,
    HeartbeatBoard,
    WorkerWatchdog,
)
from repro.workloads import get_trace

PERFECT = ProfilerConfig(perfect_signature=True)


def _beat_twice(board, wid):
    board.beat(wid)
    board.beat(wid)


class TestHeartbeatBoard:
    def test_create_beat_age(self):
        board = HeartbeatBoard.create(2)
        try:
            assert board.beats(0) == 0 and board.beats(1) == 0
            board.beat(0)
            board.beat(0)
            assert board.beats(0) == 2 and board.beats(1) == 0
            assert board.age_seconds(0) < 1.0
            # fresh slots age from creation, not from the monotonic epoch
            assert board.age_seconds(1) < 60.0
        finally:
            board.close()

    def test_forked_child_beat_visible_to_parent(self):
        board = HeartbeatBoard.create(3)
        try:
            child = multiprocessing.get_context("fork").Process(
                target=_beat_twice, args=(board, 2)
            )
            child.start()
            child.join(timeout=30)
            assert child.exitcode == 0
            assert board.beats(2) == 2
            assert board.beats(0) == board.beats(1) == 0
            assert board.age_seconds(2) < 30.0
        finally:
            board.close()

    def test_close_idempotent(self):
        board = HeartbeatBoard.create(1)
        board.close()
        board.close()


class FakeClock:
    def __init__(self):
        self.t = 1000.0

    def __call__(self):
        return self.t


class TestWatchdog:
    def make(self, n=2, interval=1.0, stall_after=3.0, tracer=None, sink=None):
        board = HeartbeatBoard.create(n)
        clock = FakeClock()
        board.arr[:, 0] = clock.t  # re-stamp slots onto the fake clock
        reg = MetricsRegistry(sink, tracer=tracer)
        exitcodes = {w: None for w in range(n)}
        wd = WorkerWatchdog(
            board,
            reg,
            lambda w: exitcodes[w],
            interval_s=interval,
            stall_after_s=stall_after,
            clock=clock,
        )
        return board, reg, wd, clock, exitcodes

    @staticmethod
    def fake_beat(board, clock, wid):
        # board.beat() stamps real time.monotonic(); these tests run the
        # watchdog on a fake clock, so stamp the slot onto that clock.
        board.arr[wid, 1] += 1
        board.arr[wid, 0] = clock.t

    def test_fresh_workers_are_live(self):
        board, reg, wd, clock, _ = self.make()
        try:
            wd.tick()
            assert wd.states == [STATE_LIVE, STATE_LIVE]
            lv = liveness_summary(reg)
            assert lv["live"] == 2 and lv["healthy"]
        finally:
            board.close()

    def test_stall_detected_after_threshold(self):
        board, reg, wd, clock, _ = self.make(stall_after=3.0)
        try:
            clock.t += 2.0
            self.fake_beat(board, clock, 0)  # worker 0 beats, worker 1 quiet
            clock.t += 2.5  # worker 1 silent for 4.5s > 3.0
            wd.tick()
            assert wd.states == [STATE_LIVE, STATE_STALLED]
            assert reg.counter("worker.heartbeat.stalls", worker=1).value == 1
            assert reg.gauge("worker.heartbeat.state", worker=1).value == (
                HEARTBEAT_STATES.index("stalled")
            )
            assert reg.gauge(
                "worker.heartbeat.age_seconds", worker=1
            ).value == pytest.approx(4.5)
            # still stalled on the next tick: the counter counts episodes,
            # not ticks
            clock.t += 1.0
            wd.tick()
            assert reg.counter("worker.heartbeat.stalls", worker=1).value == 1
        finally:
            board.close()

    def test_recovery_closes_stall_episode_with_tracer_span(self):
        tracer = Tracer()
        board, reg, wd, clock, _ = self.make(stall_after=3.0, tracer=tracer)
        try:
            clock.t += 5.0
            wd.tick()
            assert wd.states == [STATE_STALLED, STATE_STALLED]
            self.fake_beat(board, clock, 0)
            clock.t += 0.1
            wd.tick()
            assert wd.states[0] == STATE_LIVE
            spans = tracer.of_name("worker.heartbeat_stall")
            assert len(spans) == 1  # worker 0's episode closed on recovery
            assert spans[0].track == worker_track(0)
            assert spans[0].dur == pytest.approx(5.1, abs=0.01)
            # worker 1 still stalled; stop() closes its open episode
            wd.stop()
            spans = tracer.of_name("worker.heartbeat_stall")
            assert {s.track for s in spans} == {worker_track(0), worker_track(1)}
        finally:
            board.close()

    def test_dead_beats_stalled_and_finished_beats_fresh_age(self):
        board, reg, wd, clock, exitcodes = self.make(stall_after=3.0)
        try:
            clock.t += 10.0  # both heartbeat-stale
            exitcodes[0] = 1  # crashed
            exitcodes[1] = 0  # finished cleanly
            wd.tick()
            assert wd.states == [STATE_DEAD, STATE_LIVE]
            lv = liveness_summary(reg)
            assert lv["dead"] == 1 and lv["live"] == 1 and not lv["healthy"]
        finally:
            board.close()

    def test_stall_event_emitted_to_sink(self):
        sink = MemorySink()
        board, reg, wd, clock, _ = self.make(n=1, stall_after=3.0, sink=sink)
        try:
            clock.t += 5.0
            wd.tick()
            events = sink.of_type("heartbeat")
            assert events and events[0]["state"] == "stalled"
            assert events[0]["worker"] == 0
        finally:
            board.close()

    def test_interval_must_be_positive(self):
        board = HeartbeatBoard.create(1)
        try:
            with pytest.raises(ValueError):
                WorkerWatchdog(board, MetricsRegistry(), lambda w: None, interval_s=0)
        finally:
            board.close()

    def test_threaded_lifecycle(self):
        board = HeartbeatBoard.create(1)
        reg = MetricsRegistry()
        wd = WorkerWatchdog(
            board, reg, lambda w: None, interval_s=0.005, stall_after_s=60.0
        )
        try:
            wd.start()
            assert wd.running
            deadline = time.perf_counter() + 2.0
            while wd.n_ticks < 3 and time.perf_counter() < deadline:
                time.sleep(0.005)
            wd.stop()
            assert not wd.running
            assert wd.n_ticks >= 3
            assert [
                t for t in threading.enumerate() if t.name == "obs-watchdog"
            ] == []
        finally:
            board.close()


    def test_failing_tick_keeps_the_watchdog_alive(self, monkeypatch):
        """A classification pass that raises once costs one tick: the
        watchdog thread keeps ticking, and the failure is counted in
        ``obs.tick_errors{loop="watchdog"}``."""
        board = HeartbeatBoard.create(1)
        reg = MetricsRegistry()
        wd = WorkerWatchdog(
            board, reg, lambda w: None, interval_s=0.005, stall_after_s=60.0
        )
        tick = wd.tick

        def flaky_tick():
            if wd.n_ticks == 0:
                wd.n_ticks += 1
                raise RuntimeError("tick failed")
            tick()

        monkeypatch.setattr(wd, "tick", flaky_tick)
        try:
            wd.start()
            deadline = time.perf_counter() + 2.0
            while wd.n_ticks < 4 and time.perf_counter() < deadline:
                time.sleep(0.005)
            assert wd.running
            wd.stop()
            assert wd.n_ticks >= 4
            assert reg.counter("obs.tick_errors", loop="watchdog").value == 1
            assert reg.gauge("worker.heartbeat.state", worker=0).value == STATE_LIVE
        finally:
            board.close()


class TestProcessesIntegration:
    def test_clean_run_reports_all_live(self):
        batch = get_trace("ep")
        reg = MetricsRegistry()
        cfg = PERFECT.with_(workers=2, chunk_size=512)
        ParallelProfiler(
            cfg, mode="processes", registry=reg, heartbeat_interval=0.01
        ).profile(batch)
        lv = liveness_summary(reg)
        assert lv is not None and lv["healthy"]
        assert lv["live"] == 2 and lv["stalled"] == 0 and lv["dead"] == 0
        assert all(w["beats"] > 0 for w in lv["workers"].values())

    def test_heartbeats_disabled_leaves_no_gauges(self):
        batch = get_trace("ep")
        reg = MetricsRegistry()
        cfg = PERFECT.with_(workers=2, chunk_size=512)
        ParallelProfiler(
            cfg, mode="processes", registry=reg, heartbeat_interval=None
        ).profile(batch)
        assert liveness_summary(reg) is None

    def test_stalled_worker_flagged_live_without_hanging(self, monkeypatch):
        """The ISSUE acceptance criterion: a deliberately slow worker is
        flagged through the gauges and a tracer stall span *during* the
        run, and the run still completes (degrade-and-report, no hang)."""
        import repro.parallel.worker as worker_mod

        orig = worker_mod.Worker.process_rows

        def slow(self, batch, rows, n_chunks=1):
            if self.wid == 1 and self.chunks_processed == 0:
                time.sleep(0.6)  # one long pause >> stall_after (0.1s)
            return orig(self, batch, rows, n_chunks)

        monkeypatch.setattr(worker_mod.Worker, "process_rows", slow)
        batch = get_trace("ep")
        reg = MetricsRegistry(tracer=Tracer())
        cfg = PERFECT.with_(workers=2, chunk_size=2048)
        res, _ = ParallelProfiler(
            cfg, mode="processes", registry=reg, heartbeat_interval=0.01
        ).profile(batch)
        # The stall was observed and attributed to worker 1.
        assert reg.counter("worker.heartbeat.stalls", worker=1).value >= 1
        assert reg.counter("worker.heartbeat.stalls", worker=0).value == 0
        spans = reg.tracer.of_name("worker.heartbeat_stall")
        assert spans and all(s.track == worker_track(1) for s in spans)
        assert max(s.dur for s in spans) >= 0.1
        # ...and the run finished with correct results regardless.
        assert res.store.n_entries > 0
        lv = liveness_summary(reg)
        assert lv["stall_events"] >= 1
