"""Gauge sampler and deadline grid, including pipeline abort paths."""

import threading

import pytest

from repro.common.config import ProfilerConfig
from repro.obs import MemorySink, MetricsRegistry, deadline_loop
from repro.parallel import ParallelProfiler
from repro.parallel.engine import MODES
from tests.trace_helpers import seq_trace


def sampler_threads():
    return [t for t in threading.enumerate() if t.name == "obs-sampler"]


class FakeTime:
    """Synthetic clock driving :func:`deadline_loop` deterministically.

    ``wait`` advances the clock by the requested delay (a perfect sleep);
    ``tick`` records the fire time and burns ``tick_cost`` simulated
    seconds of work, then raises if its fire number is in ``fail_at``.
    The loop stops once ``max_fires`` ticks have fired.
    """

    def __init__(self, tick_cost, max_fires, fail_at=()):
        self.t = 0.0
        self.fired = []
        self.tick_cost = tick_cost
        self.max_fires = max_fires
        self.fail_at = fail_at

    def clock(self):
        return self.t

    def wait(self, delay):
        self.t += delay
        return len(self.fired) >= self.max_fires

    def tick(self):
        self.fired.append(self.t)
        self.t += self.tick_cost
        if len(self.fired) in self.fail_at:
            raise RuntimeError(f"tick {len(self.fired)} failed")


class TestDeadlineGrid:
    def test_slow_ticks_do_not_drift_the_grid(self):
        """A tick burning 70% of the period still fires exactly on the
        t0 + k*period grid — a sleep(period)-after-tick loop would fire at
        1.0, 2.7, 4.4 instead."""
        ft = FakeTime(tick_cost=0.7, max_fires=3)
        deadline_loop(ft.tick, 1.0, ft.wait, clock=ft.clock)
        assert ft.fired == [1.0, 2.0, 3.0]

    def test_overrun_fires_once_and_realigns(self):
        """A tick overrunning 2.5 periods fires once and realigns to the
        next future grid point — no back-to-back catch-up burst: grid
        points 2.0 and 3.0, then 5.0 and 6.0, are skipped."""
        ft = FakeTime(tick_cost=2.5, max_fires=3)
        deadline_loop(ft.tick, 1.0, ft.wait, clock=ft.clock)
        assert ft.fired == [1.0, 4.0, 7.0]

    def test_failing_ticks_are_counted_and_keep_the_grid(self, capsys):
        """A tick that raises ends neither the loop nor its cadence: each
        failure is counted under the loop's label, and only the first
        traceback is printed."""
        ft = FakeTime(tick_cost=0.2, max_fires=4, fail_at=(1, 3))
        reg = MetricsRegistry()
        deadline_loop(ft.tick, 1.0, ft.wait, clock=ft.clock, registry=reg, label="test")
        assert ft.fired == [1.0, 2.0, 3.0, 4.0]
        assert reg.counter("obs.tick_errors", loop="test").value == 2
        err = capsys.readouterr().err
        assert err.count("Traceback") == 1
        assert "tick 1 failed" in err and "tick 3 failed" not in err

    def test_period_must_be_positive(self):
        with pytest.raises(ValueError):
            deadline_loop(lambda: None, 0.0, lambda d: True)
        with pytest.raises(ValueError):
            deadline_loop(lambda: None, -1.0, lambda d: True)


class TestPipelineAbort:
    def throwing_trace(self):
        ops = []
        for i in range(64):
            a = 0x1000 + 8 * i
            ops += [("w", a, 1, "x"), ("r", a, 2, "x")]
        return seq_trace(ops)

    def test_worker_exception_propagates_without_leaking_sampler(self, monkeypatch):
        """A worker blowing up mid-run must abort the pipeline cleanly: the
        error surfaces on the caller, no obs-sampler thread exists, and the
        final forced sample still lands in the event stream."""
        from repro.parallel.worker import Worker

        boom = RuntimeError("worker exploded")

        def exploding(self, batch, rows):
            raise boom

        monkeypatch.setattr(Worker, "process_rows", exploding)
        sink = MemorySink()
        reg = MetricsRegistry(sink)
        # Tiny chunks fill in the first window, so the failure fires inside
        # the producer loop, not only at the final flush.
        cfg = ProfilerConfig(perfect_signature=True, workers=2, chunk_size=8)
        prof = ParallelProfiler(cfg, registry=reg)
        with pytest.raises(RuntimeError, match="worker exploded"):
            prof.profile(self.throwing_trace())
        assert sampler_threads() == [], "sampler daemon thread leaked"
        assert any(e["type"] == "sample" for e in sink.events)

    @pytest.mark.parametrize("mode", MODES)
    def test_clean_run_leaves_no_sampler_thread(self, mode):
        reg = MetricsRegistry(MemorySink())
        cfg = ProfilerConfig(perfect_signature=True, workers=2, chunk_size=8)
        res, _ = ParallelProfiler(cfg, mode=mode, registry=reg).profile(
            self.throwing_trace()
        )
        assert sampler_threads() == []
        assert res.store.n_entries > 0
