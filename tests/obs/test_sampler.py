"""The deadline grid and the telemetry threads, including pipeline abort paths."""

import threading

import pytest

from repro.obs import MetricsRegistry, deadline_loop, read_jsonl
from repro.parallel.engine import MODES


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


#: The telemetry threads a CLI run starts: the stream and the HTTP
#: exporter in both modes, the heartbeat watchdog in processes mode.
OBS_THREADS = {
    "deterministic": {"obs-streamer", "obs-httpd"},
    "processes": {"obs-streamer", "obs-httpd", "obs-watchdog"},
}


@pytest.fixture
def started_threads(monkeypatch):
    """Every thread started while the test runs, in start order."""
    started = []
    start = threading.Thread.start

    def recording_start(self):
        started.append(self)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    return started


def check_obs_threads(started, mode):
    """The run started its telemetry threads, and none outlives it."""
    obs = [t for t in started if t.name.startswith("obs-")]
    assert {t.name for t in obs} == OBS_THREADS[mode]
    assert [t.name for t in obs if t.is_alive()] == [], "obs thread leaked"


def stats_argv(mode, path):
    return [
        "stats", "ep", "--mode", mode, "--workers", "2", "--no-ledger",
        "--live-metrics", str(path), "--http-port", "0",
    ]


class TestPipelineAbort:
    @pytest.mark.parametrize("mode", MODES)
    def test_worker_exception_leaves_no_obs_thread(
        self, mode, monkeypatch, tmp_path, capsys, started_threads
    ):
        """A worker blowing up mid-run must abort the run cleanly: the
        error surfaces on the caller, no telemetry thread the run started
        outlives it, and in deterministic mode the workers' occupancy
        gauges still land in the stream's final record."""
        from repro.cli import main
        from repro.parallel.worker import Worker

        def exploding(self, batch, rows, n_chunks=1):
            raise RuntimeError("worker exploded")

        monkeypatch.setattr(Worker, "process_rows", exploding)
        path = tmp_path / "stream.jsonl"
        with pytest.raises(Exception, match="worker exploded"):
            main(stats_argv(mode, path))
        capsys.readouterr()
        check_obs_threads(started_threads, mode)
        records = read_jsonl(path)
        assert records[-1]["type"] == "final"
        if mode == "deterministic":
            assert any(g.startswith("sigmem.occupied{") for g in records[-1]["gauges"])

    @pytest.mark.parametrize("mode", MODES)
    def test_clean_run_leaves_no_obs_thread(
        self, mode, tmp_path, capsys, started_threads
    ):
        from repro.cli import main

        assert main(stats_argv(mode, tmp_path / "stream.jsonl")) == 0
        capsys.readouterr()
        check_obs_threads(started_threads, mode)
