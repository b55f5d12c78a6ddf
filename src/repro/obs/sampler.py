"""Periodic gauge sampling — the telemetry time-series plane.

Scalar counters tell you *how much*; the sampler tells you *when*.  It
polls a set of registered probes (per-worker queue occupancy, signature
slot fill, chunk-pool size, ...) and emits one ``sample`` event per poll
carrying every probed value, so a JSONL log becomes a time series that can
show queue back-pressure building or a signature filling up mid-run.

The deterministic producer calls :meth:`Sampler.poll` once per trace
window; polls are rate-limited by ``min_interval_s`` (0 = every call).

Periodic telemetry threads (the
:class:`~repro.obs.streamer.TelemetryStreamer`, the processes-mode
watchdog) drive their ticks through :func:`deadline_loop`, which schedules
against a monotonic deadline *grid* rather than ``sleep(interval)`` after
each tick: a tick that takes 70% of the period still fires the next tick
on the grid instead of drifting 70% late every cycle.  A tick that
overruns a whole period fires immediately once, counts the missed grid
points, and realigns.
"""

from __future__ import annotations

import time
from typing import Any, Callable

from repro.obs.metrics import MetricsRegistry, format_name


def deadline_loop(
    tick: Callable[[], None],
    period_s: float,
    wait: Callable[[float], bool],
    clock: Callable[[], float] = time.perf_counter,
    on_missed: Callable[[int], None] | None = None,
) -> None:
    """Drive ``tick()`` on a fixed monotonic grid until ``wait`` says stop.

    ``wait(seconds)`` must block for at most ``seconds`` and return True to
    stop the loop (a ``threading.Event.wait`` bound fits exactly).  Ticks
    are scheduled at ``t0 + k * period_s``: a slow tick eats into the next
    wait instead of postponing the whole grid.  When a tick overruns one or
    more full periods the loop fires immediately, reports the number of
    skipped grid points through ``on_missed``, and realigns to the next
    future grid point — cadence degrades to back-to-back ticks, never to an
    unbounded backlog.

    ``clock`` is injectable so tests can drive the loop with a fake clock
    (pair it with a ``wait`` that advances the same clock).
    """
    if period_s <= 0:
        raise ValueError("period_s must be positive")
    next_t = clock() + period_s
    while True:
        delay = next_t - clock()
        if wait(max(0.0, delay)):
            return
        tick()
        next_t += period_s
        now = clock()
        if next_t <= now:
            missed = int((now - next_t) // period_s) + 1
            if on_missed is not None:
                on_missed(missed)
            next_t += missed * period_s


class Sampler:
    """Polls registered probes into gauges + ``sample`` events."""

    def __init__(
        self,
        registry: MetricsRegistry,
        min_interval_s: float = 0.0,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.registry = registry
        self.min_interval_s = min_interval_s
        self._clock = clock
        self._probes: list[tuple[str, Callable[[], float]]] = []
        self._last_poll = float("-inf")
        self.n_samples = 0

    def add(self, name: str, fn: Callable[[], float], **labels: Any) -> None:
        """Register one probe; its gauge reads live via the callback."""
        gauge = self.registry.gauge_fn(name, fn, **labels)
        self._probes.append((format_name(gauge.name, gauge.labels), fn))

    @property
    def n_probes(self) -> int:
        return len(self._probes)

    def poll(self, force: bool = False) -> bool:
        """Take one sample if the rate limit allows; True when sampled."""
        if not self._probes:
            return False
        now = self._clock()
        if not force and now - self._last_poll < self.min_interval_s:
            return False
        self._last_poll = now
        self.n_samples += 1
        if self.registry.sink.enabled:
            values = {name: float(fn()) for name, fn in self._probes}
            self.registry.emit(
                {"type": "sample", "seq": self.n_samples, "values": values}
            )
        return True
