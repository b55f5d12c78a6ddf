"""The deadline grid that drives the periodic telemetry threads.

Periodic telemetry threads (the
:class:`~repro.obs.streamer.TelemetryStreamer`, the processes-mode
watchdog) drive their ticks through :func:`deadline_loop`, which schedules
against a monotonic deadline *grid* rather than ``sleep(interval)`` after
each tick: a tick that takes 70% of the period still fires the next tick
on the grid instead of drifting 70% late every cycle.  A tick that
overruns a whole period fires immediately once and realigns; a tick that
raises is counted and the loop keeps its grid.
"""

from __future__ import annotations

import time
import traceback
from typing import Callable

from repro.obs.metrics import MetricsRegistry


def deadline_loop(
    tick: Callable[[], None],
    period_s: float,
    wait: Callable[[float], bool],
    clock: Callable[[], float] = time.perf_counter,
    registry: MetricsRegistry | None = None,
    label: str = "",
) -> None:
    """Drive ``tick()`` on a fixed monotonic grid until ``wait`` says stop.

    ``wait(seconds)`` must block for at most ``seconds`` and return True to
    stop the loop (a ``threading.Event.wait`` bound fits exactly).  Ticks
    are scheduled at ``t0 + k * period_s``: a slow tick eats into the next
    wait instead of postponing the whole grid.  When a tick overruns one or
    more full periods the loop fires immediately and realigns to the next
    future grid point — cadence degrades to back-to-back ticks, never to an
    unbounded backlog.

    A tick that raises does not end the loop: the failure is counted in
    ``registry``'s ``obs.tick_errors{loop=label}``, the first traceback
    goes to stderr, and the next tick fires on the grid.

    ``clock`` is injectable so tests can drive the loop with a fake clock
    (pair it with a ``wait`` that advances the same clock).
    """
    if period_s <= 0:
        raise ValueError("period_s must be positive")
    next_t = clock() + period_s
    failed = False
    while True:
        delay = next_t - clock()
        if wait(max(0.0, delay)):
            return
        try:
            tick()
        except Exception:
            if registry is not None:
                registry.counter("obs.tick_errors", loop=label).inc()
            if not failed:
                failed = True
                traceback.print_exc()
        next_t += period_s
        now = clock()
        if next_t <= now:
            next_t += (int((now - next_t) // period_s) + 1) * period_s

