"""Metric primitives and the registry.

Three instrument kinds, modelled on the Prometheus data model but kept
deliberately tiny so the profiler's hot paths can own them directly:

* :class:`Counter` — a monotonically increasing integer.  ``inc()`` is one
  attribute add; hot objects (signature trackers, the rebalancer) hold
  their counters as plain ``Counter`` objects, which makes the registry
  the *single* source of truth (no end-of-run re-summation of private
  fields).
* :class:`Gauge` — a point-in-time value, either set explicitly or backed
  by a callback evaluated at read time (``gauge_fn``), so e.g. signature
  occupancy is scraped from the live tracker instead of being mirrored.
* :class:`Histogram` — fixed upper-bound buckets plus sum/count; used for
  phase durations and per-chunk latencies.

Metrics are identified by ``(name, labels)``; ``registry.counter("x",
worker=3)`` returns the same object on every call.  A
:class:`MetricsRegistry` also times phases via :meth:`MetricsRegistry.span`
and forwards discrete records to its sink (``NullSink`` by default — see
:mod:`repro.obs.sinks` for the zero-overhead contract).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from repro.obs.sinks import NULL_SINK, Sink
from repro.obs.tracing import MAIN_TRACK, NULL_TRACER, NullTracer, Tracer

LabelKey = tuple[tuple[str, str], ...]

#: Default histogram buckets (seconds): 1us .. 10s, log-ish spacing.
DEFAULT_BUCKETS: tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def _label_key(labels: dict[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def format_name(name: str, labels: LabelKey) -> str:
    """Canonical display form: ``name{k="v",...}`` (sorted label keys)."""
    if not labels:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """Monotonic integer counter.  Free-standing construction is allowed;
    a registry hands out the ones it tracks."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"Counter({format_name(self.name, self.labels)}={self.value})"


class Gauge:
    """Point-in-time value; ``fn`` (if set) wins over the stored value."""

    __slots__ = ("name", "labels", "_value", "fn")

    def __init__(
        self,
        name: str,
        labels: LabelKey = (),
        fn: Callable[[], float] | None = None,
    ) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0
        self.fn = fn

    def set(self, value: float) -> None:
        self._value = float(value)

    @property
    def value(self) -> float:
        if self.fn is not None:
            return float(self.fn())
        return self._value

    def __repr__(self) -> str:
        return f"Gauge({format_name(self.name, self.labels)}={self.value})"


class Histogram:
    """Fixed-bucket histogram: cumulative-style export, O(buckets) observe."""

    __slots__ = ("name", "labels", "buckets", "counts", "sum", "count")

    def __init__(
        self,
        name: str,
        labels: LabelKey = (),
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("buckets must be a non-empty ascending sequence")
        self.name = name
        self.labels = labels
        self.buckets = tuple(float(b) for b in buckets)
        # counts[i] pairs with buckets[i]; counts[-1] is the +Inf overflow.
        self.counts = [0] * (len(self.buckets) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        for i, ub in enumerate(self.buckets):
            if value <= ub:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def snapshot(self) -> dict[str, Any]:
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
        }

    def __repr__(self) -> str:
        return (
            f"Histogram({format_name(self.name, self.labels)}"
            f" n={self.count} mean={self.mean:.6f})"
        )


class MetricsRegistry:
    """Get-or-create registry of counters/gauges/histograms + span timing.

    One registry per profiling run.  Instruments live for the registry's
    lifetime; ``snapshot()`` freezes every value into plain dicts for the
    run report, and ``emit()`` forwards discrete records to the sink.
    """

    def __init__(
        self,
        sink: Sink | None = None,
        tracer: "Tracer | NullTracer | None" = None,
        run_id: str | None = None,
    ) -> None:
        self.sink = sink if sink is not None else NULL_SINK
        #: Timeline tracer; the shared ``NULL_TRACER`` by default, so the
        #: untraced hot path is one ``enabled`` check away from free.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Correlation id of this run; when set, every sink record is
        #: stamped with it (and the CLI propagates the same id into the
        #: tracer, the run report and the ledger bundle).
        self.run_id = run_id
        self._metrics: dict[tuple[str, LabelKey], Counter | Gauge | Histogram] = {}

    # -- instrument factories (get-or-create) ---------------------------------
    def _get(self, cls: type, name: str, labels: dict[str, Any]) -> Any:
        key = (name, _label_key(labels))
        m = self._metrics.get(key)
        if m is None:
            m = cls(name, key[1])
            self._metrics[key] = m
        elif type(m) is not cls:
            raise TypeError(
                f"metric {format_name(name, key[1])} already registered "
                f"as {type(m).__name__}, not {cls.__name__}"
            )
        return m

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get(Gauge, name, labels)

    def gauge_fn(self, name: str, fn: Callable[[], float], **labels: Any) -> Gauge:
        g = self._get(Gauge, name, labels)
        g.fn = fn
        return g

    def histogram(
        self,
        name: str,
        buckets: tuple[float, ...] | None = None,
        **labels: Any,
    ) -> Histogram:
        key = (name, _label_key(labels))
        m = self._metrics.get(key)
        if m is None:
            m = Histogram(name, key[1], buckets or DEFAULT_BUCKETS)
            self._metrics[key] = m
        elif not isinstance(m, Histogram):
            raise TypeError(
                f"metric {format_name(name, key[1])} already registered "
                f"as {type(m).__name__}, not Histogram"
            )
        return m

    # -- iteration / snapshot -------------------------------------------------
    def __iter__(self) -> Iterator[Counter | Gauge | Histogram]:
        # Iterate a copy: the stream thread walks the registry while the
        # producer (or the watchdog) creates instruments.
        return iter(list(self._metrics.values()))

    def __len__(self) -> int:
        return len(self._metrics)

    def counters(self) -> list[Counter]:
        return [m for m in self if isinstance(m, Counter)]

    def gauges(self) -> list[Gauge]:
        return [m for m in self if isinstance(m, Gauge)]

    def histograms(self) -> list[Histogram]:
        return [m for m in self if isinstance(m, Histogram)]

    def snapshot(self) -> dict[str, Any]:
        """Freeze every instrument into JSON-ready dicts."""
        counters: dict[str, int] = {}
        gauges: dict[str, float] = {}
        histograms: dict[str, Any] = {}
        for m in self:
            full = format_name(m.name, m.labels)
            if isinstance(m, Counter):
                counters[full] = m.value
            elif isinstance(m, Gauge):
                gauges[full] = m.value
            else:
                histograms[full] = m.snapshot()
        return {
            "counters": dict(sorted(counters.items())),
            "gauges": dict(sorted(gauges.items())),
            "histograms": dict(sorted(histograms.items())),
        }

    def sum_counters(self, name: str) -> int:
        """Total of one counter family across all label sets."""
        return sum(m.value for m in self.counters() if m.name == name)

    # -- cross-process transfer ----------------------------------------------
    def state(self) -> dict[str, Any]:
        """Picklable value dump for shipping a child process's registry home.

        Unlike :meth:`snapshot` (display-formatted names), this keeps the
        structured ``(name, labels)`` identity of every instrument so
        :meth:`merge_state` can fold it into another registry losslessly.
        Callback gauges are evaluated at dump time and travel as plain
        values.
        """
        counters: list[tuple[str, LabelKey, int]] = []
        gauges: list[tuple[str, LabelKey, float]] = []
        histograms: list[tuple[str, LabelKey, tuple[float, ...], list[int], float, int]] = []
        for m in self:
            if isinstance(m, Counter):
                counters.append((m.name, m.labels, m.value))
            elif isinstance(m, Gauge):
                gauges.append((m.name, m.labels, m.value))
            else:
                histograms.append(
                    (m.name, m.labels, m.buckets, list(m.counts), m.sum, m.count)
                )
        return {"counters": counters, "gauges": gauges, "histograms": histograms}

    def merge_state(self, state: dict[str, Any]) -> None:
        """Fold a child registry's :meth:`state` into this registry.

        Counters add, gauges overwrite (last child wins — they are
        point-in-time values), and histograms merge bucket-wise (bucket
        layouts must match) — phase timings included, since a phase's time
        lives only in its ``span.seconds`` histogram.
        """
        for name, labels, value in state["counters"]:
            self._get(Counter, name, dict(labels)).inc(value)
        for name, labels, value in state["gauges"]:
            self._get(Gauge, name, dict(labels)).set(value)
        for name, labels, buckets, counts, total, count in state["histograms"]:
            h = self.histogram(name, buckets=buckets, **dict(labels))
            if h.buckets != tuple(buckets):
                raise ValueError(
                    f"histogram {format_name(name, _label_key(dict(labels)))}: "
                    "bucket layout mismatch on merge"
                )
            for i, c in enumerate(counts):
                h.counts[i] += c
            h.sum += total
            h.count += count

    # -- spans ----------------------------------------------------------------
    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[None]:
        """Time a pipeline phase into its ``span.seconds{phase}`` histogram
        (and the timeline, when tracing; ``attrs`` annotate that slice)."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            self.histogram("span.seconds", phase=name).observe(dt)
            if self.tracer.enabled:
                self.tracer.complete(name, MAIN_TRACK, t0, t0 + dt, **attrs)

    def phase_totals(self) -> dict[str, dict[str, float]]:
        """Per-phase total seconds + count, read off the ``span.seconds``
        histograms, in the order the phases first ran."""
        return {
            dict(h.labels)["phase"]: {"seconds": h.sum, "count": h.count}
            for h in self.histograms()
            if h.name == "span.seconds"
        }

    # -- events ---------------------------------------------------------------
    def emit(self, event: dict[str, Any]) -> None:
        """Forward one discrete record to the sink (stamped with ``ts``)."""
        if not self.sink.enabled:
            return
        if "ts" not in event:
            event["ts"] = round(time.time(), 6)
        if self.run_id is not None and "run_id" not in event:
            event["run_id"] = self.run_id
        self.sink.emit(event)

    def close(self) -> None:
        self.sink.close()
