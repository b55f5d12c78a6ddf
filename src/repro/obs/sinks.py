"""Telemetry sinks — where a registry's discrete records go.

A sink receives *records*: flat dicts with a ``"type"`` key
(``rebalance``, ``heartbeat``) plus the ``"ts"`` wall-clock stamp and
``"run_id"`` the registry adds.  A run has at most one real sink, the
:class:`~repro.obs.streamer.TelemetryStreamer`, which writes these records
into the run's one telemetry stream next to its registry deltas.

``NullSink`` is the default everywhere.  Its ``enabled`` flag is ``False``,
which lets instrumented code skip even *building* the record dict::

    if registry.sink.enabled:
        registry.emit({"type": "rebalance", ...})

so a profiler run with no sink configured costs nothing beyond the plain
integer counters it would keep anyway.  ``MemorySink`` keeps records in a
list for tests.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any


class Sink:
    """Base sink: interface + the ``enabled`` fast-path flag."""

    enabled: bool = True

    def emit(self, event: dict[str, Any]) -> None:  # pragma: no cover
        raise NotImplementedError

    def close(self) -> None:
        """Release resources (idempotent)."""


class NullSink(Sink):
    """Discards everything; ``enabled=False`` disables record construction."""

    enabled = False

    def emit(self, event: dict[str, Any]) -> None:
        pass


#: Shared default instance — sinkless registries all point here.
NULL_SINK = NullSink()


class MemorySink(Sink):
    """Keeps records in a list; the unit-test and introspection sink."""

    def __init__(self) -> None:
        self.events: list[dict[str, Any]] = []

    def emit(self, event: dict[str, Any]) -> None:
        self.events.append(event)

    def of_type(self, kind: str) -> list[dict[str, Any]]:
        return [e for e in self.events if e.get("type") == kind]


def read_jsonl(path: str | Path) -> list[dict[str, Any]]:
    """Parse a JSONL file back into dicts, one per non-blank line."""
    out: list[dict[str, Any]] = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            out.append(json.loads(line))
    return out
