"""Exception hierarchy for :mod:`repro`.

Every library-raised error derives from :class:`ReproError` so callers can
catch one base class; subsystem-specific subclasses make test assertions and
error messages precise.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of all errors raised by the repro library."""


class ProfilerError(ReproError):
    """Invalid profiler configuration or malformed input to an engine."""


class TraceFormatError(ReproError):
    """A serialized trace or dependence file could not be parsed."""


class MiniVmError(ReproError):
    """Errors raised while building or executing a MiniVM program."""


class WorkloadError(ReproError):
    """Unknown workload name or invalid workload parameters."""


class ObsError(ReproError):
    """Telemetry misuse: e.g. emitting to a sink that was already closed."""
