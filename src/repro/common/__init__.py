"""Shared substrate: source locations, configuration, errors, RNG helpers.

Everything in :mod:`repro` builds on these primitives.  They deliberately
contain no profiling logic: a :class:`SourceLocation` is just the
``fileID:line`` pair the paper prints in its dependence records, and
:class:`ProfilerConfig` is the single knob bundle threaded through the
sequential and parallel engines.
"""

from repro.common.config import ProfilerConfig
from repro.common.errors import (
    MiniVmError,
    ProfilerError,
    ReproError,
    TraceFormatError,
    WorkloadError,
)
from repro.common.rng import make_rng
from repro.common.sourceloc import (
    NO_LOC,
    SourceLocation,
    decode_location,
    encode_location,
    format_location,
)

__all__ = [
    "NO_LOC",
    "MiniVmError",
    "ProfilerConfig",
    "ProfilerError",
    "ReproError",
    "SourceLocation",
    "TraceFormatError",
    "WorkloadError",
    "decode_location",
    "encode_location",
    "format_location",
    "make_rng",
]
