"""repro — a generic data-dependence profiler.

Reproduction of "An Efficient Data-Dependence Profiler for Sequential and
Parallel Programs" (Li, Jannesari, Wolf — IPDPS Workshops 2015).

The one-line entry points:

>>> from repro import ProfilerConfig, profile_trace, run_program
>>> trace = run_program(program)                       # instrumented execution
>>> result = profile_trace(trace, ProfilerConfig())    # Algorithm 1

See README.md for the architecture and examples/ for runnable walkthroughs.
Subpackage map: :mod:`repro.trace` (event substrate), :mod:`repro.minivm`
(target programs), :mod:`repro.sigmem` (signatures), :mod:`repro.core`
(the profiler), :mod:`repro.parallel` (the lock-free pipeline),
:mod:`repro.analyses` (parallelism / communication / races),
:mod:`repro.workloads` (benchmark analogs), :mod:`repro.costmodel`
(timing/memory models).
"""

from repro.common.config import ProfilerConfig
from repro.common.sourceloc import SourceLocation, format_location
from repro.core import (
    DependenceStore,
    DepType,
    Dependence,
    ProfileResult,
    format_dependences,
    instance_rates,
    parse_dependences,
    profile_trace,
    set_rates,
)
from repro.minivm import ProgramBuilder, ScheduleConfig, run_program
from repro.obs import (
    MemorySink,
    MetricsRegistry,
    NullSink,
    RunReport,
    prometheus_text,
)
from repro.parallel import ParallelProfiler
from repro.trace import TraceBatch, TraceRecorder, load_trace, save_trace

__version__ = "1.0.0"

__all__ = [
    "DepType",
    "Dependence",
    "DependenceStore",
    "MemorySink",
    "MetricsRegistry",
    "NullSink",
    "ParallelProfiler",
    "ProfileResult",
    "ProfilerConfig",
    "ProgramBuilder",
    "RunReport",
    "ScheduleConfig",
    "SourceLocation",
    "TraceBatch",
    "TraceRecorder",
    "__version__",
    "format_dependences",
    "format_location",
    "instance_rates",
    "load_trace",
    "parse_dependences",
    "profile_trace",
    "prometheus_text",
    "run_program",
    "save_trace",
    "set_rates",
]
