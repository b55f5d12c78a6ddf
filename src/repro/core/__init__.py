"""The data-dependence profiler core (Sections III and V of the paper).

The profiler consumes a :class:`~repro.trace.TraceBatch` and produces a
:class:`ProfileResult`: merged pair-wise dependences (RAW/WAR/WAW plus INIT
for first writes), runtime control-flow information (loop regions with
iteration counts), and bookkeeping statistics.

Every profiling run executes one implementation of Algorithm 1, the chunk
kernel (:class:`~repro.core.vectorized.ChunkKernel`): a numpy formulation
that sorts a chunk's accesses by (tracking key, stream position) and
derives each access's previous read/write via segmented cumulative maxima,
carrying the signature state from chunk to chunk.  The pipeline of
:mod:`repro.parallel` runs one kernel per worker, with trackers picked
from a :class:`~repro.common.ProfilerConfig` (array signature or perfect
signature); :func:`profile_trace` is that pipeline at one worker.

:class:`ReferenceEngine` transcribes Algorithm 1 event at a time.  It is
the executable specification the kernel is tested against, not a runtime
choice.
"""

from repro.core.deps import (
    DepType,
    Dependence,
    DependenceStore,
    instance_rates,
    set_rates,
)
from repro.core.controlflow import LoopInfo, extract_loop_info
from repro.core.result import ProfileResult, ProfileStats
from repro.core.reference import ReferenceEngine
from repro.core.profiler import profile_trace
from repro.core.output import (
    OutputDiff,
    diff_outputs,
    format_dependences,
    parse_dependences,
)

__all__ = [
    "DepType",
    "Dependence",
    "DependenceStore",
    "LoopInfo",
    "OutputDiff",
    "ProfileResult",
    "ProfileStats",
    "ReferenceEngine",
    "diff_outputs",
    "extract_loop_info",
    "format_dependences",
    "instance_rates",
    "parse_dependences",
    "profile_trace",
    "set_rates",
]
