"""Trace substrate: memory-access event streams.

The profiler in the paper consumes a stream of instrumented events emitted by
an LLVM pass: memory reads/writes annotated with source location and variable
name, allocation/deallocation events (for variable-lifetime analysis), loop
entry/iteration/exit markers (runtime control-flow information), lock
acquire/release (for multi-threaded targets, Figure 4), and thread lifecycle
events.  This package defines

* the event-kind encoding (:mod:`repro.trace.events`),
* :class:`TraceBatch` — an immutable structure-of-arrays trace held in numpy
  arrays, the unit every profiler engine consumes,
* :class:`TraceRecorder` — the instrumentation *runtime*: the API that an
  executing target program (our MiniVM interpreter) calls; it assigns global
  timestamps, interns variable names and static loop contexts, and appends to
  a growable builder,
* ``save_trace``/``load_trace`` — ``.npz`` (de)serialization.
"""

from repro.trace.events import (
    ALLOC,
    FREE,
    FUNC_ENTER,
    FUNC_EXIT,
    KIND_NAMES,
    LOCK_ACQ,
    LOCK_REL,
    LOOP_ENTER,
    LOOP_EXIT,
    LOOP_ITER,
    READ,
    THREAD_END,
    THREAD_START,
    WRITE,
    Event,
)
from repro.trace.batch import TraceBatch, TraceBuilder
from repro.trace.recorder import TraceRecorder
from repro.trace.serialize import load_trace, save_trace
from repro.trace.spill import (
    SpilledTraceBatch,
    TraceSpillWriter,
    is_spill,
    open_spill,
    spill_batch,
)

__all__ = [
    "ALLOC",
    "FREE",
    "FUNC_ENTER",
    "FUNC_EXIT",
    "KIND_NAMES",
    "LOCK_ACQ",
    "LOCK_REL",
    "LOOP_ENTER",
    "LOOP_EXIT",
    "LOOP_ITER",
    "READ",
    "THREAD_END",
    "THREAD_START",
    "WRITE",
    "Event",
    "SpilledTraceBatch",
    "TraceBatch",
    "TraceBuilder",
    "TraceRecorder",
    "TraceSpillWriter",
    "is_spill",
    "load_trace",
    "open_spill",
    "save_trace",
    "spill_batch",
]
