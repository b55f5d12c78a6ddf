"""Cost parameters and their calibration.

All costs are in abstract *native-access units*: the uninstrumented target
spends 1 unit per memory access, so a computed profiling time of 190 units
per access *is* a 190x slowdown.  Calibration anchors (suite averages from
the paper, Section VI-B):

=====================  ======  =========================================
anchor                 value   parameter(s) it pins
=====================  ======  =========================================
serial slowdown        ~190x   ``capture + analyze = 189``
16T slowdown           ~78x    producer-bound limit => ``capture ~ 75``
8T slowdown            ~97x    producer + critical-worker coupling
lock-based overhead    1.3-1.6x ``lock_tax_per_access ~ 40``
MT-target 8T / 16T     346/261  ``mt_capture_extra``, ``mt_worker_factor``
=====================  ======  =========================================

The Amdahl fit behind the producer split: speedups 190/97 = 1.96 (8T) and
190/78 = 2.43 (16T) imply a serial fraction of ~0.40 of the profiling work;
that serial part is the paper's main thread, which executes the target and
distributes accesses — our ``capture`` cost.  The remaining ~0.60 is the
per-access signature analysis that parallelizes across workers but remains
sequential *per address*, which is why the critical (most-loaded) worker is
charged in series with the producer (``overlap = 1``): they contend for the
same memory system, and the paper's own scaling numbers fit that additive
coupling, not a perfectly overlapped pipeline.

Control events (loop markers, alloc/free, locks) are not accesses: the
producer records each once, into the loop index, and no worker sees one.
They cost ``control_event`` each, once per run, in the serial and the
parallel estimate alike.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any


@dataclass(frozen=True)
class CostParams:
    """Per-operation costs in native-access units (see module docstring)."""

    #: Uninstrumented target cost per memory access (the unit).
    native_access: float = 1.0
    #: Producer side, per access: instrumentation capture, access statistics,
    #: chunk append, and routing decision.
    capture: float = 75.0
    #: Worker side, per access: signature membership + insert, dependence
    #: construction, local-map merge.
    analyze: float = 114.0
    #: Per-chunk queue handoff (push + pop), lock-free.
    chunk_handoff: float = 200.0
    #: Producer-side cost of one control event (loop marker, alloc/free,
    #: lock): recorded once, into the loop index — far cheaper than an
    #: access, and never shipped to a worker.
    control_event: float = 5.0
    #: Extra per-access cost of the lock-based queue variant (fine-grained
    #: synchronization of the shared buffer that chunked lock-free queues
    #: eliminate).
    lock_tax_per_access: float = 40.0
    #: Per-entry cost of the final merge of duplicate-free local maps.
    merge_per_entry: float = 50.0
    #: Fixed cost of one rebalancing round (quiesce handled separately by
    #: the pipeline replay) plus per-migrated-address signature move.
    rebalance_fixed: float = 50_000.0
    migrate_per_address: float = 500.0
    #: Multi-threaded targets: lock region around access+push (Figure 4),
    #: charged to the producer/target side per access...
    mt_capture_extra: float = 100.0
    #: ...and contention/extended-record factor on worker analysis.  The
    #: paper's two MT anchors (346x at 8T, 261x at 16T) differ by 85x of
    #: native time between the half-share and quarter-share points, which
    #: pins the parallelizable MT analysis cost at ~12x the sequential-
    #: target one: timestamp-order checking, thread-interleaving records,
    #: and the extended dependence representation all live on this path.
    mt_worker_factor: float = 12.0
    #: Coupling between producer and the critical worker: 0 = perfectly
    #: overlapped pipeline (makespan = max), 1 = fully serialized (sum).
    overlap: float = 1.0

    def with_(self, **changes: Any) -> "CostParams":
        return replace(self, **changes)
