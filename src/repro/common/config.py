"""Profiler configuration.

One frozen dataclass carries every knob the paper exposes:

* signature sizing (Section III-B; Table I sweeps the slot count),
* worker-thread count and chunk size of the parallel pipeline (Section IV),
* load-balancing cadence (Section IV-A: re-check every 50 000 chunks,
  redistribute the top ten hottest addresses),
* multi-threaded-target options (Section V: timestamps and race flagging).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from repro.common.errors import ProfilerError

#: Paper default: access statistics are evaluated every 50 000 chunks.
DEFAULT_REBALANCE_INTERVAL_CHUNKS = 50_000

#: Paper default: the ten most heavily accessed addresses are kept balanced.
DEFAULT_HOT_ADDRESS_COUNT = 10


@dataclass(frozen=True, slots=True)
class ProfilerConfig:
    """Configuration of a profiling run.

    Attributes
    ----------
    signature_slots:
        Total number of slots across *all* signatures of one kind.  Each
        pipeline worker gets ``signature_slots // workers`` slots,
        mirroring the paper's 6.25e6-slots-per-thread setup that aggregates
        to 1e8 slots over 16 threads.
    perfect_signature:
        Use the exact (collision-free) signature instead of the fixed-size
        array.  This is the paper's baseline for measuring FPR/FNR.
    workers:
        Worker count of the pipeline.
        :func:`~repro.core.profiler.profile_trace` ignores it: it runs the
        pipeline at one worker, which owns every address.
    chunk_size:
        Number of trace rows per chunk a worker runs through its kernel
        (a window's full chunks go through in one kernel call).
    queue_depth:
        Capacity (in windows) of each worker process's task queue, and the
        per-worker chunk queue the cost model replays the run through.
    rebalance_interval_chunks / hot_addresses:
        Load-balancing cadence and the number of hot addresses kept evenly
        distributed (Section IV-A).
    track_lifetime:
        Enable variable-lifetime analysis: free()d address ranges are removed
        from the signatures to avoid stale cross-lifetime dependences.
    multithreaded_target:
        Record thread ids in dependence endpoints and check push timestamps
        for reversals (potential data races, Section V-B).
    ignore_rar:
        The paper ignores read-after-read dependences; kept as a switch so
        tests can document the behaviour.
    hash_salt:
        Salt for the signature hash function; lets tests explore collision
        patterns deterministically.
    heatmap:
        Maintain per-worker address heatmaps (log2-bucketed read/write/
        conflict/occupancy histograms — the memory observability plane,
        see :mod:`repro.obs.heatmap`).  On by default.  Every pipeline run
        records them: a run given no metrics registry records its heat
        into its private one.
    signature_banks:
        Number of per-address-range banks each worker's signature memory is
        sharded into.  ``0`` (default) keeps the classic unbanked layout —
        bit-for-bit the historical hashing and rebalance behaviour.  With
        banks on, the load balancer routes and migrates whole banks *with*
        their signature state (see :mod:`repro.sigmem.banks`), eliminating
        the post-rebalance cold-signature burst.  Banks stripe the address
        space in 4 KiB ranges: bank index is ``(addr >> 12) %
        signature_banks``.
    """

    signature_slots: int = 1_000_000
    perfect_signature: bool = False
    workers: int = 1
    chunk_size: int = 4096
    queue_depth: int = 32
    rebalance_interval_chunks: int = DEFAULT_REBALANCE_INTERVAL_CHUNKS
    hot_addresses: int = DEFAULT_HOT_ADDRESS_COUNT
    track_lifetime: bool = True
    multithreaded_target: bool = False
    ignore_rar: bool = True
    hash_salt: int = 0
    heatmap: bool = True
    signature_banks: int = 0

    def __post_init__(self) -> None:
        if self.signature_slots <= 0:
            raise ProfilerError("signature_slots must be positive")
        if self.workers <= 0:
            raise ProfilerError("workers must be positive")
        if self.chunk_size <= 0:
            raise ProfilerError("chunk_size must be positive")
        if self.queue_depth <= 0:
            raise ProfilerError("queue_depth must be positive")
        if self.rebalance_interval_chunks <= 0:
            raise ProfilerError("rebalance_interval_chunks must be positive")
        if self.hot_addresses < 0:
            raise ProfilerError("hot_addresses must be non-negative")
        if self.signature_banks < 0:
            raise ProfilerError("signature_banks must be non-negative")

    @property
    def slots_per_worker(self) -> int:
        """Signature slots given to each worker's read/write signature pair."""
        return max(1, self.signature_slots // self.workers)

    @property
    def bank_geometry(self):
        """The run's shared :class:`~repro.sigmem.BankGeometry`, or ``None``
        when banking is off (``signature_banks == 0``)."""
        if self.signature_banks == 0:
            return None
        from repro.sigmem.banks import BankGeometry

        return BankGeometry(self.signature_banks)

    def with_(self, **changes: Any) -> "ProfilerConfig":
        """Return a copy with ``changes`` applied (frozen-dataclass update)."""
        return replace(self, **changes)
