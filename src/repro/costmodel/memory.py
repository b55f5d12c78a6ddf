"""Memory model for Figures 7 and 8.

The profiler's resident memory decomposes into

* **signatures** — configured: ``2 x slots_per_worker x slot_bytes`` per
  worker (the paper's accounting uses 4-byte slots; ours carry a wider
  payload, selectable via ``slot_bytes``),
* **queues/chunks** — modelled from the run's measured chunk log: the peak
  number of chunks buffered in the paper's per-worker queues
  (:func:`queued_chunks`) times the bytes one buffered access record
  occupies (back-pressure from slow workers shows up here, which is what
  makes md5\\@16T the paper's outlier),
* **dependence store** — measured entry count times a per-entry estimate,
* **target footprint** — the traced program's own data (unique addresses x
  element size) plus interpreter constant,
* **MT extras** — thread-interleaving records (lock events, timestamps) and
  the wider dependence representation, only for multi-threaded targets.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.common.config import ProfilerConfig
from repro.parallel.engine import ParallelRunInfo

#: Paper-style signature accounting: each slot stores a source line.
PAPER_SLOT_BYTES = 4
#: One buffered access record in a chunk: address + location + var + thread.
ACCESS_RECORD_BYTES = 24
#: One merged dependence entry in a map (key + record + container overhead).
DEP_ENTRY_BYTES = 96
#: Fixed runtime footprint (code, allocator, bookkeeping).
BASE_BYTES = 8 << 20


@dataclass
class MemoryEstimate:
    """Byte-level breakdown of profiler memory."""

    signatures: int
    queues: int
    dep_store: int
    target: int
    mt_extra: int
    base: int

    @property
    def total(self) -> int:
        return (
            self.signatures
            + self.queues
            + self.dep_store
            + self.target
            + self.mt_extra
            + self.base
        )

    @property
    def total_mb(self) -> float:
        return self.total / (1 << 20)


def queued_chunks(
    chunk_log: list[tuple[int, int]], n_workers: int, queue_depth: int
) -> int:
    """Peak chunk buffers the paper's pipeline holds for ``chunk_log``.

    Each worker has one chunk open for filling, and its queue keeps up to
    ``queue_depth`` pushed chunks until a rebalance quiesce (a ``(-1, 0)``
    marker) or the end of the run drains every queue.  Recycled buffers are
    reused, so the peak is ``n_workers`` plus, over the rebalance epochs,
    the largest ``sum over workers of min(chunks pushed, queue_depth)``.
    """
    epochs = [Counter()]
    for w, _rows in chunk_log:
        if w < 0:
            epochs.append(Counter())
        else:
            epochs[-1][w] += 1
    return n_workers + max(
        sum(min(n, queue_depth) for n in epoch.values()) for epoch in epochs
    )


def estimate_memory(
    config: ProfilerConfig,
    info: ParallelRunInfo | None,
    store_entries: int,
    n_unique_addresses: int,
    n_sync_events: int = 0,
    mt_target: bool = False,
    slot_bytes: int = PAPER_SLOT_BYTES,
) -> MemoryEstimate:
    """Combine configured signature sizes with measured run volumes.

    ``info=None`` models the serial profiler (no queues or chunk buffers).
    """
    signatures = 2 * config.slots_per_worker * slot_bytes * config.workers
    if info is not None:
        chunks = queued_chunks(info.chunk_log, config.workers, config.queue_depth)
        queues = chunks * config.chunk_size * ACCESS_RECORD_BYTES
    else:
        queues = 0
    dep_store = store_entries * DEP_ENTRY_BYTES
    target = n_unique_addresses * 8 * 2  # data + page/alloc overhead
    mt_extra = 0
    if mt_target:
        # Interleaving records (lock events, per-access timestamps kept until
        # push) plus the extended thread-id'd dependence representation.
        mt_extra = n_sync_events * 48 + dep_store // 4 + queues // 2
    return MemoryEstimate(
        signatures=signatures,
        queues=queues,
        dep_store=dep_store,
        target=target,
        mt_extra=mt_extra,
        base=BASE_BYTES,
    )
