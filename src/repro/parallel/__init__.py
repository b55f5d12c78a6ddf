"""The parallel profiling pipeline (Section IV, Figure 2).

The producer walks the instrumented event stream window by window and
routes it with one rule (:func:`~repro.parallel.address_map.route_window`):
each memory access goes to the worker that owns its address (per-address
redistribution overrides, then bank rules, then ``(addr >> 3) % W``), and
FREE and loop events are broadcast to every worker.  Workers run
Algorithm 1 against their private signature pair and collect dependences
into private stores; one cheap merge folds the duplicate-free local maps
together.

Pieces:

* :class:`SpscRingQueue` — the lock-free single-producer/single-consumer
  ring buffer (and :class:`LockedQueue`, the mutex ablation of Figure 5),
* :class:`Chunk` / :class:`ChunkPool` — recycled index buffers,
* :class:`AddressMap` — modulo distribution + redistribution overrides,
* :class:`AccessStats` / :class:`Rebalancer` — hot-address tracking and the
  top-ten redistribution policy (Section IV-A),
* :class:`Worker` — chunk consumer running the vectorized chunk kernel (or
  the event-at-a-time reference engine) on private trackers,
* :class:`ParallelProfiler` — the pipeline over one of two transports:
  ``deterministic`` (in-process queues, drained inline) or ``processes``
  (worker processes over a shared-memory trace).
"""

from repro.parallel.queues import LockedQueue, SpscRingQueue
from repro.parallel.chunks import Chunk, ChunkPool
from repro.parallel.address_map import AddressMap
from repro.parallel.balance import AccessStats, Rebalancer
from repro.parallel.worker import Worker
from repro.parallel.engine import ParallelProfiler, ParallelRunInfo

__all__ = [
    "AccessStats",
    "AddressMap",
    "Chunk",
    "ChunkPool",
    "LockedQueue",
    "ParallelProfiler",
    "ParallelRunInfo",
    "Rebalancer",
    "SpscRingQueue",
    "Worker",
]
