"""The parallel profiling pipeline (Section IV, Figure 2).

The producer walks the instrumented event stream window by window and
routes it with one rule (:func:`~repro.parallel.address_map.route_window`):
each memory access goes to the worker that owns its address (a per-address
redistribution override, else ``(addr >> 3) % W``), and each FREE goes to
every worker.  Loop markers reach no worker: the kernel reads loop state
from the run's one loop index.  Workers run Algorithm 1 against their
private signature pair and collect dependences into private stores; one
cheap merge folds the duplicate-free local maps together.

Pieces:

* :class:`AddressMap` — modulo distribution + redistribution overrides,
* :class:`AccessStats` / :class:`Rebalancer` — hot-address tracking and the
  top-ten redistribution policy (Section IV-A),
* :class:`Worker` — cuts its routed rows into chunks and runs the
  vectorized chunk kernel on private trackers,
* :class:`ParallelProfiler` — the pipeline over one of two transports:
  ``deterministic`` (workers fed in process, window by window) or
  ``processes`` (a pool of forked worker processes, reused across runs:
  :mod:`repro.parallel.pool`).
"""

from repro.parallel.address_map import AddressMap
from repro.parallel.balance import AccessStats, Rebalancer
from repro.parallel.worker import Worker
from repro.parallel.engine import ParallelProfiler, ParallelRunInfo

__all__ = [
    "AccessStats",
    "AddressMap",
    "ParallelProfiler",
    "ParallelRunInfo",
    "Rebalancer",
    "Worker",
]
