"""Address-to-worker assignment and window routing.

Equation 1 of the paper: ``worker = address % W``.  The load balancer may
*redistribute* individual hot addresses; redistribution rules live in a
small override map consulted before the modulo (they "have higher priority
than the modulo function").

:func:`route_window` is the pipeline's single routing rule: both the
in-process producer and every worker process call it on the same trace
window, so the rows a worker receives cannot depend on the transport.  A
worker receives only rows it reads: the accesses it owns and every FREE.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.reference import ACCESS_GRANULARITY
from repro.trace import FREE, READ, WRITE, TraceBatch

#: The modulo runs over access-granularity indices: ``addr >> 3`` for the
#: 8-byte granularity the trackers use.
GRANULARITY_SHIFT = ACCESS_GRANULARITY.bit_length() - 1


class AddressMap:
    """Modulo distribution with redistribution overrides.

    The modulo is taken over the *access-granularity index*
    (``addr >> GRANULARITY_SHIFT``), not the raw byte address: MiniVM
    addresses are all 8-byte aligned, so a raw ``addr % W`` would collapse
    onto a single worker whenever ``W`` divides 8.  The paper's byte-level
    modulo works there because C accesses have mixed alignment; ours is
    the same distribution applied at the granularity the profiler actually
    tracks.
    """

    def __init__(self, n_workers: int) -> None:
        if n_workers <= 0:
            raise ValueError("n_workers must be positive")
        self.n_workers = n_workers
        self._overrides: dict[int, int] = {}

    def worker_of(self, addr: int) -> int:
        w = self._overrides.get(addr)
        if w is not None:
            return w
        return (addr >> GRANULARITY_SHIFT) % self.n_workers

    def workers_of(self, addrs: np.ndarray) -> np.ndarray:
        """Vectorized assignment for an address column."""
        out = ((addrs >> GRANULARITY_SHIFT) % self.n_workers).astype(np.int64)
        if self._overrides:
            # The override table holds only the handful of redistributed hot
            # addresses, so a per-entry masked write is cheap.
            for addr, w in self._overrides.items():
                out[addrs == addr] = w
        return out

    def redistribute(self, addr: int, worker: int) -> int:
        """Install an override; returns the worker previously responsible."""
        if not 0 <= worker < self.n_workers:
            raise ValueError(f"worker {worker} out of range")
        old = self.worker_of(addr)
        if worker == (addr >> GRANULARITY_SHIFT) % self.n_workers:
            self._overrides.pop(addr, None)  # back to the natural home
        else:
            self._overrides[addr] = worker
        return old

    @property
    def n_overrides(self) -> int:
        return len(self._overrides)


@dataclass(frozen=True)
class WindowRoute:
    """Routing of the trace rows ``[start, start + len(addr))``."""

    start: int
    #: The window's address column.
    addr: np.ndarray
    #: READ/WRITE rows: each goes to the one worker owning its address.
    access: np.ndarray
    #: FREE rows, which every worker gets: a freed range may span owners.
    broadcast: np.ndarray
    #: Owning worker of every row's address.
    owner: np.ndarray

    def rows_for(self, worker: int) -> np.ndarray:
        """Trace rows ``worker`` processes, in stream order."""
        mask = (self.access & (self.owner == worker)) | self.broadcast
        return np.flatnonzero(mask) + self.start


def route_window(batch: TraceBatch, start: int, end: int, amap: AddressMap) -> WindowRoute:
    """Route one trace window under ``amap``'s current rules.

    Workers get only the rows they read: accesses and FREEs.  Loop
    markers and the other control events go nowhere; the kernel reads each
    access's loop state from the run's one loop index.  Masks cover one
    window, never the full trace: with an mmap-spilled batch the trace may
    dwarf RAM, and trace-length masks would defeat the bounded-memory claim.
    """
    kind = np.asarray(batch.kind[start:end])
    addr = np.asarray(batch.addr[start:end])
    return WindowRoute(
        start=start,
        addr=addr,
        access=(kind == READ) | (kind == WRITE),
        broadcast=kind == FREE,
        owner=amap.workers_of(addr),
    )
