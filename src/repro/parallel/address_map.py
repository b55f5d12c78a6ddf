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

from repro.sigmem.banks import BankGeometry
from repro.trace import FREE, READ, WRITE, TraceBatch


class AddressMap:
    """Modulo distribution with redistribution overrides.

    The modulo is taken over the *access-granularity index* (address >> 3
    for the 8-byte granularity used throughout), not the raw byte address:
    MiniVM addresses are all 8-byte aligned, so a raw ``addr % W`` would
    collapse onto a single worker whenever ``W`` divides 8.  The paper's
    byte-level modulo works there because C accesses have mixed alignment;
    ours is the same distribution applied at the granularity the profiler
    actually tracks.

    With a ``bank_geometry`` (sharded signature memory) the map also keeps
    *bank rules*: whole address-range banks pinned to a worker.  Priority is
    per-address overrides, then bank rules, then the modulo — bank rules are
    how the load balancer moves a hot range together with its signature
    bank, so routing and state can never disagree.
    """

    def __init__(
        self,
        n_workers: int,
        granularity_shift: int = 3,
        bank_geometry: BankGeometry | None = None,
    ) -> None:
        if n_workers <= 0:
            raise ValueError("n_workers must be positive")
        self.n_workers = n_workers
        self.granularity_shift = granularity_shift
        self.bank_geometry = bank_geometry
        self._overrides: dict[int, int] = {}
        self._bank_rules: dict[int, int] = {}

    def worker_of(self, addr: int) -> int:
        w = self._overrides.get(addr)
        if w is not None:
            return w
        if self._bank_rules:
            assert self.bank_geometry is not None
            w = self._bank_rules.get(self.bank_geometry.bank_of(addr))
            if w is not None:
                return w
        return (addr >> self.granularity_shift) % self.n_workers

    def workers_of(self, addrs: np.ndarray) -> np.ndarray:
        """Vectorized assignment for an address column."""
        out = ((addrs >> self.granularity_shift) % self.n_workers).astype(np.int64)
        if self._bank_rules:
            assert self.bank_geometry is not None
            banks = self.bank_geometry.banks_of(addrs)
            for bank, w in self._bank_rules.items():
                out[banks == bank] = w
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
        if worker == (addr >> self.granularity_shift) % self.n_workers:
            self._overrides.pop(addr, None)  # back to the natural home
        else:
            self._overrides[addr] = worker
        return old

    def redistribute_bank(self, bank: int, worker: int) -> int | None:
        """Pin a bank to ``worker``; returns the previous rule (or ``None``
        when the bank was still modulo-spread over all workers)."""
        if self.bank_geometry is None:
            raise ValueError("address map has no bank geometry")
        if not 0 <= worker < self.n_workers:
            raise ValueError(f"worker {worker} out of range")
        if not 0 <= bank < self.bank_geometry.n_banks:
            raise ValueError(f"bank {bank} out of range")
        old = self._bank_rules.get(bank)
        self._bank_rules[bank] = worker
        return old

    def bank_rule(self, bank: int) -> int | None:
        """Current owner rule for ``bank`` (``None`` = modulo-spread)."""
        return self._bank_rules.get(bank)

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
