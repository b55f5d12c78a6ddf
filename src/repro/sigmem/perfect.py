"""The collision-free "perfect signature" baseline (Section VI-A).

Each address has its own entry, so membership answers are exact and
dependences derived from it are ground truth.  The paper uses this to
quantify the FPR/FNR of the real signature (Table I); we additionally use it
as the reference engine's tracker when the chunk kernel is checked for
exactness.
"""

from __future__ import annotations

import sys
from typing import Iterator

import numpy as np

from repro.sigmem.banks import BankGeometry
from repro.sigmem.signature import AccessRecord, AccessTracker


class PerfectSignature(AccessTracker):
    """Exact per-address tracking backed by a dict.

    With a ``geometry`` the generic record-format bank protocol applies:
    exports carry every live address of the bank with its exact payload, so
    migration is lossless by construction.
    """

    def __init__(self, geometry: BankGeometry | None = None) -> None:
        self.bank_geometry = geometry
        self._table: dict[int, AccessRecord] = {}

    def insert(self, addr: int, record: AccessRecord) -> None:
        self._table[addr] = record

    def lookup(self, addr: int) -> AccessRecord | None:
        return self._table.get(addr)

    def remove(self, addr: int) -> None:
        self._table.pop(addr, None)

    def remove_range(self, lo: int, hi: int, stride: int = 8) -> None:
        if hi <= lo:
            return
        # For small frees, probing the range is cheap; for large frees it is
        # cheaper to scan the table once.  Both paths remove exactly the
        # stride-aligned addresses of the range, so the choice is purely a
        # performance one.
        n_range = -(-(hi - lo) // stride)
        if n_range <= len(self._table):
            for addr in range(lo, hi, stride):
                self._table.pop(addr, None)
        else:
            self._table = {
                a: r
                for a, r in self._table.items()
                if not (lo <= a < hi and (a - lo) % stride == 0)
            }

    def clear(self) -> None:
        self._table.clear()

    def occupied(self) -> int:
        return len(self._table)

    @property
    def memory_bytes(self) -> int:
        # dict overhead + one AccessRecord per entry; close enough for the
        # shadow-vs-signature memory comparison.
        return sys.getsizeof(self._table) + len(self._table) * 88

    def items(self) -> Iterator[tuple[int, AccessRecord]]:
        return iter(self._table.items())

    def occupied_addrs(self) -> np.ndarray:
        """Every tracked address is its own owner — exact attribution."""
        return np.fromiter(self._table.keys(), dtype=np.int64, count=len(self._table))
