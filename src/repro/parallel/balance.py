"""Load balancing (Section IV-A).

Memory addresses distribute evenly under the modulo map, but access *counts*
do not: a few addresses soak up millions of accesses.  The paper therefore
keeps per-address access statistics and, at a fixed cadence (every 50 000
chunks), checks whether the hottest ten addresses are spread evenly over the
workers; if not, it installs redistribution rules and migrates the affected
signature state.

:class:`AccessStats` keeps the statistics as sorted numpy columns.  A
routed window costs one ``np.unique`` and a buffer append; the buffer
folds into the columns only when the balancer reads them or the buffer
passes a size bound, so a run pays for the fold at the check cadence, not
per window.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.obs.metrics import MetricsRegistry
from repro.parallel.address_map import AddressMap

#: Per-address counts saturate here instead of growing without bound: a
#: synthetic replay can revisit one address 1e8+ times per round, and a
#: count pinned at int64-max still sorts hottest-first while staying
#: representable in every downstream surface (numpy arrays, JSON, the
#: registry state shipped across processes).
COUNT_SATURATION = (1 << 63) - 1

#: Buffered (address, count) entries past which :class:`AccessStats` folds
#: its buffer into the sorted columns, so the buffer's memory stays bounded
#: between two reads.
FOLD_ENTRIES = 1 << 18


class AccessStats:
    """Per-address dynamic access counts (the paper's statistics map).

    The counts live in two numpy columns, addresses sorted ascending and
    their counts.  A window's counts go into a buffer first; the buffer
    folds into the columns once it holds more than :data:`FOLD_ENTRIES`
    entries, and before any read (:meth:`hottest`, :meth:`count_of`,
    :attr:`n_addresses`).  The paper reads its statistics only at a
    rebalance check, so most windows pay for one ``np.unique`` and an
    append.
    """

    def __init__(self) -> None:
        self._addr = np.empty(0, dtype=np.int64)
        self._count = np.empty(0, dtype=np.int64)
        self._buf: list[tuple[np.ndarray, np.ndarray]] = []
        self._buf_entries = 0
        self.total = 0

    def record_many(self, addrs: np.ndarray) -> None:
        """Bulk update from one routed window's access addresses."""
        self.record_counts(*np.unique(addrs, return_counts=True))

    def record_counts(self, addrs: np.ndarray, counts: np.ndarray) -> None:
        """Add ``counts[i]`` accesses to each of the distinct ``addrs``."""
        counts = np.asarray(counts, dtype=np.int64)
        self._buf.append((np.asarray(addrs, dtype=np.int64), counts))
        self._buf_entries += len(counts)
        self.total = min(self.total + _exact_sum(counts), COUNT_SATURATION)
        if self._buf_entries > FOLD_ENTRIES:
            self._fold()

    def _fold(self) -> None:
        """Merge the buffered windows into the sorted columns."""
        if not self._buf:
            return
        addr = np.concatenate([self._addr] + [a for a, _ in self._buf])
        count = np.concatenate([self._count] + [c for _, c in self._buf])
        self._buf = []
        self._buf_entries = 0
        if not len(addr):
            return
        # The pieces are sorted runs, which a stable (merging) sort joins
        # in about one pass each.
        order = np.argsort(addr, kind="stable")
        addr = addr[order]
        count = count[order]
        starts = np.flatnonzero(np.concatenate(([True], addr[1:] != addr[:-1])))
        self._addr = addr[starts]
        self._count = _saturating_reduceat(count, starts)

    def hottest(self, k: int) -> list[tuple[int, int]]:
        """Top-k (address, count), hottest first, address as tie-break.

        One selection under the full ``(-count, addr)`` order: the k-th
        largest count is the threshold, and of the addresses tied at it
        the smallest win (the address column is sorted), so the
        redistribution is deterministic.
        """
        if k <= 0:
            return []
        self._fold()
        addr, count = self._addr, self._count
        if k < len(count):
            threshold = np.partition(count, len(count) - k)[len(count) - k]
            above = np.flatnonzero(count > threshold)
            tied = np.flatnonzero(count == threshold)[: k - len(above)]
            pick = np.concatenate((above, tied))
            addr, count = addr[pick], count[pick]
        order = np.lexsort((addr, -count))
        return list(zip(addr[order].tolist(), count[order].tolist()))

    def count_of(self, addr: int) -> int:
        self._fold()
        i = int(np.searchsorted(self._addr, addr))
        if i < len(self._addr) and self._addr[i] == addr:
            return int(self._count[i])
        return 0

    @property
    def n_addresses(self) -> int:
        self._fold()
        return len(self._addr)


def _exact_sum(counts: np.ndarray) -> int:
    """Sum of non-negative int64 ``counts`` as a Python int, never wrapped."""
    if len(counts) == 0:
        return 0
    if int(counts.max()) <= COUNT_SATURATION // len(counts):
        return int(counts.sum())
    return sum(counts.tolist())


def _saturating_reduceat(counts: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Per-group sums of non-negative int64 ``counts`` (groups begin at
    ``starts``), each pinned at :data:`COUNT_SATURATION` instead of
    wrapping."""
    if int(counts.max()) <= COUNT_SATURATION // len(counts):
        return np.add.reduceat(counts, starts)
    # Some sum may pass int64: add exactly in Python ints, then pin.
    sums = np.add.reduceat(counts.astype(object), starts)
    return np.minimum(sums, COUNT_SATURATION).astype(np.int64)


@dataclass
class RebalanceDecision:
    """One rebalancing round's outcome."""

    moves: list[tuple[int, int, int]] = field(default_factory=list)  # (addr, old, new)

    @property
    def n_moves(self) -> int:
        return len(self.moves)


class Rebalancer:
    """Implements the top-k even-spread policy over an :class:`AddressMap`.

    With a :class:`~repro.obs.metrics.MetricsRegistry` attached, every
    round increments the ``rebalance.rounds``/``rebalance.moves`` counters
    and emits one ``rebalance`` event carrying the observed imbalance and
    the number of migrated addresses.

    Independently of the registry, every :meth:`rebalance` call appends one
    entry to :attr:`audit` — the decision's full paper trail: before/after
    hot-load imbalance ratio, the per-worker hot load on both sides of the
    move, and the migrated addresses.  The pipeline threads the audit into
    :class:`~repro.parallel.engine.ParallelRunInfo` and the run report's
    ``memory`` section, so every redistribution of a run is reconstructible
    after the fact.
    """

    def __init__(
        self,
        address_map: AddressMap,
        hot_addresses: int = 10,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.address_map = address_map
        self.hot_addresses = hot_addresses
        self.registry = registry
        self.rounds = 0
        #: One entry per rebalancing round (including no-move rounds).
        self.audit: list[dict[str, Any]] = []

    def imbalance(self, stats: AccessStats) -> float:
        """Max/mean ratio of per-worker *hot* load (1.0 = perfectly even)."""
        load = self._hot_load(stats)
        mean = load.mean()
        return float(load.max() / mean) if mean > 0 else 1.0

    def _hot_load(self, stats: AccessStats) -> np.ndarray:
        load = np.zeros(self.address_map.n_workers, dtype=np.float64)
        for addr, count in stats.hottest(self.hot_addresses):
            load[self.address_map.worker_of(addr)] += count
        return load

    def rebalance(self, stats: AccessStats) -> RebalanceDecision:
        """Spread the hottest addresses across workers, heaviest first.

        Greedy longest-processing-time assignment: walk the hot list in
        descending count and send each address to the currently
        least-loaded worker.  Only differences from the current map become
        redistribution rules (signature migration is expensive, so we touch
        the minimum number of addresses).
        """
        self.rounds += 1
        decision = RebalanceDecision()
        hot = stats.hottest(self.hot_addresses)
        if not hot:
            self._record_audit(decision, 1.0, 1.0, [], [])
            return decision
        load_before = self._hot_load(stats)
        imbalance_before = self._ratio(load_before)
        load = np.zeros(self.address_map.n_workers, dtype=np.float64)
        targets: list[tuple[int, int]] = []
        for addr, count in hot:
            w = int(np.argmin(load))
            load[w] += count
            targets.append((addr, w))
        for addr, w in targets:
            old = self.address_map.worker_of(addr)
            if old != w:
                self.address_map.redistribute(addr, w)
                decision.moves.append((addr, old, w))
        load_after = self._hot_load(stats)
        imbalance_after = self._ratio(load_after)
        self._record_audit(
            decision,
            imbalance_before,
            imbalance_after,
            [int(v) for v in load_before],
            [int(v) for v in load_after],
        )
        if self.registry is not None and decision.n_moves:
            self.registry.counter("rebalance.rounds").inc()
            self.registry.counter("rebalance.moves").inc(decision.n_moves)
            self.registry.emit(
                {
                    "type": "rebalance",
                    "round": self.rounds,
                    "moves": decision.n_moves,
                    "imbalance": imbalance_after,
                    "imbalance_before": imbalance_before,
                    "imbalance_after": imbalance_after,
                    "hot_load": [int(v) for v in load_after],
                }
            )
            tracer = self.registry.tracer
            if tracer.enabled:
                tracer.instant(
                    "rebalance",
                    round=self.rounds,
                    moves=decision.n_moves,
                    imbalance_before=imbalance_before,
                    imbalance_after=imbalance_after,
                    # Cap the per-event payload; a pathological round could
                    # migrate thousands of addresses.
                    migrated=[a for a, _, _ in decision.moves[:32]],
                )
        return decision

    def _ratio(self, load: np.ndarray) -> float:
        mean = load.mean()
        return float(load.max() / mean) if mean > 0 else 1.0

    def _record_audit(
        self,
        decision: RebalanceDecision,
        imbalance_before: float,
        imbalance_after: float,
        hot_load_before: list[int],
        hot_load_after: list[int],
    ) -> None:
        self.audit.append(
            {
                "round": self.rounds,
                "n_moves": decision.n_moves,
                "moves": [
                    {"addr": a, "from": old, "to": new}
                    for a, old, new in decision.moves
                ],
                "imbalance_before": imbalance_before,
                "imbalance_after": imbalance_after,
                "hot_load_before": hot_load_before,
                "hot_load_after": hot_load_after,
            }
        )
