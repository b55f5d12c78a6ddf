"""Address heatmaps — where in the address space does the profiler hurt?

The paper's §IV-A load balancer already proves the point that access *heat*
is concentrated: a handful of addresses soak up most of the traffic.  This
module makes that concentration observable.  An :class:`AddressHeatmap`
maintains bounded, log2-bucketed per-address-range histograms — reads,
writes, signature-conflict evictions, and end-of-run signature occupancy —
per worker, stored as ordinary registry :class:`~repro.obs.metrics.Histogram`
instruments.  Because the heat series are registry-native, everything the
metrics plane already does works unchanged: processes-mode workers merge
via :meth:`~repro.obs.metrics.MetricsRegistry.merge_state`, the live
telemetry stream carries bucket-count deltas, ``/metrics`` exports them as
Prometheus histograms, and the run report snapshots them.

Bucketing is fixed (not data-dependent) so merges can never hit a layout
mismatch: bucket ``0`` covers addresses ``[0, 1]``, bucket ``i`` covers
``(2^(i-1), 2^i]`` for ``i < 63``, and the final bucket is the ``> 2^62``
overflow — 64 buckets total, enough to span any 64-bit address space at
power-of-two granularity.  Bucket membership is computed with an integer
``searchsorted`` (never through float conversion), so an address lands in
the same bucket on every path, which is what makes the
deterministic-vs-processes differential test bit-for-bit.

The ``sum`` field of the heat histograms is deliberately left at zero:
summing addresses is meaningless, and a zero sum keeps cross-mode
comparisons exact (float accumulation order would otherwise leak into the
merged state).

Consumption surfaces: :func:`heatmap_summary` decodes the registry back
into one JSON document (``ddprof.heatmap/1``) for the run report's
``memory`` section, and :func:`heatmap_dict` wraps it for the ``/heatmap``
HTTP endpoint (always a valid document, even before any heat was recorded).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.obs.metrics import Histogram, MetricsRegistry

SCHEMA = "ddprof.heatmap/1"

#: Number of power-of-two upper bounds; +1 overflow bucket = 64 buckets.
N_BOUNDS = 63

#: Histogram bucket upper bounds: 2^0 .. 2^62.  Powers of two are exact in
#: float64, so the registry's float bucket layout is lossless.
HEAT_BOUNDS: tuple[float, ...] = tuple(float(1 << i) for i in range(N_BOUNDS))

#: The same bounds as int64, for exact integer bucketing via searchsorted.
_INT_BOUNDS = np.array([1 << i for i in range(N_BOUNDS)], dtype=np.int64)

#: Heat histogram families this module owns in the registry.
HEAT_FAMILIES = ("heat.reads", "heat.writes", "heat.conflicts", "heat.occupancy")

#: Bank-occupancy family (sharded signature memory): bucket *indices* are
#: bank numbers, not address bounds — counts[i] accumulates the live-entry
#: count of bank ``i`` at publish time.  Kept out of ``HEAT_FAMILIES``
#: because its bucket layout is ``n_banks``-dependent, not the fixed
#: 64-bucket address grid.
BANK_FAMILY = "heat.banks"


def bucket_of(addr: int) -> int:
    """Bucket index of one address (0..63); matches ``Histogram.observe``
    semantics (first bucket whose upper bound is >= the address)."""
    return int(np.searchsorted(_INT_BOUNDS, addr, side="left"))


def bucket_range(i: int) -> tuple[int, int | None]:
    """Inclusive integer address range ``(lo, hi)`` of bucket ``i``;
    ``hi=None`` for the overflow bucket."""
    if i <= 0:
        return (0, 1)
    if i >= N_BOUNDS:
        return ((1 << (N_BOUNDS - 1)) + 1, None)
    return ((1 << (i - 1)) + 1, 1 << i)


def _bulk_record(hist: Histogram, addrs: np.ndarray) -> None:
    """Fold a batch of addresses into ``hist`` bucket-wise.

    One ``searchsorted`` + one ``bincount`` per chunk, then a sparse add
    into the histogram's plain-int counts (so the registry state stays
    JSON-clean — no numpy scalars leak into ``state()``).
    """
    n = int(len(addrs))
    if n == 0:
        return
    idx = np.searchsorted(_INT_BOUNDS, addrs, side="left")
    binc = np.bincount(idx, minlength=N_BOUNDS + 1)
    counts = hist.counts
    for i in np.flatnonzero(binc).tolist():
        counts[i] += int(binc[i])
    hist.count += n  # sum stays 0.0 by design (see module docstring)


class AddressHeatmap:
    """Per-worker address-heat recorder over registry histograms.

    One instance per :class:`~repro.parallel.worker.Worker`.  The read and
    write series are fed from the worker's chunk kernel
    (:meth:`record_accesses`), the conflict series from the signature's
    eviction hook (:meth:`record_conflicts` for the slot planes, one bulk
    update per chunk; :meth:`record_conflict` for the scalar
    :class:`~repro.sigmem.ArraySignature`) — wired so it fires on *exactly*
    the events the ``sigmem.evictions`` counter counts, which is what makes
    the bucket sums reconcile with the suspect-FP total — and the occupancy
    series once at publish time (:meth:`record_occupancy`).
    """

    def __init__(self, registry: MetricsRegistry, worker: int) -> None:
        self.registry = registry
        self.worker = worker
        self._reads = registry.histogram(
            "heat.reads", buckets=HEAT_BOUNDS, worker=worker
        )
        self._writes = registry.histogram(
            "heat.writes", buckets=HEAT_BOUNDS, worker=worker
        )
        self._conflicts = registry.histogram(
            "heat.conflicts", buckets=HEAT_BOUNDS, worker=worker
        )

    # -- hot-path recording -------------------------------------------------
    def record_accesses(self, addrs: np.ndarray, is_write: np.ndarray) -> None:
        """Record one chunk's access addresses, split by the write mask.

        One ``searchsorted`` + one ``bincount`` cover *both* series: write
        rows are offset into the upper half of a doubled bucket index, so
        the read/write split costs no second pass over the chunk.
        """
        n = int(len(addrs))
        if n == 0:
            return
        idx = np.searchsorted(_INT_BOUNDS, addrs, side="left")
        idx = idx + is_write * (N_BOUNDS + 1)
        binc = np.bincount(idx, minlength=2 * (N_BOUNDS + 1))
        n_writes = int(np.count_nonzero(is_write))
        for hist, half, total in (
            (self._reads, binc[: N_BOUNDS + 1], n - n_writes),
            (self._writes, binc[N_BOUNDS + 1 :], n_writes),
        ):
            counts = hist.counts
            for i in np.flatnonzero(half).tolist():
                counts[i] += int(half[i])
            hist.count += total  # sum stays 0.0 by design

    def record_conflict(self, addr: int) -> None:
        """One signature hash-conflict eviction caused by inserting ``addr``."""
        self._conflicts.counts[bucket_of(addr)] += 1
        self._conflicts.count += 1

    def record_conflicts(self, addrs: np.ndarray) -> None:
        """Hash-conflict evictions caused by inserting each of ``addrs``."""
        _bulk_record(self._conflicts, addrs)

    # -- publish-time recording --------------------------------------------
    def record_occupancy(self, addrs: np.ndarray, kind: str) -> None:
        """Attribute the tracker's occupied entries (owner addresses) to
        buckets.  Called once per run at publish time, per signature kind."""
        hist = self.registry.histogram(
            "heat.occupancy", buckets=HEAT_BOUNDS, worker=self.worker, kind=kind
        )
        _bulk_record(hist, np.asarray(addrs, dtype=np.int64))

    def record_bank_occupancy(self, occupancy: np.ndarray, kind: str) -> None:
        """Publish a banked tracker's per-bank live-entry counts.

        ``occupancy[i]`` is the live-entry count of bank ``i`` (from
        :meth:`~repro.sigmem.AccessTracker.bank_occupancy`).  Stored as a
        registry histogram whose bucket bounds are the bank indices, so it
        merges additively across processes like every other heat family.
        """
        occ = np.asarray(occupancy)
        n_banks = int(len(occ))
        if n_banks == 0:
            return
        hist = self.registry.histogram(
            BANK_FAMILY,
            buckets=tuple(float(i) for i in range(n_banks)),
            worker=self.worker,
            kind=kind,
        )
        counts = hist.counts
        total = 0
        for i, c in enumerate(occ.tolist()):
            c = int(c)
            counts[i] += c
            total += c
        hist.count += total  # sum stays 0.0 by design

    # -- introspection ------------------------------------------------------
    @property
    def total_reads(self) -> int:
        return self._reads.count

    @property
    def total_writes(self) -> int:
        return self._writes.count

    @property
    def total_conflicts(self) -> int:
        return self._conflicts.count


# -- decoding (report / HTTP surfaces) --------------------------------------


def _merge_counts(total: list[int], counts: list[int]) -> None:
    for i, c in enumerate(counts):
        total[i] += int(c)


def heatmap_summary(registry: MetricsRegistry) -> dict[str, Any] | None:
    """Decode the registry's ``heat.*`` histograms into one document.

    Returns ``None`` when the run recorded no heat (heatmap disabled, or no
    registry-instrumented pipeline ran).  Like
    :func:`~repro.obs.report.liveness_summary`, this reads *only* the
    registry — whichever process recorded the heat, the merged registry is
    the single source of truth.
    """
    per_worker: dict[str, dict[str, Any]] = {}
    totals = {f.split(".", 1)[1]: [0] * (N_BOUNDS + 1) for f in HEAT_FAMILIES}
    banks_per_worker: dict[str, dict[str, list[int]]] = {}
    bank_total: list[int] = []
    found = False
    for h in registry.histograms():
        if h.name == BANK_FAMILY:
            found = True
            labels = dict(h.labels)
            w = labels.get("worker", "?")
            # Bank histograms carry one overflow slot past the bank count;
            # it is never populated (indices observe below the last bound).
            counts = [int(c) for c in h.counts[: len(h.counts) - 1]]
            banks_per_worker.setdefault(w, {})[labels.get("kind", "?")] = counts
            if len(bank_total) < len(counts):
                bank_total.extend([0] * (len(counts) - len(bank_total)))
            for i, c in enumerate(counts):
                bank_total[i] += c
            continue
        if h.name not in HEAT_FAMILIES:
            continue
        found = True
        series = h.name.split(".", 1)[1]
        labels = dict(h.labels)
        w = labels.get("worker", "?")
        wdoc = per_worker.setdefault(
            w, {"reads": None, "writes": None, "conflicts": None, "occupancy": {}}
        )
        if series == "occupancy":
            wdoc["occupancy"][labels.get("kind", "?")] = list(h.counts)
        else:
            wdoc[series] = list(h.counts)
        _merge_counts(totals[series], h.counts)
    if not found:
        return None
    hottest = []
    for i in range(N_BOUNDS + 1):
        r, w = totals["reads"][i], totals["writes"][i]
        if r + w + totals["conflicts"][i] == 0:
            continue
        lo, hi = bucket_range(i)
        hottest.append(
            {
                "bucket": i,
                "lo": lo,
                "hi": hi,
                "reads": r,
                "writes": w,
                "conflicts": totals["conflicts"][i],
                "occupancy": totals["occupancy"][i],
            }
        )
    hottest.sort(key=lambda b: (-(b["reads"] + b["writes"]), b["bucket"]))
    doc = {
        "schema": SCHEMA,
        "n_buckets": N_BOUNDS + 1,
        "bounds": [1 << i for i in range(N_BOUNDS)],
        "workers": dict(sorted(per_worker.items(), key=lambda kv: (len(kv[0]), kv[0]))),
        "totals": totals,
        "total_reads": sum(totals["reads"]),
        "total_writes": sum(totals["writes"]),
        "total_conflicts": sum(totals["conflicts"]),
        "hottest": hottest[:10],
    }
    if bank_total:
        occupied_banks = [c for c in bank_total if c]
        mean = (sum(bank_total) / len(bank_total)) if bank_total else 0.0
        doc["banks"] = {
            "n_banks": len(bank_total),
            "per_worker": dict(
                sorted(banks_per_worker.items(), key=lambda kv: (len(kv[0]), kv[0]))
            ),
            "total": bank_total,
            "occupied_banks": len(occupied_banks),
            "skew": (max(bank_total) / mean) if mean > 0 else 1.0,
        }
    return doc


def heatmap_dict(
    registry: MetricsRegistry, run_id: str | None = None
) -> dict[str, Any]:
    """The ``/heatmap`` endpoint document; always a valid ``ddprof.heatmap/1``
    object, even before any heat was recorded (empty workers, zero totals)."""
    doc = heatmap_summary(registry)
    if doc is None:
        doc = {
            "schema": SCHEMA,
            "n_buckets": N_BOUNDS + 1,
            "bounds": [1 << i for i in range(N_BOUNDS)],
            "workers": {},
            "totals": {
                f.split(".", 1)[1]: [0] * (N_BOUNDS + 1) for f in HEAT_FAMILIES
            },
            "total_reads": 0,
            "total_writes": 0,
            "total_conflicts": 0,
            "hottest": [],
        }
    doc["run_id"] = run_id if run_id is not None else registry.run_id
    return doc
