"""Dependence provenance — *why is this dependence in the output?*

Every merged dependence record the profiler reports is the survivor of
potentially millions of runtime instances, observed by some worker, in some
chunk, built from some signature slot.  The provenance layer keeps exactly
that attribution alongside the dependence store:

* which worker(s) discovered the dependence,
* the first/last chunk index and first/last sink-access timestamp of the
  observation window,
* how many instances were folded into the record,
* a ``suspect_fp`` flag raised when the *source* signature slot had a hash
  collision or eviction — the Eq. 2 false-positive mechanism of §III-B —
  plus an optional cross-check against a perfect (collision-free) oracle
  run that settles whether the record is actually spurious.

The collector is keyed by the (hashable) dependence record itself, so
per-worker collectors fold together at merge time exactly like the
dependence stores they annotate.  This module stays import-clean of the
profiler (the oracle check imports lazily), matching the rest of
:mod:`repro.obs`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Hashable, Iterator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core imports obs)
    from repro.common.config import ProfilerConfig
    from repro.core.deps import Dependence
    from repro.trace import TraceBatch


class ProvenanceRecord:
    """Attribution of one merged dependence record."""

    __slots__ = (
        "workers",
        "first_chunk",
        "last_chunk",
        "first_ts",
        "last_ts",
        "count",
        "suspect_fp",
        "oracle_spurious",
    )

    def __init__(
        self,
        worker: int,
        chunk: int,
        ts: int,
        suspect: bool,
        count: int = 1,
        last_ts: int | None = None,
        last_chunk: int | None = None,
    ) -> None:
        self.workers: set[int] = {worker}
        self.first_chunk = chunk
        self.last_chunk = chunk if last_chunk is None else last_chunk
        self.first_ts = ts
        self.last_ts = ts if last_ts is None else last_ts
        self.count = count
        self.suspect_fp = suspect
        #: ``None`` until an oracle cross-check runs; then True if the
        #: perfect run never produced this record (a confirmed false
        #: positive) or False if the oracle reproduces it.
        self.oracle_spurious: bool | None = None

    def note(self, worker: int, chunk: int, ts: int, suspect: bool) -> None:
        self.workers.add(worker)
        if chunk < self.first_chunk:
            self.first_chunk = chunk
        if chunk > self.last_chunk:
            self.last_chunk = chunk
        if ts < self.first_ts:
            self.first_ts = ts
        if ts > self.last_ts:
            self.last_ts = ts
        self.count += 1
        self.suspect_fp = self.suspect_fp or suspect

    def fold(self, other: "ProvenanceRecord") -> None:
        """Merge another record for the same dependence (pipeline merge)."""
        self.workers |= other.workers
        self.first_chunk = min(self.first_chunk, other.first_chunk)
        self.last_chunk = max(self.last_chunk, other.last_chunk)
        self.first_ts = min(self.first_ts, other.first_ts)
        self.last_ts = max(self.last_ts, other.last_ts)
        self.count += other.count
        self.suspect_fp = self.suspect_fp or other.suspect_fp
        if other.oracle_spurious is not None:
            self.oracle_spurious = other.oracle_spurious

    def to_dict(self) -> dict[str, Any]:
        return {
            "workers": sorted(self.workers),
            "chunks": [self.first_chunk, self.last_chunk],
            "ts": [self.first_ts, self.last_ts],
            "count": self.count,
            "suspect_fp": self.suspect_fp,
            "oracle_spurious": self.oracle_spurious,
        }

    def __repr__(self) -> str:
        return (
            f"ProvenanceRecord(workers={sorted(self.workers)}, "
            f"chunks={self.first_chunk}..{self.last_chunk}, "
            f"ts={self.first_ts}..{self.last_ts}, count={self.count}, "
            f"suspect_fp={self.suspect_fp})"
        )


class ProvenanceCollector:
    """Per-worker (and merged) provenance map, keyed by dependence record.

    The reference engine calls :meth:`note` once per dependence
    *instance*, attributed to :attr:`chunk`, which the code feeding it
    sets before each chunk.  The vectorized chunk kernel calls :meth:`note_group` once
    per merged record of a kernel call, with the record's first and last
    chunk: a call may cover many pipeline chunks.
    """

    def __init__(self, worker: int = 0) -> None:
        self.worker = worker
        #: Sequence number of the chunk :meth:`note` attributes to.
        self.chunk = -1
        self.records: dict[Hashable, ProvenanceRecord] = {}

    def note(self, dep: "Dependence", ts: int, suspect: bool = False) -> None:
        rec = self.records.get(dep)
        if rec is None:
            self.records[dep] = ProvenanceRecord(self.worker, self.chunk, ts, suspect)
        else:
            rec.note(self.worker, self.chunk, ts, suspect)

    def note_group(
        self,
        dep: "Dependence",
        count: int,
        first_ts: int,
        last_ts: int,
        suspect: bool,
        first_chunk: int,
        last_chunk: int,
    ) -> None:
        """Fold ``count`` instances of ``dep`` at once: the same as ``count``
        :meth:`note` calls with sink timestamps spanning ``[first_ts,
        last_ts]`` in chunks ``first_chunk`` to ``last_chunk``, any of them
        ``suspect``."""
        rec = ProvenanceRecord(
            self.worker,
            first_chunk,
            first_ts,
            suspect,
            count=count,
            last_ts=last_ts,
            last_chunk=last_chunk,
        )
        mine = self.records.setdefault(dep, rec)
        if mine is not rec:
            mine.fold(rec)

    def merge(self, other: "ProvenanceCollector") -> None:
        """Fold another collector in (the pipeline's merge phase)."""
        for dep, rec in other.records.items():
            mine = self.records.get(dep)
            if mine is None:
                # Records are mutable; keep merge cheap by adopting the
                # other collector's record (collectors are merged exactly
                # once, at the end of the run).
                self.records[dep] = rec
            else:
                mine.fold(rec)

    def get(self, dep: "Dependence") -> ProvenanceRecord | None:
        return self.records.get(dep)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[tuple["Dependence", ProvenanceRecord]]:
        return iter(self.records.items())

    @property
    def n_suspect(self) -> int:
        return sum(1 for r in self.records.values() if r.suspect_fp)

    @property
    def n_oracle_spurious(self) -> int:
        return sum(1 for r in self.records.values() if r.oracle_spurious)

    def to_list(self) -> list[dict[str, Any]]:
        """JSON-ready rows, deterministically ordered."""
        rows = []
        for dep, rec in self.records.items():
            row = dep.to_dict() if hasattr(dep, "to_dict") else {"dep": repr(dep)}
            row["provenance"] = rec.to_dict()
            rows.append(row)
        rows.sort(key=lambda r: json_key(r))
        return rows


def json_key(row: dict[str, Any]) -> tuple:
    """Sort key over serialized provenance rows.

    It covers every field of the dependence record, so the order of the
    rows never depends on the order the records were collected in.
    """
    return (
        row.get("sink_loc", 0),
        row.get("sink_tid", 0),
        row.get("type", ""),
        row.get("source_loc", 0),
        row.get("source_tid", 0),
        row.get("var", 0),
        sorted(row.get("carried", ())),
        row.get("race", False),
    )


def oracle_cross_check(
    provenance: ProvenanceCollector,
    batch: "TraceBatch",
    config: "ProfilerConfig",
) -> int:
    """Settle ``suspect_fp`` flags against a perfect-signature oracle run.

    Re-profiles ``batch`` with the collision-free tracker (the
    :mod:`repro.sigmem` perfect/shadow oracle the paper uses for its
    FPR/FNR baseline), then marks every provenance record whose dependence
    the oracle never produced as ``oracle_spurious=True`` — a *confirmed*
    Eq. 2 hash-collision false positive — and the rest ``False``.

    Returns the number of confirmed-spurious records.  Costs one extra
    profiling pass; only ever run it on demand.
    """
    from repro.core.profiler import profile_trace  # local: avoid obs->core cycle

    oracle_result = profile_trace(batch, config.with_(perfect_signature=True))
    truth = oracle_result.store.as_set(with_tids=True, with_carried=True)
    spurious = 0
    for dep, rec in provenance.records.items():
        rec.oracle_spurious = dep.projected() not in truth
        if rec.oracle_spurious:
            spurious += 1
    return spurious
