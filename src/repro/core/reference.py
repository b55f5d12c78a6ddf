"""The reference profiling engine — Algorithm 1, transcribed.

This is the executable specification: one Python loop over the event stream,
two :class:`~repro.sigmem.AccessTracker` instances (read / write), and the
exact branch structure of the paper's pseudocode:

* write to ``x``: if the write tracker has no entry, the access is an
  *initialization* (INIT); otherwise build a WAR if the read tracker has an
  entry, and always a WAW.  Then the write tracker remembers this access.
* read of ``x``: build a RAW if the write tracker has an entry.  Then the
  read tracker remembers this access.  (Note the pseudocode suppresses the
  WAR a first write would otherwise form with a preceding read — the
  ``INIT`` branch returns early.  We reproduce that faithfully.)
* read-after-read dependences are ignored (configurable, paper default).

Additional per-event duties: FREE events trigger variable-lifetime removal
from both trackers; loop events maintain the per-thread loop-frame stack used
to classify dependences as loop-carried; a source timestamp greater than the
sink's flags the dependence as a potential data race (Section V-B).
"""

from __future__ import annotations

from repro.common.config import ProfilerConfig
from repro.core.controlflow import extract_loop_info
from repro.obs.provenance import ProvenanceCollector
from repro.core.deps import DepType, Dependence, DependenceStore
from repro.core.result import ProfileResult, ProfileStats
from repro.sigmem.signature import AccessRecord, AccessTracker
from repro.trace import (
    FREE,
    LOOP_ENTER,
    LOOP_EXIT,
    LOOP_ITER,
    READ,
    WRITE,
    TraceBatch,
)

#: Address granularity of the MiniVM memory model (one element = 8 bytes);
#: FREE range removal steps at this stride.
ACCESS_GRANULARITY = 8


class _LoopFrame:
    """Live frame of one loop execution on a thread's loop stack."""

    __slots__ = ("site", "entry_ts", "iter_start_ts")

    def __init__(self, site: int, entry_ts: int) -> None:
        self.site = site
        self.entry_ts = entry_ts
        # Until the first loop_iter arrives nothing counts as carried:
        # an "iteration start" equal to entry keeps the test vacuous.
        self.iter_start_ts = entry_ts


class ReferenceEngine:
    """Event-at-a-time Algorithm 1.

    Usable one-shot (:meth:`run`) or incrementally (:meth:`process` called
    per chunk, with trackers, loop frames, store, and stats persisting across
    calls) — the pipeline's test oracle drives one per worker that way.  No
    profiling run executes it: it is the spec the chunk kernel
    (:mod:`repro.core.vectorized`) is tested against.
    """

    def __init__(
        self,
        config: ProfilerConfig,
        read_tracker: AccessTracker,
        write_tracker: AccessTracker,
        store: DependenceStore | None = None,
        provenance: "ProvenanceCollector | None" = None,
    ) -> None:
        self.config = config
        self.read_tracker = read_tracker
        self.write_tracker = write_tracker
        self.store = store if store is not None else DependenceStore()
        self.stats = ProfileStats()
        #: Optional per-dependence attribution collector; when set, every
        #: ``store.add`` is mirrored by a ``provenance.note`` carrying the
        #: sink timestamp and the source tracker's slot-conflict verdict.
        self.provenance = provenance
        self._frames: dict[int, list[_LoopFrame]] = {}

    def run(self, batch: TraceBatch) -> ProfileResult:
        """One-shot profiling of a complete trace."""
        loops = extract_loop_info(batch)  # rejects malformed loop nesting
        self.process(batch)
        self.stats.n_unique_addresses = batch.n_unique_addresses
        return ProfileResult(
            store=self.store,
            loops=loops,
            stats=self.stats,
            var_names=batch.var_names,
            file_names=batch.file_names,
            multithreaded=batch.n_threads > 1 or self.config.multithreaded_target,
            provenance=self.provenance,
        )

    def process(self, batch: TraceBatch) -> None:
        """Feed one (sub-)batch of events through Algorithm 1."""
        cfg = self.config
        store = self.store
        stats = self.stats
        stats.n_events += len(batch)
        frames = self._frames
        prov = self.provenance

        kind_col = batch.kind
        tid_col = batch.tid
        loc_col = batch.loc
        addr_col = batch.addr
        aux_col = batch.aux
        var_col = batch.var
        ts_col = batch.ts

        def carried_sites(tid: int, source_ts: int) -> frozenset[int]:
            stack = frames.get(tid)
            if not stack:
                return frozenset()
            sites = [
                f.site
                for f in stack
                if f.entry_ts <= source_ts < f.iter_start_ts
            ]
            return frozenset(sites) if sites else frozenset()

        for i in range(len(batch)):
            kind = kind_col[i]
            if kind == READ:
                addr = int(addr_col[i])
                loc = int(loc_col[i])
                tid = int(tid_col[i])
                ts = int(ts_col[i])
                stats.n_reads += 1
                if not cfg.ignore_rar:
                    rrec = self.read_tracker.lookup(addr)
                    if rrec is not None:
                        race = rrec.ts > ts
                        if race:
                            stats.races_flagged += 1
                        dep = Dependence(
                            DepType.RAR,
                            sink_loc=loc,
                            sink_tid=tid,
                            source_loc=rrec.loc,
                            source_tid=rrec.tid,
                            var=rrec.var,
                            carried=carried_sites(tid, rrec.ts),
                            race=race,
                        )
                        store.add(dep)
                        stats.dep_instances[DepType.RAR] += 1
                        if prov is not None:
                            prov.note(
                                dep, ts, self.read_tracker.suspect_source(addr)
                            )
                wrec = self.write_tracker.lookup(addr)
                if wrec is not None:
                    race = wrec.ts > ts
                    if race:
                        stats.races_flagged += 1
                    dep = Dependence(
                        DepType.RAW,
                        sink_loc=loc,
                        sink_tid=tid,
                        source_loc=wrec.loc,
                        source_tid=wrec.tid,
                        var=wrec.var,
                        carried=carried_sites(tid, wrec.ts),
                        race=race,
                    )
                    store.add(dep)
                    stats.dep_instances[DepType.RAW] += 1
                    if prov is not None:
                        prov.note(dep, ts, self.write_tracker.suspect_source(addr))
                self.read_tracker.insert(
                    addr, AccessRecord(loc, int(var_col[i]), tid, ts)
                )
            elif kind == WRITE:
                addr = int(addr_col[i])
                loc = int(loc_col[i])
                tid = int(tid_col[i])
                ts = int(ts_col[i])
                stats.n_writes += 1
                wrec = self.write_tracker.lookup(addr)
                if wrec is None:
                    # First write observed at this address: initialization.
                    dep = Dependence(
                        DepType.INIT,
                        sink_loc=loc,
                        sink_tid=tid,
                        source_loc=-1,
                        source_tid=-1,
                        var=-1,
                    )
                    store.add(dep)
                    stats.dep_instances[DepType.INIT] += 1
                    if prov is not None:
                        prov.note(dep, ts)
                else:
                    rrec = self.read_tracker.lookup(addr)
                    if rrec is not None:
                        race = rrec.ts > ts
                        if race:
                            stats.races_flagged += 1
                        dep = Dependence(
                            DepType.WAR,
                            sink_loc=loc,
                            sink_tid=tid,
                            source_loc=rrec.loc,
                            source_tid=rrec.tid,
                            var=rrec.var,
                            carried=carried_sites(tid, rrec.ts),
                            race=race,
                        )
                        store.add(dep)
                        stats.dep_instances[DepType.WAR] += 1
                        if prov is not None:
                            prov.note(
                                dep, ts, self.read_tracker.suspect_source(addr)
                            )
                    race = wrec.ts > ts
                    if race:
                        stats.races_flagged += 1
                    dep = Dependence(
                        DepType.WAW,
                        sink_loc=loc,
                        sink_tid=tid,
                        source_loc=wrec.loc,
                        source_tid=wrec.tid,
                        var=wrec.var,
                        carried=carried_sites(tid, wrec.ts),
                        race=race,
                    )
                    store.add(dep)
                    stats.dep_instances[DepType.WAW] += 1
                    if prov is not None:
                        prov.note(dep, ts, self.write_tracker.suspect_source(addr))
                self.write_tracker.insert(
                    addr, AccessRecord(loc, int(var_col[i]), tid, ts)
                )
            elif kind == FREE:
                if cfg.track_lifetime:
                    base = int(addr_col[i])
                    size = int(aux_col[i])
                    self.read_tracker.remove_range(
                        base, base + size, ACCESS_GRANULARITY
                    )
                    self.write_tracker.remove_range(
                        base, base + size, ACCESS_GRANULARITY
                    )
            elif kind == LOOP_ENTER:
                frames.setdefault(int(tid_col[i]), []).append(
                    _LoopFrame(int(addr_col[i]), int(ts_col[i]))
                )
            elif kind == LOOP_ITER:
                frames[int(tid_col[i])][-1].iter_start_ts = int(ts_col[i])
            elif kind == LOOP_EXIT:
                frames[int(tid_col[i])].pop()
            # ALLOC / LOCK_* / FUNC_* / THREAD_* carry no profiling duty here.

        stats.n_accesses = stats.n_reads + stats.n_writes
        stats.tracker_memory_bytes = (
            self.read_tracker.memory_bytes + self.write_tracker.memory_bytes
        )
