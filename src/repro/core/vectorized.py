"""The vectorized Algorithm 1: the chunk kernel every profiling run executes.

:class:`ChunkKernel` produces the same dependences as the event-at-a-time
reference engine (:mod:`repro.core.reference`, the executable spec), but in
O(n log n) numpy per chunk instead of a Python event loop.  The key
observation: Algorithm 1 is a per-*tracking-key* recurrence (key = dense
address index for the perfect signature, key = hash slot for the array
signature), and the "last read / last write before me on my key"
quantities it consults can be computed for all accesses of a chunk at
once.  The kernel keeps the tracker state between chunks in signature
planes (:mod:`repro.sigmem.planes`), so a trace may reach it in any number
of ascending row chunks: the pipeline feeds each worker's kernel the rows
routed to it, all full chunks of a window in one call.
"""

from __future__ import annotations

import numpy as np

from repro.common.arrays import group_rows, sort_rows, unique_sorted
from repro.common.config import ProfilerConfig
from repro.common.errors import ProfilerError
from repro.core.controlflow import LoopStateIndex
from repro.core.deps import DepType, Dependence, DependenceStore
from repro.core.result import ProfileStats
from repro.core.reference import ACCESS_GRANULARITY
from repro.obs.provenance import ProvenanceCollector
from repro.sigmem.planes import DensePlaneTracker, SlotPlaneTracker
from repro.trace import FREE, READ, WRITE, TraceBatch

_READ_CAT = 0
_WRITE_CAT = 1
_KILL_CAT = 2


#: Dependence type of each instance code in the chunk kernel.  The code is
#: the most significant grouping column, so a chunk merges its records type
#: by type in this order.
_EMIT_TYPES = (DepType.RAW, DepType.WAR, DepType.WAW, DepType.RAR, DepType.INIT)
_CODE = {t: c for c, t in enumerate(_EMIT_TYPES)}
#: Source timestamp of an instance without a source (INIT): it is never
#: after the sink (no race) and inside no loop iteration (not carried).
_NO_TS = np.iinfo(np.int64).min


class ChunkKernel:
    """Incremental, signature-state-carrying vectorized Algorithm 1.

    The kernel sees a trace chunk by chunk.  It keeps the tracker state
    *between* chunks in a pair of plane trackers
    (:mod:`repro.sigmem.planes`) and processes each chunk as array
    operations:

    1. gather the chunk's rows from the full batch (global positions kept),
       and look up each access's push-order loop-frame snapshot
       (:class:`LoopStateIndex`) while the rows are still ascending,
    2. derive tracking keys (hash slot or dense address index),
    3. expand FREE events into per-key kill rows,
    4. sort by ``(key, position)`` (one packed int64 key), segment at kills,
       and compute segmented previous-read/previous-write indices,
    5. splice the *planes' carry-in state* into each key's first segment —
       the last access before this chunk plays the role of a virtual
       previous row, gathered once per key,
    6. apply Algorithm 1's branch masks to collect *every* dependence
       instance of the chunk (RAW, WAR, WAW, optional RAR and INIT) into one
       set of instance columns with a type column; classify loop-carried
       sites with two comparisons per loop level on the sink's snapshot;
       then group all instances once over packed keys and merge each
       group into the store,
    7. scatter each key's final state back into the planes: the last
       read/write after the key's last kill, read off the segmented
       previous-access indices at the key's end row.

    Over slot planes (a lossy signature) the same sorted rows carry the
    array signature's collision bookkeeping.  An access *evicts* when its
    slot holds another owner address — the previous in-chunk row's
    address, or the owner plane on carry-in; evictions are counted and
    attributed through the tracker's hooks (``sigmem.evictions``,
    ``heat.conflicts``) in one bulk update per chunk.  A dependence
    instance is *suspect* (``suspect_fp``) when its source slot is owned by
    another address, or was evicted earlier: per the evicted plane on
    carry-in, or by an earlier row of the same key in this chunk.  With a
    ``provenance`` collector each merged record of a chunk folds in once —
    instance count, first/last sink chunk number and timestamp,
    any-suspect — through the same grouping that dedups the store.  A
    "chunk" here is the rows of one :meth:`process_rows` call, which may
    hold many of a worker's chunks: the caller numbers each row's.

    It reproduces the reference engine bit for bit — same dependences, same
    instance counts, same race flags, same carried sets, same provenance
    and eviction counts — because every one of those steps mirrors a
    reference-engine rule, including its push-order loop-frame semantics.

    :class:`~repro.parallel.worker.Worker` drives it through
    :meth:`process_rows` and reads ``store``, ``stats`` and
    ``read_tracker``/``write_tracker``.
    """

    def __init__(
        self,
        config: ProfilerConfig,
        loop_index: LoopStateIndex,
        read_tracker,
        write_tracker,
        store: DependenceStore | None = None,
        heat=None,
        provenance: ProvenanceCollector | None = None,
    ) -> None:
        if type(read_tracker) is not type(write_tracker):
            raise ProfilerError("read/write plane trackers must match")
        self.config = config
        #: Push-order loop-frame snapshots of the trace being profiled: the
        #: run builds one index and every worker's kernel reads it.
        self.loop_index = loop_index
        self.read_tracker = read_tracker
        self.write_tracker = write_tracker
        #: Optional address-heat recorder (see :mod:`repro.obs.heatmap`).
        #: Fed inline from the masks the kernel computes anyway, so heat
        #: recording never re-derives the access split per chunk.
        self.heat = heat
        #: Optional per-dependence attribution, by the chunk numbers each
        #: call passes.
        self.provenance = provenance
        self.store = store if store is not None else DependenceStore()
        self.stats = ProfileStats()
        self._slots = isinstance(read_tracker, SlotPlaneTracker)

    # -- helpers -----------------------------------------------------------
    def _kill_keys(self, base: int, size: int) -> np.ndarray:
        """Keys removed by one FREE, in this kernel's key space."""
        if size <= 0:
            return np.empty(0, dtype=np.int64)
        tracker = self.read_tracker
        if isinstance(tracker, DensePlaneTracker):
            return tracker.space.probe_keys(base, base + size, ACCESS_GRANULARITY)
        addrs = np.arange(base, base + size, ACCESS_GRANULARITY, dtype=np.int64)
        return unique_sorted(tracker.keys_of(addrs))

    # -- the chunk hot path ------------------------------------------------
    def process_rows(
        self, batch: TraceBatch, rows: np.ndarray, chunk: np.ndarray | None
    ) -> None:
        """Run Algorithm 1 over ``rows`` (ascending global row indices) of
        ``batch``, the trace :attr:`loop_index` was built from.

        ``chunk`` numbers each row's chunk (aligned with ``rows``; ``None``
        without a provenance collector, the only reader): one call may
        cover many chunks.  The kernel's state carries from row to row, so
        where the calls are cut changes nothing else.
        """
        cfg = self.config
        stats = self.stats
        stats.n_events += len(rows)
        kind = batch.kind[rows]
        is_read = kind == READ
        is_write = kind == WRITE
        acc = is_read | is_write
        stats.n_reads += int(np.count_nonzero(is_read))
        stats.n_writes += int(np.count_nonzero(is_write))
        stats.n_accesses = stats.n_reads + stats.n_writes

        acc_rows = rows[acc].astype(np.int64)
        addr = batch.addr[acc_rows].astype(np.int64, copy=False)
        prov_chunk = chunk[acc] if self.provenance is not None else None
        if self.heat is not None and len(acc_rows):
            self.heat.record_accesses(addr, is_write[acc])
        free_rows = (
            rows[kind == FREE].astype(np.int64)
            if cfg.track_lifetime
            else np.empty(0, dtype=np.int64)
        )
        if len(acc_rows) == 0 and len(free_rows) == 0:
            self._note_memory()
            return

        pos = acc_rows
        key = self.read_tracker.keys_of(addr)
        cat = np.where(is_write[acc], _WRITE_CAT, _READ_CAT).astype(np.int8)
        loc = batch.loc[acc_rows].astype(np.int64)
        var = batch.var[acc_rows].astype(np.int64)
        tid = batch.tid[acc_rows].astype(np.int64)
        ts = batch.ts[acc_rows].astype(np.int64, copy=False)
        loop_index = self.loop_index
        state = loop_index.states_of(tid, acc_rows)

        if len(free_rows):
            kp_parts = [pos]
            kk_parts = [key]
            for i in free_rows.tolist():
                keys = self._kill_keys(int(batch.addr[i]), int(batch.aux[i]))
                if len(keys):
                    kp_parts.append(np.full(len(keys), i, dtype=np.int64))
                    kk_parts.append(keys)
            if len(kp_parts) > 1:
                n_acc = len(pos)
                pos = np.concatenate(kp_parts)
                key = np.concatenate(kk_parts)
                pad = len(pos) - n_acc
                fill = np.zeros(pad, dtype=np.int64)
                cat = np.concatenate([cat, np.full(pad, _KILL_CAT, dtype=np.int8)])
                addr = np.concatenate([addr, fill - 1])
                loc = np.concatenate([loc, fill - 1])
                var = np.concatenate([var, fill - 1])
                tid = np.concatenate([tid, fill])
                ts = np.concatenate([ts, fill])
                state = np.concatenate([state, fill])
                if prov_chunk is not None:
                    prov_chunk = np.concatenate([prov_chunk, fill])

        if len(pos) == 0:
            # Only FREEs over addresses this worker never tracked.
            self._note_memory()
            return

        order = sort_rows([key, pos])
        key = key[order]
        cat = cat[order]
        addr = addr[order]
        loc = loc[order]
        var = var[order]
        tid = tid[order]
        ts = ts[order]
        state = state[order]
        if prov_chunk is not None:
            prov_chunk = prov_chunk[order]
        n = len(key)

        # -- segmentation: new key, or kill boundary within a key ----------
        is_kill = cat == _KILL_CAT
        kills_before = np.concatenate([[0], np.cumsum(is_kill[:-1], dtype=np.int64)])
        new_key = np.empty(n, dtype=bool)
        new_key[0] = True
        new_key[1:] = key[1:] != key[:-1]
        seg_boundary = new_key.copy()
        seg_boundary[1:] |= kills_before[1:] != kills_before[:-1]
        seg_id = np.cumsum(seg_boundary, dtype=np.int64)

        big = np.int64(n + 2)
        idx = np.arange(n, dtype=np.int64)

        def prev_of(candidate_mask: np.ndarray) -> np.ndarray:
            cand = np.where(candidate_mask, idx, np.int64(-1)) + seg_id * big
            run = np.maximum.accumulate(cand)
            prev = np.empty(n, dtype=np.int64)
            prev[0] = -1
            prev[1:] = run[:-1] - seg_id[1:] * big
            prev[prev < 0] = -1
            return prev

        read_rows = cat == _READ_CAT
        write_rows = cat == _WRITE_CAT
        prev_w = prev_of(write_rows)
        prev_r = prev_of(read_rows)

        # -- carry-in: planes act as the virtual row before each key's
        # first (pre-kill) segment ----------------------------------------
        starts = np.flatnonzero(new_key)
        n_keys = len(starts)
        grp = np.cumsum(new_key, dtype=np.int64) - 1
        first_seg = kills_before == kills_before[starts][grp]
        gkey = key[starts]
        wp, wp_loc, wp_var, wp_tid, wp_ts = self.write_tracker.gather(gkey)
        rp, rp_loc, rp_var, rp_tid, rp_ts = self.read_tracker.gather(gkey)
        in_w = prev_w >= 0
        in_r = prev_r >= 0
        has_w = in_w | (first_seg & wp[grp])
        has_r = in_r | (first_seg & rp[grp])
        # A source is a row of one table: the chunk's rows, then each key's
        # write-plane and read-plane records, then a no-source sentinel.
        src_w = np.where(in_w, prev_w, n + grp)
        src_r = np.where(in_r, prev_r, n + n_keys + grp)
        no_src = n + 2 * n_keys
        src_loc = np.concatenate([loc, wp_loc, rp_loc, [-1]])
        src_var = np.concatenate([var, wp_var, rp_var, [-1]])
        src_tid = np.concatenate([tid, wp_tid, rp_tid, [-1]])
        src_ts = np.concatenate([ts, wp_ts, rp_ts, [_NO_TS]])

        # -- slot collisions: evictions and suspect sources ----------------
        suspect_r = suspect_w = None
        if self._slots:
            w_owner, w_evicted = self.write_tracker.gather_owners(gkey)
            r_owner, r_evicted = self.read_tracker.gather_owners(gkey)
            owner = np.concatenate([addr, w_owner, r_owner, [-1]])
            suspect_w = self._collisions(
                self.write_tracker, write_rows, has_w, owner[src_w],
                w_evicted[grp], key, addr, starts, grp,
            )
            suspect_r = self._collisions(
                self.read_tracker, read_rows, has_r, owner[src_r],
                r_evicted[grp], key, addr, starts, grp,
            )

        # -- Algorithm 1 branch table: every instance of the chunk ---------
        # Write-side sources feed RAW (read sinks) and WAW (write sinks);
        # read-side sources feed WAR and, unless ignored, RAR.
        on_w = np.flatnonzero(has_w & ~is_kill)
        r_sinks = write_rows & has_w
        if not cfg.ignore_rar:
            r_sinks |= read_rows
        on_r = np.flatnonzero(r_sinks & has_r)
        init = np.flatnonzero(write_rows & ~has_w)
        sink = np.concatenate([on_w, on_r, init])
        code = np.concatenate(
            [
                np.where(read_rows[on_w], _CODE[DepType.RAW], _CODE[DepType.WAW]),
                np.where(read_rows[on_r], _CODE[DepType.RAR], _CODE[DepType.WAR]),
                np.full(len(init), _CODE[DepType.INIT]),
            ]
        )
        src = np.concatenate(
            [src_w[on_w], src_r[on_r], np.full(len(init), no_src, dtype=np.int64)]
        )
        suspect = None
        if self._slots:
            suspect = np.concatenate(
                [suspect_w[on_w], suspect_r[on_r], np.zeros(len(init), dtype=bool)]
            )
        self._emit(
            code, loc[sink], tid[sink], ts[sink], state[sink],
            src_loc[src], src_tid[src], src_var[src], src_ts[src],
            suspect, loop_index,
            prov_chunk[sink] if prov_chunk is not None else None,
        )

        # -- carry-out: scatter each key's end-of-chunk state --------------
        # The surviving record per key is the last read/write *after the
        # key's last kill*.  At the key's end row that is the row itself
        # when it is an access of that kind, nothing when it is a kill, and
        # otherwise the segmented previous access (the segment begins after
        # the last kill).
        ends = np.empty(n_keys, dtype=np.int64)
        ends[:-1] = starts[1:] - 1
        ends[-1] = n - 1
        end_cat = cat[ends]
        end_kill = end_cat == _KILL_CAT
        group_killed = kills_before[ends] + end_kill > kills_before[starts]
        for tracker, own_cat, prev in (
            (self.read_tracker, _READ_CAT, prev_r),
            (self.write_tracker, _WRITE_CAT, prev_w),
        ):
            last = np.where(
                end_cat == own_cat, ends, np.where(end_kill, -1, prev[ends])
            )
            upd = last >= 0
            kept = last[upd]
            tracker.set_rows(
                key[kept], loc[kept], var[kept], tid[kept], ts[kept], addr[kept]
            )
            tracker.clear_keys(gkey[~upd & group_killed])
        self._note_memory()

    @staticmethod
    def _collisions(
        tracker: SlotPlaneTracker,
        own_rows: np.ndarray,
        present: np.ndarray,
        owner: np.ndarray,
        evicted_in: np.ndarray,
        key: np.ndarray,
        addr: np.ndarray,
        starts: np.ndarray,
        grp: np.ndarray,
    ) -> np.ndarray:
        """Apply the eviction rule to ``tracker``'s inserts (``own_rows``)
        and return, per sorted row, whether a record looked up from
        ``tracker`` there is a suspect source.

        ``present``/``owner`` describe the slot as the row sees it:
        occupied at all, and by which address (the previous in-chunk row's,
        or the owner plane's on carry-in); ``evicted_in`` is the slot's
        evicted plane on carry-in.
        """
        evicts = own_rows & tracker.evicts(present, owner, addr)
        tracker.note_evictions(key[evicts], addr[evicts])
        # Evicted earlier in this chunk: an evicting row of the same key
        # precedes this one (exclusive running count within the key group).
        before = np.cumsum(evicts, dtype=np.int64) - evicts
        earlier = before > before[starts][grp]
        return (owner != addr) | evicted_in | earlier

    def _emit(
        self,
        code: np.ndarray,
        sink_loc: np.ndarray,
        sink_tid: np.ndarray,
        sink_ts: np.ndarray,
        sink_state: np.ndarray,
        src_loc: np.ndarray,
        src_tid: np.ndarray,
        src_var: np.ndarray,
        src_ts: np.ndarray,
        suspect: np.ndarray | None,
        loop_index: LoopStateIndex,
        sink_chunk: np.ndarray | None,
    ) -> None:
        """Classify, group and merge every dependence instance of a call.

        Instance ``i`` has type ``_EMIT_TYPES[code[i]]``.  One grouping over
        (type, sink, source, variable, race, carried site per loop level)
        folds identical instances into one record, merged into the store
        with its count; with a provenance collector each record also folds
        in its first and last sink chunk and timestamp and any-suspect flag.
        """
        stats = self.stats
        for c, n in enumerate(np.bincount(code, minlength=len(_EMIT_TYPES)).tolist()):
            stats.dep_instances[_EMIT_TYPES[c]] += n
        if len(code) == 0:
            return
        race = src_ts > sink_ts
        stats.races_flagged += int(np.count_nonzero(race))
        cols = [code, sink_loc, sink_tid, src_loc, src_tid, src_var, race]
        for site, entry, iterts in zip(
            loop_index.site, loop_index.entry, loop_index.iterts
        ):
            hit = (entry[sink_state] <= src_ts) & (src_ts < iterts[sink_state])
            cols.append(np.where(hit, site[sink_state], np.int64(-1)))
        order, starts = group_rows(cols)
        first = order[starts]
        counts = np.diff(starts, append=len(order)).tolist()
        rows = zip(*(c[first].tolist() for c in cols))
        deps = [
            Dependence(
                _EMIT_TYPES[row[0]],
                sink_loc=row[1],
                sink_tid=row[2],
                source_loc=row[3],
                source_tid=row[4],
                var=row[5],
                carried=frozenset(s for s in row[7:] if s >= 0),
                race=row[6],
            )
            for row in rows
        ]
        store = self.store
        prov = self.provenance
        if prov is None:
            for dep, c in zip(deps, counts):
                store.add_merged(dep, c)
            return
        ts = sink_ts[order]
        lo = np.minimum.reduceat(ts, starts).tolist()
        hi = np.maximum.reduceat(ts, starts).tolist()
        chunk = sink_chunk[order]
        c_lo = np.minimum.reduceat(chunk, starts).tolist()
        c_hi = np.maximum.reduceat(chunk, starts).tolist()
        sus = (
            np.logical_or.reduceat(suspect[order], starts).tolist()
            if suspect is not None
            else [False] * len(starts)
        )
        for dep, c, first_ts, last_ts, s, first_c, last_c in zip(
            deps, counts, lo, hi, sus, c_lo, c_hi
        ):
            store.add_merged(dep, c)
            prov.note_group(dep, c, first_ts, last_ts, s, first_c, last_c)

    def _note_memory(self) -> None:
        self.stats.tracker_memory_bytes = (
            self.read_tracker.memory_bytes + self.write_tracker.memory_bytes
        )
