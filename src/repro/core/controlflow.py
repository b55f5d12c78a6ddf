"""Runtime control-flow information (loop regions).

The profiler reports, next to the dependences, where control regions begin
and end and how many iterations each loop executed (the ``BGN loop`` /
``END loop 1200`` lines of Figure 1).  This module extracts that view from a
trace, and builds the per-``(loop site, thread)`` timestamp indexes the
vectorized engine uses to decide whether a dependence is loop-carried.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.common.errors import ProfilerError, TraceFormatError
from repro.trace import LOOP_ENTER, LOOP_EXIT, LOOP_ITER, TraceBatch

#: Loop-nest depth cap for the snapshot index (one int64 column per level).
MAX_SNAPSHOT_DEPTH = 63

#: Rows per window when scanning ``batch.kind`` for loop events.
_SCAN_WINDOW = 1 << 22


def loop_event_rows(batch: TraceBatch, *kinds: int) -> np.ndarray:
    """Global row indices of the requested loop-event kinds, in order.

    Scans ``batch.kind`` window-by-window instead of building one
    full-trace boolean mask: on an mmap-spilled batch both the transient
    mask and the resident ``kind`` pages stay bounded by the window
    (consumed windows are released immediately), so loop-index builds no
    longer spike peak RSS proportionally to trace length.
    """
    kind = batch.kind
    n = len(kind)
    release = getattr(batch, "release_window", None)
    found: list[np.ndarray] = []
    for s in range(0, n, _SCAN_WINDOW):
        e = min(n, s + _SCAN_WINDOW)
        kw = np.asarray(kind[s:e])
        mask = kw == kinds[0]
        for k in kinds[1:]:
            mask |= kw == k
        hits = np.flatnonzero(mask)
        if len(hits):
            found.append(hits.astype(np.int64, copy=False) + s)
        if release is not None:
            release(s, e)
    if not found:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(found)


def _thread_nesting(
    rows: np.ndarray, kind: np.ndarray, tid: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group loop events by thread and compute each one's stack depth.

    ``rows``/``kind``/``tid`` describe the trace's loop events in stream
    order.  Returns the stable by-thread ``order``, the thread ``bounds``
    within it (thread ``j`` is ``order[bounds[j]:bounds[j + 1]]``), and the
    stack depth after each ordered event: the running sum of +1 per
    ``LOOP_ENTER`` and -1 per ``LOOP_EXIT``.

    Raises :class:`TraceFormatError` naming the thread and trace row of the
    first ``LOOP_EXIT`` or ``LOOP_ITER`` that has no enclosing
    ``LOOP_ENTER`` on its thread (a negative depth would silently corrupt
    every loop-state view built from it).
    """
    order = np.argsort(tid, kind="stable")
    if len(order) == 0:
        return order, np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64)
    k = kind[order]
    t = tid[order]
    bounds = np.concatenate(
        [[0], np.flatnonzero(t[1:] != t[:-1]) + 1, [len(t)]]
    ).astype(np.int64)
    step = (k == LOOP_ENTER).astype(np.int64) - (k == LOOP_EXIT)
    total = np.cumsum(step)
    depth = total - np.repeat((total - step)[bounds[:-1]], np.diff(bounds))
    bad = (depth < 0) | ((k == LOOP_ITER) & (depth == 0))
    if bad.any():
        j = int(order[bad].min())
        what = "LOOP_EXIT" if kind[j] == LOOP_EXIT else "LOOP_ITER"
        raise TraceFormatError(
            f"malformed loop nesting: {what} on thread {int(tid[j])} at trace "
            f"row {int(rows[j])} has no enclosing LOOP_ENTER"
        )
    return order, bounds, depth


@dataclass
class LoopInfo:
    """Aggregated runtime facts about one static loop site."""

    site: int  # encoded header location
    end_loc: int  # encoded location of the loop's exit line
    total_iterations: int = 0  # summed over all dynamic executions
    executions: int = 0  # number of dynamic instances (all threads)
    threads: set[int] = field(default_factory=set)
    parent: int = -1  # enclosing loop site, -1 if top-level

    @property
    def mean_iterations(self) -> float:
        return self.total_iterations / self.executions if self.executions else 0.0


def extract_loop_info(batch: TraceBatch) -> dict[int, LoopInfo]:
    """Collect per-site loop statistics from the trace's loop events.

    Every engine calls this first, so it is also where malformed loop
    nesting is rejected (:class:`TraceFormatError`).
    """
    rows = loop_event_rows(batch, LOOP_ENTER, LOOP_ITER, LOOP_EXIT)
    kinds = np.asarray(batch.kind[rows])
    tids = batch.tid[rows]
    _thread_nesting(rows, kinds, tids)
    marks = rows[kinds != LOOP_ITER]
    loops: dict[int, LoopInfo] = {}
    # Track the enclosing site per thread to attribute parents.
    stacks: dict[int, list[int]] = {}
    for kind, site, tid, iters, end_loc in zip(
        np.asarray(batch.kind[marks]).tolist(),
        batch.addr[marks].tolist(),
        batch.tid[marks].tolist(),
        batch.aux[marks].tolist(),
        batch.loc[marks].tolist(),
    ):
        stack = stacks.setdefault(tid, [])
        if kind == LOOP_ENTER:
            info = loops.get(site)
            if info is None:
                info = loops[site] = LoopInfo(site=site, end_loc=site)
            if stack and info.parent == -1:
                info.parent = stack[-1]
            info.executions += 1
            info.threads.add(tid)
            stack.append(site)
        else:  # LOOP_EXIT
            info = loops[site]
            info.total_iterations += iters
            if end_loc >= 0:
                info.end_loc = end_loc
            if stack and stack[-1] == site:
                stack.pop()
    return loops


class LoopIndex:
    """Timestamp indexes answering "is this dependence loop-carried?".

    For every ``(site, tid)`` pair we keep two sorted timestamp arrays:
    loop-entry timestamps and iteration-start timestamps.  A dependence whose
    sink executed at ``sink_ts`` inside that loop is carried iff the source
    timestamp falls inside the same dynamic loop execution but *before* the
    start of the sink's current iteration::

        entry_ts <= source_ts < current_iteration_start_ts

    which is exactly the test the reference engine performs against its live
    loop-frame stack.
    """

    def __init__(self, batch: TraceBatch) -> None:
        entries: dict[tuple[int, int], list[int]] = {}
        iters: dict[tuple[int, int], list[int]] = {}
        for i in loop_event_rows(batch, LOOP_ENTER, LOOP_ITER):
            key = (int(batch.addr[i]), int(batch.tid[i]))
            ts = int(batch.ts[i])
            if batch.kind[i] == LOOP_ENTER:
                entries.setdefault(key, []).append(ts)
            else:
                iters.setdefault(key, []).append(ts)
        # Loop events are pushed in increasing-ts order per thread; sort to be
        # safe against interleaved multi-thread reordering of pushes.
        self._entries = {k: np.array(sorted(v), dtype=np.int64) for k, v in entries.items()}
        self._iters = {k: np.array(sorted(v), dtype=np.int64) for k, v in iters.items()}

    def carried(self, site: int, tid: int, source_ts: int, sink_ts: int) -> bool:
        """Scalar carried test (reference/spot checks)."""
        key = (site, tid)
        ent = self._entries.get(key)
        its = self._iters.get(key)
        if ent is None or its is None or len(its) == 0:
            return False
        ei = int(np.searchsorted(ent, sink_ts, side="right")) - 1
        if ei < 0:
            return False
        ii = int(np.searchsorted(its, sink_ts, side="right")) - 1
        if ii < 0:
            return False
        entry_ts = int(ent[ei])
        iter_start = int(its[ii])
        return entry_ts <= source_ts < iter_start

    def carried_many(
        self,
        site: int,
        tid: int,
        source_ts: np.ndarray,
        sink_ts: np.ndarray,
    ) -> np.ndarray:
        """Vectorized carried test for aligned source/sink timestamp arrays."""
        key = (site, tid)
        ent = self._entries.get(key)
        its = self._iters.get(key)
        out = np.zeros(len(sink_ts), dtype=bool)
        if ent is None or its is None or len(its) == 0:
            return out
        ei = np.searchsorted(ent, sink_ts, side="right") - 1
        ii = np.searchsorted(its, sink_ts, side="right") - 1
        ok = (ei >= 0) & (ii >= 0)
        if not ok.any():
            return out
        entry_ts = ent[np.clip(ei, 0, None)]
        iter_start = its[np.clip(ii, 0, None)]
        out[ok] = (entry_ts[ok] <= source_ts[ok]) & (source_ts[ok] < iter_start[ok])
        return out


class _TidLoopStates:
    """Per-thread loop-frame snapshots, one row per loop event of the thread."""

    __slots__ = ("rows", "depth", "site", "entry", "iterts")

    def __init__(
        self,
        rows: np.ndarray,
        depth: np.ndarray,
        site: np.ndarray,
        entry: np.ndarray,
        iterts: np.ndarray,
    ) -> None:
        self.rows = rows  # global row index of each loop event (ascending)
        self.depth = depth  # (n_states,) stack depth after k loop events
        self.site = site  # (n_states, D) loop site per level, -1 above depth
        self.entry = entry  # (n_states, D) entry_ts per level
        self.iterts = iterts  # (n_states, D) iter_start_ts per level


class LoopStateIndex:
    """Loop-frame stack snapshots addressed by *stream position*.

    The reference engine classifies a dependence as loop-carried against the
    thread's live loop-frame stack at the moment the *sink* event is
    processed — i.e. the stack produced by all loop events preceding the
    sink in the event stream.  :class:`LoopIndex` approximates that with
    access timestamps, which agrees only when pushes preserve per-thread
    program order.  This index replays the loop events once in global row
    order, snapshots each thread's stack after every one of its loop events,
    and answers the carried test for a sink at global row ``i`` with the
    exact stack the reference engine would have held — which is what the
    incremental chunk kernel needs to match it bit for bit.

    The build is array code per thread: the stack depth after each loop
    event is a running sum of +1/-1, and for each nesting level the live
    frame's ENTER and latest ITER come from a running maximum over event
    indices.
    """

    def __init__(self, batch: TraceBatch) -> None:
        rows = loop_event_rows(batch, LOOP_ENTER, LOOP_ITER, LOOP_EXIT)
        kind = np.asarray(batch.kind[rows])
        tid = batch.tid[rows].astype(np.int64)
        order, bounds, depth = _thread_nesting(rows, kind, tid)
        rows = rows[order]
        kind = kind[order]
        tid = tid[order]
        ts = batch.ts[rows].astype(np.int64)
        site = batch.addr[rows].astype(np.int64)
        #: Deepest stack observed across all threads; the carried-site matrix
        #: returned by :meth:`carried_sites` has this many columns.
        self.depth = int(depth.max()) if len(depth) else 0
        if self.depth > MAX_SNAPSHOT_DEPTH:
            raise ProfilerError(
                f"loop nest depth {self.depth} exceeds supported "
                f"{MAX_SNAPSHOT_DEPTH}"
            )
        width = max(self.depth, 1)
        self._tids: dict[int, _TidLoopStates] = {}
        for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            d, k, t_ts, t_site = depth[lo:hi], kind[lo:hi], ts[lo:hi], site[lo:hi]
            # State 0 is the empty stack; state j + 1 follows the thread's
            # j-th loop event.
            n_states = hi - lo + 1
            dep = np.zeros(n_states, dtype=np.int64)
            dep[1:] = d
            sites = np.full((n_states, width), -1, dtype=np.int64)
            entry = np.zeros((n_states, width), dtype=np.int64)
            iterts = np.zeros((n_states, width), dtype=np.int64)
            idx = np.arange(hi - lo, dtype=np.int64)
            for lvl in range(int(d.max())):
                # The live frame at this level was pushed by the latest
                # ENTER that reached depth lvl + 1; its iteration started
                # at the latest ITER at that depth after the push, or at
                # the push itself.
                at = d == lvl + 1
                ent = np.maximum.accumulate(
                    np.where(at & (k == LOOP_ENTER), idx, np.int64(-1))
                )
                itr = np.maximum.accumulate(
                    np.where(at & (k == LOOP_ITER), idx, np.int64(-1))
                )
                live = d > lvl
                e = np.maximum(ent, 0)
                sites[1:, lvl] = np.where(live, t_site[e], -1)
                entry[1:, lvl] = np.where(live, t_ts[e], 0)
                started = np.where(itr > ent, t_ts[np.maximum(itr, 0)], t_ts[e])
                iterts[1:, lvl] = np.where(live, started, 0)
            self._tids[int(tid[lo])] = _TidLoopStates(
                rows[lo:hi], dep, sites, entry, iterts
            )

    def carried_sites(
        self, tid: int, sink_rows: np.ndarray, source_ts: np.ndarray
    ) -> np.ndarray:
        """Carried loop sites per (sink row, source ts) pair on one thread.

        Returns an ``(n, depth)`` int64 matrix holding the loop site at each
        stack level for which ``entry_ts <= source_ts < iter_start_ts`` held
        in the sink's snapshot, and ``-1`` elsewhere — a fixed-width encoding
        of the reference engine's ``carried_sites`` frozenset that dedups as
        plain integer columns.
        """
        n = len(sink_rows)
        if self.depth == 0:
            return np.full((n, 0), -1, dtype=np.int64)
        st = self._tids.get(tid)
        if st is None:
            return np.full((n, self.depth), -1, dtype=np.int64)
        k = np.searchsorted(st.rows, sink_rows, side="left")
        dep = st.depth[k]
        sites = st.site[k, : self.depth]
        entry = st.entry[k, : self.depth]
        iterts = st.iterts[k, : self.depth]
        lvl = np.arange(self.depth, dtype=np.int64)
        src = source_ts[:, None]
        hit = (lvl[None, :] < dep[:, None]) & (entry <= src) & (src < iterts)
        return np.where(hit, sites, np.int64(-1))
