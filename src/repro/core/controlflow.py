"""Runtime control-flow information (loop regions).

The profiler reports, next to the dependences, where control regions begin
and end and how many iterations each loop executed (the ``BGN loop`` /
``END loop 1200`` lines of Figure 1).  :class:`LoopStateIndex` reads that
view off the trace's loop events in the same scan that builds the
push-order loop-frame snapshots the chunk kernel uses to decide whether a
dependence is loop-carried.  Every profiling run builds one index, once,
before its worker(s) start.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.common.errors import ProfilerError, TraceFormatError
from repro.trace import LOOP_ENTER, LOOP_EXIT, LOOP_ITER, TraceBatch

#: Loop-nest depth cap for the snapshot index (three columns per level).
MAX_SNAPSHOT_DEPTH = 63
#: Sentinel frame of a level that is not live: no timestamp ``ts`` satisfies
#: ``entry <= ts < iter_start``.
_NEVER_ENTERED = np.iinfo(np.int64).max
_NEVER_STARTED = np.iinfo(np.int64).min

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
        batch.release_window(s, e)
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

    The table is a by-product of the loop-event scan :class:`LoopStateIndex`
    makes, so this is also where malformed loop nesting is rejected
    (:class:`TraceFormatError`).
    """
    return LoopStateIndex(batch).loops


def _loop_table(
    kinds: np.ndarray,
    sites: np.ndarray,
    tids: np.ndarray,
    iter_counts: np.ndarray,
    end_locs: np.ndarray,
) -> dict[int, LoopInfo]:
    """Fold loop ENTER/EXIT events, in stream order, into per-site facts."""
    loops: dict[int, LoopInfo] = {}
    # Track the enclosing site per thread to attribute parents.
    stacks: dict[int, list[int]] = {}
    for kind, site, tid, iters, end_loc in zip(
        kinds.tolist(),
        sites.tolist(),
        tids.tolist(),
        iter_counts.tolist(),
        end_locs.tolist(),
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


class LoopStateIndex:
    """Loop-frame stack snapshots addressed by *stream position*.

    The reference engine classifies a dependence as loop-carried against the
    thread's live loop-frame stack at the moment the *sink* event is
    processed — i.e. the stack produced by all loop events preceding the
    sink in the event stream, not the loop events preceding its access
    *timestamp* (the two differ when a thread's pushes leave program
    order).  This index replays the loop events once in global row order
    and snapshots each thread's stack after every one of its loop events,
    so a sink at global row ``i`` is classified against the exact stack
    the reference engine would have held — which is what the incremental
    chunk kernel needs to match it bit for bit.

    The snapshots form one global *state table*.  State 0 is the empty
    stack; thread ``t``'s states sit at an offset, starting with its own
    empty stack before its first loop event.  Level ``l`` of every state is
    row ``l`` of three ``(levels, states)`` arrays: ``site[l]``,
    ``entry[l]`` (the frame's entry timestamp) and ``iterts[l]`` (its
    current iteration's start).  A level that is not live holds a sentinel
    frame no timestamp falls into, so the carried test for a source
    timestamp ``ts`` at level ``l`` of state ``s`` is just
    ``entry[l][s] <= ts < iterts[l][s]``.  The kernel looks up each
    access's state once per chunk (:meth:`states_of`).

    The build is array code over all threads at once: the stack depth after
    each loop event is a per-thread running sum of +1/-1, and for each
    nesting level the live frame's ENTER and latest ITER come from a
    running maximum over event indices.  The same scan of the loop events
    also yields the run's :class:`LoopInfo` table (:attr:`loops`), so a run
    reads the loop events once and checks their nesting once.
    """

    def __init__(self, batch: TraceBatch) -> None:
        rows = loop_event_rows(batch, LOOP_ENTER, LOOP_ITER, LOOP_EXIT)
        kind = np.asarray(batch.kind[rows])
        tid = batch.tid[rows].astype(np.int64)
        order, bounds, depth = _thread_nesting(rows, kind, tid)
        site = batch.addr[rows].astype(np.int64)
        marks = kind != LOOP_ITER
        #: Per-site loop statistics (:class:`LoopInfo`), folded in stream
        #: order from the same scan.
        self.loops = _loop_table(
            kind[marks],
            site[marks],
            tid[marks],
            batch.aux[rows[marks]],
            batch.loc[rows[marks]],
        )
        rows = rows[order]
        kind = kind[order]
        tid = tid[order]
        site = site[order]
        ts = batch.ts[rows].astype(np.int64)
        n_levels = int(depth.max()) if len(depth) else 0
        if n_levels > MAX_SNAPSHOT_DEPTH:
            raise ProfilerError(
                f"loop nest depth {n_levels} exceeds supported "
                f"{MAX_SNAPSHOT_DEPTH}"
            )
        n_events = len(rows)
        starts = bounds[:-1]
        # Thread j's empty stack is state 1 + starts[j] + j; the state after
        # its event e (a global ordered index) follows at e + j + 2.
        thread_of = np.repeat(np.arange(len(starts), dtype=np.int64), np.diff(bounds))
        after = np.arange(n_events, dtype=np.int64) + thread_of + 2
        n_states = 1 + n_events + len(starts)
        site_t = np.full((n_levels, n_states), -1, dtype=np.int64)
        entry_t = np.full((n_levels, n_states), _NEVER_ENTERED, dtype=np.int64)
        iter_t = np.full((n_levels, n_states), _NEVER_STARTED, dtype=np.int64)
        idx = np.arange(n_events, dtype=np.int64)
        for lvl in range(n_levels):
            # The live frame at this level was pushed by the latest ENTER
            # that reached depth lvl + 1; its iteration started at the
            # latest ITER at that depth after the push, or at the push
            # itself.  A running maximum over all threads' events stays
            # within the thread wherever the level is live (that thread's
            # own ENTER is the latest), and an earlier thread's ITER never
            # postdates this thread's ENTER.
            at = depth == lvl + 1
            ent = np.maximum.accumulate(
                np.where(at & (kind == LOOP_ENTER), idx, np.int64(-1))
            )
            itr = np.maximum.accumulate(
                np.where(at & (kind == LOOP_ITER), idx, np.int64(-1))
            )
            live = depth > lvl
            e = np.maximum(ent[live], 0)
            i = itr[live]
            site_t[lvl, after[live]] = site[e]
            entry_t[lvl, after[live]] = ts[e]
            iter_t[lvl, after[live]] = np.where(i > e, ts[np.maximum(i, 0)], ts[e])
        self._adopt(rows, tid[starts], bounds, site_t, entry_t, iter_t)

    def arrays(self) -> dict[str, np.ndarray]:
        """The index as named arrays, its loop table aside: what
        :meth:`from_arrays` rebuilds it from.  A processes-mode worker
        reads them from the pool's shared arena."""
        return {
            "rows": self._rows,
            "tids": self._tids,
            "bounds": self._bounds,
            "site": self.site,
            "entry": self.entry,
            "iterts": self.iterts,
        }

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray]) -> "LoopStateIndex":
        """The index :meth:`arrays` describes, without a trace scan; its
        :attr:`loops` table is empty."""
        index = cls.__new__(cls)
        index.loops = {}
        index._adopt(**arrays)
        return index

    def _adopt(
        self,
        rows: np.ndarray,
        tids: np.ndarray,
        bounds: np.ndarray,
        site: np.ndarray,
        entry: np.ndarray,
        iterts: np.ndarray,
    ) -> None:
        #: Loop-event rows grouped by thread, ascending within a thread:
        #: thread ``tids[j]`` owns ``rows[bounds[j]:bounds[j + 1]]``.
        self._rows, self._tids, self._bounds = rows, tids, bounds
        #: The state table: ``(levels, states)`` arrays, one row per level.
        self.site, self.entry, self.iterts = site, entry, iterts
        #: Deepest stack observed across all threads: the number of levels.
        self.depth = len(site)
        #: Thread id -> (its loop-event rows, ascending; its state offset).
        self._threads: dict[int, tuple[np.ndarray, int]] = {
            t: (rows[lo:hi], 1 + lo + j)
            for j, (t, lo, hi) in enumerate(
                zip(tids.tolist(), bounds[:-1].tolist(), bounds[1:].tolist())
            )
        }

    def states_of(self, tid: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """State-table index of each access at ascending global ``rows``
        (``tid`` its thread): the thread's stack before that row."""
        out = np.zeros(len(rows), dtype=np.int64)
        if not self._threads or len(rows) == 0:
            return out
        if tid.min() == tid.max():
            groups = [(int(tid[0]), slice(None))]
        else:
            # One run of ascending rows per thread (a stable sort keeps
            # each thread's rows in order).
            by_tid = np.argsort(tid, kind="stable")
            t = tid[by_tid]
            cuts = np.flatnonzero(t[1:] != t[:-1]) + 1
            groups = [
                (int(t[lo]), by_tid[lo:hi])
                for lo, hi in zip(
                    [0, *cuts.tolist()], [*cuts.tolist(), len(t)]
                )
            ]
        for t, sel in groups:
            found = self._threads.get(t)
            if found is not None:
                ev_rows, offset = found
                out[sel] = offset + np.searchsorted(ev_rows, rows[sel])
        return out
