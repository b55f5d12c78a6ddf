"""Structure-of-arrays trace storage.

A :class:`TraceBatch` is the unit every profiler engine consumes: eight
parallel numpy columns plus three intern tables (variable names, file names,
static loop contexts).  It is append-built through :class:`TraceBuilder`
(amortized O(1) growth) and immutable afterwards, so engines may share one
batch across experiments without copying.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.common.arrays import unique_sorted
from repro.common.errors import TraceFormatError
from repro.trace.events import Event, KIND_NAMES, READ, WRITE

#: Rows per window when scanning a whole column (see ``n_threads``).
_SCAN_WINDOW = 1 << 20

_COLUMNS = (
    ("kind", np.uint8),
    ("tid", np.int32),
    ("loc", np.int32),
    ("addr", np.int64),
    ("aux", np.int64),
    ("var", np.int32),
    ("ts", np.int64),
    ("ctx", np.int32),
)


@dataclass(frozen=True)
class TraceBatch:
    """An immutable, column-oriented event trace.

    Attributes
    ----------
    kind, tid, loc, addr, aux, var, ts, ctx:
        Parallel numpy arrays; see :class:`repro.trace.events.Event` for the
        per-kind column semantics.
    var_names:
        Intern table mapping ``var`` ids to variable names.
    file_names:
        Intern table mapping file ids (high bits of ``loc``) to file names.
    ctx_stacks:
        Intern table mapping ``ctx`` ids to static loop stacks — tuples of
        encoded loop-site locations, outermost first.
    """

    kind: np.ndarray
    tid: np.ndarray
    loc: np.ndarray
    addr: np.ndarray
    aux: np.ndarray
    var: np.ndarray
    ts: np.ndarray
    ctx: np.ndarray
    var_names: tuple[str, ...] = ()
    file_names: tuple[str, ...] = ()
    ctx_stacks: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self) -> None:
        n = len(self.kind)
        for name, _ in _COLUMNS:
            col = getattr(self, name)
            if len(col) != n:
                raise TraceFormatError(
                    f"column {name!r} has length {len(col)}, expected {n}"
                )

    def __len__(self) -> int:
        return len(self.kind)

    @property
    def n_events(self) -> int:
        return len(self.kind)

    def release_window(self, start: int, end: int) -> None:
        """Hint that rows ``[start, end)`` need not stay resident.  A no-op
        on in-memory columns; a spilled batch drops their pages."""

    @property
    def n_accesses(self) -> int:
        """Number of memory-access (READ/WRITE) events."""
        return int(np.count_nonzero((self.kind == READ) | (self.kind == WRITE)))

    @property
    def n_threads(self) -> int:
        """Number of distinct target-thread ids appearing in the trace.

        Scans ``tid`` window by window and releases each window of a
        spilled batch behind itself, so the count never holds (or pages
        in) the whole column at once.
        """
        n = len(self.tid)
        seen = np.empty(0, dtype=self.tid.dtype)
        for s in range(0, n, _SCAN_WINDOW):
            e = min(n, s + _SCAN_WINDOW)
            window = np.asarray(self.tid[s:e])
            # A one-thread window (the common case) needs no sort.
            one = window.min() == window.max()
            distinct = window[:1] if one else unique_sorted(window)
            seen = unique_sorted(np.concatenate([seen, distinct]))
            self.release_window(s, e)
        return len(seen)

    @property
    def n_unique_addresses(self) -> int:
        """Number of distinct addresses touched by READ/WRITE events."""
        return len(unique_sorted(self.addr[self.access_mask()]))

    def access_mask(self) -> np.ndarray:
        """Boolean mask selecting READ/WRITE rows."""
        return (self.kind == READ) | (self.kind == WRITE)

    def select(self, index: np.ndarray) -> "TraceBatch":
        """Row-subset view (fancy-indexed copy) sharing the intern tables."""
        return TraceBatch(
            kind=self.kind[index],
            tid=self.tid[index],
            loc=self.loc[index],
            addr=self.addr[index],
            aux=self.aux[index],
            var=self.var[index],
            ts=self.ts[index],
            ctx=self.ctx[index],
            var_names=self.var_names,
            file_names=self.file_names,
            ctx_stacks=self.ctx_stacks,
        )

    def event(self, i: int) -> Event:
        """Decode row ``i`` into an :class:`Event` view (slow path)."""
        return Event(
            kind=int(self.kind[i]),
            tid=int(self.tid[i]),
            loc=int(self.loc[i]),
            addr=int(self.addr[i]),
            aux=int(self.aux[i]),
            var=int(self.var[i]),
            ts=int(self.ts[i]),
            ctx=int(self.ctx[i]),
        )

    def iter_events(self) -> Iterator[Event]:
        """Iterate decoded events in trace order (slow; reference engine/tests)."""
        for i in range(len(self)):
            yield self.event(i)

    def var_name(self, var_id: int) -> str:
        if var_id < 0 or var_id >= len(self.var_names):
            return "*"
        return self.var_names[var_id]

    def summary(self) -> str:
        """Human-readable one-paragraph description (used by the CLI)."""
        kinds, counts = np.unique(self.kind, return_counts=True)
        parts = ", ".join(
            f"{KIND_NAMES.get(int(k), str(int(k)))}={int(c)}"
            for k, c in zip(kinds, counts)
        )
        return (
            f"TraceBatch: {len(self)} events ({parts}); "
            f"{self.n_unique_addresses} unique addresses, "
            f"{self.n_threads} thread(s), {len(self.var_names)} variables"
        )


class TraceBuilder:
    """Growable column store that freezes into a :class:`TraceBatch`.

    Uses capacity-doubling numpy buffers rather than Python lists: traces run
    to millions of rows, and building them must not dominate workload setup.
    """

    def __init__(self, capacity: int = 1024) -> None:
        self._cap = max(16, capacity)
        self._n = 0
        self._cols = {
            name: np.empty(self._cap, dtype=dt) for name, dt in _COLUMNS
        }
        self.var_names: list[str] = []
        self._var_ids: dict[str, int] = {}
        self.file_names: list[str] = []
        self._file_ids: dict[str, int] = {}
        self.ctx_stacks: list[tuple[int, ...]] = []
        self._ctx_ids: dict[tuple[int, ...], int] = {}

    def __len__(self) -> int:
        return self._n

    # -- intern tables ----------------------------------------------------
    def intern_var(self, name: str) -> int:
        vid = self._var_ids.get(name)
        if vid is None:
            vid = len(self.var_names)
            self.var_names.append(name)
            self._var_ids[name] = vid
        return vid

    def intern_file(self, name: str) -> int:
        fid = self._file_ids.get(name)
        if fid is None:
            fid = len(self.file_names)
            self.file_names.append(name)
            self._file_ids[name] = fid
        return fid

    def intern_ctx(self, stack: tuple[int, ...]) -> int:
        cid = self._ctx_ids.get(stack)
        if cid is None:
            cid = len(self.ctx_stacks)
            self.ctx_stacks.append(stack)
            self._ctx_ids[stack] = cid
        return cid

    # -- row append --------------------------------------------------------
    def _grow(self, need: int) -> None:
        cap = self._cap
        while cap < need:
            cap *= 2
        for name in self._cols:
            new = np.empty(cap, dtype=self._cols[name].dtype)
            new[: self._n] = self._cols[name][: self._n]
            self._cols[name] = new
        self._cap = cap

    def append(
        self,
        kind: int,
        tid: int,
        loc: int,
        addr: int,
        aux: int,
        var: int,
        ts: int,
        ctx: int,
    ) -> None:
        if self._n == self._cap:
            self._grow(self._n + 1)
        n = self._n
        c = self._cols
        c["kind"][n] = kind
        c["tid"][n] = tid
        c["loc"][n] = loc
        c["addr"][n] = addr
        c["aux"][n] = aux
        c["var"][n] = var
        c["ts"][n] = ts
        c["ctx"][n] = ctx
        self._n = n + 1

    def append_rows(self, n: int, **cols: "np.ndarray | int") -> None:
        """Block-append ``n`` rows at once from column arrays or scalars.

        Scalars broadcast over the block (numpy assignment semantics); array
        columns must have length ``n``.  Missing columns default to ``-1``
        for ``loc``/``var``/``ctx`` and ``0`` otherwise; ``ts`` defaults to a
        fresh monotone range.  This is the bulk-emission primitive behind the
        producer fast path and synthetic trace generators: one call replaces
        ``n`` per-row :meth:`append` calls.
        """
        if n < 0:
            raise TraceFormatError(f"append_rows of {n} rows")
        unknown = set(cols) - {name for name, _ in _COLUMNS}
        if unknown:
            raise TraceFormatError(f"unknown trace columns: {sorted(unknown)}")
        for name, v in cols.items():
            if np.ndim(v) != 0 and len(v) != n:
                raise TraceFormatError(
                    f"column {name!r} has length {len(v)}, expected {n}"
                )
        if n == 0:
            return
        if self._n + n > self._cap:
            self._grow(self._n + n)
        start = self._n
        defaults = {"loc": -1, "var": -1, "ctx": -1}
        for name, _ in _COLUMNS:
            dst = self._cols[name][start : start + n]
            if name in cols:
                dst[:] = cols[name]
            elif name == "ts":
                dst[:] = np.arange(start, start + n, dtype=np.int64)
            else:
                dst[:] = defaults.get(name, 0)
        self._n = start + n

    def extend_columns(self, **cols: np.ndarray) -> None:
        """Bulk-append aligned column arrays (synthetic workload fast path).

        Thin wrapper over :meth:`append_rows` that infers the row count from
        the (required, equal-length) array columns.
        """
        lengths = {len(v) for v in cols.values()}
        if len(lengths) != 1:
            raise TraceFormatError(f"unequal column lengths: {sorted(lengths)}")
        self.append_rows(lengths.pop(), **cols)

    def build(self) -> TraceBatch:
        """Freeze into an immutable :class:`TraceBatch` (copies the columns)."""
        return TraceBatch(
            **{name: self._cols[name][: self._n].copy() for name, _ in _COLUMNS},
            var_names=tuple(self.var_names),
            file_names=tuple(self.file_names),
            ctx_stacks=tuple(self.ctx_stacks),
        )
