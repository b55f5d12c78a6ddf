"""mmap-backed trace spill tier — traces larger than RAM, streamed.

A spilled trace is a directory (conventionally ``<key>.trace.spill/``)
holding one raw binary file per trace column plus a ``meta.json`` with the
intern tables.  :func:`open_spill` rebuilds it as a
:class:`SpilledTraceBatch` whose columns are read-only ``np.memmap`` views:
nothing is resident until touched, windows page in on demand, and
:meth:`SpilledTraceBatch.release_window` hands consumed pages back to the
kernel (``madvise(MADV_DONTNEED)``) so peak RSS stays bounded by the live
window regardless of trace length.  That release is purely a residency
hint — dropped pages of the read-only file mapping are re-read
transparently on the next access — so callers may release aggressively.

:class:`TraceSpillWriter` appends column blocks segment-wise, so a
synthetic generator (the trace amplifier) can emit a 10⁸-event trace
without ever holding more than one segment in memory.

Exact ``n_unique_addresses`` is inherently Ω(unique) memory — on amplified
traces that is O(n), which would defeat the flat-RSS point.  Writers that
*know* the unique count (the amplifier does: its tiles are
address-disjoint) store it as ``unique_addresses_hint``; the batch property
answers from the hint and only falls back to the exact scan when no hint
was recorded.
"""

from __future__ import annotations

import json
import mmap
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.common.errors import TraceFormatError
from repro.trace.batch import _COLUMNS, TraceBatch

_SPILL_VERSION = 1
_META_NAME = "meta.json"

#: Suffix of spill directories created by the trace cache layer.
SPILL_SUFFIX = ".trace.spill"


@dataclass(frozen=True)
class SpilledTraceBatch(TraceBatch):
    """A :class:`TraceBatch` whose columns are read-only memmap views."""

    #: Directory the columns are mapped from.
    spill_path: str = ""
    #: Writer-declared distinct READ/WRITE address count (``None`` = unknown).
    unique_addresses_hint: int | None = None

    @property
    def n_unique_addresses(self) -> int:
        if self.unique_addresses_hint is not None:
            return int(self.unique_addresses_hint)
        return super().n_unique_addresses

    def release_window(self, start: int, end: int) -> None:
        """Drop row range ``[start, end)``'s resident pages (RSS hint only).

        Resident pages of a file-backed mapping count toward ``ru_maxrss``
        like anonymous memory, so a streaming consumer that never releases
        would show trace-sized peak RSS even though nothing was copied.
        Only pages wholly before ``end`` are dropped: a page that still
        holds a row the caller reads later would fault back in, and the
        fault maps its whole page-cache folio (up to hundreds of KiB,
        released pages included) back into the process.
        """
        if end <= start:
            return
        page = mmap.PAGESIZE
        for name, _ in _COLUMNS:
            col = getattr(self, name)
            mm = getattr(col, "_mmap", None)
            if mm is None or not hasattr(mm, "madvise"):
                continue  # plain array column, or platform without madvise
            lo = (start * col.itemsize) // page * page
            hi = min(len(mm), (end * col.itemsize) // page * page)
            if hi > lo:
                mm.madvise(mmap.MADV_DONTNEED, lo, hi - lo)


class TraceSpillWriter:
    """Segment-wise column appender producing a spill directory.

    Use as a context manager (or call :meth:`close`); the directory is not
    a valid spill until ``meta.json`` lands, which only happens on a clean
    close — a crashed writer leaves no half-readable trace behind.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self._files = {
            name: open(self.path / f"{name}.bin", "wb") for name, _ in _COLUMNS
        }
        self._dtypes = {name: np.dtype(dt) for name, dt in _COLUMNS}
        self.n_events = 0
        self.var_names: tuple[str, ...] = ()
        self.file_names: tuple[str, ...] = ()
        self.ctx_stacks: tuple[tuple[int, ...], ...] = ()
        self.unique_addresses_hint: int | None = None
        self._closed = False

    def __enter__(self) -> "TraceSpillWriter":
        return self

    def __exit__(self, *exc: object) -> None:
        if any(exc):
            self.abort()
        else:
            self.close()

    def set_intern_tables(
        self,
        var_names: tuple[str, ...],
        file_names: tuple[str, ...],
        ctx_stacks: tuple[tuple[int, ...], ...],
    ) -> None:
        self.var_names = tuple(var_names)
        self.file_names = tuple(file_names)
        self.ctx_stacks = tuple(tuple(s) for s in ctx_stacks)

    def set_unique_hint(self, n_unique: int) -> None:
        """Declare the exact distinct READ/WRITE address count."""
        self.unique_addresses_hint = int(n_unique)

    def append_columns(self, **cols: np.ndarray) -> None:
        """Append one aligned segment of all eight columns."""
        missing = {name for name, _ in _COLUMNS} - set(cols)
        if missing:
            raise TraceFormatError(f"missing spill columns: {sorted(missing)}")
        lengths = {len(v) for v in cols.values()}
        if len(lengths) != 1:
            raise TraceFormatError(f"unequal column lengths: {sorted(lengths)}")
        n = lengths.pop()
        for name, _ in _COLUMNS:
            arr = np.ascontiguousarray(cols[name], dtype=self._dtypes[name])
            self._files[name].write(arr.tobytes())
        self.n_events += n

    def append_batch(self, batch: TraceBatch) -> None:
        """Append a whole in-memory batch as one segment (adopting its
        intern tables when none were set yet)."""
        if not self.var_names and batch.var_names:
            self.var_names = batch.var_names
        if not self.file_names and batch.file_names:
            self.file_names = batch.file_names
        if not self.ctx_stacks and batch.ctx_stacks:
            self.ctx_stacks = batch.ctx_stacks
        self.append_columns(**batch.columns())

    def close(self) -> Path:
        """Flush the columns and commit ``meta.json``; returns the path."""
        if self._closed:
            return self.path
        for f in self._files.values():
            f.close()
        meta = {
            "version": _SPILL_VERSION,
            "n_events": self.n_events,
            "columns": {name: np.dtype(dt).str for name, dt in _COLUMNS},
            "var_names": list(self.var_names),
            "file_names": list(self.file_names),
            "ctx_stacks": [list(s) for s in self.ctx_stacks],
            "unique_addresses_hint": self.unique_addresses_hint,
        }
        tmp = self.path / (_META_NAME + ".tmp")
        tmp.write_text(json.dumps(meta))
        tmp.rename(self.path / _META_NAME)
        self._closed = True
        return self.path

    def abort(self) -> None:
        """Discard the partial spill (no meta.json was ever committed)."""
        if self._closed:
            return
        for f in self._files.values():
            f.close()
        self._closed = True
        shutil.rmtree(self.path, ignore_errors=True)


def is_spill(path: str | Path) -> bool:
    """True when ``path`` is a committed spill directory."""
    return (Path(path) / _META_NAME).is_file()


def open_spill(path: str | Path) -> SpilledTraceBatch:
    """Map a spill directory as a zero-copy :class:`SpilledTraceBatch`."""
    path = Path(path)
    meta_path = path / _META_NAME
    if not meta_path.is_file():
        raise TraceFormatError(f"not a spill directory (no meta.json): {path}")
    meta = json.loads(meta_path.read_text())
    if meta.get("version") != _SPILL_VERSION:
        raise TraceFormatError(
            f"unsupported spill version {meta.get('version')!r} in {path}"
        )
    n = int(meta["n_events"])
    cols: dict[str, np.ndarray] = {}
    for name, dt in _COLUMNS:
        dtype = np.dtype(meta["columns"].get(name, np.dtype(dt).str))
        fpath = path / f"{name}.bin"
        expected = n * dtype.itemsize
        actual = fpath.stat().st_size if fpath.is_file() else -1
        if actual != expected:
            raise TraceFormatError(
                f"spill column {name!r} in {path} has {actual} bytes, "
                f"expected {expected}"
            )
        if n == 0:
            cols[name] = np.empty(0, dtype=dtype)
        else:
            cols[name] = np.memmap(fpath, dtype=dtype, mode="r", shape=(n,))
    hint = meta.get("unique_addresses_hint")
    return SpilledTraceBatch(
        **cols,
        var_names=tuple(meta["var_names"]),
        file_names=tuple(meta["file_names"]),
        ctx_stacks=tuple(tuple(s) for s in meta["ctx_stacks"]),
        spill_path=str(path),
        unique_addresses_hint=None if hint is None else int(hint),
    )


def spill_batch(batch: TraceBatch, path: str | Path) -> SpilledTraceBatch:
    """Write an in-memory batch out as a spill and map it back."""
    with TraceSpillWriter(path) as w:
        w.append_batch(batch)
        w.set_unique_hint(batch.n_unique_addresses)
    return open_spill(path)
