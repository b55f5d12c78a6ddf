"""mmap trace spill tier: format, streaming writes, windowed scans."""

import numpy as np
import pytest

from repro.common.errors import TraceFormatError
from repro.trace import (
    READ,
    WRITE,
    SpilledTraceBatch,
    TraceBuilder,
    TraceSpillWriter,
    is_spill,
    open_spill,
    spill_batch,
)


def small_batch(n=64):
    b = TraceBuilder()
    for i in range(n):
        b.append(
            kind=READ if i % 2 else WRITE,
            tid=0,
            loc=i,
            addr=8 * (i % 7),
            aux=0,
            var=i % 3,
            ts=i,
            ctx=-1,
        )
    return b.build()


COLUMNS = ("kind", "tid", "loc", "addr", "aux", "var", "ts", "ctx")


class TestSpillFormat:
    def test_round_trip_preserves_columns_and_tables(self, tmp_path):
        batch = small_batch()
        sp = spill_batch(batch, tmp_path / "t.trace.spill")
        assert isinstance(sp, SpilledTraceBatch)
        assert len(sp) == len(batch)
        for name in COLUMNS:
            assert np.array_equal(
                np.asarray(getattr(sp, name)), np.asarray(getattr(batch, name))
            )
        assert sp.var_names == batch.var_names
        assert sp.file_names == batch.file_names

    def test_segmented_writes_concatenate(self, tmp_path):
        batch = small_batch(10)
        with TraceSpillWriter(tmp_path / "seg.spill") as w:
            w.append_batch(batch)
            w.append_batch(batch)
        sp = open_spill(tmp_path / "seg.spill")
        assert len(sp) == 20
        assert np.array_equal(np.asarray(sp.ts[10:]), np.asarray(batch.ts))

    def test_unique_hint_overrides_exact_scan(self, tmp_path):
        batch = small_batch()
        with TraceSpillWriter(tmp_path / "h.spill") as w:
            w.append_batch(batch)
            w.set_unique_hint(12345)
        assert open_spill(tmp_path / "h.spill").n_unique_addresses == 12345

    def test_no_hint_falls_back_to_exact(self, tmp_path):
        batch = small_batch()
        with TraceSpillWriter(tmp_path / "nh.spill") as w:
            w.append_batch(batch)
        sp = open_spill(tmp_path / "nh.spill")
        assert sp.n_unique_addresses == batch.n_unique_addresses

    def test_uncommitted_writer_is_not_a_spill(self, tmp_path):
        w = TraceSpillWriter(tmp_path / "x.spill")
        w.append_batch(small_batch(4))
        assert not is_spill(tmp_path / "x.spill")
        with pytest.raises(TraceFormatError):
            open_spill(tmp_path / "x.spill")
        w.abort()
        assert not (tmp_path / "x.spill").exists()

    def test_truncated_column_detected(self, tmp_path):
        spill_batch(small_batch(), tmp_path / "t.spill")
        with open(tmp_path / "t.spill" / "addr.bin", "r+b") as f:
            f.truncate(8)
        with pytest.raises(TraceFormatError, match="addr"):
            open_spill(tmp_path / "t.spill")

    def test_mismatched_segment_lengths_rejected(self, tmp_path):
        w = TraceSpillWriter(tmp_path / "m.spill")
        cols = {
            name: np.zeros(4, dtype=np.int64) for name in COLUMNS
        }
        cols["kind"] = np.zeros(3, dtype=np.uint8)
        with pytest.raises(TraceFormatError, match="unequal"):
            w.append_columns(**cols)
        w.abort()

    def test_empty_spill(self, tmp_path):
        with TraceSpillWriter(tmp_path / "e.spill") as w:
            pass
        sp = open_spill(tmp_path / "e.spill")
        assert len(sp) == 0 and sp.n_unique_addresses == 0


class TestReleaseWindow:
    def test_release_is_nondestructive(self, tmp_path):
        batch = small_batch(4096)
        sp = spill_batch(batch, tmp_path / "r.spill")
        before = np.asarray(sp.addr).copy()
        sp.release_window(0, 2048)
        sp.release_window(0, len(sp))  # whole trace, page-rounded
        sp.release_window(100, 100)  # empty range is a no-op
        assert np.array_equal(np.asarray(sp.addr), before)


class TestThreadCount:
    def test_n_threads_scans_windows(self, tmp_path, monkeypatch):
        """A spilled multi-thread trace spanning several scan windows (some
        of one thread, some mixed) counts each thread once, and releases
        every window it scanned."""
        import repro.trace.batch as batch_mod

        tids = np.array([0] * 40 + [3] * 20 + [1, 2] * 30 + [7] * 10 + [0] * 30)
        b = TraceBuilder()
        b.append_rows(len(tids), kind=READ, tid=tids, addr=8 * np.arange(len(tids)))
        sp = spill_batch(b.build(), tmp_path / "t.spill")
        monkeypatch.setattr(batch_mod, "_SCAN_WINDOW", 16)
        released = []
        monkeypatch.setattr(
            SpilledTraceBatch, "release_window", lambda self, s, e: released.append((s, e))
        )
        assert sp.n_threads == len(set(tids.tolist())) == 5
        n = len(tids)
        assert released == [(s, min(s + 16, n)) for s in range(0, n, 16)]
