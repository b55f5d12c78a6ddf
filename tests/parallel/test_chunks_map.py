"""Tests for the worker's chunk cutting and the address map."""

import numpy as np
import pytest

from repro.common.config import ProfilerConfig
from repro.core.controlflow import LoopStateIndex
from repro.parallel.address_map import AddressMap
from repro.parallel.worker import Worker
from tests.trace_helpers import seq_trace


class TestWorkerChunks:
    """A worker cuts the rows it is fed into ``chunk_size`` chunks itself."""

    def worker(self, chunk_size):
        batch = seq_trace([("w", 0x1000 + 8 * i, 1, "a") for i in range(10)])
        cfg = ProfilerConfig(perfect_signature=True, chunk_size=chunk_size)
        return batch, Worker(0, cfg, LoopStateIndex(batch))

    def test_feed_runs_each_full_chunk(self):
        batch, w = self.worker(4)
        assert w.feed(batch, np.arange(3)) == []  # not full yet: kept
        assert w.chunks_processed == 0
        # The kept rows lead the next window's: one stream across windows.
        assert w.feed(batch, np.arange(3, 10)) == [4, 4]
        assert w.chunks_processed == 2 and w.accesses_processed == 8

    def test_flush_runs_the_partial_chunk(self):
        batch, w = self.worker(4)
        w.feed(batch, np.arange(10))
        assert w.flush(batch) == [2]
        assert w.accesses_processed == 10

    def test_flush_leaves_nothing_pending(self):
        batch, w = self.worker(4)
        w.feed(batch, np.arange(6))
        assert w.flush(batch) == [2]
        assert w.flush(batch) == []  # nothing left to run
        # Chunk numbers continue after a flush (provenance chunk ids).
        assert w.feed(batch, np.arange(6, 10)) == [4]
        assert w.chunks_processed == 3


class TestAddressMap:
    def test_modulo_distribution_on_element_index(self):
        amap = AddressMap(4)
        assert amap.worker_of(0x00) == 0  # element 0
        assert amap.worker_of(0x08) == 1  # element 1
        assert amap.worker_of(0x18) == 3  # element 3
        assert amap.worker_of(0x20) == 0  # element 4 wraps

    def test_vectorized_matches_scalar(self):
        amap = AddressMap(7)
        addrs = np.arange(0, 8 * 200, 8, dtype=np.int64)
        vec = amap.workers_of(addrs)
        assert vec.tolist() == [amap.worker_of(int(a)) for a in addrs]

    def test_redistribution_overrides_modulo(self):
        amap = AddressMap(4)
        old = amap.redistribute(0x40, 3)  # element 8, home = worker 0
        assert old == 0
        assert amap.worker_of(0x40) == 3
        assert amap.n_overrides == 1

    def test_vectorized_respects_overrides(self):
        amap = AddressMap(4)
        amap.redistribute(0x40, 3)
        addrs = np.array([0x40, 0x08, 0x40], dtype=np.int64)
        assert amap.workers_of(addrs).tolist() == [3, 1, 3]

    def test_redistribute_back_home_removes_override(self):
        amap = AddressMap(4)
        amap.redistribute(0x40, 3)
        amap.redistribute(0x40, 0)  # element 8's natural home under W=4
        assert amap.n_overrides == 0
        assert amap.worker_of(0x40) == 0

    def test_even_address_distribution(self):
        """Eq. 1 claim: modulo spreads addresses evenly (8-byte strides)."""
        w = 8
        amap = AddressMap(w)
        addrs = np.arange(0, 8 * 10_000, 8, dtype=np.int64)
        counts = np.bincount(amap.workers_of(addrs), minlength=w)
        assert counts.max() - counts.min() <= counts.mean() * 0.01 + 1

    def test_rejects_bad_worker(self):
        amap = AddressMap(2)
        with pytest.raises(ValueError):
            amap.redistribute(8, 5)
        with pytest.raises(ValueError):
            AddressMap(0)
