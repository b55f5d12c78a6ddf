"""Tests for the lock-free SPSC ring and the locked queue, including a real
two-thread stress test of the lock-free algorithm."""

import threading

import pytest

from repro.common.errors import QueueClosedError
from repro.obs import MetricsRegistry
from repro.parallel.queues import LockedQueue, SpscRingQueue


@pytest.fixture(params=[SpscRingQueue, LockedQueue], ids=["lockfree", "locked"])
def queue_cls(request):
    return request.param


class TestQueueProtocol:
    def test_fifo_order(self, queue_cls):
        q = queue_cls(8)
        for i in range(5):
            assert q.try_push(i)
        out = []
        while True:
            ok, v = q.try_pop()
            if not ok:
                break
            out.append(v)
        assert out == [0, 1, 2, 3, 4]

    def test_pop_empty(self, queue_cls):
        ok, v = queue_cls(4).try_pop()
        assert not ok and v is None

    def test_push_full_fails_without_losing_items(self, queue_cls):
        q = queue_cls(2)
        pushed = 0
        while q.try_push(pushed):
            pushed += 1
        assert pushed >= 2
        assert not q.try_push(99)
        assert q.push_fail_count >= 1
        got = 0
        while q.try_pop()[0]:
            got += 1
        assert got == pushed

    def test_close_then_push_raises(self, queue_cls):
        q = queue_cls(4)
        q.close()
        with pytest.raises(QueueClosedError):
            q.try_push(1)

    def test_drained_semantics(self, queue_cls):
        q = queue_cls(4)
        q.try_push(1)
        q.close()
        assert not q.drained  # closed but still has an item
        q.try_pop()
        assert q.drained

    def test_capacity_positive_required(self, queue_cls):
        with pytest.raises(ValueError):
            queue_cls(0)

    def test_wraparound_many_times(self, queue_cls):
        q = queue_cls(4)
        for i in range(1000):
            assert q.try_push(i)
            ok, v = q.try_pop()
            assert ok and v == i

    def test_wraparound_under_full_ring(self, queue_cls):
        """Keep the queue saturated while draining: cursors wrap the ring
        many times over with the ring at (or near) capacity throughout."""
        q = queue_cls(4)
        cap = q.capacity
        next_in = 0
        while q.try_push(next_in):
            next_in += 1
        assert next_in == cap
        expected = 0
        for _ in range(25 * cap):
            ok, v = q.try_pop()
            assert ok and v == expected
            expected += 1
            assert q.try_push(next_in)  # one slot just freed
            next_in += 1
            assert not q.try_push(-1)  # and it is full again
        # Drain the remainder in order.
        while True:
            ok, v = q.try_pop()
            if not ok:
                break
            assert v == expected
            expected += 1
        assert expected == next_in

    def test_fail_counters_count_every_failed_attempt(self, queue_cls):
        q = queue_cls(2)
        assert q.push_fail_count == 0 and q.pop_fail_count == 0
        while q.try_push(0):
            pass
        cap = q.capacity
        for _ in range(3):
            assert not q.try_push(1)
        assert q.push_fail_count == 1 + 3  # saturating probe + 3 explicit
        for _ in range(cap):
            assert q.try_pop()[0]
        for _ in range(5):
            assert not q.try_pop()[0]
        assert q.pop_fail_count == 5
        # Successful operations never bump the failure counters.
        assert q.try_push(7) and q.try_pop() == (True, 7)
        assert q.push_fail_count == 4 and q.pop_fail_count == 5

    def test_registry_counters_are_shared_source_of_truth(self, queue_cls):
        """Queues wired to registry counters report stalls there, and the
        legacy ``*_fail_count`` attributes read through to the same values."""
        reg = MetricsRegistry()
        q = queue_cls(
            2,
            push_stalls=reg.counter("queue.push_stalls", worker=0),
            pop_stalls=reg.counter("queue.pop_stalls", worker=0),
        )
        while q.try_push(0):
            pass
        assert not q.try_push(1)
        while q.try_pop()[0]:
            pass
        assert q.push_fail_count == reg.counter("queue.push_stalls", worker=0).value
        assert q.pop_fail_count == reg.counter("queue.pop_stalls", worker=0).value
        assert q.push_fail_count == 2 and q.pop_fail_count == 1


class TestSpscSpecific:
    def test_capacity_rounded_to_power_of_two(self):
        assert SpscRingQueue(5).capacity == 8
        assert SpscRingQueue(8).capacity == 8

    def test_len_tracks_in_flight(self):
        q = SpscRingQueue(8)
        q.try_push(1)
        q.try_push(2)
        assert len(q) == 2
        q.try_pop()
        assert len(q) == 1

    def test_pop_clears_slot_reference(self):
        q = SpscRingQueue(2)
        obj = object()
        q.try_push(obj)
        q.try_pop()
        assert all(s is None for s in q._slots)

    @pytest.mark.parametrize("n_items", [10_000])
    def test_two_thread_stress_no_loss_no_dup_in_order(self, n_items):
        """Real producer/consumer threads hammer the ring: every item must
        arrive exactly once, in order, with no locks anywhere."""
        q = SpscRingQueue(16)
        received = []

        def producer():
            i = 0
            while i < n_items:
                if q.try_push(i):
                    i += 1
            q.close()

        def consumer():
            while True:
                ok, v = q.try_pop()
                if ok:
                    received.append(v)
                elif q.drained:
                    return

        threads = [threading.Thread(target=producer), threading.Thread(target=consumer)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert received == list(range(n_items))


class TestPipelineDrainPaths:
    """Whole-pipeline runs sized so the rings wrap around many times and hit
    full-ring backpressure, under each consumer drain path."""

    def _batch(self):
        from repro.workloads import get_trace

        return get_trace("ep")

    def _tiny_cfg(self):
        from repro.common.config import ProfilerConfig

        # 22k events / (chunk_size 64 * depth 2) -> hundreds of wraps per ring.
        return ProfilerConfig(
            perfect_signature=True, workers=2, chunk_size=64, queue_depth=2
        )

    def test_deterministic_wraparound_and_backpressure(self):
        from repro.core import profile_trace
        from repro.parallel import ParallelProfiler

        batch = self._batch()
        cfg = self._tiny_cfg()
        det, info = ParallelProfiler(cfg, mode="deterministic").profile(batch)
        seq = profile_trace(batch, cfg.with_(workers=1), "reference")
        assert det.store == seq.store
        # The ring held at most queue_depth chunks but carried hundreds.
        assert info.n_chunks > 10 * cfg.queue_depth * cfg.workers

    def test_deterministic_inline_drain_same_counters(self):
        from repro.parallel import ParallelProfiler

        batch = self._batch()
        cfg = self._tiny_cfg()
        det, di = ParallelProfiler(cfg, mode="deterministic").profile(batch)
        # Inline drain means the full producer stream hit backpressure at
        # least once with a 2-deep ring.
        assert di.push_stalls > 0
        # The whole trace fits one window, so both transports cut the same
        # chunks.
        assert len(batch) <= 1 << 15
        prc, pi = ParallelProfiler(cfg, mode="processes").profile(batch)
        assert prc.store == det.store
        assert pi.n_chunks == di.n_chunks
        assert pi.per_worker_accesses == di.per_worker_accesses

    def test_processes_mode_drain_same_result(self):
        from repro.parallel import ParallelProfiler

        batch = self._batch()
        cfg = self._tiny_cfg()
        det, di = ParallelProfiler(cfg, mode="deterministic").profile(batch)
        prc, pi = ParallelProfiler(cfg, mode="processes", window=1 << 11).profile(batch)
        assert prc.store == det.store
        assert pi.per_worker_accesses == di.per_worker_accesses
