"""Whole-pipeline drain paths: tiny chunks, tiny task queues.

Both transports feed every worker its rows window by window; the worker
runs each full chunk at once and flushes the remainder at the end, so
the two transports must agree on the store and on every chunk they cut.
"""


class TestPipelineDrainPaths:
    """Whole-pipeline runs with tiny chunks and 2-deep task queues, so
    workers run hundreds of chunks and processes mode hits backpressure."""

    def _batch(self):
        from repro.workloads import get_trace

        return get_trace("ep")

    def _tiny_cfg(self):
        from repro.common.config import ProfilerConfig

        # 22k events / chunk_size 64 -> hundreds of chunks per worker.
        return ProfilerConfig(
            perfect_signature=True, workers=2, chunk_size=64, queue_depth=2
        )

    def test_deterministic_wraparound_and_backpressure(self):
        from repro.parallel import ParallelProfiler
        from tests.trace_helpers import reference_profile

        batch = self._batch()
        cfg = self._tiny_cfg()
        det, info = ParallelProfiler(cfg, mode="deterministic").profile(batch)
        seq = reference_profile(batch, cfg.with_(workers=1))
        assert det.store == seq.store
        # Each worker ran its chunks as they filled: hundreds of them.
        assert info.n_chunks > 10 * cfg.queue_depth * cfg.workers

    def test_deterministic_inline_drain_same_counters(self):
        from repro.parallel import ParallelProfiler

        batch = self._batch()
        cfg = self._tiny_cfg()
        det, di = ParallelProfiler(cfg, mode="deterministic").profile(batch)
        # Both transports run the workers' one feed/flush loop, so they cut
        # the same chunks and log them in the same order.
        prc, pi = ParallelProfiler(cfg, mode="processes").profile(batch)
        assert prc.store == det.store
        assert pi.chunk_log == di.chunk_log
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
        # Chunks span windows, so the window size changes only the order
        # the workers' chunks are logged in, not the chunks themselves.
        assert pi.per_worker_chunks == di.per_worker_chunks
        assert sorted(pi.chunk_log) == sorted(di.chunk_log)
