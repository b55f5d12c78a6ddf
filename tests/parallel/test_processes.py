"""The ``processes`` execution mode: real multi-process workers over one
shared-memory trace block.

Everything here asserts *equality with the deterministic mode* (itself
equivalence-tested against the sequential engines) plus the merge
machinery: per-worker stores, metrics state folding, provenance, tracer
adoption, and shared-memory hygiene.
"""

import os

import numpy as np
import pytest

from repro.common.config import ProfilerConfig
from repro.common.errors import ProfilerError
from repro.core import profile_trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer
from repro.parallel import ParallelProfiler
from repro.trace import attach_batch, share_batch
from repro.workloads import get_trace
from tests.trace_helpers import seq_trace

PERFECT = ProfilerConfig(perfect_signature=True)


def _shm_entries():
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except FileNotFoundError:  # non-Linux: skip the hygiene accounting
        return set()


class TestSharedBatch:
    def test_roundtrip_zero_copy(self):
        batch = get_trace("ep")
        before = _shm_entries()
        shared = share_batch(batch)
        try:
            remote, handle = attach_batch(shared.meta)
            try:
                for col in ("kind", "tid", "loc", "addr", "aux", "var", "ts", "ctx"):
                    np.testing.assert_array_equal(
                        getattr(remote, col), getattr(batch, col)
                    )
                assert remote.var_names == batch.var_names
                assert remote.ctx_stacks == batch.ctx_stacks
                assert not remote.addr.flags.writeable
            finally:
                handle.close()
        finally:
            shared.close()
        assert _shm_entries() == before

    def test_empty_batch(self):
        batch = seq_trace([])
        shared = share_batch(batch)
        try:
            remote, handle = attach_batch(shared.meta)
            assert len(remote) == 0
            handle.close()
        finally:
            shared.close()


class TestProcessesMode:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("engine", ["vectorized", "reference"])
    def test_matches_sequential(self, workers, engine):
        batch = get_trace("ep")
        cfg = PERFECT.with_(
            workers=workers, chunk_size=512, worker_engine=engine
        )
        seq = profile_trace(batch, PERFECT, "reference")
        par, info = ParallelProfiler(cfg, mode="processes").profile(batch)
        assert par.store == seq.store
        assert par.stats.dep_instances == seq.stats.dep_instances
        assert par.stats.n_events == seq.stats.n_events
        assert sum(info.per_worker_accesses) == seq.stats.n_accesses
        assert info.n_chunks == len(info.chunk_log) > 0

    def test_array_signature_matches_deterministic(self):
        batch = get_trace("ep")
        cfg = ProfilerConfig(signature_slots=1 << 12, workers=3, chunk_size=512)
        det, _ = ParallelProfiler(cfg, mode="deterministic").profile(batch)
        par, _ = ParallelProfiler(cfg, mode="processes").profile(batch)
        assert par.store == det.store

    def test_loops_and_lifetime(self):
        ops = [("L+", 10)]
        for _ in range(5):
            ops += [("Li", 10)]
            for i in range(6):
                a = 0x1000 + 8 * i
                ops += [("r", a, 11, "s"), ("w", a, 12, "s")]
        ops += [("L-", 10), ("free", 0x1000, 48, 13), ("w", 0x1000, 14, "z")]
        batch = seq_trace(ops)
        seq = profile_trace(batch, PERFECT, "reference")
        par, _ = ParallelProfiler(
            PERFECT.with_(workers=3, chunk_size=8), mode="processes"
        ).profile(batch)
        assert par.store == seq.store

    def test_backpressure_tiny_task_queue(self):
        """queue_depth=1 task queues force producer-side blocking; results
        must be unaffected."""
        batch = get_trace("ep")
        cfg = PERFECT.with_(workers=2, chunk_size=256, queue_depth=1)
        par, _ = ParallelProfiler(cfg, mode="processes", window=1 << 10).profile(batch)
        seq = profile_trace(batch, PERFECT, "reference")
        assert par.store == seq.store

    def test_metrics_fold_into_parent_registry(self):
        batch = get_trace("ep")
        reg = MetricsRegistry()
        cfg = PERFECT.with_(workers=2, chunk_size=512)
        par, info = ParallelProfiler(cfg, mode="processes", registry=reg).profile(batch)
        # Worker-side counters arrived via merge_state.
        assert reg.sum_counters("worker.accesses") == sum(info.per_worker_accesses)
        assert reg.sum_counters("worker.chunks") == info.n_chunks
        assert reg.counter("pipeline.chunks").value == info.n_chunks
        # Per-chunk latency histograms travelled with their label sets.
        hists = [h for h in reg.histograms() if h.name == "worker.chunk_seconds"]
        assert len(hists) == 2
        assert sum(h.count for h in hists) == info.n_chunks
        # ProfileStats view over the merged registry is coherent.
        assert par.stats.n_accesses == sum(info.per_worker_accesses)
        assert info.signature_memory_bytes > 0

    def test_provenance_merged_across_processes(self):
        batch = get_trace("ep")
        cfg = PERFECT.with_(workers=2, chunk_size=512)
        par, _ = ParallelProfiler(cfg, mode="processes", provenance=True).profile(batch)
        det, _ = ParallelProfiler(cfg, provenance=True).profile(batch)
        assert par.provenance is not None
        assert len(par.provenance) == len(det.provenance)
        assert {w for _, r in par.provenance for w in r.workers} == {0, 1}

    def test_tracer_adopts_child_timelines(self):
        batch = get_trace("ep")
        reg = MetricsRegistry(tracer=Tracer())
        cfg = PERFECT.with_(workers=2, chunk_size=1024)
        ParallelProfiler(cfg, mode="processes", registry=reg).profile(batch)
        tr = reg.tracer
        assert tr.track_names[1] == "worker 0"
        assert tr.track_names[2] == "worker 1"
        chunk_events = tr.of_name("chunk.process")
        assert chunk_events and {e.track for e in chunk_events} == {1, 2}
        # Child events were re-based onto the parent epoch: they must sit
        # inside the parent's own span window, not near their child-local 0.
        spans = [e for e in tr.events if e.track == 0]
        assert spans
        lo = min(e.ts for e in spans) - 1.0
        assert all(e.ts > lo for e in chunk_events)

    def test_worker_failure_surfaces(self, monkeypatch):
        """A crash inside a worker process is shipped back as a traceback
        and re-raised parent-side (fork start method inherits the patch)."""
        import repro.parallel.worker as worker_mod

        def boom(self, batch, rows, seq=-1):
            raise RuntimeError("injected worker crash")

        monkeypatch.setattr(worker_mod.Worker, "process_rows", boom)
        batch = get_trace("ep")
        cfg = PERFECT.with_(workers=2, chunk_size=512)
        with pytest.raises(ProfilerError, match="injected worker crash"):
            ParallelProfiler(cfg, mode="processes").profile(batch)

    def test_worker_failure_flushes_sink_with_complete_jsonl(
        self, monkeypatch, tmp_path
    ):
        """The engine's exception path must flush (not abandon) the metrics
        sink: after a worker crash the JSONL file on disk parses cleanly,
        line by line, with the events emitted before the failure intact."""
        import repro.parallel.worker as worker_mod
        from repro.obs import JsonlSink, read_jsonl

        def boom(self, batch, rows, seq=-1):
            raise RuntimeError("injected worker crash")

        monkeypatch.setattr(worker_mod.Worker, "process_rows", boom)
        path = tmp_path / "metrics.jsonl"
        sink = JsonlSink(path, flush_every=10_000)  # never auto-flushes here
        reg = MetricsRegistry(sink)
        reg.emit({"type": "run.config", "workers": 2})
        batch = get_trace("ep")
        cfg = PERFECT.with_(workers=2, chunk_size=512)
        with pytest.raises(ProfilerError, match="injected worker crash"):
            ParallelProfiler(cfg, mode="processes", registry=reg).profile(batch)
        events = read_jsonl(path)  # parses or raises: no torn/missing lines
        assert any(e["type"] == "run.config" for e in events)
        # The sink survived the abort open for the caller's final report.
        reg.emit({"type": "run.aborted"})
        reg.close()
        assert any(e["type"] == "run.aborted" for e in read_jsonl(path))

    def test_no_shared_memory_leak(self):
        batch = get_trace("ep")
        before = _shm_entries()
        cfg = PERFECT.with_(workers=2, chunk_size=1024)
        ParallelProfiler(cfg, mode="processes").profile(batch)
        assert _shm_entries() == before

    def test_unknown_mode_rejected(self):
        with pytest.raises(ProfilerError):
            ParallelProfiler(PERFECT, mode="hyperthreads")

    def test_threads_mode_removed(self, capsys):
        from repro.cli import main
        from repro.parallel.engine import MODES

        assert MODES == ("deterministic", "processes")
        with pytest.raises(ProfilerError):
            ParallelProfiler(PERFECT, mode="threads")
        with pytest.raises(SystemExit) as exc:
            main(["stats", "ep", "--mode", "threads"])
        assert exc.value.code == 2
        assert "invalid choice: 'threads'" in capsys.readouterr().err

    def test_worker_exiting_without_result_raises(self, monkeypatch, tmp_path):
        """A worker process that exits cleanly without delivering its part
        (say its payload failed to pickle in the queue's feeder thread)
        must fail the run with a ProfilerError naming it, within seconds,
        and still leave a partial run bundle."""
        import signal

        import repro.parallel.engine as engine_mod
        from repro.obs import RunLedger, load_bundle

        def silent_worker(wid, config, meta, task_q, result_q, opts):
            while task_q.get() is not None:
                pass

        def hung(signum, frame):
            raise TimeoutError("profile() still blocked after 10 s")

        monkeypatch.setattr(engine_mod, "run_worker", silent_worker)
        led = RunLedger(tmp_path, "silent")
        prof = ParallelProfiler(
            PERFECT.with_(workers=2), mode="processes", ledger=led
        )
        old = signal.signal(signal.SIGALRM, hung)
        signal.alarm(10)
        try:
            with pytest.raises(ProfilerError, match="ddprof-worker-0"):
                prof.profile(get_trace("ep"))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old)
        assert load_bundle(led.path)["status"] == "partial"
