"""The ``processes`` execution mode: real multi-process workers from the
process's worker pool, fed through its shared arena.

Everything here asserts *equality with the deterministic mode* (itself
equivalence-tested against the reference engine) plus the merge
machinery: per-worker stores, metrics state folding, provenance, tracer
adoption, a transport that needs no POSIX shared memory, and the pool's
life cycle (reuse, re-fork, close on failure, exit with the parent).
"""

import itertools
import multiprocessing
import os
import time

import pytest

from repro.common.config import ProfilerConfig
from repro.common.errors import ProfilerError
from repro.core import profile_trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.provenance import ProvenanceCollector
from repro.obs.tracing import Tracer, worker_track
from repro.parallel import ParallelProfiler
from repro.parallel.engine import WINDOW
from repro.trace import spill_batch
from repro.workloads import get_trace
from repro.workloads.amplify import amplify_batch
from tests.trace_helpers import reference_pipeline, reference_profile, seq_trace

PERFECT = ProfilerConfig(perfect_signature=True)


class TestProcessesMode:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("engine", ["vectorized", "reference"])
    def test_matches_sequential(self, workers, engine):
        """``reference`` also diffs the run, provenance chunk ids included,
        against the reference-worker oracle, which chunks each worker's
        rows as a pipeline worker does."""
        batch = get_trace("ep")
        cfg = PERFECT.with_(workers=workers, chunk_size=512)
        seq = reference_profile(batch, PERFECT)
        par, info = ParallelProfiler(
            cfg, mode="processes", provenance=engine == "reference"
        ).profile(batch)
        assert par.store == seq.store
        assert par.stats.dep_instances == seq.stats.dep_instances
        assert par.stats.n_events == seq.stats.n_events
        assert sum(info.per_worker_accesses) == seq.stats.n_accesses
        assert info.n_chunks == len(info.chunk_log) > 0
        if engine == "reference":
            store, engines, _ = reference_pipeline(batch, cfg)
            oracle = ProvenanceCollector()
            for eng in engines:
                oracle.merge(eng.provenance)
            assert par.store == store
            assert {d: r.to_dict() for d, r in par.provenance} == {
                d: r.to_dict() for d, r in oracle
            }
            assert [e.stats.n_reads + e.stats.n_writes for e in engines] == (
                info.per_worker_accesses
            )

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
        seq = reference_profile(batch, PERFECT)
        par, _ = ParallelProfiler(
            PERFECT.with_(workers=3, chunk_size=8), mode="processes"
        ).profile(batch)
        assert par.store == seq.store

    def test_backpressure_tiny_task_queue(self):
        """Many windows with ``queue_depth=1`` (which only the cost model
        reads): results must be unaffected."""
        batch = get_trace("ep")
        cfg = PERFECT.with_(workers=2, chunk_size=256, queue_depth=1)
        par, _ = ParallelProfiler(cfg, mode="processes", window=1 << 10).profile(batch)
        seq = reference_profile(batch, PERFECT)
        assert par.store == seq.store

    def test_metrics_fold_into_parent_registry(self):
        batch = get_trace("ep")
        reg = MetricsRegistry(tracer=Tracer())
        cfg = PERFECT.with_(workers=2, chunk_size=512)
        par, info = ParallelProfiler(cfg, mode="processes", registry=reg).profile(batch)
        warm = MetricsRegistry()
        ParallelProfiler(cfg, mode="processes", registry=warm).profile(batch)
        # Worker-side counters arrived via merge_state.
        assert reg.sum_counters("worker.accesses") == sum(info.per_worker_accesses)
        assert reg.sum_counters("worker.chunks") == info.n_chunks
        assert reg.counter("pipeline.chunks").value == info.n_chunks
        # Per-call kernel latency histograms travelled with their label
        # sets: one observation per kernel call, i.e. per chunk.process
        # slice, and the slices cover every chunk of their worker.
        hists = {
            int(dict(h.labels)["worker"]): h.count
            for h in reg.histograms()
            if h.name == "worker.chunk_seconds"
        }
        assert sorted(hists) == [0, 1]
        slices = reg.tracer.of_name("chunk.process")
        for w in range(2):
            mine = [e for e in slices if e.track == worker_track(w)]
            assert hists[w] == len(mine)
            assert sum(e.args["chunks"] for e in mine) == info.per_worker_chunks[w]
            assert [e.args["seq"] for e in mine] == list(
                itertools.accumulate([0] + [e.args["chunks"] for e in mine[:-1]])
            )
        assert sum(e.args["chunks"] for e in slices) == info.n_chunks
        # A window holds several 512-row chunks, so calls are fewer.
        assert len(slices) < info.n_chunks
        # ProfileStats view over the merged registry is coherent.
        assert par.stats.n_accesses == sum(info.per_worker_accesses)
        assert info.signature_memory_bytes > 0
        # Each worker process reported its CPU time and minor faults over
        # the run under its label; the parent reported its own over the run.
        def gauge(registry, name, **labels):
            (v,) = [
                g.value for g in registry.gauges()
                if g.name == name and dict(g.labels) == labels
            ]
            return v

        for worker in ({"worker": "0"}, {"worker": "1"}, {}):
            assert gauge(reg, "process.minor_faults", **worker) > 0, worker
            # CPU time is accounted in ticks: a short worker may read 0.
            for kind in ("user", "sys"):
                assert gauge(reg, "process.cpu_seconds", kind=kind, **worker) >= 0, worker
        # The second run reused the pool the first one forked, so its
        # workers faulted in fewer pages.
        for worker in ({"worker": "0"}, {"worker": "1"}):
            cold = gauge(reg, "process.minor_faults", **worker)
            assert gauge(warm, "process.minor_faults", **worker) < cold, worker

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

        def boom(self, batch, rows, n_chunks=1):
            raise RuntimeError("injected worker crash")

        monkeypatch.setattr(worker_mod.Worker, "process_rows", boom)
        batch = get_trace("ep")
        cfg = PERFECT.with_(workers=2, chunk_size=512)
        with pytest.raises(ProfilerError, match="injected worker crash"):
            ParallelProfiler(cfg, mode="processes").profile(batch)

    def test_worker_failure_flushes_sink_with_complete_jsonl(
        self, monkeypatch, tmp_path
    ):
        """A worker crash must not cost the telemetry stream a record: after
        the failure propagates, the stream file parses cleanly line by line
        with every record written before the failure intact, and the stream
        is still open for the caller's final record."""
        import repro.parallel.worker as worker_mod
        from repro.obs import TelemetryStreamer, read_jsonl, replay_stream

        def boom(self, batch, rows, n_chunks=1):
            raise RuntimeError("injected worker crash")

        monkeypatch.setattr(worker_mod.Worker, "process_rows", boom)
        path = tmp_path / "stream.jsonl"
        reg = MetricsRegistry(run_id="crash")
        stream = TelemetryStreamer(reg, path)
        reg.emit({"type": "run.config", "workers": 2})
        batch = get_trace("ep")
        cfg = PERFECT.with_(workers=2, chunk_size=512)
        with pytest.raises(ProfilerError, match="injected worker crash"):
            ParallelProfiler(cfg, mode="processes", registry=reg).profile(batch)
        records = read_jsonl(path)  # parses or raises: no torn/missing lines
        assert [r["type"] for r in records] == ["header", "run.config"]
        # The stream survived the abort open for the caller's final record.
        reg.emit({"type": "run.aborted"})
        stream.stop(status="crashed")
        records = read_jsonl(path)
        kinds = [r["type"] for r in records]
        assert "run.aborted" in kinds and kinds[-1] == "final"
        assert [r["seq"] for r in records] == list(range(len(records)))
        replayed, info = replay_stream(path)
        assert info["final"]["status"] == "crashed"
        assert replayed.snapshot()["counters"] == info["final"]["counters"]

    def test_runs_without_posix_shm_or_helper_processes(self, monkeypatch):
        """The pool's arena and heartbeat board are anonymous shared maps
        its workers inherit through fork.  With every POSIX shared-memory
        open failing (what a ``SharedMemory`` block needs to be created or
        attached) and every helper-process start failing (the
        multiprocessing resource tracker is started through
        ``spawnv_passfds``), a run still equals deterministic mode: it
        leaves no named block to leak and starts no resource tracker."""
        import _posixshmem
        import multiprocessing.util

        import repro.parallel.heartbeat as heartbeat_mod

        def refuse(*args, **kwargs):
            raise AssertionError("processes mode must not use this")

        monkeypatch.setattr(_posixshmem, "shm_open", refuse)
        monkeypatch.setattr(multiprocessing.util, "spawnv_passfds", refuse)
        monkeypatch.setattr(heartbeat_mod, "DEFAULT_INTERVAL_S", 0.01)
        batch = get_trace("ep")
        cfg = ProfilerConfig(signature_slots=1 << 12, workers=2, chunk_size=1024)
        det, _ = ParallelProfiler(cfg, provenance=True).profile(batch)
        par, _ = ParallelProfiler(cfg, mode="processes", provenance=True).profile(batch)
        assert par.store == det.store

        def rows(prov):  # chunk ids follow each transport's own chunking
            return {d: {**r.to_dict(), "chunks": None} for d, r in prov}

        assert rows(par.provenance) == rows(det.provenance)

    def test_empty_trace(self):
        par, info = ParallelProfiler(
            PERFECT.with_(workers=2), mode="processes"
        ).profile(seq_trace([]))
        assert len(par.store) == 0 and par.loops == {}
        assert info.n_chunks == 0 and info.per_worker_accesses == [0, 0]

    def test_fork_required(self, monkeypatch):
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn", "forkserver"]
        )
        with pytest.raises(ProfilerError, match="'fork' start method"):
            ParallelProfiler(PERFECT, mode="processes")
        ParallelProfiler(PERFECT, mode="deterministic")  # needs no fork

    @pytest.mark.parametrize("mode", ["deterministic", "processes"])
    @pytest.mark.parametrize("window", [0, -1])
    def test_window_must_be_positive(self, mode, window):
        with pytest.raises(ProfilerError, match="window must be a positive"):
            ParallelProfiler(PERFECT, mode=mode, window=window)

    @pytest.mark.parametrize("cfg", [PERFECT], ids=["perfect"])
    def test_spilled_trace_matches_deterministic(self, cfg, tmp_path):
        """Workers inherit a spilled batch's file mappings and release each
        window behind themselves."""
        batch = spill_batch(get_trace("cg"), tmp_path / "cg.trace.spill")
        cfg = cfg.with_(workers=2, chunk_size=512)
        det, det_info = ParallelProfiler(cfg, window=1 << 11).profile(batch)
        par, par_info = ParallelProfiler(
            cfg, mode="processes", window=1 << 11
        ).profile(batch)
        assert par.store == det.store
        assert par_info.per_worker_accesses == det_info.per_worker_accesses

    @pytest.mark.parametrize("mode", ["processes", "deterministic", "profile_trace"])
    def test_workers_never_read_a_released_row(self, tmp_path, monkeypatch, mode):
        """Both transports, and ``profile_trace`` (the in-process transport
        at one worker), release a spilled trace's pages behind the
        workers, once per window, and only rows no worker reads again: the
        partial chunk a worker carries into the next window keeps its
        pages, since re-reading a released page faults its whole page-cache
        folio back in.  Each process checks its own releases; the producer's
        scans before dispatch release the whole trace, so a run's releases
        are counted from the transport on."""
        import os

        import repro.parallel.worker as worker_mod
        from repro.trace.spill import SpilledTraceBatch

        released: dict[int, int] = {}
        calls: list[tuple[int, int]] = []
        orig_release = SpilledTraceBatch.release_window
        orig_rows = worker_mod.Worker.process_rows
        orig_transport = ParallelProfiler._run_in_process

        def release(self, start, end):
            released[os.getpid()] = max(released.get(os.getpid(), 0), end)
            calls.append((start, end))
            orig_release(self, start, end)

        def process_rows(self, batch, rows, n_chunks=1):
            upto = released.get(os.getpid(), 0)
            if rows[0] < upto:
                raise AssertionError(f"row {rows[0]} read after release to {upto}")
            orig_rows(self, batch, rows, n_chunks)

        def run_in_process(self, *args):
            released.clear()
            calls.clear()
            return orig_transport(self, *args)

        monkeypatch.setattr(SpilledTraceBatch, "release_window", release)
        monkeypatch.setattr(worker_mod.Worker, "process_rows", process_rows)
        monkeypatch.setattr(ParallelProfiler, "_run_in_process", run_in_process)
        batch = spill_batch(get_trace("cg"), tmp_path / "cg.trace.spill")
        cfg = PERFECT.with_(workers=2, chunk_size=512)
        if mode == "profile_trace":
            res, window = profile_trace(batch, cfg), WINDOW
        else:
            window = 1 << 11
            res, info = ParallelProfiler(cfg, mode=mode, window=window).profile(batch)
            assert info.n_chunks > 0
        assert res.store.n_entries > 0
        if mode != "processes":
            assert len(calls) == -(-len(batch) // window)

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

        import repro.parallel.pool as pool_mod
        from repro.obs import RunLedger, load_bundle

        def silent_worker(wid, task_q, result_q, arena, board):
            while task_q.get() is not None:
                pass

        def hung(signum, frame):
            raise TimeoutError("profile() still blocked after 10 s")

        monkeypatch.setattr(pool_mod, "run_worker", silent_worker)
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


def pool_pids():
    return sorted(p.pid for p in multiprocessing.active_children())


def alive(pid):
    """Whether ``pid`` runs (a zombie awaiting its reaper does not)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


class TestWorkerPool:
    """One pool of worker processes per Python process, reused by every
    processes-mode run of its shape."""

    @staticmethod
    def run_matches(batch, cfg):
        """Profile ``batch`` in both modes, assert the runs equal (stores
        with counts, every ``ParallelRunInfo`` field, provenance with chunk
        ids) and return the processes run's registry."""
        det, det_info = ParallelProfiler(cfg, provenance=True).profile(batch)
        reg = MetricsRegistry()
        par, par_info = ParallelProfiler(
            cfg, mode="processes", provenance=True, registry=reg
        ).profile(batch)
        assert dict(par.store.items()) == dict(det.store.items())
        assert par_info == det_info
        assert {d: r.to_dict() for d, r in par.provenance} == {
            d: r.to_dict() for d, r in det.provenance
        }
        return reg

    def forks(self, batch, cfg):
        """How many workers a matching processes run of ``batch`` forked."""
        return self.run_matches(batch, cfg).counter("pipeline.worker_forks").value

    def test_second_run_forks_no_worker(self):
        batch = get_trace("ep")
        cfg = ProfilerConfig(signature_slots=1 << 12, workers=2, chunk_size=512)

        def beats(reg):
            return {
                g.labels: g.value for g in reg.gauges()
                if g.name == "worker.heartbeat.beats"
            }

        cold = self.run_matches(batch, cfg)
        assert cold.counter("pipeline.worker_forks").value == 2
        pids = pool_pids()
        assert len(pids) == 2
        warm = self.run_matches(batch, cfg)
        assert warm.counter("pipeline.worker_forks").value == 0
        assert pool_pids() == pids
        # The board is reused, and each run counts its own beats.
        assert len(beats(cold)) == 2 and beats(warm) == beats(cold)

    def test_larger_trace_regrows_the_arena(self):
        import repro.parallel.pool as pool_mod

        cfg = PERFECT.with_(workers=2, chunk_size=4096)
        small = get_trace("ep")
        assert self.forks(small, cfg) == 2
        pids, arena = pool_pids(), pool_mod._pool.arena.size
        large = amplify_batch(small, 24)  # 22 MB of columns
        assert self.forks(large, cfg) == 2
        assert pool_mod._pool.arena.size > arena
        assert set(pool_pids()).isdisjoint(pids)
        assert self.forks(small, cfg) == 0  # the grown arena holds it

    def test_new_worker_count_replaces_the_pool(self):
        batch = get_trace("ep")
        cfg = PERFECT.with_(workers=2, chunk_size=512)
        assert self.forks(batch, cfg) == 2
        old = pool_pids()
        assert self.forks(batch, cfg.with_(workers=3)) == 3
        new = pool_pids()
        assert len(new) == 3 and set(new).isdisjoint(old)

    def test_new_queue_depth_reuses_the_pool(self):
        """Only the cost model reads ``queue_depth``: the pool's task
        queues are unbounded, so a run with another depth keeps its
        workers."""
        batch = get_trace("ep")
        cfg = PERFECT.with_(workers=2, chunk_size=512)
        assert self.forks(batch, cfg) == 2
        pids = pool_pids()
        assert self.forks(batch, cfg.with_(queue_depth=4)) == 0
        assert pool_pids() == pids

    def test_failed_run_closes_the_pool(self, monkeypatch):
        import repro.parallel.worker as worker_mod

        def boom(self, batch, rows, n_chunks=1):
            raise RuntimeError("injected worker crash")

        monkeypatch.setattr(worker_mod.Worker, "process_rows", boom)
        batch = get_trace("ep")
        cfg = PERFECT.with_(workers=2, chunk_size=512)
        with pytest.raises(ProfilerError, match="injected worker crash"):
            ParallelProfiler(cfg, mode="processes").profile(batch)
        assert pool_pids() == []
        monkeypatch.undo()
        assert self.forks(batch, cfg) == 2

    def test_concurrent_runs_take_turns(self, monkeypatch):
        """Runs from several threads share the one pool, one at a time."""
        import threading

        batch = get_trace("ep")
        cfg = PERFECT.with_(workers=2, chunk_size=512)
        det, _ = ParallelProfiler(cfg).profile(batch)
        inside, peak = [0], [0]
        drive = ParallelProfiler._drive_pool

        def counted(self, *args):
            inside[0] += 1
            peak[0] = max(peak[0], inside[0])
            time.sleep(0.05)  # time for the other threads to arrive
            try:
                return drive(self, *args)
            finally:
                inside[0] -= 1

        monkeypatch.setattr(ParallelProfiler, "_drive_pool", counted)
        stores = []

        def run():
            stores.append(ParallelProfiler(cfg, mode="processes").profile(batch)[0].store)

        threads = [threading.Thread(target=run) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        assert peak[0] == 1
        assert [dict(s.items()) for s in stores] == [dict(det.store.items())] * 3

    def test_workers_exit_when_their_parent_is_gone(self):
        """A child forked from a process that has a pool forks a pool of its
        own and leaves the parent's alone; when the child leaves through
        ``os._exit`` (no atexit hook runs), its workers exit by themselves."""
        batch = get_trace("ep")
        cfg = PERFECT.with_(workers=2)
        assert self.forks(batch, cfg) == 2
        parent_pids = pool_pids()
        ctx = multiprocessing.get_context("fork")
        recv, send = ctx.Pipe(duplex=False)

        def child():
            reg = MetricsRegistry()
            ParallelProfiler(cfg, mode="processes", registry=reg).profile(batch)
            send.send((reg.counter("pipeline.worker_forks").value, pool_pids()))
            os._exit(0)

        proc = ctx.Process(target=child)
        proc.start()
        assert recv.poll(30), "the child did not report its pool"
        forks, pids = recv.recv()
        proc.join(10)
        assert proc.exitcode == 0 and forks == 2 and len(pids) == 2
        assert set(pids).isdisjoint(parent_pids)
        deadline = time.monotonic() + 5.0
        while any(alive(pid) for pid in pids) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(alive(pid) for pid in pids)
        assert pool_pids() == parent_pids
        assert self.forks(batch, cfg) == 0
