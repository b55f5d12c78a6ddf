"""End-to-end tests of the parallel pipeline: equivalence with the
reference engine, load balancing in action, and both queue types."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.config import ProfilerConfig
from repro.core.deps import DepType
from repro.obs.metrics import MetricsRegistry
from repro.obs.provenance import ProvenanceCollector
from repro.parallel import ParallelProfiler
from tests.core.test_engine_equivalence import random_ops
from tests.trace_helpers import reference_pipeline, reference_profile, seq_trace

PERFECT = ProfilerConfig(perfect_signature=True)


def small_trace(n_addr=32, rounds=4):
    ops = []
    for r in range(rounds):
        for i in range(n_addr):
            a = 0x1000 + 8 * i
            ops.append(("w", a, 10 + i % 7, "x"))
            ops.append(("r", a, 20 + i % 5, "x"))
    return seq_trace(ops)


class TestEquivalenceWithSequential:
    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_perfect_mode_matches_sequential(self, workers):
        batch = small_trace()
        seq = reference_profile(batch, PERFECT)
        par, info = ParallelProfiler(PERFECT.with_(workers=workers)).profile(batch)
        assert par.store == seq.store
        assert par.stats.dep_instances == seq.stats.dep_instances
        assert sum(info.per_worker_accesses) == seq.stats.n_accesses

    def test_loops_and_lifetime_survive_distribution(self):
        """Loop-carried classification reads the run's loop index and FREE
        handling needs every FREE on every worker; with both, any worker
        count gives sequential results."""
        ops = [("L+", 10)]
        for it in range(6):
            ops += [("Li", 10)]
            for i in range(8):
                a = 0x1000 + 8 * i
                ops += [("r", a, 11, "s"), ("w", a, 12, "s")]
        ops += [("L-", 10), ("free", 0x1000, 64, 13)]
        ops += [("w", 0x1000, 14, "z")]
        batch = seq_trace(ops)
        seq = reference_profile(batch, PERFECT)
        par, _ = ParallelProfiler(PERFECT.with_(workers=3, chunk_size=8)).profile(batch)
        assert par.store == seq.store

    @settings(max_examples=25, deadline=None)
    @given(ops=random_ops())
    def test_property_equivalence_random_traces(self, ops):
        batch = seq_trace(ops)
        seq = reference_profile(batch, PERFECT)
        par, _ = ParallelProfiler(
            PERFECT.with_(workers=3, chunk_size=4, queue_depth=2)
        ).profile(batch)
        assert par.store == seq.store

    @pytest.mark.parametrize("ignore_rar", [True, False])
    @pytest.mark.parametrize("slots", [None, 64])
    @settings(max_examples=12, deadline=None)
    @given(ops=random_ops(), chunk_size=st.integers(1, 4))
    def test_property_kernel_matches_reference_pipeline(
        self, slots, ignore_rar, ops, chunk_size
    ):
        """The pipeline kernel against the reference-worker oracle with
        provenance on, over the perfect and a colliding 64-slot signature,
        with and without RAR: merged store with counts, per-type instance
        counts, races, provenance per dependence with its chunk ids, and
        eviction telemetry.  At 1-4 rows a chunk, one kernel call covers
        many chunks, so the chunk ids check each row's chunk number."""
        batch = seq_trace(ops)
        base = PERFECT if slots is None else ProfilerConfig(signature_slots=slots)
        cfg = base.with_(
            workers=3, chunk_size=chunk_size, queue_depth=2, ignore_rar=ignore_rar
        )
        reg = MetricsRegistry()
        par, _ = ParallelProfiler(cfg, registry=reg, provenance=True).profile(batch)
        store, engines, ref_reg = reference_pipeline(batch, cfg)
        assert dict(par.store.items()) == dict(store.items())
        oracle = ProvenanceCollector()
        instances = {t: 0 for t in DepType}
        for eng in engines:
            oracle.merge(eng.provenance)
            for t, c in eng.stats.dep_instances.items():
                instances[t] += c
        assert par.stats.dep_instances == instances
        assert par.stats.races_flagged == sum(e.stats.races_flagged for e in engines)

        def rows(prov):
            return {dep: rec.to_dict() for dep, rec in prov}

        assert rows(par.provenance) == rows(oracle)

        def telemetry(r):
            evictions = {
                c.labels: c.value for c in r.counters() if c.name == "sigmem.evictions"
            }
            conflicts = {
                h.labels: (tuple(h.counts), h.count)
                for h in r.histograms()
                if h.name == "heat.conflicts"
            }
            return evictions, conflicts

        assert telemetry(reg) == telemetry(ref_reg)

    def test_signature_mode_runs_and_approximates(self):
        batch = small_trace()
        cfg = ProfilerConfig(signature_slots=1 << 18, workers=4)
        par, _ = ParallelProfiler(cfg).profile(batch)
        seq = reference_profile(batch, PERFECT)
        # Large per-worker signatures: no collisions expected at this scale.
        assert par.store == seq.store


class TestLoadBalancing:
    def make_skewed_trace(self, hot_rounds=600):
        """A few addresses soak up most accesses, all landing on worker 0."""
        ops = []
        for r in range(hot_rounds):
            for hot in (0x1000, 0x1000 + 32, 0x1000 + 64):  # all ≡ 0 mod 4*8
                ops.append(("w", hot, 5, "h"))
                ops.append(("r", hot, 6, "h"))
        for i in range(64):
            ops.append(("w", 0x9000 + 8 * i, 7, "c"))
        return seq_trace(ops)

    def test_rebalancing_triggers_and_improves_balance(self):
        batch = self.make_skewed_trace()
        cfg = PERFECT.with_(
            workers=4, chunk_size=8, rebalance_interval_chunks=20, hot_addresses=10
        )
        balanced, info = ParallelProfiler(cfg, window=256).profile(batch)
        assert info.rebalance_rounds >= 1
        assert info.addresses_migrated >= 1
        # Compare with rebalancing effectively disabled:
        cfg_off = cfg.with_(rebalance_interval_chunks=10**9)
        _, info_off = ParallelProfiler(cfg_off, window=256).profile(batch)
        assert info.access_imbalance < info_off.access_imbalance

        # A round that moves nothing does not quiesce: rgbyuv in Fig. 5's
        # configuration runs one such round, which flushes no partial chunk
        # and logs no epoch marker, so the run cuts the chunks processes
        # mode (which never rebalances) cuts.
        from repro.workloads import get_trace

        rgbyuv = get_trace("rgbyuv")
        fig5 = PERFECT.with_(workers=8, chunk_size=256, rebalance_interval_chunks=50)
        _, det = ParallelProfiler(fig5, window=4096).profile(rgbyuv)
        _, proc = ParallelProfiler(fig5, mode="processes", window=4096).profile(
            rgbyuv
        )
        assert [a["n_moves"] + a["n_bank_moves"] for a in det.rebalance_audit] == [0]
        assert (-1, 0) not in det.chunk_log
        assert det.n_chunks == proc.n_chunks

    def test_rebalanced_results_still_exact(self):
        batch = self.make_skewed_trace(hot_rounds=200)
        cfg = PERFECT.with_(
            workers=4, chunk_size=8, rebalance_interval_chunks=10, hot_addresses=10
        )
        par, info = ParallelProfiler(cfg, window=256).profile(batch)
        assert info.rebalance_rounds >= 1
        seq = reference_profile(batch, PERFECT)
        assert par.store == seq.store  # migration preserved per-address state


class TestRunInfo:
    def test_chunk_accounting(self):
        batch = small_trace()
        cfg = PERFECT.with_(workers=2, chunk_size=16)
        _, info = ParallelProfiler(cfg).profile(batch)
        assert info.n_chunks >= batch.n_accesses // 16 // 2
        assert info.n_chunks == len(info.chunk_log) == sum(info.per_worker_chunks)
        assert all(0 < rows <= 16 for _, rows in info.chunk_log)
        assert len(info.per_worker_accesses) == 2

    def test_imbalance_metric(self):
        from repro.parallel import ParallelRunInfo

        info = ParallelRunInfo(per_worker_accesses=[100, 300])
        assert info.access_imbalance == 1.5
        assert ParallelRunInfo().access_imbalance == 1.0

    def test_unknown_mode_rejected(self):
        from repro.common.errors import ProfilerError

        with pytest.raises(ProfilerError):
            ParallelProfiler(PERFECT, mode="gpu")


@pytest.mark.parametrize("mode", ["sequential", "deterministic", "processes"])
def test_one_loop_index_span_per_run(mode):
    """Every run builds its loop-snapshot index once, before dispatch, in
    one ``loop-index`` span; no worker or window builds another."""
    from repro.core.profiler import profile_trace
    from repro.workloads import get_trace

    batch = get_trace("mg")  # nested loops over several windows
    cfg = PERFECT.with_(workers=2, chunk_size=512)
    reg = MetricsRegistry()
    if mode == "sequential":
        res = profile_trace(batch, cfg, registry=reg)
    else:
        res, _ = ParallelProfiler(cfg, mode=mode, registry=reg, window=1 << 12).profile(
            batch
        )
    assert reg.phase_totals()["loop-index"]["count"] == 1
    assert res.loops
