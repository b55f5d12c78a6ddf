"""End-to-end tests of the parallel pipeline: equivalence with the
sequential engines, load balancing in action, and both queue types."""

import pytest
from hypothesis import given, settings

from repro.common.config import ProfilerConfig
from repro.core import DependenceProfiler, profile_trace
from repro.parallel import ParallelProfiler
from tests.core.test_engine_equivalence import random_ops
from tests.trace_helpers import seq_trace

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
        seq = profile_trace(batch, PERFECT, "reference")
        par, info = ParallelProfiler(PERFECT.with_(workers=workers)).profile(batch)
        assert par.store == seq.store
        assert par.stats.dep_instances == seq.stats.dep_instances
        assert sum(info.per_worker_accesses) == seq.stats.n_accesses

    @pytest.mark.parametrize("lock_free", [True, False])
    def test_both_queue_kinds_same_result(self, lock_free):
        batch = small_trace()
        cfg = PERFECT.with_(workers=4, lock_free_queues=lock_free, chunk_size=16)
        par, info = ParallelProfiler(cfg).profile(batch)
        seq = profile_trace(batch, PERFECT, "reference")
        assert par.store == seq.store
        if not lock_free:
            assert info.lock_ops > 0

    def test_loops_and_lifetime_survive_distribution(self):
        """Loop-carried classification and FREE handling need the broadcast
        rows; with them, any worker count gives sequential results."""
        ops = [("L+", 10)]
        for it in range(6):
            ops += [("Li", 10)]
            for i in range(8):
                a = 0x1000 + 8 * i
                ops += [("r", a, 11, "s"), ("w", a, 12, "s")]
        ops += [("L-", 10), ("free", 0x1000, 64, 13)]
        ops += [("w", 0x1000, 14, "z")]
        batch = seq_trace(ops)
        seq = profile_trace(batch, PERFECT, "reference")
        par, _ = ParallelProfiler(PERFECT.with_(workers=3, chunk_size=8)).profile(batch)
        assert par.store == seq.store

    @settings(max_examples=25, deadline=None)
    @given(ops=random_ops())
    def test_property_equivalence_random_traces(self, ops):
        batch = seq_trace(ops)
        seq = DependenceProfiler(PERFECT, "reference").profile(batch)
        par, _ = ParallelProfiler(
            PERFECT.with_(workers=3, chunk_size=4, queue_depth=2)
        ).profile(batch)
        assert par.store == seq.store

    def test_signature_mode_runs_and_approximates(self):
        batch = small_trace()
        cfg = ProfilerConfig(signature_slots=1 << 18, workers=4)
        par, _ = ParallelProfiler(cfg).profile(batch)
        seq = profile_trace(batch, PERFECT, "reference")
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

    def test_rebalanced_results_still_exact(self):
        batch = self.make_skewed_trace(hot_rounds=200)
        cfg = PERFECT.with_(
            workers=4, chunk_size=8, rebalance_interval_chunks=10, hot_addresses=10
        )
        par, info = ParallelProfiler(cfg, window=256).profile(batch)
        assert info.rebalance_rounds >= 1
        seq = profile_trace(batch, PERFECT, "reference")
        assert par.store == seq.store  # migration preserved per-address state


class TestRunInfo:
    def test_chunk_accounting(self):
        batch = small_trace()
        cfg = PERFECT.with_(workers=2, chunk_size=16)
        _, info = ParallelProfiler(cfg).profile(batch)
        assert info.n_chunks >= batch.n_accesses // 16 // 2
        assert info.chunks_allocated >= 2
        assert info.queue_memory_bytes == info.chunks_allocated * 16 * 8
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
