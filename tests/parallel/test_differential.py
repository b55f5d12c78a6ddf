"""Differential suites: rebalancing and execution modes must not change deps.

Bank-granularity migration moves live signature state between workers
mid-run; the whole point of shipping the banks *with* the routing rules is
that the reported dependence set stays exactly what the run without any
rebalancing reports.  Same for the execution modes: the deterministic and
processes transports carry work differently but must agree
dependence-for-dependence.
"""

import pytest

from repro.common.config import ProfilerConfig
from repro.obs.metrics import MetricsRegistry
from repro.parallel.engine import ParallelProfiler
from repro.trace import FREE
from repro.workloads import get_trace
from tests.trace_helpers import seq_trace

WORKLOADS = ["ep", "lu", "water-spatial"]


def profile_set(batch, cfg, mode="deterministic", threshold=float("inf")):
    prof = ParallelProfiler(cfg, mode=mode, rebalance_threshold=threshold)
    result, info = prof.profile(batch)
    return result.store.as_set(), info


class TestRebalancingDifferential:
    @pytest.mark.parametrize("name", WORKLOADS)
    def test_bank_rebalancing_preserves_deps(self, name):
        batch = get_trace(name)
        cfg = ProfilerConfig(
            workers=4,
            perfect_signature=True,
            signature_banks=8,
            chunk_size=256,
            rebalance_interval_chunks=4,
        )
        off, _ = profile_set(batch, cfg, threshold=float("inf"))
        on, info = profile_set(batch, cfg, threshold=1.0)
        assert on == off
        # the aggressive threshold must actually have exercised migration
        # on at least one of the workloads; asserted per-run where it fires
        if info.rebalance_rounds:
            assert info.banks_migrated >= 0

    def test_bank_migration_fires_on_skewed_trace(self):
        # ep hammers a tiny address set, so a threshold of 1.0 must trigger
        # bank moves (everything homes to few banks under modulo routing).
        batch = get_trace("ep")
        cfg = ProfilerConfig(
            workers=4,
            perfect_signature=True,
            signature_banks=8,
            chunk_size=256,
            rebalance_interval_chunks=4,
        )
        on, info = profile_set(batch, cfg, threshold=1.0)
        assert info.rebalance_rounds >= 1
        assert info.banks_migrated >= 1

    @pytest.mark.parametrize("name", WORKLOADS)
    def test_lossy_signature_rebalancing_matches_unrebalanced(self, name):
        # Same comparison under the lossy array-signature path: both runs
        # share one geometry/salt, so conflation is identical and the dep
        # sets must still agree exactly.
        batch = get_trace(name)
        cfg = ProfilerConfig(
            workers=4,
            signature_slots=4096,
            signature_banks=8,
            worker_engine="reference",
            chunk_size=256,
            rebalance_interval_chunks=4,
        )
        off, _ = profile_set(batch, cfg, threshold=float("inf"))
        on, _ = profile_set(batch, cfg, threshold=1.0)
        assert on == off


class TestModeDifferential:
    @pytest.mark.parametrize("name", WORKLOADS)
    def test_modes_agree_with_banks(self, name):
        batch = get_trace(name)
        cfg = ProfilerConfig(
            workers=2, perfect_signature=True, signature_banks=8
        )
        d, _ = profile_set(batch, cfg, mode="deterministic")
        p, _ = profile_set(batch, cfg, mode="processes")
        assert d == p


def free_trace():
    """Loop and lifetime events, including the FREE no bundled workload emits."""
    ops = [("L+", 10)]
    for _ in range(5):
        ops += [("Li", 10)]
        for i in range(6):
            a = 0x1000 + 8 * i
            ops += [("r", a, 11, "s"), ("w", a, 12, "s")]
    ops += [("L-", 10), ("free", 0x1000, 48, 13), ("w", 0x1000, 14, "z")]
    return seq_trace(ops)


class TestTransportContract:
    """Both transports share one router and one merge, so everything but
    the transport's own bookkeeping must agree: stores, broadcast rows,
    per-worker accesses and every engine counter."""

    @staticmethod
    def transport_specific(name, multi_window):
        if name.startswith("queue.") or name == "pipeline.backpressure_stalls":
            return True
        # Chunks straddle windows in-process but are cut per window by a
        # worker process, so chunk counts agree only within one window.
        return multi_window and name in ("pipeline.chunks", "worker.chunks")

    @pytest.mark.parametrize("window", [1 << 15, 1 << 11])
    @pytest.mark.parametrize("name", ["ep", "water-spatial", "free-trace"])
    def test_modes_agree(self, name, window):
        batch = free_trace() if name == "free-trace" else get_trace(name)
        cfg = ProfilerConfig(workers=2, perfect_signature=True, chunk_size=512)
        runs = {}
        for mode in ("deterministic", "processes"):
            reg = MetricsRegistry()
            result, info = ParallelProfiler(
                cfg,
                mode=mode,
                window=window,
                rebalance_threshold=float("inf"),
                registry=reg,
            ).profile(batch)
            counters = {(c.name, c.labels): c.value for c in reg.counters()}
            runs[mode] = result, info, counters
        (det, di, dc), (prc, pi, pc) = runs["deterministic"], runs["processes"]
        assert prc.store == det.store
        assert pi.per_worker_accesses == di.per_worker_accesses
        assert pi.n_broadcast_rows == di.n_broadcast_rows > 0
        if name == "free-trace":
            assert FREE in set(batch.kind.tolist())
        multi = len(batch) > window
        shared = {
            key
            for key in dc.keys() | pc.keys()
            if not self.transport_specific(key[0], multi)
        }
        assert {k[0] for k in shared} >= {
            "pipeline.broadcast_rows",
            "worker.accesses",
        }
        assert any(k[0].startswith("engine.") for k in shared)
        for key in sorted(shared):
            assert pc.get(key, 0) == dc.get(key, 0), key


class TestFastPathModeDifferential:
    """Traces produced off the vectorized fast path must profile to the
    exact dependence set of interpreter traces — in every execution mode,
    so group-scheduled emission can never skew the parallel pipeline."""

    def _traces(self, name):
        from repro.minivm import run_program
        from repro.workloads import get_workload

        wl = get_workload(name)
        program, _meta = wl.build_seq(wl.default_scale)
        return (
            run_program(program, fastpath=True),
            run_program(program, fastpath=False),
        )

    @pytest.mark.parametrize("name", ["cg", "is"])
    @pytest.mark.parametrize("mode", ["deterministic", "processes"])
    def test_dependence_sets_equal(self, name, mode):
        fast, slow = self._traces(name)
        cfg = ProfilerConfig(workers=2, perfect_signature=True, chunk_size=512)
        from_fast, _ = profile_set(fast, cfg, mode=mode)
        from_slow, _ = profile_set(slow, cfg, mode=mode)
        assert from_fast == from_slow
