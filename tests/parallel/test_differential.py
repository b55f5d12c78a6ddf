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
from repro.trace import FREE, LOOP_ENTER, LOOP_EXIT, LOOP_ITER
from repro.workloads import get_trace
from tests.trace_helpers import reference_pipeline, seq_trace

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
        # sets must still agree exactly — with each other and with the
        # reference-worker oracle.
        batch = get_trace(name)
        cfg = ProfilerConfig(
            workers=4,
            signature_slots=4096,
            signature_banks=8,
            chunk_size=256,
            rebalance_interval_chunks=4,
        )
        off, _ = profile_set(batch, cfg, threshold=float("inf"))
        on, _ = profile_set(batch, cfg, threshold=1.0)
        oracle, _, _ = reference_pipeline(batch, cfg)
        assert on == off == oracle.as_set()


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
    """Both transports share one router, one worker loop and one merge, so
    everything but the transport's own bookkeeping must agree: stores,
    chunks, provenance (chunk ids included), the rows fed to each worker,
    per-worker accesses, every engine counter and every gauge the workers
    publish."""

    @staticmethod
    def transport_specific(name):
        return name == "pipeline.backpressure_stalls"

    @staticmethod
    def run_specific(name):
        """Gauges read off the process or the watchdog, not the run."""
        return name.startswith(("process.", "worker.heartbeat."))

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
                provenance=True,
            ).profile(batch)
            counters = {(c.name, c.labels): c.value for c in reg.counters()}
            gauges = {
                (g.name, g.labels): g.value
                for g in reg.gauges()
                if not self.run_specific(g.name)
            }
            runs[mode] = result, info, counters, gauges
        (det, di, dc, dg), (prc, pi, pc, pg) = (
            runs["deterministic"],
            runs["processes"],
        )
        assert prc.store == det.store
        assert pi.per_worker_accesses == di.per_worker_accesses
        if name == "free-trace":
            assert FREE in set(batch.kind.tolist())
        # Chunks span windows in both transports, so multi-window runs cut
        # and number them alike too.
        assert pi.chunk_log == di.chunk_log
        assert {d: r.to_dict() for d, r in prc.provenance} == {
            d: r.to_dict() for d, r in det.provenance
        }
        shared = {
            key
            for key in dc.keys() | pc.keys()
            if not self.transport_specific(key[0])
        }
        assert {k[0] for k in shared} >= {
            "engine.events",
            "pipeline.chunks",
            "worker.accesses",
            "worker.chunks",
        }
        fed = sorted(k for k in shared if k[0] == "engine.events")
        assert len(fed) == cfg.workers
        assert [pc.get(k) for k in fed] == [dc.get(k) for k in fed]
        for key in sorted(shared):
            assert pc.get(key, 0) == dc.get(key, 0), key
        assert {(n, dict(l)["kind"]) for n, l in dg if n == "sigmem.occupied"} == {
            ("sigmem.occupied", kind) for kind in ("read", "write")
        }
        assert pg == dg

    @pytest.mark.parametrize("mode", ["deterministic", "processes"])
    @pytest.mark.parametrize("name", ["ep", "free-trace"])
    def test_workers_get_only_accesses_and_frees(self, name, mode):
        """Each access reaches its owner, each FREE every worker, and no
        loop row any worker: the rows a worker is fed (``engine.events``)
        are its accesses plus every FREE."""
        batch = free_trace() if name == "free-trace" else get_trace(name)
        kinds = batch.kind.tolist()
        assert {LOOP_ENTER, LOOP_ITER, LOOP_EXIT} <= set(kinds)
        n_free = kinds.count(FREE)
        if name == "free-trace":
            assert n_free > 0
        cfg = ProfilerConfig(workers=3, perfect_signature=True, chunk_size=512)
        reg = MetricsRegistry()
        result, info = ParallelProfiler(
            cfg, mode=mode, window=1 << 11, rebalance_threshold=float("inf"), registry=reg
        ).profile(batch)

        def per_worker(family):
            return [reg.counter(family, worker=w).value for w in range(cfg.workers)]

        fed = per_worker("engine.events")
        assert fed == [acc + n_free for acc in per_worker("worker.accesses")]
        assert sum(fed) == result.stats.n_accesses + cfg.workers * n_free
        assert info.n_control_events == len(batch) - result.stats.n_accesses


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
