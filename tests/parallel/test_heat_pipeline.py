"""Memory-plane acceptance: heat through the full pipeline.

Three contracts from the heatmap design:

* **Exactness** — heat read/write totals equal the producer's event counts
  exactly (no sampling, no loss) in every execution mode.
* **Mode equivalence** — the processes-mode merged heatmap is bit-for-bit
  identical to the deterministic-mode heatmap on every bundled workload
  (rebalancing suppressed, so per-worker attribution matches the static
  partition both modes then share).
* **Attribution** — signature-conflict heat attributed to address buckets
  sums to the ``sigmem.evictions`` total: the bucket view is a lossless
  decomposition of the suspect-FP conflict count.
"""

import pytest

import repro.parallel.engine as engine_mod
from repro.common.config import ProfilerConfig
from repro.obs import RunReport
from repro.obs.heatmap import HEAT_FAMILIES, bucket_of, heatmap_summary
from repro.obs.metrics import MetricsRegistry
from repro.parallel import ParallelProfiler
from repro.workloads import get_trace, workload_names
from tests.trace_helpers import reference_pipeline

ALL = workload_names("nas") + workload_names("starbench") + workload_names("splash2x")


def heat_state(reg: MetricsRegistry):
    """The heat.* histograms as a comparable {(name, labels): layout} map."""
    return {
        (h.name, h.labels): (h.buckets, tuple(h.counts), h.sum, h.count)
        for h in reg.histograms()
        if h.name in HEAT_FAMILIES
    }


def run_mode(batch, mode, workers=2, **cfg_kw):
    reg = MetricsRegistry()
    prof = ParallelProfiler(
        ProfilerConfig(workers=workers, **cfg_kw), mode=mode, registry=reg
    )
    res, info = prof.profile(batch)
    return reg, res, info


class TestHeatExactness:
    @pytest.mark.parametrize("name", ["rgbyuv", "is"])
    def test_processes_totals_match_producer_counts(self, name):
        batch = get_trace(name)
        reg, res, _ = run_mode(batch, "processes")
        doc = heatmap_summary(reg)
        assert doc["total_reads"] == res.stats.n_reads
        assert doc["total_writes"] == res.stats.n_writes
        # Per-worker heat counts sum to the routed per-worker access loads.
        for w, wdoc in doc["workers"].items():
            per_worker = sum(wdoc["reads"]) + sum(wdoc["writes"])
            assert per_worker == reg.counter("worker.accesses", worker=int(w)).value

    def test_deterministic_totals_match(self):
        batch = get_trace("rgbyuv")
        reg, res, _ = run_mode(batch, "deterministic", workers=4)
        doc = heatmap_summary(reg)
        assert doc["total_reads"] == res.stats.n_reads
        assert doc["total_writes"] == res.stats.n_writes

    def test_heatmap_disabled_by_config(self):
        batch = get_trace("rgbyuv")
        reg, _, _ = run_mode(batch, "deterministic", heatmap=False)
        assert heatmap_summary(reg) is None


class TestModeEquivalence:
    @pytest.mark.parametrize("name", ALL)
    def test_heat_equal_across_modes(self, name):
        batch = get_trace(name)
        reg_d, _, _ = run_mode(batch, "deterministic")
        reg_p, _, _ = run_mode(batch, "processes")
        state_d = heat_state(reg_d)
        state_p = heat_state(reg_p)
        assert state_d, f"{name}: no heat recorded"
        assert state_p == state_d  # bit-for-bit: counts, sums, layouts


class TestConflictAttribution:
    def test_bucket_sums_equal_eviction_total(self, monkeypatch):
        # A small signature and forced rebalancing: hash-conflict evictions
        # come from the chunk kernel and from per-address migration
        # (``Worker.migrate_in`` inserts), and each one must land in
        # exactly one address bucket of its worker's heat.
        monkeypatch.setattr(engine_mod, "REBALANCE_THRESHOLD", 1.0)
        for name in ("is", "cg"):
            reg = MetricsRegistry()
            cfg = ProfilerConfig(
                workers=4,
                signature_slots=256,
                rebalance_interval_chunks=1,
                hot_addresses=64,
            )
            _, info = ParallelProfiler(cfg, registry=reg).profile(get_trace(name))
            assert info.addresses_migrated > 0, name
            evictions = reg.sum_counters("sigmem.evictions")
            assert evictions > 0, name
            doc = heatmap_summary(reg)
            assert doc["total_conflicts"] == evictions
            assert sum(doc["totals"]["conflicts"]) == evictions
            for w, wdoc in doc["workers"].items():
                per_worker = sum(
                    c.value
                    for c in reg.counters()
                    if c.name == "sigmem.evictions" and str(dict(c.labels)["worker"]) == w
                )
                assert sum(wdoc["conflicts"]) == per_worker

    def test_occupancy_attribution_reference_engine(self):
        """End-of-run occupancy heat of the lossy slot planes equals the
        reference-worker oracle's signature occupancy, bucket for bucket."""
        batch = get_trace("rgbyuv")
        reg, _, _ = run_mode(batch, "deterministic", signature_slots=4096)
        doc = heatmap_summary(reg)
        cfg = ProfilerConfig(workers=2, signature_slots=4096)
        _, engines, _ = reference_pipeline(batch, cfg)
        for w, eng in enumerate(engines):
            wdoc = doc["workers"][str(w)]
            # Occupancy recorded per worker per signature kind, bounded by slots.
            assert set(wdoc["occupancy"]) == {"read", "write"}
            assert 0 < sum(wdoc["occupancy"]["read"]) <= 4096 // 2
            for kind, tracker in (
                ("read", eng.read_tracker),
                ("write", eng.write_tracker),
            ):
                expected = [0] * len(wdoc["occupancy"][kind])
                for addr in tracker.occupied_addrs().tolist():
                    expected[bucket_of(addr)] += 1
                assert wdoc["occupancy"][kind] == expected

    def test_occupancy_matches_tracker_occupied_vectorized(self):
        batch = get_trace("rgbyuv")
        reg, _, _ = run_mode(batch, "deterministic", workers=2)
        occ_heat = {
            (dict(h.labels)["worker"], dict(h.labels)["kind"]): h.count
            for h in reg.histograms()
            if h.name == "heat.occupancy"
        }
        # The workers' occupancy gauges hold the same end state.
        occ_gauge = {
            (dict(g.labels)["worker"], dict(g.labels)["kind"]): int(g.value)
            for g in reg.gauges()
            if g.name == "sigmem.occupied"
        }
        assert occ_heat
        for key, n in occ_heat.items():
            assert occ_gauge[key] == n


class TestReportMemorySection:
    def test_rebalance_audit_reaches_report(self, monkeypatch):
        monkeypatch.setattr(engine_mod, "REBALANCE_THRESHOLD", 1.05)
        batch = get_trace("is")
        reg = MetricsRegistry()
        prof = ParallelProfiler(
            ProfilerConfig(workers=4, rebalance_interval_chunks=4, chunk_size=256),
            mode="deterministic",
            registry=reg,
        )
        res, info = prof.profile(batch)
        assert info.rebalance_audit, "expected at least one audited round"
        moved = sum(a["n_moves"] for a in info.rebalance_audit)
        assert moved == info.addresses_migrated
        for entry in info.rebalance_audit:
            assert entry["imbalance_before"] >= 1.0
            assert entry["imbalance_after"] >= 1.0
            assert len(entry["moves"]) == entry["n_moves"]
        report = RunReport.build(reg, res, info, workload="is")
        mem = report.to_dict()["memory"]
        assert mem["rebalance_audit"] == info.rebalance_audit
        assert mem["heatmap"]["total_reads"] == res.stats.n_reads
        assert "main" in mem["peak_rss_bytes"]
        assert mem["peak_rss_bytes"]["main"] > 0
        rendered = report.render()
        assert "heat:" in rendered
        assert "rebalance audit:" in rendered
        assert "peak rss:" in rendered

    def test_processes_report_has_per_worker_rss(self):
        batch = get_trace("rgbyuv")
        reg, res, info = run_mode(batch, "processes")
        report = RunReport.build(reg, res, info, workload="rgbyuv")
        rss = report.to_dict()["memory"]["peak_rss_bytes"]
        assert set(rss) == {"main", "0", "1"}
        assert all(v > 10 * (1 << 20) for v in rss.values())
