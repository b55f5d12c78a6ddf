"""Tests for access statistics and the hot-address rebalancer."""

import heapq
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.config import ProfilerConfig
from repro.parallel import ParallelProfiler, balance
from repro.parallel.address_map import AddressMap
from repro.parallel.balance import COUNT_SATURATION, AccessStats, Rebalancer
from repro.workloads import get_trace


def stats_from(counts: dict[int, int]) -> AccessStats:
    s = AccessStats()
    for addr, c in counts.items():
        s.record_many(np.full(c, addr, dtype=np.int64))
    return s


class TestAccessStats:
    def test_record_many_counts(self):
        s = AccessStats()
        s.record_many(np.array([8, 8, 16, 8], dtype=np.int64))
        assert s.count_of(8) == 3
        assert s.count_of(16) == 1
        assert s.total == 4
        assert s.n_addresses == 2

    def test_buffer_folds_past_its_bound(self, monkeypatch):
        monkeypatch.setattr(balance, "FOLD_ENTRIES", 3)
        s = AccessStats()
        s.record_many(np.array([8, 16], dtype=np.int64))
        assert len(s._buf) == 1
        s.record_many(np.array([16, 24], dtype=np.int64))
        assert s._buf == [] and s._addr.tolist() == [8, 16, 24]
        assert s._count.tolist() == [1, 2, 1]

    def test_hottest_ordering_deterministic(self):
        s = stats_from({8: 5, 16: 5, 24: 9})
        hot = s.hottest(3)
        assert hot == [(24, 9), (8, 5), (16, 5)]  # count desc, addr asc ties

    def test_hottest_with_fewer_addresses(self):
        s = stats_from({8: 1})
        assert s.hottest(10) == [(8, 1)]

    def test_hottest_nonpositive_k(self):
        s = stats_from({8: 1})
        assert s.hottest(0) == []
        assert s.hottest(-3) == []

    def test_hottest_tie_break_across_many_ties(self):
        # Regression: the old overfetch-through-most_common path resolved
        # count ties in insertion order and could drop the tied address
        # with the smallest id.  Insert descending so insertion order is
        # the worst case for the (count desc, addr asc) contract.
        s = AccessStats()
        for addr in range(80, 0, -8):  # 80, 72, ..., 8 — all count 1
            s.record_many(np.array([addr], dtype=np.int64))
        assert s.hottest(1) == [(8, 1)]
        assert s.hottest(3) == [(8, 1), (16, 1), (24, 1)]

    @settings(max_examples=150, deadline=None)
    @given(
        windows=st.lists(
            st.lists(st.integers(0, 40).map(lambda i: 8 * i), max_size=30),
            max_size=8,
        ),
        bound=st.sampled_from([0, 3, 16, balance.FOLD_ENTRIES]),
        k=st.integers(0, 12),
    )
    def test_matches_counter_reference(self, windows, bound, k):
        """The sorted columns against a per-address ``Counter``, with reads
        between windows and fold bounds from every window to none."""

        def ref_hottest(ref):
            return heapq.nsmallest(k, ref.items(), key=lambda ac: (-ac[1], ac[0]))

        ref = Counter()
        s = AccessStats()
        with mock.patch.object(balance, "FOLD_ENTRIES", bound):
            for i, window in enumerate(windows):
                s.record_many(np.array(window, dtype=np.int64))
                ref.update(window)
                if i % 2:
                    assert s.hottest(k) == ref_hottest(ref)
        assert s.hottest(k) == ref_hottest(ref)
        assert s.n_addresses == len(ref)
        assert {a: s.count_of(a) for a in ref} == ref
        assert s.count_of(4) == 0
        assert s.total == sum(ref.values())

    def test_counts_saturate_instead_of_wrapping(self):
        # Synthetic 1e8-event replays must pin at int64-max, never wrap
        # negative (which would sort the hottest address *last*).
        s = AccessStats()
        s.record_counts(np.array([8]), np.array([COUNT_SATURATION - 2]))
        assert s.count_of(8) == COUNT_SATURATION - 2
        assert s.total == COUNT_SATURATION - 2
        s.record_many(np.full(5, 8, dtype=np.int64))
        assert s.count_of(8) == COUNT_SATURATION
        assert s.total == COUNT_SATURATION
        s.record_many(np.array([8], dtype=np.int64))
        assert s.count_of(8) == COUNT_SATURATION
        assert s.hottest(1) == [(8, COUNT_SATURATION)]

    def test_buffered_counts_saturate_in_one_fold(self):
        # Three half-range counts buffered for one address sum past int64
        # in a single fold.
        s = AccessStats()
        for _ in range(3):
            s.record_counts(np.array([8, 16]), np.array([COUNT_SATURATION // 2, 1]))
        assert s.hottest(2) == [(8, COUNT_SATURATION), (16, 3)]
        assert s.total == COUNT_SATURATION


class TestRebalancer:
    def test_imbalance_detected(self):
        # Elements 0, 4, 8, 12 (stride 32 bytes): all home to worker 0 of 4.
        amap = AddressMap(4)
        s = stats_from({0: 1000, 32: 1000, 64: 1000, 96: 1000})
        r = Rebalancer(amap, hot_addresses=4)
        assert r.imbalance(s) == 4.0

    def test_rebalance_spreads_hot_addresses(self):
        amap = AddressMap(4)
        s = stats_from({0: 1000, 32: 1000, 64: 1000, 96: 1000})
        r = Rebalancer(amap, hot_addresses=4)
        decision = r.rebalance(s)
        assert decision.n_moves == 3  # one can stay home
        workers = {amap.worker_of(a) for a in (0, 32, 64, 96)}
        assert workers == {0, 1, 2, 3}
        assert abs(r.imbalance(s) - 1.0) < 1e-9

    def test_rebalance_is_minimal_when_balanced(self):
        amap = AddressMap(4)
        s = stats_from({0: 100, 8: 100, 16: 100, 24: 100})  # already spread
        r = Rebalancer(amap, hot_addresses=4)
        assert r.rebalance(s).n_moves == 0

    def test_skewed_counts_use_lpt_greedy(self):
        """One very hot address alone on a worker; others packed elsewhere."""
        amap = AddressMap(2)
        s = stats_from({0: 1000, 2: 10, 4: 10, 6: 10})  # all on worker 0
        r = Rebalancer(amap, hot_addresses=4)
        r.rebalance(s)
        hot_worker = amap.worker_of(0)
        others = {amap.worker_of(a) for a in (2, 4, 6)}
        assert others == {1 - hot_worker}

    def test_counters_accumulate(self):
        amap = AddressMap(2)
        s = stats_from({0: 10, 2: 10})
        r = Rebalancer(amap, hot_addresses=2)
        r.rebalance(s)
        r.rebalance(s)
        assert r.rounds == 2

    def test_empty_stats_noop(self):
        r = Rebalancer(AddressMap(2))
        assert r.rebalance(AccessStats()).n_moves == 0
        assert r.imbalance(AccessStats()) == 1.0


class TestRebalanceAudit:
    def test_audit_records_every_round(self):
        amap = AddressMap(4)
        s = stats_from({0: 1000, 32: 1000, 64: 1000, 96: 1000})
        r = Rebalancer(amap, hot_addresses=4)
        r.rebalance(s)  # moves 3
        r.rebalance(s)  # already balanced: 0 moves, still audited
        assert len(r.audit) == 2
        first, second = r.audit
        assert first["round"] == 1 and second["round"] == 2
        assert first["n_moves"] == 3 and second["n_moves"] == 0

    def test_audit_imbalance_before_after(self):
        amap = AddressMap(4)
        s = stats_from({0: 1000, 32: 1000, 64: 1000, 96: 1000})
        r = Rebalancer(amap, hot_addresses=4)
        r.rebalance(s)
        entry = r.audit[0]
        assert entry["imbalance_before"] == 4.0
        assert abs(entry["imbalance_after"] - 1.0) < 1e-9
        assert sum(entry["hot_load_before"]) == sum(entry["hot_load_after"]) == 4000
        assert entry["hot_load_before"] == [4000, 0, 0, 0]

    def test_audit_lists_migrated_addresses(self):
        amap = AddressMap(4)
        s = stats_from({0: 1000, 32: 1000, 64: 1000, 96: 1000})
        r = Rebalancer(amap, hot_addresses=4)
        decision = r.rebalance(s)
        moves = r.audit[0]["moves"]
        assert len(moves) == decision.n_moves
        assert {m["addr"] for m in moves} == {a for a, _, _ in decision.moves}
        for m, (addr, old, new) in zip(moves, decision.moves):
            assert m == {"addr": addr, "from": old, "to": new}

    def test_audit_on_empty_round(self):
        r = Rebalancer(AddressMap(2))
        r.rebalance(AccessStats())
        assert r.audit == [
            {
                "round": 1,
                "n_moves": 0,
                "moves": [],
                "n_bank_moves": 0,
                "bank_moves": [],
                "imbalance_before": 1.0,
                "imbalance_after": 1.0,
                "hot_load_before": [],
                "hot_load_after": [],
            }
        ]

    def test_rebalance_event_carries_before_after(self):
        from repro.obs import MemorySink
        from repro.obs.metrics import MetricsRegistry

        sink = MemorySink()
        reg = MetricsRegistry(sink=sink)
        amap = AddressMap(4)
        s = stats_from({0: 1000, 32: 1000, 64: 1000, 96: 1000})
        Rebalancer(amap, hot_addresses=4, registry=reg).rebalance(s)
        events = [e for e in sink.events if e["type"] == "rebalance"]
        assert len(events) == 1
        ev = events[0]
        assert ev["imbalance_before"] == 4.0
        assert abs(ev["imbalance_after"] - 1.0) < 1e-9
        assert ev["imbalance"] == ev["imbalance_after"]  # legacy key kept
        assert sum(ev["hot_load"]) == 4000


class TestPipelineCadence:
    def test_statistics_recorded_only_when_a_check_can_fire(self, monkeypatch):
        """Routed accesses never exceed the trace's rows, so a trace shorter
        than one rebalance interval never reaches a check: the pipeline
        records no access statistics for it."""

        def record_many(self, addrs):
            raise AssertionError("statistics recorded")

        monkeypatch.setattr(AccessStats, "record_many", record_many)
        batch = get_trace("cg")
        cfg = ProfilerConfig(perfect_signature=True, workers=2)
        assert len(batch) < cfg.rebalance_interval_chunks * cfg.chunk_size
        res, info = ParallelProfiler(cfg).profile(batch)
        assert res.store.n_entries > 0 and info.rebalance_audit == []
        # A trace that reaches one interval records its statistics.
        at_cadence = cfg.with_(rebalance_interval_chunks=1, chunk_size=len(batch))
        with pytest.raises(AssertionError, match="statistics recorded"):
            ParallelProfiler(at_cadence).profile(batch)
