"""Bank observability: heat.banks family, summary doc, and ddprof top."""

import numpy as np

from repro.obs.heatmap import AddressHeatmap, heatmap_summary
from repro.obs.metrics import MetricsRegistry
from repro.obs.top import render_top


class TestBankHeat:
    def test_record_bank_occupancy_lands_in_summary(self):
        reg = MetricsRegistry()
        heat = AddressHeatmap(reg, worker=0)
        heat.record_occupancy(np.array([8, 16], dtype=np.int64), "read")
        heat.record_bank_occupancy(np.array([3, 0, 5, 1]), "read")
        heat.record_bank_occupancy(np.array([2, 0, 0, 0]), "write")
        doc = heatmap_summary(reg)
        assert doc is not None and "banks" in doc
        banks = doc["banks"]
        assert banks["n_banks"] == 4
        assert banks["total"] == [5, 0, 5, 1]
        assert banks["occupied_banks"] == 3
        # skew = max/mean over occupied-or-not bank totals
        assert abs(banks["skew"] - (5 / (11 / 4))) < 1e-9
        assert banks["per_worker"]["0"]["read"] == [3, 0, 5, 1]

    def test_bank_occupancy_merges_across_workers(self):
        reg = MetricsRegistry()
        AddressHeatmap(reg, worker=0).record_bank_occupancy(np.array([1, 2]), "read")
        AddressHeatmap(reg, worker=1).record_bank_occupancy(np.array([4, 0]), "read")
        banks = heatmap_summary(reg)["banks"]
        assert banks["total"] == [5, 2]
        assert set(banks["per_worker"]) == {"0", "1"}

    def test_no_banks_no_section(self):
        reg = MetricsRegistry()
        heat = AddressHeatmap(reg, worker=0)
        heat.record_occupancy(np.array([8], dtype=np.int64), "read")
        doc = heatmap_summary(reg)
        assert doc is not None and "banks" not in doc


class TestTopRendering:
    def test_banks_line_rendered(self):
        snapshot = {"run_id": "r1", "counters": {}, "gauges": {}}
        heatmap = {
            "workers": {},
            "hottest": [],
            "banks": {
                "n_banks": 8,
                "per_worker": {},
                "total": [0, 120, 0, 80, 0, 0, 3, 0],
                "occupied_banks": 3,
                "skew": 4.73,
            },
        }
        out = render_top(snapshot, heatmap)
        assert "banks: 3/8 occupied" in out
        assert "skew 4.73" in out
        assert "b1=120" in out and "b3=80" in out

    def test_bank_moves_in_rebalance_line(self):
        snapshot = {
            "run_id": "r1",
            "counters": {
                "rebalance.rounds": 2,
                "rebalance.moves": 5,
                "rebalance.bank_moves": 3,
            },
            "gauges": {},
        }
        out = render_top(snapshot, None)
        assert "(5 moved, 3 banks)" in out

    def test_no_banks_no_line(self):
        out = render_top({"counters": {}, "gauges": {}}, {"workers": {}})
        assert "banks:" not in out
