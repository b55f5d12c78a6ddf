"""The cross-run diff engine: edge drift, verdict flips, noise bands."""

import json

from repro.obs import VerdictFlip, classify_delta, diff_bundles
from repro.obs.ledger import SCHEMA, dependence_digest


def edge(type="RAW", source="0:1|0", sink="0:2|0", var="x", carried=()):
    return {
        "type": type,
        "source": source,
        "sink": sink,
        "var": var,
        "carried": list(carried),
        "race": False,
    }


def bundle(
    run_id="r",
    edges=None,
    loops=None,
    counters=None,
    gauges=None,
    coverage=None,
    suspect=None,
    meta=None,
):
    doc = {
        "schema": SCHEMA,
        "run_id": run_id,
        "status": "ok",
        "error": None,
        "meta": meta or {"workload": "cg"},
        "environment": {},
        "metrics": {"counters": [], "gauges": [], "histograms": []},
        "report": {"counters": counters or {}, "gauges": gauges or {}},
        "loops": loops or [],
        "coverage": coverage,
        "heatmap": None,
        "rebalance_audit": [],
        "provenance": (
            None
            if suspect is None
            else {"n_records": len(suspect), "n_suspect": len(suspect),
                  "suspect": list(suspect)}
        ),
    }
    e = edges if edges is not None else []
    doc["dependences"] = {
        "digest": dependence_digest(e),
        "n_edges": len(e),
        "edges": e,
    }
    return doc


def loop(site="0:5", verdict="doall"):
    return {"site": site, "end": None, "executions": 1, "total_iterations": 10,
            "mean_iterations": 10.0, "parallelizable": verdict != "sequential",
            "verdict": verdict, "note": ""}


class TestClassifyDelta:
    def test_within_band_is_neutral(self):
        assert classify_delta(100.0, 110.0)[0] == "neutral"

    def test_directionless_is_changed(self):
        status, why = classify_delta(100.0, 200.0, direction=None)
        assert status == "changed" and "+100.0%" in why

    def test_directed_improved_and_regressed(self):
        assert classify_delta(100.0, 50.0, direction="lower")[0] == "improved"
        assert classify_delta(100.0, 200.0, direction="lower")[0] == "regressed"
        assert classify_delta(100.0, 200.0, direction="higher")[0] == "improved"

    def test_mad_widens_the_band(self):
        assert classify_delta(100.0, 200.0, direction=None)[0] == "changed"
        assert (
            classify_delta(100.0, 200.0, direction=None, base_mad=30.0)[0]
            == "neutral"
        )


class TestSelfDiff:
    def test_identical_bundles_diff_empty(self):
        a = bundle(
            run_id="a",
            edges=[edge(), edge(type="WAR", var="y")],
            loops=[loop(), loop(site="0:9", verdict="reduction")],
            counters={"deps.merged_entries": 5},
            coverage={"fastpath_coverage": 0.5, "events_fastpath": 10,
                      "events_interpreted": 10},
            suspect=["RAW 0:1->0:2 var x"],
        )
        b = json.loads(json.dumps(a))
        b["run_id"] = "b"
        diff = diff_bundles(a, b)
        assert diff.identical
        assert diff.regressions == []
        assert "verdict: identical" in diff.render()
        assert diff.to_dict()["identical"] is True


class TestEdgeDrift:
    def test_added_and_removed_edges(self):
        a = bundle(run_id="a", edges=[edge(), edge(var="y")])
        b = bundle(run_id="b", edges=[edge(), edge(var="z")])
        diff = diff_bundles(a, b)
        assert [e["var"] for e in diff.edges_added] == ["z"]
        assert [e["var"] for e in diff.edges_removed] == ["y"]
        assert not diff.regressions  # edge churn alone never gates
        assert "+1 / -1 edges" in diff.render()

    def test_strict_escalates_added_edges(self):
        a = bundle(run_id="a", edges=[edge()])
        b = bundle(run_id="b", edges=[edge(), edge(var="z")])
        assert diff_bundles(a, b).regressions == []
        strict = diff_bundles(a, b, strict=True)
        assert any("edge(s) added" in r for r in strict.regressions)

    def test_race_annotation_does_not_count_as_drift(self):
        e1, e2 = edge(), edge()
        e2["race"] = True
        diff = diff_bundles(bundle(edges=[e1]), bundle(edges=[e2]))
        assert not diff.edges_added and not diff.edges_removed


class TestVerdictFlips:
    def test_flip_directions(self):
        assert VerdictFlip("0:1", "doall", "sequential").direction == "regression"
        assert VerdictFlip("0:1", "sequential", "doall").direction == "improvement"
        assert VerdictFlip("0:1", "reduction", "pipeline").direction == "regression"
        assert VerdictFlip("0:1", "doall", "weird").direction == "lateral"

    def test_regression_gates_and_names_the_loop(self):
        a = bundle(run_id="a", loops=[loop("0:23", "doall")])
        b = bundle(run_id="b", loops=[loop("0:23", "sequential")])
        diff = diff_bundles(a, b)
        assert diff.regressions == ["loop 0:23 verdict doall -> sequential"]
        out = diff.render()
        assert "loop 0:23 doall -> sequential" in out
        assert "[REGRESSION]" in out and "REGRESSED" in out

    def test_improvement_does_not_gate(self):
        a = bundle(run_id="a", loops=[loop("0:23", "sequential")])
        b = bundle(run_id="b", loops=[loop("0:23", "doall")])
        diff = diff_bundles(a, b)
        assert diff.verdict_flips and not diff.regressions
        assert "OK (no regressions)" in diff.render()

    def test_loops_only_on_one_side_are_reported_not_flipped(self):
        a = bundle(run_id="a", loops=[loop("0:1"), loop("0:2")])
        b = bundle(run_id="b", loops=[loop("0:2")])
        diff = diff_bundles(a, b)
        assert diff.loops_only_a == ["0:1"] and not diff.verdict_flips


class TestMetricAndCoverage:
    def test_metric_outside_band_is_noticed_not_gating(self):
        a = bundle(run_id="a", counters={"engine.tracker_memory_bytes": 1000.0})
        b = bundle(run_id="b", counters={"engine.tracker_memory_bytes": 5000.0})
        diff = diff_bundles(a, b)
        assert [m.name for m in diff.metrics] == ["engine.tracker_memory_bytes"]
        assert diff.metrics[0].status == "changed"
        assert not diff.regressions and not diff.identical

    def test_metric_within_band_is_silent(self):
        a = bundle(run_id="a", gauges={"engine.tracker_memory_bytes": 100.0})
        b = bundle(run_id="b", gauges={"engine.tracker_memory_bytes": 110.0})
        diff = diff_bundles(a, b)
        assert diff.metrics == [] and diff.n_metrics_compared == 1

    def test_resource_and_timing_metrics_are_not_compared(self):
        host = {
            'process.cpu_seconds{kind="sys"}': 1.0,
            "process.peak_rss_bytes": 100.0,
            'worker.heartbeat.age_seconds{worker="0"}': 0.01,
            'pipeline.backpressure_stalls': 1.0,
            'obs.tick_errors{loop="stream"}': 1.0,
        }
        a = bundle(run_id="a", gauges=host)
        b = bundle(run_id="b", gauges={k: 10 * v for k, v in host.items()})
        diff = diff_bundles(a, b)
        assert diff.metrics == [] and diff.n_metrics_compared == 0
        assert diff.identical

    def test_disjoint_metric_keys_are_skipped(self):
        a = bundle(run_id="a", counters={"only.a": 1.0})
        b = bundle(run_id="b", counters={"only.b": 2.0})
        assert diff_bundles(a, b).n_metrics_compared == 0

    def test_coverage_regression_gates_only_under_strict(self):
        def cov(v):
            return {"fastpath_coverage": v, "events_fastpath": 0,
                    "events_interpreted": 0}
        a = bundle(run_id="a", coverage=cov(0.9))
        b = bundle(run_id="b", coverage=cov(0.2))
        diff = diff_bundles(a, b)
        assert diff.coverage is not None and diff.coverage.status == "regressed"
        assert not diff.regressions
        assert any(
            "coverage" in r for r in diff_bundles(a, b, strict=True).regressions
        )


class TestSuspectDrift:
    def test_suspect_fp_appearing(self):
        a = bundle(run_id="a", suspect=[])
        b = bundle(run_id="b", suspect=["RAW 0:1->0:2 var x"])
        diff = diff_bundles(a, b)
        assert diff.suspect_added == ["RAW 0:1->0:2 var x"]
        assert not diff.regressions
        assert diff_bundles(a, b, strict=True).regressions


class TestSerialization:
    def test_to_json_round_trips(self):
        a = bundle(run_id="a", loops=[loop("0:23", "doall")])
        b = bundle(run_id="b", loops=[loop("0:23", "sequential")])
        doc = json.loads(diff_bundles(a, b).to_json())
        assert doc["schema"] == "ddprof.run-diff/1"
        assert doc["verdict_flips"][0]["direction"] == "regression"
        assert doc["regressions"]

    def test_partial_bundle_falls_back_to_metrics_state(self):
        a = bundle(run_id="a")
        a["report"] = None
        a["metrics"] = {
            "counters": [["worker.accesses", [["worker", "0"]], 100.0]],
            "gauges": [],
        }
        b = json.loads(json.dumps(a))
        b["metrics"]["counters"][0][2] = 900.0
        diff = diff_bundles(a, b)
        assert [m.name for m in diff.metrics] == ['worker.accesses{worker="0"}']
