"""The run ledger: bundle writing, digests, listing, and LRU gc."""

import json
import os

import pytest

from repro.common.config import ProfilerConfig
from repro.common.errors import ObsError
from repro.obs import (
    MetricsRegistry,
    RunLedger,
    RunReport,
    bundle_summary,
    default_ledger_dir,
    dependence_digest,
    dependence_edges,
    gc_ledger,
    list_runs,
    load_bundle,
    new_run_id,
    resolve_bundle,
    validate_run_id,
)
from repro.obs.ledger import BUNDLE_NAME, SCHEMA, write_atomic
from repro.parallel import ParallelProfiler
from repro.workloads import get_trace

PERFECT = ProfilerConfig(perfect_signature=True, workers=2)


class TestRunId:
    def test_new_run_id_shape_and_uniqueness(self):
        ids = {new_run_id() for _ in range(64)}
        assert len(ids) == 64
        assert all(len(i) == 12 and i == i.lower() for i in ids)
        assert all(validate_run_id(i) == i for i in ids)

    @pytest.mark.parametrize("rid", ["a", "run-1", "2026-08-08T12.00.00-ab12"])
    def test_accepts_safe_components(self, rid):
        assert validate_run_id(rid) == rid

    @pytest.mark.parametrize(
        "rid", ["", ".", "..", "a/b", "a\\b", "../evil", "x\x00y"]
    )
    def test_rejects_unsafe_components(self, rid):
        with pytest.raises(ObsError):
            validate_run_id(rid)

    def test_default_dir_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("DDPROF_LEDGER", str(tmp_path / "led"))
        assert default_ledger_dir() == tmp_path / "led"


class TestAtomicWrite:
    def test_no_tmp_leftovers(self, tmp_path):
        path = tmp_path / "runs" / "r1" / BUNDLE_NAME
        write_atomic(path, {"schema": SCHEMA, "x": (1, 2), "s": {3, 1}})
        doc = json.loads(path.read_text())
        assert doc["x"] == [1, 2] and doc["s"] == [1, 3]
        assert list(path.parent.glob("*.tmp")) == []

    def test_overwrite_is_atomic_replace(self, tmp_path):
        path = tmp_path / BUNDLE_NAME
        write_atomic(path, {"v": 1})
        write_atomic(path, {"v": 2})
        assert json.loads(path.read_text())["v"] == 2
        assert list(tmp_path.glob("*.tmp")) == []


class TestLifecycle:
    def test_checkpoint_then_finalize(self, tmp_path):
        reg = MetricsRegistry(run_id="r1")
        reg.counter("worker.accesses", worker=0).inc(7)
        led = RunLedger(tmp_path, "r1", meta={"workload": "cg"})
        led.checkpoint(reg)
        doc = load_bundle(led.path)
        assert doc["status"] == "partial"
        assert doc["report"] is None and doc["dependences"] is None
        assert doc["metrics"]["counters"]  # telemetry so far is present
        led.finalize(reg, status="ok")
        doc = load_bundle(led.path)
        assert doc["status"] == "ok" and doc["meta"]["workload"] == "cg"

    def test_checkpoint_never_regresses_a_finalized_bundle(self, tmp_path):
        reg = MetricsRegistry(run_id="r1")
        led = RunLedger(tmp_path, "r1")
        led.finalize(reg, status="ok")
        led.checkpoint(reg)  # engine finally firing after CLI finalize
        assert load_bundle(led.path)["status"] == "ok"

    def test_crash_finalize_records_error(self, tmp_path):
        reg = MetricsRegistry(run_id="r1")
        led = RunLedger(tmp_path, "r1")
        led.finalize(reg, status="crashed", error="RuntimeError: boom")
        doc = load_bundle(led.path)
        assert doc["status"] == "crashed"
        assert "boom" in doc["error"]

    def test_rejects_bad_run_id_at_construction(self, tmp_path):
        with pytest.raises(ObsError):
            RunLedger(tmp_path, "a/b")


class TestDigest:
    def test_digest_is_order_insensitive_and_stable(self):
        edges = [
            {"type": "RAW", "source": "0:1|0", "sink": "0:2|0",
             "var": "x", "carried": ["0:1"], "race": False},
            {"type": "WAR", "source": "0:3|0", "sink": "0:1|0",
             "var": "y", "carried": [], "race": False},
        ]
        d1 = dependence_digest(edges)
        assert d1.startswith("sha256:")
        # race is a per-run annotation, not part of the identity
        edges[0]["race"] = True
        assert dependence_digest(edges) == d1
        edges[0]["var"] = "z"
        assert dependence_digest(edges) != d1

    def test_same_profile_twice_same_digest(self):
        batch = get_trace("ep")
        runs = []
        for _ in range(2):
            result, _ = ParallelProfiler(PERFECT).profile(batch)
            runs.append(dependence_edges(result))
        assert runs[0] == runs[1]
        assert dependence_digest(runs[0]) == dependence_digest(runs[1])


def _write_run(root, rid, mtime, workload="cg", pad=0):
    led = RunLedger(root, rid, meta={"workload": workload})
    led.finalize(MetricsRegistry(run_id=rid))
    if pad:
        (led.path.parent / "pad.bin").write_bytes(b"\0" * pad)
    os.utime(led.path, (mtime, mtime))
    return led


class TestListingAndGc:
    def test_list_runs_newest_first(self, tmp_path):
        for i, rid in enumerate(["old", "mid", "new"]):
            _write_run(tmp_path, rid, 1000.0 + i)
        rows = list_runs(tmp_path)
        assert [r["run_id"] for r in rows] == ["new", "mid", "old"]
        assert rows[0]["status"] == "ok" and rows[0]["bytes"] > 0

    def test_list_skips_corrupt_bundles(self, tmp_path):
        _write_run(tmp_path, "good", 1000.0)
        bad = tmp_path / "bad" / BUNDLE_NAME
        bad.parent.mkdir()
        bad.write_text("{ torn")
        assert [r["run_id"] for r in list_runs(tmp_path)] == ["good"]

    def test_gc_keep_evicts_oldest_first(self, tmp_path):
        for i, rid in enumerate(["a", "b", "c", "d"]):
            _write_run(tmp_path, rid, 1000.0 + i)
        removed = gc_ledger(tmp_path, keep=2)
        assert removed == ["a", "b"]
        assert [r["run_id"] for r in list_runs(tmp_path)] == ["d", "c"]

    def test_gc_limit_bytes(self, tmp_path):
        for i, rid in enumerate(["a", "b", "c"]):
            _write_run(tmp_path, rid, 1000.0 + i, pad=10_000)
        total = sum(r["bytes"] for r in list_runs(tmp_path))
        removed = gc_ledger(tmp_path, limit_bytes=total - 1)
        assert removed == ["a"]

    def test_gc_without_bounds_is_noop(self, tmp_path):
        _write_run(tmp_path, "a", 1000.0)
        assert gc_ledger(tmp_path) == []
        assert len(list_runs(tmp_path)) == 1


class TestLoadResolve:
    def test_load_from_dir_or_file(self, tmp_path):
        led = _write_run(tmp_path, "a", 1000.0)
        assert load_bundle(led.path)["run_id"] == "a"
        assert load_bundle(led.path.parent)["run_id"] == "a"

    def test_load_errors(self, tmp_path):
        with pytest.raises(ObsError, match="no run bundle"):
            load_bundle(tmp_path / "nope")
        p = tmp_path / BUNDLE_NAME
        p.write_text("{ torn")
        with pytest.raises(ObsError, match="corrupt"):
            load_bundle(p)
        p.write_text(json.dumps({"schema": "other/9"}))
        with pytest.raises(ObsError, match="schema"):
            load_bundle(p)

    def test_resolve_by_id_dir_and_path(self, tmp_path):
        led = _write_run(tmp_path, "a", 1000.0)
        assert resolve_bundle(tmp_path, "a") == led.path
        assert resolve_bundle(tmp_path, str(led.path.parent)) == led.path
        assert resolve_bundle(tmp_path, str(led.path)) == led.path
        with pytest.raises(ObsError, match="not found"):
            resolve_bundle(tmp_path, "missing")


class TestSummary:
    def test_full_bundle_summary_sections(self, tmp_path):
        batch = get_trace("ep")
        reg = MetricsRegistry(run_id="s1")
        result, info = ParallelProfiler(PERFECT, registry=reg).profile(batch)
        report = RunReport.build(reg, result=result, info=info)
        led = RunLedger(tmp_path, "s1", meta={"workload": "ep"})
        led.finalize(reg, report=report, result=result, info=info)
        text = bundle_summary(load_bundle(led.path))
        assert "run s1 [ok]" in text
        assert "dependences:" in text and "digest sha256:" in text
        assert "loops:" in text
