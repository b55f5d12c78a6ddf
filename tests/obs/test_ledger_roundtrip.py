"""Bundle round-trip fidelity: write → read → diff-against-self is empty
for every bundled workload in both pipeline modes, and a worker crash
still leaves a valid (never torn) partial bundle behind."""

import json

import pytest

from repro.common.config import ProfilerConfig
from repro.common.errors import ProfilerError
from repro.obs import (
    MetricsRegistry,
    RunLedger,
    RunReport,
    diff_bundles,
    load_bundle,
)
from repro.obs.ledger import BUNDLE_NAME
from repro.parallel import ParallelProfiler
from repro.workloads import get_trace, workload_names

ALL_WORKLOADS = [
    name
    for suite in ("nas", "starbench", "splash2x")
    for name in workload_names(suite)
]

PERFECT = ProfilerConfig(perfect_signature=True, workers=2, chunk_size=2048)


def _bundle_for(tmp_path, name, mode, rid):
    reg = MetricsRegistry(run_id=rid)
    led = RunLedger(tmp_path, rid, meta={"workload": name, "mode": mode})
    result, info = ParallelProfiler(
        PERFECT, mode=mode, registry=reg, ledger=led
    ).profile(get_trace(name, scale=1))
    report = RunReport.build(reg, result=result, info=info)
    led.finalize(reg, report=report, result=result, info=info)
    return load_bundle(led.path)


@pytest.mark.parametrize("mode", ["deterministic", "processes"])
@pytest.mark.parametrize("name", ALL_WORKLOADS)
def test_roundtrip_self_diff_is_empty(tmp_path, name, mode):
    doc = _bundle_for(tmp_path, name, mode, "a")
    again = load_bundle(tmp_path / "a")
    diff = diff_bundles(doc, again)
    assert diff.identical, diff.render()
    assert diff.regressions == []
    assert doc["dependences"]["n_edges"] > 0
    assert doc["loops"], "every workload profiles at least one loop"


@pytest.mark.parametrize("mode", ["deterministic", "processes"])
def test_two_identical_runs_diff_empty(tmp_path, mode):
    """The determinism contract behind the exit-code gate: two separate
    profiles of the same workload+config agree edge-for-edge."""
    a = _bundle_for(tmp_path, "cg", mode, "a")
    b = _bundle_for(tmp_path, "cg", mode, "b")
    assert a["dependences"]["digest"] == b["dependences"]["digest"]
    diff = diff_bundles(a, b)
    assert not diff.edges_added and not diff.edges_removed
    assert not diff.verdict_flips
    assert diff.regressions == []


class TestCrashPath:
    def test_worker_crash_leaves_valid_partial_bundle(
        self, monkeypatch, tmp_path
    ):
        """A worker crash in processes mode must still commit a parseable
        ``status: "partial"`` bundle from the engine's finally path — no
        torn JSON, no stranded tmp files."""
        import repro.parallel.worker as worker_mod

        def boom(self, batch, rows, seq=-1):
            raise RuntimeError("injected worker crash")

        monkeypatch.setattr(worker_mod.Worker, "process_rows", boom)
        reg = MetricsRegistry(run_id="crashy")
        led = RunLedger(tmp_path, "crashy", meta={"workload": "ep"})
        with pytest.raises(ProfilerError, match="injected worker crash"):
            ParallelProfiler(
                PERFECT.with_(chunk_size=512),
                mode="processes",
                registry=reg,
                ledger=led,
            ).profile(get_trace("ep"))
        raw = led.path.read_text()
        doc = json.loads(raw)  # parses or raises: never torn
        assert doc["status"] == "partial"
        assert doc["run_id"] == "crashy"
        assert doc["dependences"] is None
        assert list(led.path.parent.glob("*.tmp")) == []
        # The reader side accepts it too (schema-checked).
        assert load_bundle(led.path)["meta"]["workload"] == "ep"

    def test_deterministic_mode_crash_also_checkpoints(self, monkeypatch, tmp_path):
        import repro.parallel.worker as worker_mod

        def boom(self, batch, rows, seq=-1):
            raise RuntimeError("injected worker crash")

        monkeypatch.setattr(worker_mod.Worker, "process_rows", boom)
        reg = MetricsRegistry(run_id="crashy2")
        led = RunLedger(tmp_path, "crashy2")
        with pytest.raises(RuntimeError, match="injected worker crash"):
            ParallelProfiler(
                PERFECT, mode="deterministic", registry=reg, ledger=led
            ).profile(get_trace("ep"))
        assert load_bundle(led.path)["status"] == "partial"

    def test_partial_bundle_diffs_against_full_one(self, tmp_path):
        """A partial bundle is still a usable diff operand: metrics-only
        comparison, no dependence/loop sections to crash on."""
        full = _bundle_for(tmp_path, "ep", "deterministic", "full")
        reg = MetricsRegistry(run_id="part")
        led = RunLedger(tmp_path, "part")
        led.checkpoint(reg)
        partial = load_bundle(led.path)
        diff = diff_bundles(full, partial)
        assert diff.verdict_flips == [] and diff.regressions == []


def test_engine_checkpoint_fires_without_finalize(tmp_path):
    """The engine-side safety net alone (no CLI finalize) leaves a bundle."""
    reg = MetricsRegistry(run_id="engine-only")
    led = RunLedger(tmp_path, "engine-only")
    ParallelProfiler(PERFECT, registry=reg, ledger=led).profile(get_trace("ep"))
    doc = load_bundle(tmp_path / "engine-only" / BUNDLE_NAME)
    assert doc["status"] == "partial"
    assert doc["metrics"]["counters"]
