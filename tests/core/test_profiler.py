"""``profile_trace`` is the pipeline at one worker.

It runs ``ParallelProfiler`` in deterministic mode with one worker that
holds every slot, so it must agree with that worker run in the other
transport on everything: the store with its counts, the statistics
including tracker memory, eviction telemetry and provenance.
"""

import pytest

from repro.common.config import ProfilerConfig
from repro.core import profile_trace
from repro.obs.metrics import MetricsRegistry
from repro.parallel import ParallelProfiler
from repro.workloads import get_trace

CONFIGS = {
    "perfect": ProfilerConfig(perfect_signature=True),
    "slots256": ProfilerConfig(signature_slots=256),
}


def evictions(reg: MetricsRegistry) -> dict:
    return {c.labels: c.value for c in reg.counters() if c.name == "sigmem.evictions"}


def provenance_rows(prov) -> dict:
    return {dep: rec.to_dict() for dep, rec in prov}


@pytest.mark.parametrize("provenance", [False, True], ids=["plain", "provenance"])
@pytest.mark.parametrize("config", list(CONFIGS.values()), ids=list(CONFIGS))
@pytest.mark.parametrize("workload", ["cg", "is", "md5"])
def test_sequential_equals_one_worker_pipeline(workload, config, provenance):
    """``profile_trace`` equals one forked worker process over the same
    trace, provenance chunk ids included."""
    batch = get_trace(workload)
    reg = MetricsRegistry()
    seq = profile_trace(batch, config, registry=reg, provenance=provenance)
    par_reg = MetricsRegistry()
    par, _ = ParallelProfiler(
        config.with_(workers=1),
        mode="processes",
        registry=par_reg,
        provenance=provenance,
    ).profile(batch)
    assert dict(seq.store.items()) == dict(par.store.items())
    assert seq.stats == par.stats
    assert evictions(reg) == evictions(par_reg)
    if not config.perfect_signature:
        assert sum(evictions(reg).values()) > 0
    if provenance:
        assert provenance_rows(seq.provenance) == provenance_rows(par.provenance)
    else:
        assert seq.provenance is None


def test_all_slots_whatever_the_worker_count():
    """A pipeline config's worker count does not shrink the sequential
    profiler's signature: its one worker holds every slot."""
    batch = get_trace("cg")
    cfg = ProfilerConfig(signature_slots=4096, workers=4)
    seq = profile_trace(batch, cfg)
    assert seq.stats.tracker_memory_bytes == profile_trace(
        batch, cfg.with_(workers=1)
    ).stats.tracker_memory_bytes
    par, _ = ParallelProfiler(cfg.with_(workers=1)).profile(batch)
    assert dict(seq.store.items()) == dict(par.store.items())
    quarter, _ = ParallelProfiler(
        cfg.with_(signature_slots=1024, workers=1)
    ).profile(batch)
    assert dict(seq.store.items()) != dict(quarter.store.items())


def test_registry_metric_names():
    """A ``profile_trace`` run writes the pipeline's metric families,
    labelled by its one worker, and the pipeline's stage spans."""
    reg = MetricsRegistry()
    res = profile_trace(get_trace("is"), ProfilerConfig(signature_slots=256), registry=reg)
    counters = {(c.name, c.labels): c.value for c in reg.counters()}
    assert counters[("engine.reads", (("worker", "0"),))] == res.stats.n_reads
    assert counters[("deps.instances", (("type", "RAW"), ("worker", "0")))] > 0
    assert (
        reg.gauge("engine.tracker_memory_bytes", worker=0).value
        == res.stats.tracker_memory_bytes
    )
    assert reg.sum_counters("sigmem.evictions") > 0
    assert {"loop-index", "route", "drain", "merge"} <= set(reg.phase_totals())
