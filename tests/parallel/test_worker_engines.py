"""Differential test: the pipeline's chunk kernel vs the reference worker.

Every pipeline worker runs the incremental array kernel
(:class:`~repro.core.vectorized.ChunkKernel`); the event-at-a-time
:class:`~repro.core.reference.ReferenceEngine` is kept as the oracle
(:func:`tests.trace_helpers.reference_pipeline`: same routing, same
per-worker chunks).  On every bundled program, for the perfect, the lossy
and the banked lossy signature, the two must agree on the merged store,
the per-type instance counts, every provenance field (suspect-FP flags
included) and the eviction telemetry (``sigmem.evictions{worker,kind}``,
``heat.conflicts``).  Provenance chunk ids are compared too: both
transports number each worker's chunks from 0, as the oracle does.
"""

import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.common.config import ProfilerConfig
from repro.obs.metrics import MetricsRegistry
from repro.obs.provenance import ProvenanceCollector
from repro.parallel import ParallelProfiler
from repro.workloads import get_trace, get_workload, workload_names
from tests.trace_helpers import reference_pipeline

ALL_WORKLOADS = [
    name
    for suite in ("nas", "starbench", "splash2x")
    for name in workload_names(suite)
]

_BASE = ProfilerConfig(workers=2, chunk_size=2048)
TRACKERS = {
    "perfect": _BASE.with_(perfect_signature=True),
    "slots": _BASE.with_(signature_slots=1 << 12),
    "banked": _BASE.with_(signature_slots=1 << 12, signature_banks=8),
}


def _trace(name, variant):
    if variant == "par":
        return get_trace(name, variant="par", scale=1, threads=3)
    return get_trace(name, scale=1)


def _provenance(prov):
    return {dep: rec.to_dict() for dep, rec in prov}


def _telemetry(reg):
    evictions = {c.labels: c.value for c in reg.counters() if c.name == "sigmem.evictions"}
    conflicts = {
        h.labels: (tuple(h.counts), h.count)
        for h in reg.histograms()
        if h.name == "heat.conflicts"
    }
    return evictions, conflicts


def _config(variant, tracker):
    return TRACKERS[tracker].with_(multithreaded_target=variant == "par")


def _oracle(batch, cfg):
    """Reference-worker results for one trace and configuration."""
    store, engines, reg = reference_pipeline(batch, cfg)
    prov = ProvenanceCollector()
    instances = {}
    for eng in engines:
        prov.merge(eng.provenance)
        for t, c in eng.stats.dep_instances.items():
            instances[t] = instances.get(t, 0) + c
    n_accesses = sum(e.stats.n_reads + e.stats.n_writes for e in engines)
    return store, instances, n_accesses, _provenance(prov), _telemetry(reg)


PAR_WORKLOADS = ["md5", "rgbyuv"]

#: Every case in the order this module's tests ask for them.
CASES = [(n, "seq", t) for n in ALL_WORKLOADS for t in TRACKERS] + [
    (n, "par", t) for n in PAR_WORKLOADS for t in TRACKERS
]


@pytest.fixture(scope="module")
def oracles():
    """Oracle results per ``(name, variant, tracker)`` case, kept for the
    module.  The event-at-a-time oracle dominates this module's runtime,
    so a two-process pool computes the cases a test needs, and the next
    test's, while the test itself runs the pipeline."""
    pool = ProcessPoolExecutor(
        max_workers=2, mp_context=multiprocessing.get_context("spawn")
    )
    try:
        yield pool, {}
    finally:
        pool.shutdown(cancel_futures=True)


def check_cases(oracles, cases, mode):
    pool, futures = oracles
    after = max(CASES.index(c) for c in cases) + 1
    for case in cases + CASES[after : after + len(TRACKERS)]:
        if case not in futures:
            name, variant, tracker = case
            futures[case] = pool.submit(
                _oracle, _trace(name, variant), _config(variant, tracker)
            )
    return [assert_matches_reference(case, futures[case], mode) for case in cases]


def assert_matches_reference(case, oracle_future, mode):
    name, variant, tracker = case
    reg = MetricsRegistry()
    result, _ = ParallelProfiler(
        _config(variant, tracker), mode=mode, registry=reg, provenance=True
    ).profile(_trace(name, variant))
    store, instances, n_accesses, prov, telemetry = oracle_future.result()
    assert result.store == store
    assert result.stats.dep_instances == instances
    assert result.stats.n_accesses == n_accesses
    assert _provenance(result.provenance) == prov
    assert _telemetry(reg) == telemetry
    return result, reg


@pytest.mark.parametrize("name", ALL_WORKLOADS)
def test_vectorized_matches_reference_all_programs(name, oracles):
    check_cases(oracles, [(name, "seq", tracker) for tracker in TRACKERS], "deterministic")


@pytest.mark.parametrize("name", ["ep", "kmeans", "md5"])
def test_vectorized_matches_reference_array_signature(name, oracles):
    """Processes mode over the lossy signature, provenance chunk ids
    included: the slot planes must reproduce the array signature's
    collisions, evictions and suspect sources exactly."""
    [(result, reg)] = check_cases(oracles, [(name, "seq", "slots")], "processes")
    if name != "ep":  # ep's few hot addresses never collide
        assert reg.sum_counters("sigmem.evictions") > 0
        assert result.provenance.n_suspect > 0


@pytest.mark.parametrize("name", PAR_WORKLOADS)
def test_vectorized_matches_reference_parallel_variant(name, oracles):
    """Multi-threaded target traces: thread ids and race flags must agree."""
    assert get_workload(name).has_parallel_variant
    check_cases(oracles, [(name, "par", tracker) for tracker in TRACKERS], "processes")


def test_worker_engine_option_removed(capsys):
    """One worker kernel: pipeline workers have no engine to choose."""
    from repro.cli import main

    with pytest.raises(TypeError):
        ProfilerConfig(worker_engine="kernel")
    with pytest.raises(SystemExit) as exc:
        main(["stats", "ep", "--worker-engine", "reference"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --worker-engine" in capsys.readouterr().err
