"""Figure 7 — profiler memory consumption, sequential targets.

Paper (6.25e6 signature slots per profiling thread — 191 MB at 8T, 382 MB
at 16T for the signatures alone): averages 473/505 MB at 8T and 649/1390 MB
at 16T for NAS/Starbench; md5 at 16T is the 7.6 GB outlier (queue buildup);
the signature share grows linearly with threads.

Ours: the byte-level memory model combines the configured signature sizes
with *measured* run volumes (chunk-pool high-water mark, dependence-store
entries) of real pipeline runs, at slot counts scaled to our workloads.
"""

import pytest

from repro.common.config import ProfilerConfig
from repro.costmodel import estimate_memory
from repro.parallel import ParallelProfiler
from repro.workloads import get_trace

SLOTS_PER_WORKER = 65_536  # scaled stand-in for the paper's 6.25e6


def run_and_model(batch, workers, mt_target=False):
    cfg = ProfilerConfig(
        perfect_signature=True,  # run exact; memory is modelled per config
        workers=workers,
        chunk_size=256,
        multithreaded_target=mt_target,
    )
    result, info = ParallelProfiler(cfg, window=4096).profile(batch)
    # The run's config with the modelled signature: buffered chunks are
    # priced at the chunk size the run cut them at.
    mem_cfg = cfg.with_(
        perfect_signature=False, signature_slots=SLOTS_PER_WORKER * workers
    )
    from repro.trace import LOCK_ACQ, LOCK_REL
    import numpy as np

    n_sync = int(
        np.count_nonzero((batch.kind == LOCK_ACQ) | (batch.kind == LOCK_REL))
    )
    est = estimate_memory(
        mem_cfg,
        info,
        store_entries=len(result.store),
        n_unique_addresses=batch.n_unique_addresses,
        n_sync_events=n_sync,
        mt_target=mt_target,
    )
    return est


@pytest.fixture(scope="module")
def fig7(all_seq_names):
    rows = []
    for name in all_seq_names:
        batch = get_trace(name)
        e8 = run_and_model(batch, 8)
        e16 = run_and_model(batch, 16)
        native_mb = (batch.n_unique_addresses * 8 * 2) / (1 << 20)
        rows.append([name, native_mb, e8.total_mb, e16.total_mb])
    return rows


HEADERS = ["program", "native_MB", "8T_lock-free_MB", "16T_lock-free_MB"]


def test_fig7_memory_sequential(benchmark, fig7, bench_record):
    bench_record.table(
        "fig7_memory_sequential", HEADERS, fig7, title="Figure 7 analog",
        csv=True,
    )
    avg8 = sum(r[2] for r in fig7) / len(fig7)
    avg16 = sum(r[3] for r in fig7) / len(fig7)
    bench_record.record(
        "fig7.avg_memory_8T_mb", avg8, unit="MB", direction="lower",
        tolerance=0.05,
    )
    bench_record.record(
        "fig7.avg_memory_16T_mb", avg16, unit="MB", direction="lower",
        tolerance=0.05,
    )
    # Shape 1: 16 threads cost roughly 2x the signature memory of 8
    # (per-thread slots are fixed), so totals grow markedly but sub-2x
    # because of thread-independent components.
    assert avg16 > avg8 * 1.3
    assert avg16 < avg8 * 2.5
    # Shape 2: profiling memory dwarfs native data but stays bounded —
    # every benchmark fits the same configured budget (the signature's
    # whole point versus shadow memory).
    for r in fig7:
        assert r[2] > r[1]
        assert r[2] < 200  # MB, bounded regardless of benchmark
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_fig7_signature_memory_is_configured_not_data_dependent(benchmark):
    """The signature share is identical across benchmarks at one config —
    the bounded-state property of Section III-B."""
    sigs = set()
    for name in ("ep", "rgbyuv"):
        batch = get_trace(name)
        sigs.add(run_and_model(batch, 8).signatures)
    assert len(sigs) == 1
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_fig7_shadow_memory_comparison(benchmark, bench_record):
    """Section III-B's motivation: shadow memory scales with the address
    footprint while the signature is fixed; for address-hungry programs the
    shadow tracker costs many times the signature."""
    from repro.sigmem import ArraySignature, ShadowMemory
    from repro.sigmem.signature import AccessRecord

    batch = get_trace("rgbyuv")
    mask = batch.access_mask()
    addrs = batch.addr[mask]
    rec = AccessRecord(1, 1, 0, 0)
    shadow = ShadowMemory()
    sig = ArraySignature(SLOTS_PER_WORKER)

    def fill_shadow():
        for a in addrs[:20000]:
            shadow.insert(int(a), rec)

    benchmark.pedantic(fill_shadow, rounds=1, iterations=1)
    for a in addrs[:20000]:
        sig.insert(int(a), rec)
    bench_record.record(
        "fig7.shadow_bytes_rgbyuv", shadow.memory_bytes, unit="bytes",
        direction="lower", tolerance=0.02,
    )
    bench_record.record(
        "fig7.signature_bytes", sig.memory_bytes, unit="bytes",
        direction="lower", tolerance=0.0,
    )
    bench_record.text(
        "fig7_shadow_vs_signature.txt",
        f"shadow pages={shadow.n_pages} bytes={shadow.memory_bytes}\n"
        f"signature bytes={sig.memory_bytes} (fixed)\n",
    )
    # The shadow cost is data-dependent; the signature's is not.
    assert shadow.memory_bytes > 0
    assert sig.memory_bytes == ArraySignature(SLOTS_PER_WORKER).memory_bytes
