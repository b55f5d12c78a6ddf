"""Throughput of this library's Algorithm 1 (not a paper artifact).

Every profiling run executes one implementation of Algorithm 1, the
vectorized chunk kernel: ``profile_trace`` runs it as a one-worker
pipeline, and every pipeline worker runs it over its own rows.  The
event-at-a-time reference engine is its executable spec.  This bench
records both throughputs — and the kernel's speedups over the reference,
whole-trace (``profile_trace``) and per worker chunk stream, that make
whole-suite experiments practical — into the ``engine`` suite record, with
the >=1.5x / >=8x floors declared on the metrics themselves so ``ddprof
bench compare`` enforces them alongside the baseline regression gate.
"""

import pytest

from repro.common.config import ProfilerConfig
from repro.core import profile_trace
from repro.core.reference import ReferenceEngine
from repro.obs import repeat_timed
from repro.sigmem import PerfectSignature
from repro.workloads import get_trace

PERFECT = ProfilerConfig(perfect_signature=True)
SIG = ProfilerConfig(signature_slots=1 << 18)


def reference_run(batch):
    """The event-at-a-time reference engine over the whole trace."""
    return ReferenceEngine(PERFECT, PerfectSignature(), PerfectSignature()).run(batch)


def eps_samples(batch, run, repeats=3, warmup=1):
    """Per-repeat events/s of ``run(batch)`` (shared warmup/repeat
    policy)."""
    timed = repeat_timed(lambda: run(batch), repeats=repeats, warmup=warmup)
    return [len(batch) / s for s in timed.seconds]


@pytest.fixture(scope="module")
def big_trace():
    return get_trace("kmeans")  # the largest standard trace (~145k events)


def test_vectorized_speedup(benchmark, big_trace, bench_record):
    ref = eps_samples(big_trace, reference_run)
    vec = eps_samples(big_trace, lambda b: profile_trace(b, PERFECT))
    r = bench_record.record(
        "engine.reference_eps", samples=ref, unit="events/s",
        direction="higher", warmup=1,
    )
    v = bench_record.record(
        "engine.vectorized_eps", samples=vec, unit="events/s",
        direction="higher", warmup=1,
    )
    speedup = v.value / r.value
    bench_record.record(
        "engine.vectorized_speedup", speedup, unit="x", direction="higher",
        floor=1.5,
    )
    assert speedup > 1.5  # the kernel must stay clearly ahead
    benchmark.pedantic(
        lambda: profile_trace(big_trace, PERFECT),
        rounds=3,
        iterations=1,
    )


def test_signature_mode_throughput(benchmark, big_trace, bench_record):
    """A lossy signature costs the kernel little over perfect keys: keys
    are hashed columns instead of dense indexes, plus the eviction and
    suspect-source bookkeeping over the same sorted rows."""
    per = eps_samples(big_trace, lambda b: profile_trace(b, PERFECT))
    sig = eps_samples(big_trace, lambda b: profile_trace(b, SIG))
    s = bench_record.record(
        "engine.signature_mode_eps", samples=sig, unit="events/s",
        direction="higher", warmup=1,
    )
    p_med = sorted(per)[len(per) // 2]
    ratio = s.value / p_med
    bench_record.record(
        "engine.signature_vs_perfect_ratio", ratio, unit="fraction",
        direction="higher", floor=0.4,
    )
    assert ratio > 0.4
    benchmark.pedantic(
        lambda: profile_trace(big_trace, SIG),
        rounds=3,
        iterations=1,
    )


def test_reference_engine_benchmarked(benchmark):
    batch = get_trace("md5")
    benchmark.pedantic(
        lambda: reference_run(batch),
        rounds=3,
        iterations=1,
    )


def _chunks(batch, chunk_size):
    import numpy as np

    rows = np.arange(len(batch), dtype=np.int64)
    return [rows[s : s + chunk_size] for s in range(0, len(rows), chunk_size)]


def _worker_chunk_run(batch, chunk_size):
    """One pipeline Worker fed the whole trace in chunks — the quantity
    the processes mode actually parallelizes."""
    from repro.core.controlflow import LoopStateIndex
    from repro.obs.metrics import MetricsRegistry
    from repro.parallel.worker import Worker

    worker = Worker(
        0,
        PERFECT.with_(workers=1, chunk_size=chunk_size, heatmap=False),
        LoopStateIndex(batch),
        MetricsRegistry(),
    )
    for rows in _chunks(batch, chunk_size):
        worker.process_rows(batch, rows)
    return worker


def _reference_chunk_run(batch, chunk_size):
    """The event-at-a-time reference engine over the same chunk stream."""
    engine = ReferenceEngine(PERFECT, PerfectSignature(), PerfectSignature())
    for rows in _chunks(batch, chunk_size):
        engine.process(batch.select(rows))
    return engine


def test_vectorized_worker_kernel_speedup(benchmark, big_trace, bench_record):
    """The incremental chunk kernel must beat the per-event reference engine
    by >=8x on identical chunk streams — the margin that makes the
    processes-mode fan-out worth its transport overhead."""
    chunk_size = 8192
    ref = repeat_timed(
        lambda: _reference_chunk_run(big_trace, chunk_size),
        repeats=2, warmup=1,
    )
    vec = repeat_timed(
        lambda: _worker_chunk_run(big_trace, chunk_size),
        repeats=3, warmup=1,
    )
    assert vec.last.store == ref.last.store  # same chunks, same dependences
    r = bench_record.record(
        "worker.reference_eps", samples=[len(big_trace) / s for s in ref.seconds],
        unit="events/s", direction="higher", warmup=1, chunk_size=chunk_size,
    )
    v = bench_record.record(
        "worker.vectorized_eps", samples=[len(big_trace) / s for s in vec.seconds],
        unit="events/s", direction="higher", warmup=1, chunk_size=chunk_size,
    )
    speedup = v.value / r.value
    bench_record.record(
        "worker.kernel_speedup", speedup, unit="x", direction="higher",
        floor=8.0, chunk_size=chunk_size,
    )
    assert speedup >= 8.0, (
        f"vectorized worker kernel only {speedup:.1f}x over reference "
        f"(needs >=8x)"
    )
    benchmark.pedantic(
        lambda: _worker_chunk_run(big_trace, chunk_size),
        rounds=3,
        iterations=1,
    )
