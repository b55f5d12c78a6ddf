"""Measured multi-core speedup of the processes pipeline (Figure 5/6 style).

Every other speedup figure in this repository is *estimated* by the cost
model from measured pipeline statistics, because the deterministic mode
runs every worker on one thread.  The ``processes`` execution mode does
not: workers run
in separate forked processes that inherit the trace, so on multi-core
hardware the wall clock itself must show the paper's scaling trend.  This
experiment measures a 1-vs-4-worker run pair, validates the measurement
against the cost model's virtual-time prediction
(:func:`repro.costmodel.validate_speedup`), and emits both side by side.

On single-core runners the measured ratio is meaningless (the four workers
time-slice one core), so the wall-clock assertion is gated on
``os.cpu_count()``; the model-side assertions always run.
"""

import os
import time

import numpy as np
import pytest

from repro.common.config import ProfilerConfig
from repro.costmodel import validate_speedup
from repro.parallel import ParallelProfiler
from repro.trace import READ, WRITE, TraceBuilder

# Timing note: each configuration runs once (no repeats) — a processes-mode
# run over 600k events is expensive, and the assertion of record is the
# model-vs-measurement agreement, not the absolute wall-clock.

N_EVENTS = 600_000
WORKERS = 4


@pytest.fixture(scope="module")
def speedup_batch():
    """A large balanced synthetic trace: one thread, many addresses, so the
    address hash spreads load evenly and the run is dominated by per-chunk
    analysis (what the fan-out parallelizes)."""
    idx = np.arange(N_EVENTS, dtype=np.int64)
    b = TraceBuilder(capacity=N_EVENTS + 16)
    b.extend_columns(
        kind=np.where(idx % 4 == 0, WRITE, READ).astype(np.uint8),
        tid=np.zeros(N_EVENTS, dtype=np.int32),
        loc=((idx % 97) + 1).astype(np.int32),
        addr=0x10000 + 8 * (idx % (1 << 14)),
    )
    return b.build()


def _timed_run(batch, cfg, workers):
    c = cfg.with_(workers=workers)
    t0 = time.perf_counter()
    result, info = ParallelProfiler(c, mode="processes").profile(batch)
    return time.perf_counter() - t0, result, info


def test_measured_speedup_vs_cost_model(benchmark, bench_record, speedup_batch):
    cfg = ProfilerConfig(signature_slots=1 << 20, chunk_size=8192)
    t1, r1, i1 = _timed_run(speedup_batch, cfg, 1)
    tn, rn, i_n = _timed_run(speedup_batch, cfg, WORKERS)

    # Results must be scheduling-independent: each processes run matches the
    # deterministic single-process pipeline at the same worker count.  (The
    # 1-vs-N stores themselves may differ — a lossy signature partitions its
    # slots differently per worker count.)
    det_n, _ = ParallelProfiler(cfg.with_(workers=WORKERS)).profile(speedup_batch)
    assert rn.store == det_n.store

    val = validate_speedup(
        i1,
        i_n,
        n_accesses=speedup_batch.n_accesses,
        store_entries=len(r1.store),
        measured_seconds_1=t1,
        measured_seconds_n=tn,
        queue_depth=cfg.queue_depth,
    )
    cpus = os.cpu_count() or 1
    bench_record.record(
        "speedup.estimated_4w", val.estimated_speedup, unit="x",
        direction="higher", floor=1.5,
        events=N_EVENTS, workers=WORKERS,
    )
    bench_record.record(
        "speedup.measured_4w", val.measured_speedup, unit="x",
        direction="higher", cpus=cpus,
        # Meaningless on a time-sliced single core; only bound it when the
        # hardware can actually show the scaling.
        floor=1.8 if cpus >= 4 else None,
    )
    bench_record.text(
        "measured_parallel_speedup.txt",
        f"trace               : {N_EVENTS} events, "
        f"{speedup_batch.n_unique_addresses} addresses\n"
        f"workers             : 1 vs {WORKERS} (processes mode, {cpus} cpus)\n"
        f"wall clock          : {t1:.3f}s vs {tn:.3f}s\n"
        f"measured speedup    : {val.measured_speedup:10.2f}x\n"
        f"estimated speedup   : {val.estimated_speedup:10.2f}x (cost model)\n"
        f"relative error      : {val.relative_error:10.2f}\n",
    )
    # The virtual-time model must predict real scaling for a balanced
    # trace: clearly above 1.5x at 4 workers (its producer-coupled Amdahl
    # ceiling sits near 1.8x).
    assert val.estimated_speedup > 1.5
    assert max(i_n.per_worker_accesses) < 2 * min(i_n.per_worker_accesses)
    if cpus >= 4:
        # The ISSUE acceptance bar: real multi-core hardware must show the
        # speedup, not just the model.
        assert val.measured_speedup > 1.8, (
            f"processes mode measured only {val.measured_speedup:.2f}x "
            f"on {cpus} cpus"
        )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
