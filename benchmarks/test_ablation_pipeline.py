"""Ablations of the pipeline's design choices (DESIGN.md §5).

The paper fixes chunk size, queue depth, and the coupling of producer and
workers implicitly; these sweeps show each choice's effect through the same
measured-pipeline + cost-model path used for Figure 5, plus the cost of the
generality knobs (RAR recording, lifetime analysis).
"""

import pytest

from repro.common.config import ProfilerConfig
from repro.costmodel import CostParams, estimate_parallel
from repro.parallel import ParallelProfiler
from repro.workloads import get_trace

PERFECT = ProfilerConfig(perfect_signature=True)


def run(batch, **cfg_kwargs):
    cfg = PERFECT.with_(workers=8, **cfg_kwargs)
    result, info = ParallelProfiler(cfg, window=4096).profile(batch)
    return result, info, cfg


def slowdown(batch, params=None, **cfg_kwargs):
    result, info, cfg = run(batch, **cfg_kwargs)
    return estimate_parallel(
        info,
        result.stats.n_accesses,
        len(result.store),
        params=params,
        queue_depth=cfg.queue_depth,
    ).slowdown


def test_chunk_size_sweep(benchmark, bench_record):
    """Tiny chunks pay handoff per few accesses; huge chunks batch well but
    add imbalance at the tail.  The default (4096) sits on the flat part."""
    batch = get_trace("cg")
    rows = [
        [size, slowdown(batch, chunk_size=size)]
        for size in (16, 64, 256, 1024, 4096)
    ]
    bench_record.table(
        "ablation_chunk_size", ["chunk size", "8T slowdown"], rows,
        title="Chunk-size sweep (cg)",
    )
    by_size = dict((int(s), v) for s, v in rows)
    bench_record.record(
        "ablation.chunk_handoff_penalty", by_size[16] / by_size[4096],
        unit="x", direction="lower", tolerance=0.10,
    )
    # Handoff overhead must be visible at tiny chunks and flat at large.
    assert by_size[16] > by_size[1024]
    assert abs(by_size[1024] - by_size[4096]) / by_size[4096] < 0.10
    benchmark.pedantic(lambda: slowdown(batch, chunk_size=256), rounds=1, iterations=1)


def test_queue_depth_backpressure(benchmark, bench_record):
    """Shallow rings throttle the producer onto the slowest worker; deep
    rings decouple them (at the memory cost Figure 7 charges)."""
    batch = get_trace("ep")  # few hot addresses -> imbalanced workers
    rows = []
    for depth in (1, 2, 8, 32):
        result, info, cfg = run(batch, chunk_size=64, queue_depth=depth)
        est = estimate_parallel(
            info, result.stats.n_accesses, len(result.store),
            queue_depth=depth,
        )
        rows.append([depth, est.slowdown, est.queue_wait_time])
    bench_record.table(
        "ablation_queue_depth", ["queue depth", "8T slowdown", "producer wait"],
        rows, title="Queue-depth sweep (ep)",
    )
    assert rows[0][2] >= rows[-1][2]  # wait shrinks with depth
    assert rows[0][1] >= rows[-1][1] * 0.999  # slowdown never helped by depth 1
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_overlap_coupling_bounds(benchmark, bench_record):
    """The overlap parameter brackets reality: 0 = perfectly pipelined
    (optimistic), 1 = producer and critical worker fully serialized (the
    Amdahl fit of the paper's numbers).  Reported slowdowns must sit within
    these bounds for every coupling in between."""
    batch = get_trace("is")
    rows = []
    for overlap in (0.0, 0.5, 1.0):
        rows.append([
            overlap,
            slowdown(batch, params=CostParams(overlap=overlap), chunk_size=256),
        ])
    bench_record.table(
        "ablation_overlap", ["overlap", "8T slowdown"], rows,
        title="Coupling sweep (is)",
    )
    vals = [v for _, v in rows]
    assert vals[0] <= vals[1] <= vals[2]
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_generality_costs(benchmark, bench_record):
    """The paper declines optimizations that would 'decrease the generality
    of the profiler'.  Quantify what generality costs us: RAR recording and
    lifetime analysis each add work but never change the RAW/WAR/WAW sets."""
    from repro.core import DepType, profile_trace
    from repro.obs import repeat_timed

    batch = get_trace("tinyjpeg")
    variants = {
        "default": ProfilerConfig(perfect_signature=True),
        "with RAR": ProfilerConfig(perfect_signature=True, ignore_rar=False),
        "no lifetime": ProfilerConfig(perfect_signature=True, track_lifetime=False),
    }
    rows = []
    results = {}
    for name, cfg in variants.items():
        timed = repeat_timed(lambda: profile_trace(batch, cfg), repeats=3, warmup=1)
        res = results[name] = timed.last
        rows.append([name, len(res.store), res.store.instances, timed.median * 1000])
    bench_record.table(
        "ablation_generality", ["variant", "merged deps", "instances", "ms"],
        rows, title="Generality knobs (tinyjpeg)",
    )
    bench_record.record(
        "ablation.rar_cost_ratio", rows[1][3] / rows[0][3], unit="ratio",
        direction="lower",
    )
    strip = lambda res: {
        d.projected() for d in res.store if d.dep_type is not DepType.RAR
    }
    # RAR adds records without disturbing the default set.
    assert strip(results["with RAR"]) == strip(results["default"])
    assert len(results["with RAR"].store) > len(results["default"].store)
    benchmark.pedantic(
        lambda: profile_trace(batch, variants["with RAR"]), rounds=3, iterations=1
    )
