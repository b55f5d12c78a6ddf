"""Compact trace construction helpers shared by test modules.

``seq_trace`` turns a list of micro-ops into a TraceBatch:

    ("r", addr, line)            read            (var optional 4th field)
    ("w", addr, line)            write
    ("alloc", base, size, line)  allocation
    ("free", base, size, line)   deallocation
    ("L+", line)                 loop enter   (site = file 0, given line)
    ("Li", line)                 loop iteration start
    ("L-", line)                 loop exit
    ("tid", t)                   switch current thread for subsequent ops
    ("ts",)                      reserve an access timestamp and hold it
    ("rd", addr, line)           read pushed late: it takes the oldest held
                                 timestamp (var optional 4th field)

Lines are encoded with file id 0, so ``loc == line`` for readability in
assertions (line < 2**20).

``reference_profile`` is ``profile_trace``'s differential oracle: the
event-at-a-time reference engine over the whole trace.
``reference_pipeline`` is the pipeline's: the same routing and per-worker
chunks, with the reference engine in every worker.  Both build a
worker's scalar trackers the same way (:func:`reference_engine`).

``PROFILERS`` names the two implementations semantic tests run against:
``reference`` (the oracle) and ``vectorized`` (``profile_trace``, i.e. the
chunk kernel of :mod:`repro.core.vectorized`, diffed against the oracle on
every call).
"""

from __future__ import annotations

import numpy as np

from repro.common.sourceloc import encode_location
from repro.core.deps import DependenceStore
from repro.core.profiler import profile_trace
from repro.core.reference import ReferenceEngine
from repro.obs.heatmap import AddressHeatmap
from repro.obs.metrics import MetricsRegistry
from repro.obs.provenance import ProvenanceCollector
from repro.parallel.address_map import AddressMap, route_window
from repro.sigmem import ArraySignature, PerfectSignature
from repro.trace import LOOP_ENTER, LOOP_EXIT, LOOP_ITER, TraceBatch, TraceRecorder


def seq_trace(ops, file_name: str = "test.c") -> TraceBatch:
    r = TraceRecorder()
    r.intern_file(file_name)
    tid = 0
    held: list[int] = []
    for op in ops:
        code = op[0]
        if code in ("r", "rd"):
            _, addr, line = op[:3]
            var = r.intern_var(op[3]) if len(op) > 3 else -1
            ts = held.pop(0) if code == "rd" else None
            r.read(addr, loc=encode_location(0, line), var=var, tid=tid, ts=ts)
        elif code == "ts":
            held.append(r.next_ts())
        elif code == "w":
            _, addr, line = op[:3]
            var = r.intern_var(op[3]) if len(op) > 3 else -1
            r.write(addr, loc=encode_location(0, line), var=var, tid=tid)
        elif code == "alloc":
            _, base, size, line = op
            r.alloc(base, size, loc=encode_location(0, line), tid=tid)
        elif code == "free":
            _, base, size, line = op
            r.free(base, size, loc=encode_location(0, line), tid=tid)
        elif code == "L+":
            r.loop_enter(encode_location(0, op[1]), tid=tid)
        elif code == "Li":
            r.loop_iter(encode_location(0, op[1]), tid=tid)
        elif code == "L-":
            end = encode_location(0, op[2]) if len(op) > 2 else None
            r.loop_exit(encode_location(0, op[1]), tid=tid, end_loc=end)
        elif code == "tid":
            tid = op[1]
        else:
            raise ValueError(f"unknown op {op!r}")
    return r.build()


def loc(line: int) -> int:
    """Encoded location for file 0 at ``line``."""
    return encode_location(0, line)


def reference_engine(cfg, n_slots=None, reg=None, w: int = 0, provenance=None):
    """A reference-engine worker over scalar signatures of ``n_slots`` slots
    (default: all ``signature_slots``; or perfect ones) whose evictions
    land in ``sigmem.evictions`` and ``heat.conflicts`` of ``reg``,
    labelled by worker ``w``."""
    n_slots = cfg.signature_slots if n_slots is None else n_slots
    reg = reg if reg is not None else MetricsRegistry()
    heat = AddressHeatmap(reg, w)

    def tracker(kind):
        if cfg.perfect_signature:
            return PerfectSignature()
        return ArraySignature(
            n_slots, cfg.hash_salt,
            eviction_counter=reg.counter("sigmem.evictions", worker=w, kind=kind),
            track_conflicts=True, conflict_heat=heat.record_conflict,
        )

    return ReferenceEngine(cfg, tracker("read"), tracker("write"), provenance=provenance)


def reference_profile(batch: TraceBatch, cfg, provenance=None):
    """Sequential oracle for ``profile_trace``: one reference engine over the
    whole trace, its signatures holding all ``signature_slots``."""
    return reference_engine(cfg, provenance=provenance).run(batch)


def assert_same_profile(got, want) -> None:
    """Two profiles of one trace agree on everything Algorithm 1 decides:
    the store with its counts, instance and race counts, access counts."""
    assert dict(got.store.items()) == dict(want.store.items())
    assert got.stats.dep_instances == want.stats.dep_instances
    assert got.stats.races_flagged == want.stats.races_flagged
    assert got.stats.n_reads == want.stats.n_reads
    assert got.stats.n_writes == want.stats.n_writes
    assert got.stats.n_events == want.stats.n_events


def kernel_profile(batch: TraceBatch, cfg):
    """``profile_trace``, checked against ``reference_profile`` on the same
    trace before it is returned."""
    res = profile_trace(batch, cfg)
    assert_same_profile(res, reference_profile(batch, cfg))
    return res


PROFILERS = {"reference": reference_profile, "vectorized": kernel_profile}


def reference_pipeline(batch: TraceBatch, cfg, window: int = 1 << 15):
    """Reference-worker oracle for ``ParallelProfiler``: windows routed by
    ``route_window``, each worker's rows cut into ``chunk_size`` chunks as
    one stream across windows, as a pipeline worker cuts them (so provenance
    chunk ids match both transports), and every worker a
    :func:`reference_engine` with ``slots_per_worker`` slots.

    Pipeline workers get no loop rows (their kernel reads the run's loop
    index), but the reference engine replays its own loop stacks, so each
    chunk is fed merged with every loop row after the previous chunk's last
    row, up to and including this chunk's last row.

    Returns ``(store, engines, registry)``; each engine carries its
    worker's ``stats`` and ``provenance``.
    """
    reg = MetricsRegistry()
    engines = [
        reference_engine(cfg, cfg.slots_per_worker, reg, w, ProvenanceCollector(worker=w))
        for w in range(cfg.workers)
    ]
    amap = AddressMap(cfg.workers)
    routes = [
        route_window(batch, s, min(s + window, len(batch)), amap)
        for s in range(0, len(batch), window)
    ]
    loop_rows = np.flatnonzero(np.isin(batch.kind, (LOOP_ENTER, LOOP_ITER, LOOP_EXIT)))
    for w, eng in enumerate(engines):
        rows = np.concatenate([r.rows_for(w) for r in routes] or [np.empty(0, np.int64)])
        loops_from = 0
        for i in range(0, len(rows), cfg.chunk_size):
            chunk = rows[i : i + cfg.chunk_size]
            loops_to = np.searchsorted(loop_rows, chunk[-1], side="right")
            chunk = np.union1d(chunk, loop_rows[loops_from:loops_to])
            loops_from = loops_to
            eng.provenance.chunk += 1  # worker-local seq from 0 (starts at -1)
            eng.process(batch.select(chunk))
    store = DependenceStore()
    for eng in engines:
        store.merge(eng.store)
    return store, engines, reg
