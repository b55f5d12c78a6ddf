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

Lines are encoded with file id 0, so ``loc == line`` for readability in
assertions (line < 2**20).

``reference_pipeline`` is the pipeline's differential oracle: the same
routing and per-worker chunking, with the event-at-a-time reference engine
in every worker.
"""

from __future__ import annotations

from repro.common.sourceloc import encode_location
from repro.core.deps import DependenceStore
from repro.core.reference import ReferenceEngine
from repro.obs.heatmap import AddressHeatmap
from repro.obs.metrics import MetricsRegistry
from repro.obs.provenance import ProvenanceCollector
from repro.parallel.address_map import AddressMap, route_window
from repro.sigmem import ArraySignature, PerfectSignature
from repro.trace import TraceBatch, TraceRecorder


def seq_trace(ops, file_name: str = "test.c") -> TraceBatch:
    r = TraceRecorder()
    r.intern_file(file_name)
    tid = 0
    for op in ops:
        code = op[0]
        if code == "r":
            _, addr, line = op[:3]
            var = r.intern_var(op[3]) if len(op) > 3 else -1
            r.read(addr, loc=encode_location(0, line), var=var, tid=tid)
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


def reference_pipeline(batch: TraceBatch, cfg, window: int = 1 << 15):
    """Reference-worker oracle for ``ParallelProfiler``: windows routed by
    ``route_window``, each worker's rows cut into chunks as a worker process
    cuts them (so provenance chunk ids match processes mode), and every
    worker running ``ReferenceEngine`` over scalar signatures whose
    evictions land in ``sigmem.evictions`` and ``heat.conflicts``.

    Returns ``(store, engines, registry)``; each engine carries its
    worker's ``stats`` and ``provenance``.
    """
    reg = MetricsRegistry()
    engines = []
    for w in range(cfg.workers):
        heat = AddressHeatmap(reg, w)

        def tracker(kind, w=w, heat=heat):
            if cfg.perfect_signature:
                return PerfectSignature(geometry=cfg.bank_geometry)
            return ArraySignature(
                cfg.slots_per_worker, cfg.hash_salt,
                eviction_counter=reg.counter("sigmem.evictions", worker=w, kind=kind),
                track_conflicts=True, conflict_heat=heat.record_conflict,
                geometry=cfg.bank_geometry,
            )

        prov = ProvenanceCollector(worker=w)
        engines.append(ReferenceEngine(cfg, tracker("read"), tracker("write"), provenance=prov))
    amap = AddressMap(cfg.workers, bank_geometry=cfg.bank_geometry)
    for s in range(0, len(batch), window):
        route = route_window(batch, s, min(s + window, len(batch)), amap)
        for w, eng in enumerate(engines):
            rows = route.rows_for(w)
            for i in range(0, len(rows), cfg.chunk_size):
                eng.provenance.chunk += 1  # worker-local seq from 0 (starts at -1)
                eng.process(batch.select(rows[i : i + cfg.chunk_size]))
    store = DependenceStore()
    for eng in engines:
        store.merge(eng.store)
    return store, engines, reg
