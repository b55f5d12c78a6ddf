"""Repository benchmark: trace production, the processes pipeline, provenance.

Every request is one full profiling job, the way ``ddprof profile`` runs
it: build a MiniVM program, execute it under instrumentation to produce the
trace (interpreter plus affine fast path), and profile the trace through the
parallel pipeline.  The three workloads size that job so a different layer
dominates each:

* ``produce``    — interpreter-bound programs (indirect indexes, branchy
  bodies) profiled cheaply in deterministic mode: the producer dominates.
* ``processes``  — fast-path programs with large traces profiled in
  ``processes`` mode by two worker processes: the multi-process pipeline
  (fork, shared-memory attach, worker kernels, merge) dominates.
* ``provenance`` — small fast-path programs profiled with per-dependence
  provenance, which pins workers to the event-at-a-time engine: provenance
  collection dominates.

Each request builds a fresh program variant (its constants come from the
seed and the request index), so no request reuses a trace and the
producer's loop classification runs for every request, as it does for a
new program.  Outputs are checked against oracles: the tree-walking
interpreter for traces, the deterministic vectorized pipeline for
dependence sets.

Usage::

    python3 perfbench/run.py --workload produce --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object.  ``--trace 0`` reports
the end-to-end metrics (median request latency, profiled events per
second, set-up time); ``--trace 1`` runs the same
requests with a metrics registry attached and reports per-layer metrics
instead.  All times are scaled to a reference host speed (see
``REFERENCE_LOOP_S``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("produce", "processes", "provenance")

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 5
#: Requests checked against the full oracles (the rest get cheap invariant
#: checks): the first two, then every ``ORACLE_EVERY``-th.
ORACLE_EVERY = 32


def load_repro() -> None:
    """Import the profiler from the checkout's ``src`` tree, or exit."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: profiler sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro  # noqa: F401


# ---------------------------------------------------------------------------
# Inputs: seeded program generators
# ---------------------------------------------------------------------------


def _rng(seed: int, variant: int):
    import numpy as np

    return np.random.default_rng([seed & 0xFFFFFFFF, variant & 0xFFFFFFFF])


def build_mixed(seed: int, variant: int, n: int = 1024, keys: int = 512):
    """Interpreter-bound program: indirect indexes and branchy bodies.

    Both branches perform the same accesses, so every variant has the same
    event count while its addresses depend on the seed.
    """
    from repro.minivm import ProgramBuilder
    from repro.workloads.kernels import LCG_A, LCG_C, LCG_M

    rng = _rng(seed, variant)
    lcg0 = int(rng.integers(1, LCG_M))
    bias = int(rng.integers(1, 97))
    b = ProgramBuilder(f"mixed-{seed}-{variant}")
    key = b.global_array("key", n)
    cnt = b.global_array("cnt", keys)
    src = b.global_array("src", n)
    dst = b.global_array("dst", n)
    out = b.global_array("out", n)
    acc = b.global_scalar("acc")
    with b.function("main") as f:
        i, k, s, t = f.reg("i"), f.reg("k"), f.reg("s"), f.reg("t")
        f.set(s, lcg0)
        with f.for_loop(i, 0, n):  # register LCG chain: fast path
            f.set(s, (s * LCG_A + LCG_C) % LCG_M)
            f.store(key, i, s % keys)
        with f.for_loop(i, 0, n):  # affine fill: fast path
            f.store(src, i, i * 3 + bias)
        with f.for_loop(i, 0, n):  # histogram through an index: interpreted
            f.set(k, f.load(key, i))
            f.store(cnt, k, f.load(cnt, k) + 1)
        with f.for_loop(i, 0, n):  # gather: interpreted
            f.store(dst, i, f.load(src, f.load(key, i) % n))
        with f.for_loop(i, 0, n):  # branchy body: interpreted
            f.set(t, f.load(key, i))
            with f.if_(t % 2):
                f.store(out, i, f.load(dst, i) + t)
            with f.else_():
                f.store(out, i, f.load(src, i) - t)
        with f.for_loop(i, 1, n):  # scatter recurrence: interpreted
            f.set(k, f.load(key, i) % n)
            f.store(dst, k, f.load(dst, i - 1) + f.load(out, k))
        with f.for_loop(i, 0, n):  # reduction: fast path
            f.store(acc, None, f.load(acc) + f.load(out, i))
    return b.build()


def build_affine(seed: int, variant: int, n: int, sweeps: int):
    """Fast-path program: affine sweeps whose offsets come from the seed."""
    from repro.minivm import ProgramBuilder

    rng = _rng(seed, variant)
    off = [int(x) for x in rng.integers(1, 8, size=3)]
    # Integer arithmetic with bounded values: a float operand or an int64
    # overflow would make the fast path bail out to the interpreter.
    mod = int(rng.integers(500, 1000))
    pad = 8
    b = ProgramBuilder(f"affine-{seed}-{variant}")
    x = b.global_array("x", n + pad)
    y = b.global_array("y", n + pad)
    z = b.global_array("z", n + pad)
    acc = b.global_scalar("acc")
    with b.function("main") as f:
        i, it = f.reg("i"), f.reg("it")
        with f.for_loop(i, 0, n + pad):
            f.store(x, i, i * 5 + off[0])
        with f.for_loop(i, 0, n + pad):
            f.store(y, i, i - off[1])
        with f.for_loop(it, 0, sweeps):
            with f.for_loop(i, 1, n):  # out-of-place stencil: doall
                f.store(z, i, (f.load(x, i - 1) + f.load(x, i + off[0])) % mod)
            with f.for_loop(i, 0, n):  # axpy: doall
                f.store(y, i + off[1], f.load(y, i + off[1]) + f.load(z, i))
            with f.for_loop(i, 1, n):  # shifted recurrence: sequential
                f.store(x, i, (f.load(x, i - 1) + f.load(y, i + off[2])) % mod)
            with f.for_loop(i, 0, n):  # reduction
                f.store(acc, None, f.load(acc) + f.load(x, i))
    return b.build()


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Job:
    """One workload: how to build a request's program and profile it."""

    def __init__(self, name: str, seed: int) -> None:
        from repro.common.config import ProfilerConfig

        # A lossy signature (the paper's configuration, not the perfect
        # baseline), so provenance has slot conflicts to attribute.
        self.config = ProfilerConfig(signature_slots=1 << 16, workers=2)
        self.mode = "processes" if name == "processes" else "deterministic"
        self.provenance = name == "provenance"
        if name == "produce":
            self.build = lambda v: build_mixed(seed, v)
        elif name == "processes":
            self.build = lambda v: build_affine(seed, v, n=1536, sweeps=4)
        else:
            self.build = lambda v: build_affine(seed, v, n=256, sweeps=3)

    def profile(self, batch, registry=None):
        from repro.parallel import ParallelProfiler

        return ParallelProfiler(
            self.config,
            mode=self.mode,
            registry=registry,
            provenance=self.provenance,
        ).profile(batch)


def check_request(job: Job, program, batch, result, full: bool) -> str | None:
    """Return what is wrong with one request's outputs, or ``None``."""
    from repro.minivm import run_program
    from repro.parallel import ParallelProfiler

    if len(result.store) == 0:
        return "empty dependence set"
    if result.stats.n_accesses != batch.n_accesses:
        return "workers did not process every access exactly once"
    if job.provenance and len(result.provenance) != len(result.store):
        return "provenance records do not match the dependence set"
    if not full:
        return None
    oracle = run_program(program, fastpath=False)
    for col in ("kind", "tid", "loc", "addr", "aux", "var", "ts", "ctx"):
        if not (getattr(oracle, col) == getattr(batch, col)).all():
            return f"fast-path trace differs from the interpreter in {col!r}"
    expected, _ = ParallelProfiler(job.config).profile(batch)
    if result.store != expected.store:
        return "dependence set differs from the deterministic pipeline"
    if job.provenance:
        deps = {d.projected() for d in result.store}
        if {d.projected() for d, _ in result.provenance} != deps:
            return "provenance keys differ from the dependence set"
    return None


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

#: Per-layer metrics of a traced request and their units.
LAYER_UNITS = {
    "produce_ms": "ms",
    "dispatch_ms": "ms",
    "drain_ms": "ms",
    "merge_ms": "ms",
    "kernel_ms": "ms",
    "fastpath_share": "fraction",
    "chunks": "count",
}


#: The host's speed drifts by up to 1.8x within seconds (other tenants on
#: shared cores), so every timing is scaled to a reference speed: each
#: request is bracketed by a fixed pure-Python loop, and its times are
#: multiplied by ``REFERENCE_LOOP_S / loop time``.  A faster or slower
#: profiler moves the request time but not the loop, so the scaled figure
#: still shows every change to the profiler.
LOOP_ITERS = 60_000
#: The loop's duration at full speed on the reference host (2 vCPU x86-64
#: guest at 2.0 GHz, CPython 3.11): scaled times read as milliseconds there.
REFERENCE_LOOP_S = 0.0025


def reference_loop() -> float:
    """Seconds the fixed calibration loop takes at the host's current speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(LOOP_ITERS):
        acc += i
    return time.perf_counter() - t0


def speed_scale(before: float) -> float:
    """Scale factor for the work done since the loop measured ``before``."""
    return REFERENCE_LOOP_S / ((before + reference_loop()) / 2)


def layer_sample(registry, produce_s: float, batch, scale: float) -> dict[str, float]:
    """Per-layer figures of one traced request, times scaled by ``scale``.

    ``produce_ms`` is timed here around the producer call; the pipeline
    phases come from the spans the profiler records in ``registry``
    (``dispatch`` is routing plus chunk pushes in-process, task pushes in
    processes mode) and ``kernel_ms`` from the workers' chunk timers.
    """
    phases = registry.phase_totals()

    def span_ms(*names: str) -> float:
        total = sum(phases.get(n, {}).get("seconds", 0.0) for n in names)
        return total * scale * 1e3

    kernel_s = sum(
        h.sum for h in registry.histograms() if h.name == "worker.chunk_seconds"
    )
    return {
        "produce_ms": produce_s * scale * 1e3,
        "dispatch_ms": span_ms("route", "push"),
        "drain_ms": span_ms("drain"),
        "merge_ms": span_ms("merge"),
        "kernel_ms": kernel_s * scale * 1e3,
        "fastpath_share": registry.counter("producer.events_fastpath").value
        / len(batch),
        "chunks": float(registry.counter("pipeline.chunks").value),
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from repro.minivm import run_program
    from repro.obs.metrics import MetricsRegistry

    job = Job(workload, seed)

    # Set-up: one cold job per repeat (new program, so the producer's
    # classification memo misses), on variants the measured requests never
    # use.  It also warms imports and allocator pools before timing.
    setup_times = []
    for rep in range(SETUP_REPEATS):
        loop = reference_loop()
        t0 = time.perf_counter()
        job.profile(run_program(job.build(-1 - rep)))
        setup_times.append((time.perf_counter() - t0) * speed_scale(loop))

    latencies: list[float] = []  # scaled seconds per request
    layers: list[dict[str, float]] = []
    events = 0
    failed = 0
    busy = 0.0
    variant = 0
    while busy < seconds:
        registry = MetricsRegistry() if trace else None
        loop = reference_loop()
        t0 = time.perf_counter()
        program = job.build(variant)
        batch = run_program(program, registry=registry)
        t1 = time.perf_counter()
        result, _info = job.profile(batch, registry)
        t2 = time.perf_counter()
        scale = speed_scale(loop)
        latencies.append((t2 - t0) * scale)
        busy += t2 - t0
        events += len(batch)
        full = variant < 2 or variant % ORACLE_EVERY == 0
        problem = check_request(job, program, batch, result, full)
        if problem is not None:
            failed += 1
            print(f"request {variant}: {problem}", file=sys.stderr)
        if trace:
            layers.append(layer_sample(registry, t1 - t0, batch, scale))
        variant += 1

    if trace:
        metrics = {
            name: {"value": statistics.median(s[name] for s in layers), "unit": unit}
            for name, unit in LAYER_UNITS.items()
        }
    else:
        metrics = {
            "latency_ms": {"value": statistics.median(latencies) * 1e3, "unit": "ms"},
            "events_per_s": {"value": events / sum(latencies), "unit": "1/s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        }
    return {
        "correct": failed == 0,
        "attempted": len(latencies),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    try:
        load_repro()
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        stop_children()
    print(json.dumps(result))
    return 0


def stop_children() -> None:
    """Stop every process this run started and wait until each has ended.

    Besides the profiler's worker processes (joined by the profiler on
    success), creating a shared-memory block starts the multiprocessing
    resource tracker, a helper process that would otherwise outlive this
    one.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for p in multiprocessing.active_children():
        p.terminate()
        p.join()
    resource_tracker._resource_tracker._stop()


if __name__ == "__main__":
    sys.exit(main())
