"""``ddprof`` — command-line front end.

Subcommands::

    ddprof workloads                       list registered benchmark analogs
    ddprof profile <workload> [...]        profile and print Figure 1/3 output
    ddprof loops <workload> [...]          loop table with parallelism verdicts
    ddprof comm <workload> [...]           producer/consumer matrix (Figure 9)
    ddprof races <workload> [...]          potential data races (Section V-B)
    ddprof listing <workload>              numbered source listing of the analog
    ddprof tree <workload> [...]           dynamic execution tree
    ddprof sections <workload> [...]       region-level dependence summary
    ddprof stats <workload> [...]          telemetry run-report of a pipeline run
    ddprof trace <workload> [...]          pipeline timeline as Chrome trace JSON
    ddprof bench run|compare|report        structured benchmark records + gate

Every profiling subcommand accepts ``--live-metrics FILE`` (write the run's
one telemetry stream as JSONL), ``--trace-out FILE`` (record the pipeline
execution timeline and export Chrome ``trace_event`` JSON — load it in
Perfetto / ``chrome://tracing``), ``--provenance`` (annotate every reported
dependence with the workers/chunks/timestamps that produced it and a
``suspect_fp`` hash-collision flag), and ``--json`` (append/print the
machine-readable run report; schemas in docs/observability.md).

Every profiling subcommand runs the one parallel pipeline: ``--mode``
picks its transport (``deterministic`` by default) and ``--workers`` its
worker count (by default 1, or 4 for ``stats`` and ``trace``).
"""

from __future__ import annotations

import argparse
import sys

from repro.common.config import ProfilerConfig
from repro.core import format_dependences
from repro.minivm import ScheduleConfig, run_program
from repro.obs import MetricsRegistry, RunReport, Tracer, write_chrome_trace
from repro.parallel import ParallelProfiler


def _run_id_arg(value: str) -> str:
    """argparse type for ``--run-id``: reject path separators up front."""
    from repro.obs import validate_run_id

    try:
        return validate_run_id(value)
    except Exception as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _profiler_args(p: argparse.ArgumentParser, workers: int = 1) -> None:
    p.add_argument("workload", help="workload name (see `ddprof workloads`)")
    p.add_argument("--variant", choices=["seq", "par"], default="seq")
    p.add_argument("--scale", type=int, default=None, help="problem-size factor")
    p.add_argument("--threads", type=int, default=4, help="target threads (par)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--slots", type=int, default=None,
        help="signature slots (default: perfect signature)",
    )
    p.add_argument(
        "--workers", type=int, default=workers,
        help="pipeline worker count (default: %(default)s)",
    )
    p.add_argument(
        "--mode", choices=["deterministic", "processes"],
        default="deterministic",
        help="pipeline execution mode ('processes' = real multi-core, forked "
        "workers that inherit the trace; needs fork; see docs/parallel.md)",
    )
    p.add_argument(
        "--trace-out", metavar="FILE", default=None,
        help="record the execution timeline and write Chrome trace JSON to FILE",
    )
    p.add_argument(
        "--provenance", action="store_true",
        help="attribute every dependence to its workers/chunks/timestamps "
        "(adds an oracle false-positive cross-check when --slots is given)",
    )
    p.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable run report as JSON",
    )
    p.add_argument(
        "--trace-cache", metavar="DIR", default=None,
        help="on-disk trace cache directory: reuse a previously serialized "
        "workload trace instead of re-running the target program",
    )
    p.add_argument(
        "--trace-cache-limit", type=int, metavar="BYTES", default=None,
        help="cap the on-disk trace cache; least-recently-used entries "
        "(npz traces and amplified spill directories) are evicted first",
    )
    p.add_argument(
        "--banks", type=int, default=0, metavar="N",
        help="shard signature memory into N banks of 4 KiB address stripes "
        "(0 = unbanked); enables bank-granularity hot-range migration",
    )
    p.add_argument(
        "--no-fastpath", action="store_true",
        help="disable the affine-loop producer fast path (traces are "
        "bit-identical either way; this is the interpreted oracle)",
    )
    p.add_argument(
        "--live-metrics", metavar="FILE", default=None,
        help="write the run's telemetry stream to FILE as JSONL while it "
        "executes: registry deltas plus rebalance and heartbeat records "
        "(tail it for a live view)",
    )
    p.add_argument(
        "--http-port", type=int, metavar="N", default=None,
        help="serve /metrics, /healthz, /snapshot and /heatmap over HTTP on "
        "127.0.0.1:N while the run executes (0 = pick an ephemeral port)",
    )
    p.add_argument(
        "--http-linger", type=float, metavar="SECONDS", default=0.0,
        help="keep the HTTP exporter up this long after the run finishes "
        "(lets scrapers collect the final state)",
    )
    p.add_argument(
        "--heartbeat-interval", type=float, metavar="SECONDS", default=0.05,
        help="worker heartbeat watchdog cadence for --mode processes "
        "(0 disables the heartbeat plane)",
    )
    p.add_argument(
        "--ledger", metavar="DIR", default=None,
        help="run-ledger directory where this run's bundle "
        "(ddprof.run-bundle/1) is persisted; default "
        "$DDPROF_LEDGER or ~/.ddprof/runs (see `ddprof runs`)",
    )
    p.add_argument(
        "--no-ledger", action="store_true",
        help="do not persist a run bundle for this run",
    )
    p.add_argument(
        "--run-id", type=_run_id_arg, default=None, metavar="ID",
        help="override the generated run id (deterministic ledger paths "
        "for tests/CI); must be a single path component",
    )


def _config_from(args: argparse.Namespace) -> ProfilerConfig:
    if args.slots is None:
        cfg = ProfilerConfig(perfect_signature=True)
    else:
        cfg = ProfilerConfig(signature_slots=args.slots)
    return cfg.with_(
        multithreaded_target=args.variant == "par",
        signature_banks=getattr(args, "banks", 0) or 0,
    )


class _TelemetryPlane:
    """The CLI run's live surfaces: the telemetry stream and HTTP exporter.

    Owned by ``args`` so the report path (:func:`_report_from`) can tear the
    plane down in the right order: the stream's final record first, then
    the HTTP exporter (after an optional linger window so external
    scrapers can collect the final state).
    """

    def __init__(self, registry: MetricsRegistry, args: argparse.Namespace) -> None:
        from repro.obs import TelemetryHTTPServer, TelemetryStreamer

        self.registry = registry
        self.linger_s = float(getattr(args, "http_linger", 0.0) or 0.0)
        self.streamer = (
            TelemetryStreamer(
                registry,
                args.live_metrics,
                command=getattr(args, "command", None),
                workload=getattr(args, "workload", None),
            )
            if getattr(args, "live_metrics", None)
            else None
        )
        port = getattr(args, "http_port", None)
        ledger_dir = getattr(args, "ledger", None)
        self.httpd = (
            TelemetryHTTPServer(registry, port=port, ledger_dir=ledger_dir)
            if port is not None
            else None
        )

    def start(self) -> None:
        if self.streamer is not None:
            self.streamer.start()
        if self.httpd is not None:
            self.httpd.start()
            print(
                f"telemetry: serving {self.httpd.url}/metrics /healthz /snapshot",
                file=sys.stderr,
            )

    def stop(self, **final) -> None:
        """Close the stream (``final`` fields ride on its last record),
        then the HTTP exporter.  Idempotent."""
        import time

        if self.streamer is not None:
            self.streamer.stop(**final)
            self.streamer = None
        if self.httpd is not None:
            if self.linger_s > 0:
                print(
                    f"telemetry: lingering {self.linger_s:g}s at {self.httpd.url}",
                    file=sys.stderr,
                )
                time.sleep(self.linger_s)
            self.httpd.stop()
            self.httpd = None


def _registry_from(args: argparse.Namespace) -> MetricsRegistry:
    """Telemetry registry for one CLI run (stream / tracer on request).

    Every CLI run gets a fresh ``run_id``; it is stamped on every stream
    record, the trace export, the run report and the ledger bundle, so all
    of one run's telemetry artifacts can be joined on it.
    """
    from repro.obs import new_run_id

    run_id = getattr(args, "run_id", None) or new_run_id()
    tracer = (
        Tracer(run_id=run_id) if getattr(args, "trace_out", None) else None
    )
    reg = MetricsRegistry(tracer=tracer, run_id=run_id)
    plane = _TelemetryPlane(reg, args)
    plane.start()
    args._plane = plane
    args._registry = reg
    args._ledger = _ledger_from(args, run_id)
    return reg


def _ledger_from(args: argparse.Namespace, run_id: str):
    """The run's bundle writer, unless ``--no-ledger`` opted out."""
    if getattr(args, "no_ledger", False):
        return None
    from pathlib import Path

    from repro.obs import RunLedger, default_ledger_dir

    root = (
        Path(args.ledger)
        if getattr(args, "ledger", None)
        else default_ledger_dir()
    )
    meta = {
        "command": getattr(args, "command", None),
        "workload": getattr(args, "workload", None),
        "variant": getattr(args, "variant", None),
        "mode": getattr(args, "mode", None),
        "workers": getattr(args, "workers", None),
        "slots": getattr(args, "slots", None),
        "banks": getattr(args, "banks", None),
        "scale": getattr(args, "scale", None),
        "seed": getattr(args, "seed", None),
    }
    return RunLedger(root, run_id, meta=meta)


def _report_from(
    args: argparse.Namespace, reg: MetricsRegistry, result=None, info=None
) -> RunReport:
    """Build the report, write the ledger bundle, close the live plane."""
    report = RunReport.build(
        reg,
        result,
        info,
        workload=args.workload,
        variant=args.variant,
    )
    ledger = getattr(args, "_ledger", None)
    path = None
    if ledger is not None:
        path = ledger.finalize(reg, report, result=result, info=info)
    plane = getattr(args, "_plane", None)
    if plane is not None:
        plane.stop(ledger=path)
    return report


def _finish_telemetry(
    args: argparse.Namespace, reg: MetricsRegistry, result=None, info=None
) -> None:
    """Shared tail of every profiling subcommand."""
    report = _report_from(args, reg, result, info)
    _write_trace(args, reg)
    if args.json:
        print(report.to_json())


def _write_trace(args: argparse.Namespace, reg: MetricsRegistry) -> None:
    """Export the recorded timeline when the run asked for one."""
    trace_out = getattr(args, "trace_out", None)
    if trace_out and reg.tracer.enabled:
        write_chrome_trace(
            trace_out,
            reg.tracer,
            meta={"workload": args.workload, "variant": args.variant},
        )


def _profile_for(args: argparse.Namespace, reg: MetricsRegistry, batch):
    """Profile ``batch`` through the pipeline with the run's ``--mode`` and
    ``--workers``.  A lossy run with provenance then settles its
    ``suspect_fp`` flags against a perfect-signature rerun.  Returns
    ``(result, info)``."""
    cfg = _config_from(args)
    res, info = ParallelProfiler(
        cfg.with_(workers=args.workers),
        mode=args.mode,
        registry=reg,
        provenance=args.provenance,
        heartbeat_interval=args.heartbeat_interval,
        ledger=getattr(args, "_ledger", None),
    ).profile(batch)
    if args.provenance and args.slots is not None:
        from repro.obs import oracle_cross_check

        oracle_cross_check(res.provenance, batch, cfg)
    return res, info


def _print_provenance(res) -> None:
    """Text rendering of the provenance annotations (non-JSON output)."""
    prov = res.provenance
    if prov is None:
        return
    n_spurious = prov.n_oracle_spurious
    oracle = (
        f", {n_spurious} oracle-confirmed spurious"
        if any(r.oracle_spurious is not None for _, r in prov)
        else ""
    )
    print(
        f"\n# provenance: {len(prov)} records, "
        f"{prov.n_suspect} suspect false positives{oracle}"
    )
    for row in prov.to_list():
        p = row["provenance"]
        flags = " [suspect-fp]" if p["suspect_fp"] else ""
        if p["oracle_spurious"]:
            flags += " [oracle-spurious]"
        print(
            f"#   {row['type']:<4} {row['source_loc']}->{row['sink_loc']} "
            f"var {row['var']}: workers {p['workers']} "
            f"chunks {p['chunks'][0]}..{p['chunks'][1]} "
            f"ts {p['ts'][0]}..{p['ts'][1]} x{p['count']}{flags}"
        )


def _trace_from(args: argparse.Namespace, reg: MetricsRegistry | None = None):
    from repro.workloads import get_trace, set_trace_cache_limit

    if reg is None:
        reg = MetricsRegistry()
    limit = getattr(args, "trace_cache_limit", None)
    if limit is not None:
        set_trace_cache_limit(limit)
    with reg.span("trace-build"):
        return get_trace(
            args.workload,
            variant=args.variant,
            scale=args.scale,
            threads=args.threads,
            seed=args.seed,
            cache_dir=getattr(args, "trace_cache", None),
            registry=reg,
            fastpath=not getattr(args, "no_fastpath", False),
        )


def cmd_workloads(_args: argparse.Namespace) -> int:
    from repro.workloads import get_workload, workload_names

    for suite in ("nas", "starbench", "splash2x", "amplified"):
        print(f"[{suite}]")
        for name in workload_names(suite):
            wl = get_workload(name)
            par = " (+par)" if wl.has_parallel_variant else ""
            print(f"  {name:16s}{par}  {wl.description}")
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    reg = _registry_from(args)
    batch = _trace_from(args, reg)
    res, info = _profile_for(args, reg, batch)
    sys.stdout.write(format_dependences(res, verbose=args.verbose))
    if not args.json:
        s = res.stats
        print(
            f"\n# {s.n_accesses} accesses, {s.n_unique_addresses} addresses, "
            f"{len(res.store)} merged dependences "
            f"({res.store.instances} instances, "
            f"{res.merge_reduction_factor:.0f}x merge), "
            f"{s.races_flagged} potential races"
        )
        _print_provenance(res)
    _finish_telemetry(args, reg, res, info)
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """Run the full parallel pipeline and print its telemetry run-report."""
    reg = _registry_from(args)
    batch = _trace_from(args, reg)
    res, info = _profile_for(args, reg, batch)
    report = _report_from(args, reg, res, info)
    _write_trace(args, reg)
    if args.json:
        print(report.to_json())
    else:
        sys.stdout.write(report.render())
    if args.prometheus_out:
        from pathlib import Path

        from repro.obs import prometheus_text

        Path(args.prometheus_out).write_text(prometheus_text(reg))
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    """Live terminal view of a running profile's exporter."""
    from repro.obs.top import run_top

    url = args.url if args.url else f"http://127.0.0.1:{args.port}"
    return run_top(url, interval=args.interval, once=args.once)


def cmd_loops(args: argparse.Namespace) -> int:
    from repro.analyses import loop_table
    from repro.report import ascii_table

    reg = _registry_from(args)
    batch = _trace_from(args, reg)
    res, info = _profile_for(args, reg, batch)
    if args.json:
        import json as _json

        from repro.obs.ledger import loop_section

        doc = {
            "schema": "ddprof.loops/1",
            "workload": args.workload,
            "variant": args.variant,
            "loops": loop_section(res),
        }
        print(_json.dumps(doc, indent=2))
    else:
        rows = [
            (
                r.site,
                r.end,
                r.executions,
                r.total_iterations,
                r.verdict or "-",
                r.note,
            )
            for r in loop_table(res)
        ]
        sys.stdout.write(
            ascii_table(
                ["loop", "end", "execs", "iters", "verdict", "detail"],
                rows,
                title=f"Loops of {args.workload} ({args.variant})",
            )
        )
    # The loops document *is* this command's machine-readable output, so the
    # run report stays off stdout in --json mode (unlike the other commands).
    _report_from(args, reg, res, info)
    _write_trace(args, reg)
    return 0


def cmd_comm(args: argparse.Namespace) -> int:
    from repro.analyses import communication_matrix, render_matrix

    args.variant = "par"
    reg = _registry_from(args)
    batch = _trace_from(args, reg)
    res, info = _profile_for(args, reg, batch)
    m = communication_matrix(res, n_threads=args.threads + 1)
    sys.stdout.write(render_matrix(m[1:, 1:]))
    _finish_telemetry(args, reg, res, info)
    return 0


def cmd_races(args: argparse.Namespace) -> int:
    from repro.common.sourceloc import format_location
    from repro.workloads import get_workload

    args.variant = "par"
    reg = _registry_from(args)
    wl = get_workload(args.workload)
    with reg.span("trace-build"):
        program, _ = wl.build_par(args.scale or wl.default_scale, args.threads)
        batch = run_program(
            program,
            schedule=ScheduleConfig(
                policy="roundrobin", seed=args.seed, delay_probability=args.delay
            ),
        )
    res, info = _profile_for(args, reg, batch)
    _finish_telemetry(args, reg, res, info)
    races = res.store.races()
    if not races:
        print("no potential data races flagged")
        return 0
    prov = res.provenance
    for d in races:
        where = ""
        if prov is not None and (rec := prov.get(d)) is not None:
            where = (
                f"  [workers {sorted(rec.workers)}, "
                f"ts {rec.first_ts}..{rec.last_ts}]"
            )
        print(
            f"potential race: {d.dep_type.name} on {res.var_name(d.var)} — "
            f"{format_location(d.source_loc)}|{d.source_tid} vs "
            f"{format_location(d.sink_loc)}|{d.sink_tid}{where}"
        )
    return 1


def cmd_distances(args: argparse.Namespace) -> int:
    import math

    from repro.analyses import dependence_distances
    from repro.common.sourceloc import format_location

    reg = _registry_from(args)
    batch = _trace_from(args, reg)
    res, info = _profile_for(args, reg, batch)
    for site in sorted(res.loops):
        d = dependence_distances(batch, site)
        degree = d.doacross_degree
        verdict = (
            "DOALL"
            if math.isinf(degree)
            else ("serial" if degree <= 1 else f"do-across x{int(degree)}")
        )
        print(f"loop {format_location(site)}: {verdict}")
        for key, dist in sorted(
            d.min_distance.items(), key=lambda kv: (kv[1], kv[0].dep_type)
        ):
            print(
                f"    {key.dep_type.name} {format_location(key.source_loc)} -> "
                f"{format_location(key.sink_loc)} on "
                f"{res.var_name(key.var)}: distance {dist}"
            )
    _finish_telemetry(args, reg, res, info)
    return 0


def cmd_diff(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.core import diff_outputs

    diff = diff_outputs(
        Path(args.file_a).read_text(), Path(args.file_b).read_text()
    )
    sys.stdout.write(diff.render(args.file_a, args.file_b))
    return 0 if diff.identical else 1


def cmd_listing(args: argparse.Namespace) -> int:
    from repro.minivm import source_listing
    from repro.workloads import get_workload

    wl = get_workload(args.workload)
    if wl.build_seq is None:
        print(f"{args.workload} is a trace-level workload (no program listing)")
        return 1
    scale = args.scale or wl.default_scale
    if args.variant == "par":
        program, _ = wl.build_par(scale, args.threads)
    else:
        program, _ = wl.build_seq(scale)
    sys.stdout.write(source_listing(program))
    return 0


def cmd_tree(args: argparse.Namespace) -> int:
    from repro.analyses import build_execution_tree

    batch = _trace_from(args)
    for tid, root in sorted(build_execution_tree(batch).items()):
        print(f"--- thread {tid} ---")
        print(root.render())
    return 0


def cmd_sections(args: argparse.Namespace) -> int:
    from repro.analyses import section_dependences

    reg = _registry_from(args)
    batch = _trace_from(args, reg)
    res, info = _profile_for(args, reg, batch)
    deps = section_dependences(res)
    _finish_telemetry(args, reg, res, info)
    if not deps:
        print("no cross-region dependences")
        return 0
    for d in deps:
        print(d.describe())
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Run the pipeline purely to record its execution timeline."""
    args.trace_out = args.out or f"{args.workload}.trace.json"
    reg = _registry_from(args)
    batch = _trace_from(args, reg)
    res, info = _profile_for(args, reg, batch)
    report = _report_from(args, reg, res, info)
    summary = reg.tracer.summary()
    _write_trace(args, reg)
    if args.json:
        print(report.to_json())
        return 0
    print(
        f"wrote {args.trace_out}: {summary['n_events']} events over "
        f"{summary['wall_seconds'] * 1e3:.1f} ms on "
        f"{len(summary['tracks'])} tracks "
        f"(load in Perfetto or chrome://tracing)"
    )
    for name, t in summary["tracks"].items():
        print(
            f"  {name:<10} busy {t['busy_frac'] * 100:5.1f}%  "
            f"stall {t['stall_frac'] * 100:5.1f}%  "
            f"idle {t['idle_frac'] * 100:5.1f}%  ({t['events']} events)"
        )
    if res.provenance is not None:
        print(
            f"provenance: {len(res.provenance)} records, "
            f"{res.provenance.n_suspect} suspect false positives"
        )
    return 0


# -- ddprof bench ------------------------------------------------------------

#: Suite membership of every benchmarks/test_*.py module.  The conftest
#: derives each module's suite from this same table (single source of
#: truth), so ``ddprof bench run --suite X`` and the ``bench_record``
#: fixture can never disagree about what belongs where.
BENCH_SUITES: dict[str, tuple[str, ...]] = {
    "seq": (
        "test_fig5_slowdown_sequential.py",
        "test_fig7_memory_sequential.py",
        "test_table1_accuracy.py",
        "test_table2_parallel_loops.py",
        "test_merge_reduction.py",
        "test_eq2_fpr_model.py",
        "test_hashtable_vs_signature.py",
        "test_race_flagging.py",
    ),
    "parallel": (
        "test_fig6_slowdown_parallel.py",
        "test_fig8_memory_parallel.py",
        "test_fig9_comm_pattern.py",
        "test_load_balancing.py",
        "test_measured_parallel_speedup.py",
        "test_ablation_pipeline.py",
        "test_parallel_scale.py",
    ),
    "engine": (
        "test_engine_throughput.py",
        "test_producer_throughput.py",
    ),
    "producer": (
        "test_producer_coverage.py",
    ),
    "obs": (
        "test_telemetry_overhead.py",
    ),
}

#: ``ddprof bench run --fast`` / the CI gate: the suites cheap enough to
#: run on every push (throughput kernels + coverage floors + telemetry
#: overhead).
FAST_SUITES = ("engine", "producer", "obs")


def _gather_bench_files(path) -> dict[str, str]:
    """Map suite name -> BENCH file under ``path`` (file or directory)."""
    from pathlib import Path

    from repro.obs import load_bench

    p = Path(path)
    files = sorted(p.glob("BENCH_*.json")) if p.is_dir() else [p]
    out: dict[str, str] = {}
    for f in files:
        doc = load_bench(f)
        out[doc.get("suite", f.stem)] = str(f)
    return out


def cmd_bench_run(args: argparse.Namespace) -> int:
    """Run benchmark suites under pytest; the conftest's ``bench_record``
    fixture writes ``BENCH_<suite>.json`` into --out-dir."""
    import datetime
    import os
    import subprocess
    from pathlib import Path

    bench_dir = Path(args.benchmarks_dir)
    if not bench_dir.is_dir():
        print(f"benchmarks directory not found: {bench_dir}", file=sys.stderr)
        return 2
    suites = list(args.suite) if args.suite else (
        list(FAST_SUITES) if args.fast else sorted(BENCH_SUITES)
    )
    unknown = [s for s in suites if s not in BENCH_SUITES]
    if unknown:
        print(
            f"unknown suite(s) {unknown}; known: {sorted(BENCH_SUITES)}",
            file=sys.stderr,
        )
        return 2
    files = [str(bench_dir / m) for s in suites for m in BENCH_SUITES[s]]
    out_dir = Path(args.out_dir).resolve()
    env = dict(os.environ)
    env["DDPROF_BENCH_OUT"] = str(out_dir)
    env.setdefault(
        "DDPROF_BENCH_TS",
        datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    )
    cmd = [sys.executable, "-m", "pytest", "-q", *files]
    if args.keyword:
        cmd += ["-k", args.keyword]
    print(f"running suites {suites}: {' '.join(cmd)}")
    rc = subprocess.run(cmd, env=env).returncode
    written = sorted(out_dir.glob("BENCH_*.json"))
    for f in written:
        print(f"wrote {f}")
    return rc


def cmd_bench_compare(args: argparse.Namespace) -> int:
    import json as _json

    from repro.obs import compare, load_bench

    base_by_suite = _gather_bench_files(args.baseline)
    cur_by_suite = _gather_bench_files(args.current)
    comparisons = []
    problems = 0
    for suite in sorted(set(base_by_suite) | set(cur_by_suite)):
        base = base_by_suite.get(suite)
        cur = cur_by_suite.get(suite)
        if cur is None:
            print(f"# suite {suite}: present in baseline only — skipped")
            if args.strict:
                problems += 1
            continue
        if base is None:
            # No committed baseline yet: everything classifies "added".
            base = {
                "schema": load_bench(cur)["schema"],
                "suite": suite,
                "benchmarks": {},
            }
        cmp = compare(
            base,
            cur,
            tolerance=args.threshold,
            mad_factor=args.mad_factor,
            suite=suite,
        )
        comparisons.append(cmp)
        if not cmp.ok:
            problems += 1
        if args.strict and cmp.of_status("removed"):
            problems += 1
    if args.json:
        print(_json.dumps([c.to_dict() for c in comparisons], indent=2))
    else:
        for cmp in comparisons:
            sys.stdout.write(cmp.render())
    return 1 if problems else 0


def cmd_bench_report(args: argparse.Namespace) -> int:
    import json as _json

    from repro.obs import load_bench
    from repro.report import ascii_table

    docs = []
    for path in args.files:
        docs.extend(
            load_bench(f) for f in _gather_bench_files(path).values()
        )
    if args.json:
        print(_json.dumps(docs, indent=2))
        return 0
    for doc in docs:
        env = doc.get("environment", {})
        rows = [
            [
                bench_id,
                m.get("value"),
                m.get("mad", 0.0),
                m.get("unit", ""),
                m.get("direction", ""),
                m.get("repeats", 1),
                "-" if m.get("floor") is None else m["floor"],
            ]
            for bench_id, m in sorted(doc.get("benchmarks", {}).items())
        ]
        sha = str(env.get("git_sha", "unknown"))[:12]
        sys.stdout.write(
            ascii_table(
                ["benchmark", "median", "mad", "unit", "direction", "n", "floor"],
                rows,
                title=(
                    f"BENCH [{doc.get('suite')}] @ {sha} "
                    f"({env.get('cpus', '?')} cpus, {env.get('timestamp', 'no ts')})"
                ),
            )
        )
        if doc.get("tables"):
            names = ", ".join(sorted(doc["tables"]))
            sys.stdout.write(f"tables: {names}\n")
    return 0


# -- ddprof runs -------------------------------------------------------------


def _ledger_root(args: argparse.Namespace):
    from pathlib import Path

    from repro.obs import default_ledger_dir

    return Path(args.ledger) if args.ledger else default_ledger_dir()


def cmd_runs_list(args: argparse.Namespace) -> int:
    import json as _json

    from repro.obs import list_runs
    from repro.report import ascii_table

    root = _ledger_root(args)
    rows = list_runs(root)
    if args.json:
        doc = {"schema": "ddprof.run-list/1", "ledger": str(root), "runs": rows}
        print(_json.dumps(doc, indent=2))
        return 0
    if not rows:
        print(f"no runs in ledger {root}")
        return 0
    table_rows = [
        [
            r["run_id"],
            r["status"],
            r.get("workload") or "-",
            r.get("mode") or "-",
            "-" if r.get("n_edges") is None else r["n_edges"],
            f"{r['bytes'] / 1024:.0f}KiB",
        ]
        for r in rows
    ]
    sys.stdout.write(
        ascii_table(
            ["run", "status", "workload", "mode", "edges", "size"],
            table_rows,
            title=f"run ledger {root}",
        )
    )
    return 0


def cmd_runs_show(args: argparse.Namespace) -> int:
    import json as _json

    from repro.common.errors import ObsError
    from repro.obs import bundle_summary, load_bundle, resolve_bundle

    root = _ledger_root(args)
    try:
        doc = load_bundle(resolve_bundle(root, args.run))
    except ObsError as exc:
        print(f"ddprof runs show: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(_json.dumps(doc, indent=2))
    else:
        sys.stdout.write(bundle_summary(doc))
    return 0


def cmd_runs_diff(args: argparse.Namespace) -> int:
    """Diff two run bundles.  Exit codes: 0 = no regressions (any metric
    movement is reported but does not gate), 1 = regression (a loop verdict
    flipped toward less parallelism — plus added edges / coverage drops /
    new suspect FPs under --strict), 2 = operand error."""
    from repro.common.errors import ObsError
    from repro.obs import diff_bundles, load_bundle, resolve_bundle

    root = _ledger_root(args)
    try:
        a = load_bundle(resolve_bundle(root, args.run_a))
        b = load_bundle(resolve_bundle(root, args.run_b))
    except ObsError as exc:
        print(f"ddprof runs diff: {exc}", file=sys.stderr)
        return 2
    diff = diff_bundles(
        a,
        b,
        tolerance=args.threshold,
        mad_factor=args.mad_factor,
        strict=args.strict,
    )
    if args.json:
        print(diff.to_json())
    else:
        sys.stdout.write(diff.render())
    return 1 if diff.regressions else 0


def cmd_runs_gc(args: argparse.Namespace) -> int:
    import json as _json

    from repro.obs import gc_ledger, list_runs

    root = _ledger_root(args)
    removed = gc_ledger(root, limit_bytes=args.limit_bytes, keep=args.keep)
    kept = len(list_runs(root))
    if args.json:
        print(_json.dumps({"removed": removed, "kept": kept}, indent=2))
        return 0
    print(f"evicted {len(removed)} run(s), kept {kept} in {root}")
    for rid in removed:
        print(f"  - {rid}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ddprof",
        description="Generic data-dependence profiler (IPDPS-W 2015 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("workloads", help="list benchmark analogs").set_defaults(
        fn=cmd_workloads
    )
    p = sub.add_parser("profile", help="profile and print dependences")
    _profiler_args(p)
    p.add_argument("--verbose", action="store_true", help="carried/race notes")
    p.set_defaults(fn=cmd_profile)
    p = sub.add_parser("loops", help="loop table with parallelism verdicts")
    _profiler_args(p)
    p.set_defaults(fn=cmd_loops)
    p = sub.add_parser("comm", help="communication-pattern matrix")
    _profiler_args(p)
    p.set_defaults(fn=cmd_comm)
    p = sub.add_parser("races", help="hunt potential races with push delays")
    _profiler_args(p)
    p.add_argument("--delay", type=float, default=0.3, help="push-delay probability")
    p.set_defaults(fn=cmd_races)
    p = sub.add_parser("listing", help="numbered source listing")
    _profiler_args(p)
    p.set_defaults(fn=cmd_listing)
    p = sub.add_parser("tree", help="dynamic execution tree")
    _profiler_args(p)
    p.set_defaults(fn=cmd_tree)
    p = sub.add_parser("sections", help="region-level dependences")
    _profiler_args(p)
    p.set_defaults(fn=cmd_sections)
    p = sub.add_parser("distances", help="per-loop dependence distances")
    _profiler_args(p)
    p.set_defaults(fn=cmd_distances)
    p = sub.add_parser(
        "stats", help="telemetry run-report of a full pipeline run"
    )
    _profiler_args(p, workers=4)
    p.add_argument(
        "--prometheus-out", metavar="FILE", default=None,
        help="also write a Prometheus text exposition of the final metrics",
    )
    p.set_defaults(fn=cmd_stats)
    p = sub.add_parser(
        "top",
        help="live terminal view of a running profile "
        "(polls an --http-port exporter's /snapshot and /heatmap)",
    )
    p.add_argument(
        "--url", default=None,
        help="exporter base URL (default: http://127.0.0.1:<port>)",
    )
    p.add_argument(
        "--port", type=int, default=8377,
        help="exporter port when --url is not given (default: 8377)",
    )
    p.add_argument(
        "--interval", type=float, default=1.0, help="refresh period in seconds"
    )
    p.add_argument(
        "--once", action="store_true",
        help="render a single frame and exit (no screen clearing)",
    )
    p.set_defaults(fn=cmd_top)
    p = sub.add_parser(
        "trace", help="record a pipeline timeline as Chrome trace JSON"
    )
    _profiler_args(p, workers=4)
    p.add_argument(
        "--out", metavar="FILE", default=None,
        help="trace output path (default: <workload>.trace.json)",
    )
    p.set_defaults(fn=cmd_trace)
    p = sub.add_parser(
        "bench",
        help="structured benchmark records (BENCH_*.json) and the "
        "noise-aware regression gate",
    )
    bench_sub = p.add_subparsers(dest="bench_command", required=True)
    pb = bench_sub.add_parser(
        "run", help="run benchmark suites and write BENCH_<suite>.json"
    )
    pb.add_argument(
        "--suite", action="append", default=None,
        help=f"suite to run (repeatable; default: all of {sorted(BENCH_SUITES)})",
    )
    pb.add_argument(
        "--fast", action="store_true",
        help=f"only the fast CI-gate suites {list(FAST_SUITES)}",
    )
    pb.add_argument("--benchmarks-dir", default="benchmarks")
    pb.add_argument(
        "--out-dir", default=".",
        help="where BENCH_<suite>.json files land (default: repo root)",
    )
    pb.add_argument("-k", dest="keyword", default=None, help="pytest -k filter")
    pb.set_defaults(fn=cmd_bench_run)
    pb = bench_sub.add_parser(
        "compare",
        help="classify each metric improved/neutral/regressed; exit 1 on "
        "regressions or declared-bound violations",
    )
    pb.add_argument("baseline", help="BENCH file or directory of them")
    pb.add_argument("current", help="BENCH file or directory of them")
    pb.add_argument(
        "--threshold", type=float, default=None,
        help="relative noise tolerance override (default: per-metric, 0.25)",
    )
    pb.add_argument(
        "--mad-factor", type=float, default=4.0,
        help="MAD band multiplier (noise band = max(threshold*|base|, "
        "mad_factor*(base_mad+cur_mad)))",
    )
    pb.add_argument(
        "--strict", action="store_true",
        help="also fail on removed benchmarks / suites missing from current",
    )
    pb.add_argument("--json", action="store_true")
    pb.set_defaults(fn=cmd_bench_compare)
    pb = bench_sub.add_parser(
        "report", help="human-readable summary of BENCH files"
    )
    pb.add_argument("files", nargs="+", help="BENCH files or directories")
    pb.add_argument("--json", action="store_true")
    pb.set_defaults(fn=cmd_bench_report)

    p = sub.add_parser(
        "diff", help="compare two saved dependence listings record by record"
    )
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.set_defaults(fn=cmd_diff)

    p = sub.add_parser(
        "runs",
        help="the run ledger: list/show/diff/gc persisted run bundles",
    )
    runs_sub = p.add_subparsers(dest="runs_command", required=True)

    def _runs_common(pr: argparse.ArgumentParser) -> None:
        pr.add_argument(
            "--ledger", metavar="DIR", default=None,
            help="ledger directory (default: $DDPROF_LEDGER or ~/.ddprof/runs)",
        )
        pr.add_argument("--json", action="store_true")

    pr = runs_sub.add_parser("list", help="list persisted runs, newest first")
    _runs_common(pr)
    pr.set_defaults(fn=cmd_runs_list)
    pr = runs_sub.add_parser("show", help="render one run bundle")
    _runs_common(pr)
    pr.add_argument("run", help="run id or bundle path")
    pr.set_defaults(fn=cmd_runs_show)
    pr = runs_sub.add_parser(
        "diff",
        help="cross-run dependence-regression diff; exit 1 when a loop "
        "verdict flips toward less parallelism",
    )
    _runs_common(pr)
    pr.add_argument("run_a", help="baseline run id or bundle path")
    pr.add_argument("run_b", help="current run id or bundle path")
    pr.add_argument(
        "--threshold", type=float, default=None,
        help="relative noise tolerance for metric deltas (default: 0.25)",
    )
    pr.add_argument(
        "--mad-factor", type=float, default=4.0,
        help="MAD band multiplier for metric deltas",
    )
    pr.add_argument(
        "--strict", action="store_true",
        help="also gate on added edges, coverage drops, and new suspect FPs",
    )
    pr.set_defaults(fn=cmd_runs_diff)
    pr = runs_sub.add_parser(
        "gc", help="LRU-prune the ledger to a size/count budget"
    )
    _runs_common(pr)
    pr.add_argument(
        "--limit-bytes", type=int, default=None,
        help="evict oldest runs until the ledger fits this many bytes",
    )
    pr.add_argument(
        "--keep", type=int, default=None,
        help="keep at most this many newest runs",
    )
    pr.set_defaults(fn=cmd_runs_gc)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BaseException as exc:
        # Crash-finally ledger contract: whatever killed the run, an
        # unfinalized ledger still commits a valid (never torn) bundle
        # recording the crash, then the original error propagates.
        import contextlib

        ledger = getattr(args, "_ledger", None)
        reg = getattr(args, "_registry", None)
        path = None
        if ledger is not None and not ledger.finalized and reg is not None:
            with contextlib.suppress(Exception):
                path = ledger.finalize(
                    reg,
                    status="crashed",
                    error=f"{type(exc).__name__}: {exc}",
                )
        plane = getattr(args, "_plane", None)
        if plane is not None:
            with contextlib.suppress(Exception):
                plane.stop(ledger=path)
        raise


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
