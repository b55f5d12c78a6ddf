"""The structured run-report — one JSON document per profiling run.

``RunReport.build`` freezes a :class:`~repro.obs.metrics.MetricsRegistry`
(plus, when available, the :class:`~repro.core.result.ProfileResult` and
:class:`~repro.parallel.engine.ParallelRunInfo`) into a single
machine-readable document.  This is the profiler's quantitative contract:
every number the paper charts — slowdown phases, memory, chunk counts,
load imbalance — appears under a stable key, so before/after comparisons
across PRs are a JSON diff instead of log archaeology.

Schema (``ddprof.run-report/1``)::

    {
      "schema": "ddprof.run-report/1",
      "meta":       {workload, variant, ...},
      "environment": {git_sha, cpus, platform, python, numpy, ...},
      "phases":     [{"phase": ..., "seconds": ..., "count": ...}, ...],
      "counters":   {"worker.chunks{worker=\"0\"}": 3, ...},
      "gauges":     {...},
      "histograms": {name: {buckets, counts, sum, count}, ...},
      "profile":    {accesses, reads, writes, deps, races, memory, ...},
      "parallel":   {workers, stalls, imbalance, rebalancing, ...} | null,
      "memory":     {heatmap, rebalance_audit, peak_rss_bytes} | null
    }

See ``docs/observability.md`` for the metric catalog and
``docs/output_format.md`` for how this report relates to the dependence
output format.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, TYPE_CHECKING

from repro.obs.environment import environment_fingerprint
from repro.obs.heatmap import heatmap_summary
from repro.obs.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core imports obs)
    from repro.core.result import ProfileResult
    from repro.parallel.engine import ParallelRunInfo

SCHEMA = "ddprof.run-report/1"

#: Gauge encoding of a worker's liveness: ``worker.heartbeat.state`` holds
#: the index into this tuple (0 = live, 1 = stalled, 2 = dead).  Defined
#: here — not in :mod:`repro.parallel.heartbeat` — because the obs layer
#: (reports, the HTTP ``/healthz`` endpoint) must decode the gauges without
#: importing the parallel package.
HEARTBEAT_STATES = ("live", "stalled", "dead")


def liveness_summary(registry: MetricsRegistry) -> dict[str, Any] | None:
    """Decode ``worker.heartbeat.*`` gauges into a liveness section.

    Returns ``None`` when the run recorded no heartbeats (deterministic
    mode).  The summary is computed
    purely from the registry — the watchdog writes gauges, everything
    downstream (report, ``/healthz``) reads them — so there is exactly one
    source of truth for worker state.
    """
    states: dict[str, int] = {}
    ages: dict[str, float] = {}
    beats: dict[str, int] = {}
    for g in registry.gauges():
        labels = dict(g.labels)
        if g.name == "worker.heartbeat.state":
            states[labels.get("worker", "?")] = int(g.value)
        elif g.name == "worker.heartbeat.age_seconds":
            ages[labels.get("worker", "?")] = round(g.value, 6)
        elif g.name == "worker.heartbeat.beats":
            beats[labels.get("worker", "?")] = int(g.value)
    if not states:
        return None
    workers: dict[str, Any] = {}
    counts = dict.fromkeys(HEARTBEAT_STATES, 0)
    for w in sorted(states, key=lambda w: (len(w), w)):
        code = states[w]
        name = (
            HEARTBEAT_STATES[code]
            if 0 <= code < len(HEARTBEAT_STATES)
            else f"unknown({code})"
        )
        if name in counts:
            counts[name] += 1
        workers[w] = {
            "state": name,
            "age_seconds": ages.get(w, 0.0),
            "beats": beats.get(w, 0),
        }
    return {
        "workers": workers,
        "live": counts["live"],
        "stalled": counts["stalled"],
        "dead": counts["dead"],
        "stall_events": registry.sum_counters("worker.heartbeat.stalls"),
        "healthy": counts["stalled"] == 0 and counts["dead"] == 0,
    }


def memory_section(
    registry: MetricsRegistry, info: "ParallelRunInfo | None" = None
) -> dict[str, Any] | None:
    """The report's memory plane: address heatmap, rebalance audit trail,
    and per-process RSS high-water marks.

    ``None`` when the registry holds none of the three (no pipeline run
    recorded into it).
    """
    heat = heatmap_summary(registry)
    audit = list(info.rebalance_audit) if info is not None else []
    rss: dict[str, int] = {}
    for g in registry.gauges():
        if g.name != "process.peak_rss_bytes":
            continue
        labels = dict(g.labels)
        key = labels.get("worker", "main")
        rss[key] = int(g.value)
    if heat is None and not audit and not rss:
        return None
    return {
        "heatmap": heat,
        "rebalance_audit": audit,
        "peak_rss_bytes": dict(sorted(rss.items(), key=lambda kv: (len(kv[0]), kv[0]))),
    }


def _profile_section(result: "ProfileResult") -> dict[str, Any]:
    s = result.stats
    return {
        "events": s.n_events,
        "accesses": s.n_accesses,
        "reads": s.n_reads,
        "writes": s.n_writes,
        "unique_addresses": s.n_unique_addresses,
        "dep_instances": {t.name: c for t, c in s.dep_instances.items()},
        "total_instances": s.total_instances,
        "merged_dependences": result.store.n_entries,
        "merge_reduction_factor": result.merge_reduction_factor,
        "races_flagged": s.races_flagged,
        "tracker_memory_bytes": s.tracker_memory_bytes,
        "multithreaded": result.multithreaded,
    }


def _parallel_section(info: "ParallelRunInfo") -> dict[str, Any]:
    return {
        "workers": info.n_workers,
        "chunks": info.n_chunks,
        "per_worker_accesses": list(info.per_worker_accesses),
        "per_worker_chunks": list(info.per_worker_chunks),
        "access_imbalance": info.access_imbalance,
        "rebalance_rounds": info.rebalance_rounds,
        "addresses_migrated": info.addresses_migrated,
        "signature_memory_bytes": info.signature_memory_bytes,
    }


@dataclass
class RunReport:
    """Frozen view of one run's telemetry."""

    meta: dict[str, Any] = field(default_factory=dict)
    #: Correlation id of the run.  The same id is stamped on every record
    #: of the telemetry stream, the Chrome trace export and the ledger
    #: bundle, so all planes of one run can be joined on it.
    run_id: str | None = None
    #: Provenance of the machine/commit that produced the run — the same
    #: fingerprint ``BENCH_*.json`` records carry (one shared helper,
    #: :func:`repro.obs.environment.environment_fingerprint`, so the two
    #: can never drift).
    environment: dict[str, Any] = field(default_factory=dict)
    phases: list[dict[str, Any]] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    histograms: dict[str, Any] = field(default_factory=dict)
    profile: dict[str, Any] = field(default_factory=dict)
    parallel: dict[str, Any] | None = None
    #: Memory plane: address heatmap + rebalance audit + peak RSS; ``None``
    #: when the run recorded none of them.
    memory: dict[str, Any] | None = None
    #: Timeline summary (per-track busy/stall/idle fractions) when the
    #: run's registry carried an enabled tracer; ``None`` otherwise.
    trace: dict[str, Any] | None = None
    #: Per-dependence provenance rows when the run collected them.
    provenance: list[dict[str, Any]] | None = None
    #: Worker liveness (heartbeat watchdog verdicts) for processes-mode
    #: runs with heartbeats enabled; ``None`` otherwise.
    liveness: dict[str, Any] | None = None

    @classmethod
    def build(
        cls,
        registry: MetricsRegistry,
        result: "ProfileResult | None" = None,
        info: "ParallelRunInfo | None" = None,
        **meta: Any,
    ) -> "RunReport":
        snap = registry.snapshot()
        phases = [
            {"phase": name, "seconds": agg["seconds"], "count": int(agg["count"])}
            for name, agg in registry.phase_totals().items()
        ]
        prov = getattr(result, "provenance", None)
        return cls(
            meta=dict(meta),
            run_id=registry.run_id,
            environment=environment_fingerprint(),
            phases=phases,
            counters=snap["counters"],
            gauges=snap["gauges"],
            histograms=snap["histograms"],
            profile=_profile_section(result) if result is not None else {},
            parallel=_parallel_section(info) if info is not None else None,
            memory=memory_section(registry, info),
            trace=registry.tracer.summary() if registry.tracer.enabled else None,
            provenance=prov.to_list() if prov is not None else None,
            liveness=liveness_summary(registry),
        )

    # -- derived sections -----------------------------------------------------
    def producer_summary(self) -> dict[str, Any] | None:
        """Roll up the ``producer.*`` counters (affine fast path, trace
        cache), or ``None`` when the run never built a trace."""

        def family(prefix: str) -> int:
            return sum(
                v
                for k, v in self.counters.items()
                if k == prefix or k.startswith(prefix + "{")
            )

        # Any producer instrument qualifies — a run served entirely from the
        # trace cache has only ``producer.trace_cache_hits`` (no events_*
        # counters) and must still render its producer section.
        has_producer = any(
            k.startswith("producer.") for k in self.counters
        ) or "producer.fastpath_coverage" in self.gauges
        if not has_producer:
            return None
        fast = family("producer.events_fastpath")
        interp = family("producer.events_interpreted")
        total = fast + interp
        coverage = self.gauges.get(
            "producer.fastpath_coverage", fast / total if total else 0.0
        )
        def by_label(name: str, label: str) -> dict[str, int]:
            prefix = f'{name}{{{label}="'
            return {
                k[len(prefix):].rstrip('"}'): v
                for k, v in self.counters.items()
                if k.startswith(prefix)
            }

        return {
            "events_total": total,
            "events_fastpath": fast,
            "events_interpreted": interp,
            "fastpath_fraction": fast / total if total else 0.0,
            "fastpath_coverage": coverage,
            "fastpath_loops": family("producer.fastpath_loops"),
            "fastpath_iterations": family("producer.fastpath_iterations"),
            "templates_compiled": family("producer.templates_compiled"),
            "template_rejects": family("producer.template_rejects"),
            "classify_cache_hits": family("producer.classify_cache_hits"),
            "loop_verdicts": by_label("producer.loop_verdicts", "verdict"),
            "bailouts": family("producer.fastpath_bailouts"),
            # Why loops stay interpreted: static rejects per loop site and
            # runtime bailouts per loop execution, by reason.
            "reject_reasons": by_label("producer.template_rejects", "reason"),
            "bailout_reasons": by_label("producer.fastpath_bailouts", "reason"),
            "trace_cache_hits": family("producer.trace_cache_hits"),
            "trace_cache_misses": family("producer.trace_cache_misses"),
        }

    # -- serialization --------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": SCHEMA,
            "meta": self.meta,
            "run_id": self.run_id,
            "environment": self.environment,
            "phases": self.phases,
            "counters": self.counters,
            "gauges": self.gauges,
            "histograms": self.histograms,
            "profile": self.profile,
            "producer": self.producer_summary(),
            "parallel": self.parallel,
            "memory": self.memory,
            "trace": self.trace,
            "provenance": self.provenance,
            "liveness": self.liveness,
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    # -- human rendering ------------------------------------------------------
    def render(self) -> str:
        """Terminal-friendly summary (``ddprof stats`` default output)."""
        lines: list[str] = []
        if self.meta:
            head = " ".join(f"{k}={v}" for k, v in self.meta.items())
            lines.append(f"run report [{head}]")
        else:
            lines.append("run report")
        if self.run_id:
            lines.append(f"  run id: {self.run_id}")
        if self.environment:
            env = self.environment
            sha = str(env.get("git_sha", "unknown"))[:12]
            lines.append(
                f"  environment: {sha} on {env.get('cpus', '?')} cpus, "
                f"python {env.get('python', '?')}, numpy {env.get('numpy', '?')}"
            )
        if self.phases:
            lines.append("  phases:")
            total = sum(p["seconds"] for p in self.phases)
            for p in sorted(self.phases, key=lambda p: -p["seconds"]):
                pct = 100.0 * p["seconds"] / total if total else 0.0
                lines.append(
                    f"    {p['phase']:<14s} {p['seconds'] * 1e3:10.3f} ms"
                    f"  x{p['count']:<5d} {pct:5.1f}%"
                )
        if self.profile:
            pr = self.profile
            lines.append(
                "  profile: "
                f"{pr['accesses']} accesses ({pr['reads']}r/{pr['writes']}w), "
                f"{pr['merged_dependences']} merged deps "
                f"({pr['total_instances']} instances, "
                f"{pr['merge_reduction_factor']:.0f}x merge), "
                f"{pr['races_flagged']} potential races"
            )
            lines.append(
                f"  memory: {pr['tracker_memory_bytes']} tracker bytes, "
                f"{pr['unique_addresses']} unique addresses"
            )
        if self.parallel:
            pa = self.parallel
            lines.append(
                f"  pipeline: {pa['workers']} workers, {pa['chunks']} chunks, "
                f"imbalance {pa['access_imbalance']:.2f}, "
                f"rebalances {pa['rebalance_rounds']} "
                f"({pa['addresses_migrated']} addresses moved)"
            )
        if self.memory:
            mem = self.memory
            heat = mem.get("heatmap")
            if heat:
                line = (
                    f"  heat: {heat['total_reads']}r/{heat['total_writes']}w "
                    f"across {len(heat['workers'])} workers, "
                    f"{heat['total_conflicts']} signature conflicts"
                )
                if heat["hottest"]:
                    hot = heat["hottest"][0]
                    hi = hot["hi"] if hot["hi"] is not None else "inf"
                    line += (
                        f"; hottest bucket [{hot['lo']}, {hi}] "
                        f"({hot['reads']}r/{hot['writes']}w)"
                    )
                lines.append(line)
            audit = mem.get("rebalance_audit")
            if audit:
                moved = sum(a["n_moves"] for a in audit)
                last = audit[-1]
                lines.append(
                    f"  rebalance audit: {len(audit)} rounds, {moved} addresses "
                    f"moved; last round imbalance "
                    f"{last['imbalance_before']:.2f} -> {last['imbalance_after']:.2f}"
                )
            rss = mem.get("peak_rss_bytes")
            if rss:
                parts = ", ".join(
                    f"{k}={v / (1 << 20):.1f}MiB" for k, v in rss.items()
                )
                lines.append(f"  peak rss: {parts}")
        if self.liveness:
            lv = self.liveness
            lines.append(
                f"  liveness: {lv['live']} live, {lv['stalled']} stalled, "
                f"{lv['dead']} dead ({lv['stall_events']} stall events)"
            )
            for w, st in lv["workers"].items():
                if st["state"] != "live":
                    lines.append(
                        f"    worker {w}: {st['state']} "
                        f"(last beat {st['age_seconds'] * 1e3:.0f} ms ago, "
                        f"{st['beats']} beats)"
                    )
        if self.trace:
            tr = self.trace
            lines.append(
                f"  trace: {tr['n_events']} events over "
                f"{tr['wall_seconds'] * 1e3:.3f} ms wall"
            )
            for name, t in tr["tracks"].items():
                lines.append(
                    f"    {name:<10s} busy {t['busy_frac'] * 100:5.1f}%  "
                    f"stall {t['stall_frac'] * 100:5.1f}%  "
                    f"idle {t['idle_frac'] * 100:5.1f}%  "
                    f"({t['events']} events)"
                )
        producer = self.producer_summary()
        if producer is not None:
            lines.append(
                f"  producer: {producer['events_total']} events emitted, "
                f"fastpath coverage {producer['fastpath_coverage'] * 100:.1f}%, "
                f"{producer['fastpath_loops']} loop executions vectorized, "
                f"{producer['bailouts']} bailouts"
            )
            if producer["loop_verdicts"]:
                pairs = ", ".join(
                    f"{k}={v}"
                    for k, v in sorted(producer["loop_verdicts"].items())
                )
                lines.append(f"  loop verdicts: {pairs}")
            blockers = [
                f"{kind} {reason}={n}"
                for kind, key in (("reject", "reject_reasons"), ("bailout", "bailout_reasons"))
                for reason, n in sorted(producer[key].items())
            ]
            if blockers:
                lines.append(f"  fast-path blockers: {', '.join(blockers)}")
        if self.provenance is not None:
            n_suspect = sum(1 for r in self.provenance if r["provenance"]["suspect_fp"])
            lines.append(
                f"  provenance: {len(self.provenance)} dependences attributed, "
                f"{n_suspect} suspect false positives"
            )
        if self.counters:
            lines.append("  counters:")
            for name, v in self.counters.items():
                lines.append(f"    {name:<48s} {v}")
        if self.gauges:
            lines.append("  gauges:")
            for name, v in self.gauges.items():
                fv = f"{v:.4f}".rstrip("0").rstrip(".") if v else "0"
                lines.append(f"    {name:<48s} {fv}")
        return "\n".join(lines) + "\n"
