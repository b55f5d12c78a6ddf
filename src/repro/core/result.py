"""Profiling results and statistics."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.controlflow import LoopInfo
from repro.core.deps import DepType, DependenceStore
from repro.obs.metrics import MetricsRegistry
from repro.obs.provenance import ProvenanceCollector


@dataclass
class ProfileStats:
    """Bookkeeping collected during one profiling run.

    The dataclass remains the downstream API, but it doubles as a *view*
    over the telemetry registry: :meth:`publish` pushes one worker's totals
    into registry counters labelled by worker, and :meth:`from_registry`
    re-derives an aggregate by summing those counter families — so the
    pipeline never hand-sums private fields.
    """

    n_events: int = 0
    n_accesses: int = 0
    n_reads: int = 0
    n_writes: int = 0
    dep_instances: dict[DepType, int] = field(
        default_factory=lambda: {t: 0 for t in DepType}
    )
    races_flagged: int = 0
    tracker_memory_bytes: int = 0
    n_unique_addresses: int = 0

    @property
    def total_instances(self) -> int:
        return sum(self.dep_instances.values())

    # -- registry bridge ----------------------------------------------------
    def publish(self, registry: MetricsRegistry, **labels: object) -> None:
        """Mirror these totals into counters of ``registry``."""
        registry.counter("engine.events", **labels).inc(self.n_events)
        registry.counter("engine.reads", **labels).inc(self.n_reads)
        registry.counter("engine.writes", **labels).inc(self.n_writes)
        registry.counter("engine.races_flagged", **labels).inc(self.races_flagged)
        for t, c in self.dep_instances.items():
            registry.counter("deps.instances", type=t.name, **labels).inc(c)
        registry.gauge("engine.tracker_memory_bytes", **labels).set(
            self.tracker_memory_bytes
        )

    @classmethod
    def from_registry(cls, registry: MetricsRegistry) -> "ProfileStats":
        """Aggregate view: sum each counter family across all label sets."""
        stats = cls(
            n_events=registry.sum_counters("engine.events"),
            n_reads=registry.sum_counters("engine.reads"),
            n_writes=registry.sum_counters("engine.writes"),
            races_flagged=registry.sum_counters("engine.races_flagged"),
        )
        stats.n_accesses = stats.n_reads + stats.n_writes
        by_type = {t.name: t for t in DepType}
        for c in registry.counters():
            if c.name != "deps.instances":
                continue
            tname = dict(c.labels).get("type")
            if tname in by_type:
                stats.dep_instances[by_type[tname]] += c.value
        stats.tracker_memory_bytes = int(
            sum(
                g.value
                for g in registry.gauges()
                if g.name == "engine.tracker_memory_bytes"
            )
        )
        return stats


@dataclass
class ProfileResult:
    """Everything one profiling run delivers.

    ``store`` holds the merged pair-wise dependences; ``loops`` the runtime
    control-flow information; ``var_names``/``file_names`` resolve the
    interned ids in dependence records back to source-level names.
    """

    store: DependenceStore
    loops: dict[int, LoopInfo]
    stats: ProfileStats
    var_names: tuple[str, ...] = ()
    file_names: tuple[str, ...] = ()
    multithreaded: bool = False
    #: Per-dependence attribution (worker/chunk/timestamp window and the
    #: ``suspect_fp`` collision flag) when the run collected provenance.
    provenance: ProvenanceCollector | None = None

    @property
    def merge_reduction_factor(self) -> float:
        """Instances merged per surviving entry (Section III-B, ~1e5 in the paper)."""
        n = self.store.n_entries
        return self.store.instances / n if n else 0.0

    def var_name(self, var_id: int) -> str:
        if 0 <= var_id < len(self.var_names):
            return self.var_names[var_id]
        return "*"
