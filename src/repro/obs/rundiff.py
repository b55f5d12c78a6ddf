"""Cross-run dependence-regression diffing over two ledger bundles.

``diff_bundles(a, b)`` compares two ``ddprof.run-bundle/1`` documents
(:mod:`repro.obs.ledger`) and classifies the drift between them:

* **dependence edges** added/removed, keyed by the canonical
  source-location edge identity (:func:`repro.obs.ledger.edge_key`), so
  trace ordering and scheduling noise are invisible — identical programs
  under identical configs produce identical digests and an empty diff;
* **verdict flips** per loop site — a flip toward a *less* parallel
  verdict (``doall → sequential``, ``reduction → pipeline``, …) is a
  flagged *regression*, a flip toward more parallelism an *improvement*
  (ranking in :data:`repro.obs.ledger.VERDICT_RANK`);
* **fast-path coverage** and **metric deltas** through the same noise-band
  classifier the bench gate uses (:func:`repro.obs.bench.classify_delta`):
  coverage has a declared direction (higher is better); raw run counters
  and gauges have none and classify ``changed`` when they leave the band —
  *noticed*, never gating.  Resource and timing instruments (``process.*``,
  ``worker.heartbeat.*``, worker forks, telemetry tick errors) are not
  compared: they never replay;
* **suspect-FP provenance** keys appearing/disappearing.

Exit-code contract (``ddprof runs diff``): the diff **fails** (non-zero)
exactly when :attr:`RunDiff.regressions` is non-empty — by default only
verdict regressions gate, because dependence-edge churn under lossy
signatures and metric movement are expected between configs; ``strict=True``
escalates added edges, a coverage regression, and new suspect FPs to
failures as well.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from repro.obs.bench import DEFAULT_MAD_FACTOR, classify_delta
from repro.obs.ledger import VERDICT_RANK, edge_key

SCHEMA = "ddprof.run-diff/1"

#: At most this many individual edges are listed in the text rendering.
_MAX_LISTED = 20

#: Resource and timing instruments: they measure the host, the scheduler
#: and the worker pool, not the profile, so two runs of one config differ
#: in them.
_HOST_PREFIXES = ("process.", "worker.heartbeat.")
_HOST_METRICS = ("pipeline.worker_forks", "obs.tick_errors")


def _replays(name: str) -> bool:
    """Whether the display-keyed metric ``name`` is deterministic per
    config (not a resource or timing instrument)."""
    family = name.split("{", 1)[0]
    return not (family.startswith(_HOST_PREFIXES) or family in _HOST_METRICS)


@dataclass
class VerdictFlip:
    """One loop whose parallelism verdict changed between the runs."""

    site: str
    before: str
    after: str

    @property
    def direction(self) -> str:
        a = VERDICT_RANK.get(self.before, -1)
        b = VERDICT_RANK.get(self.after, -1)
        if a < 0 or b < 0:
            return "lateral"
        return "regression" if b < a else "improvement"

    def to_dict(self) -> dict[str, Any]:
        return {
            "site": self.site,
            "before": self.before,
            "after": self.after,
            "direction": self.direction,
        }


@dataclass
class MetricDelta:
    """One counter/gauge/coverage value that left the noise band."""

    name: str
    base: float
    current: float
    status: str  # changed | improved | regressed
    reason: str

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "base": self.base,
            "current": self.current,
            "status": self.status,
            "reason": self.reason,
        }


@dataclass
class RunDiff:
    """The classified drift between two run bundles."""

    run_a: str
    run_b: str
    meta_a: dict[str, Any] = field(default_factory=dict)
    meta_b: dict[str, Any] = field(default_factory=dict)
    digest_a: str | None = None
    digest_b: str | None = None
    n_edges_a: int | None = None
    n_edges_b: int | None = None
    edges_added: list[dict[str, Any]] = field(default_factory=list)
    edges_removed: list[dict[str, Any]] = field(default_factory=list)
    verdict_flips: list[VerdictFlip] = field(default_factory=list)
    loops_only_a: list[str] = field(default_factory=list)
    loops_only_b: list[str] = field(default_factory=list)
    coverage: MetricDelta | None = None
    metrics: list[MetricDelta] = field(default_factory=list)
    n_metrics_compared: int = 0
    suspect_added: list[str] = field(default_factory=list)
    suspect_removed: list[str] = field(default_factory=list)
    strict: bool = False

    # -- verdicts ----------------------------------------------------------
    @property
    def verdict_regressions(self) -> list[VerdictFlip]:
        return [f for f in self.verdict_flips if f.direction == "regression"]

    @property
    def regressions(self) -> list[str]:
        """What fails the exit code: verdict regressions always; added
        edges / coverage drop / new suspect FPs only under ``strict``."""
        out = [
            f"loop {f.site} verdict {f.before} -> {f.after}"
            for f in self.verdict_regressions
        ]
        if self.strict:
            if self.edges_added:
                out.append(f"{len(self.edges_added)} dependence edge(s) added")
            if self.coverage is not None and self.coverage.status == "regressed":
                out.append(
                    f"fastpath coverage {self.coverage.base:.4g} -> "
                    f"{self.coverage.current:.4g}"
                )
            if self.suspect_added:
                out.append(f"{len(self.suspect_added)} new suspect FP(s)")
        return out

    @property
    def identical(self) -> bool:
        """True when nothing observable drifted (the self-diff contract)."""
        return not (
            self.edges_added
            or self.edges_removed
            or self.verdict_flips
            or self.loops_only_a
            or self.loops_only_b
            or self.coverage is not None
            or self.metrics
            or self.suspect_added
            or self.suspect_removed
        )

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": SCHEMA,
            "run_a": self.run_a,
            "run_b": self.run_b,
            "meta_a": self.meta_a,
            "meta_b": self.meta_b,
            "identical": self.identical,
            "regressions": self.regressions,
            "strict": self.strict,
            "dependences": {
                "digest_a": self.digest_a,
                "digest_b": self.digest_b,
                "n_edges_a": self.n_edges_a,
                "n_edges_b": self.n_edges_b,
                "added": self.edges_added,
                "removed": self.edges_removed,
            },
            "verdict_flips": [f.to_dict() for f in self.verdict_flips],
            "loops_only_a": self.loops_only_a,
            "loops_only_b": self.loops_only_b,
            "coverage": None if self.coverage is None else self.coverage.to_dict(),
            "metrics": {
                "compared": self.n_metrics_compared,
                "changed": [m.to_dict() for m in self.metrics],
            },
            "suspect_fp": {
                "added": self.suspect_added,
                "removed": self.suspect_removed,
            },
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    # -- rendering ---------------------------------------------------------
    def render(self) -> str:
        lines = [f"run diff {self.run_a} -> {self.run_b}"]
        for side, meta in (("a", self.meta_a), ("b", self.meta_b)):
            head = " ".join(
                f"{k}={v}"
                for k, v in meta.items()
                if v is not None and k in ("workload", "variant", "mode", "workers", "slots")
            )
            if head:
                lines.append(f"  {side}: {head}")
        if self.meta_a.get("workload") != self.meta_b.get("workload"):
            lines.append(
                "  warning: comparing different workloads "
                f"({self.meta_a.get('workload')} vs {self.meta_b.get('workload')})"
            )
        if self.digest_a is not None and self.digest_a == self.digest_b:
            lines.append(
                f"  dependences: identical ({self.n_edges_a} edges, "
                f"digest {self.digest_a[:19]}...)"
            )
        else:
            lines.append(
                f"  dependences: +{len(self.edges_added)} / "
                f"-{len(self.edges_removed)} edges "
                f"({self.n_edges_a} -> {self.n_edges_b})"
            )
            for sign, edges in (("+", self.edges_added), ("-", self.edges_removed)):
                for e in edges[:_MAX_LISTED]:
                    carried = (
                        f" carried {','.join(e['carried'])}" if e.get("carried") else ""
                    )
                    lines.append(
                        f"    {sign} {e['type']} {e['source']} -> {e['sink']} "
                        f"var {e['var']}{carried}"
                    )
                if len(edges) > _MAX_LISTED:
                    lines.append(
                        f"    {sign} ... and {len(edges) - _MAX_LISTED} more"
                    )
        for f in self.verdict_flips:
            tag = f.direction.upper() if f.direction == "regression" else f.direction
            lines.append(
                f"  verdict flip: loop {f.site} {f.before} -> {f.after}  [{tag}]"
            )
        for site, side in (
            *((s, "a only") for s in self.loops_only_a),
            *((s, "b only") for s in self.loops_only_b),
        ):
            lines.append(f"  loop {site}: profiled in run {side}")
        if self.coverage is not None:
            c = self.coverage
            lines.append(
                f"  coverage: {c.base:.4g} -> {c.current:.4g} "
                f"[{c.status}: {c.reason}]"
            )
        lines.append(
            f"  metrics: {len(self.metrics)} changed, "
            f"{self.n_metrics_compared - len(self.metrics)} within noise band"
        )
        for m in self.metrics:
            lines.append(
                f"    {m.name:<44s} {m.base:.6g} -> {m.current:.6g}  ({m.reason})"
            )
        for sign, keys in (("+", self.suspect_added), ("-", self.suspect_removed)):
            for k in keys:
                lines.append(f"  suspect FP {sign} {k}")
        regs = self.regressions
        if regs:
            lines.append(f"  verdict: REGRESSED ({'; '.join(regs)})")
        elif self.identical:
            lines.append("  verdict: identical")
        else:
            lines.append("  verdict: OK (no regressions)")
        return "\n".join(lines) + "\n"


# -- bundle accessors ------------------------------------------------------


def _metric_values(bundle: dict[str, Any]) -> tuple[dict[str, float], dict[str, float]]:
    """Display-keyed counters and gauges of a bundle.

    Prefers the report (already display-formatted); partial bundles fall
    back to rebuilding names from the lossless ``metrics`` state dump.
    """
    report = bundle.get("report")
    if report:
        return dict(report.get("counters") or {}), dict(report.get("gauges") or {})
    from repro.obs.metrics import format_name

    state = bundle.get("metrics") or {}

    def rebuild(kind: str) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, labels, value in state.get(kind) or []:
            out[format_name(name, tuple(tuple(kv) for kv in labels))] = value
        return out

    return rebuild("counters"), rebuild("gauges")


def _verdicts(bundle: dict[str, Any]) -> dict[str, str | None]:
    return {
        row["site"]: row.get("verdict") for row in bundle.get("loops") or []
    }


def _suspects(bundle: dict[str, Any]) -> set[str]:
    prov = bundle.get("provenance") or {}
    return set(prov.get("suspect") or [])


def diff_bundles(
    a: dict[str, Any],
    b: dict[str, Any],
    *,
    tolerance: float | None = None,
    mad_factor: float = DEFAULT_MAD_FACTOR,
    strict: bool = False,
) -> RunDiff:
    """Classify the drift from bundle ``a`` (baseline) to bundle ``b``."""
    diff = RunDiff(
        run_a=a.get("run_id", "?"),
        run_b=b.get("run_id", "?"),
        meta_a=dict(a.get("meta") or {}),
        meta_b=dict(b.get("meta") or {}),
        strict=strict,
    )

    # -- dependence edges (keyed by source location) -----------------------
    deps_a = a.get("dependences")
    deps_b = b.get("dependences")
    if deps_a is not None and deps_b is not None:
        diff.digest_a = deps_a.get("digest")
        diff.digest_b = deps_b.get("digest")
        diff.n_edges_a = deps_a.get("n_edges")
        diff.n_edges_b = deps_b.get("n_edges")
        if diff.digest_a != diff.digest_b:
            by_key_a = {edge_key(e): e for e in deps_a.get("edges") or []}
            by_key_b = {edge_key(e): e for e in deps_b.get("edges") or []}
            diff.edges_added = [
                by_key_b[k] for k in sorted(by_key_b.keys() - by_key_a.keys())
            ]
            diff.edges_removed = [
                by_key_a[k] for k in sorted(by_key_a.keys() - by_key_b.keys())
            ]

    # -- loop verdict flips ------------------------------------------------
    va, vb = _verdicts(a), _verdicts(b)
    diff.loops_only_a = sorted(va.keys() - vb.keys())
    diff.loops_only_b = sorted(vb.keys() - va.keys())
    for site in sorted(va.keys() & vb.keys()):
        if va[site] != vb[site] and va[site] is not None and vb[site] is not None:
            diff.verdict_flips.append(VerdictFlip(site, va[site], vb[site]))

    # -- fast-path coverage (direction: higher is better) ------------------
    cov_a = (a.get("coverage") or {}).get("fastpath_coverage")
    cov_b = (b.get("coverage") or {}).get("fastpath_coverage")
    if cov_a is not None and cov_b is not None:
        status, why = classify_delta(
            cov_a, cov_b, direction="higher",
            tolerance=tolerance, mad_factor=mad_factor,
        )
        if status != "neutral":
            diff.coverage = MetricDelta(
                "producer.fastpath_coverage", cov_a, cov_b, status, why
            )

    # -- counters + gauges through the noise band --------------------------
    # Phase wall-times live in histograms/spans and are intentionally not
    # diffed: two identical runs must self-diff empty, and wall clocks
    # never replay.  The resource and timing instruments (CPU seconds,
    # faults, RSS, heartbeats, stalls, worker forks, tick errors) are
    # skipped for the same reason; every other counter and gauge is
    # deterministic per config.
    ca, ga = _metric_values(a)
    cb, gb = _metric_values(b)
    for base_map, cur_map in ((ca, cb), (ga, gb)):
        for name in sorted(base_map.keys() & cur_map.keys()):
            if not _replays(name):
                continue
            diff.n_metrics_compared += 1
            status, why = classify_delta(
                base_map[name], cur_map[name], direction=None,
                tolerance=tolerance, mad_factor=mad_factor,
            )
            if status != "neutral":
                diff.metrics.append(
                    MetricDelta(name, base_map[name], cur_map[name], status, why)
                )

    # -- suspect-FP provenance drift ---------------------------------------
    sa, sb = _suspects(a), _suspects(b)
    diff.suspect_added = sorted(sb - sa)
    diff.suspect_removed = sorted(sa - sb)
    return diff
