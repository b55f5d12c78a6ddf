"""The run ledger — persisted, self-describing bundles of profiling runs.

Every profiling run can leave behind one schema-versioned JSON bundle
(``ddprof.run-bundle/1``) under a ledger directory, one subdirectory per
``run_id``.  The bundle is the run's durable observable surface: the full
:class:`~repro.obs.report.RunReport` document, a canonical dependence-set
digest (sorted edge tuples keyed by *source location*, so trace order and
timestamps never perturb it), the per-loop parallelism verdicts, the
registry's lossless :meth:`~repro.obs.metrics.MetricsRegistry.state`,
the heatmap/occupancy summary, the rebalance audit trail, the suspect-FP
provenance roll-up, and the environment fingerprint shared with
``BENCH_*.json`` records.

Bundles are written *atomically* (tmp file + ``rename``, the same commit
idiom as the spill tier's ``meta.json``) on both the success path and the
crash-``finally`` paths of the engine and the CLI, so a reader never
observes torn JSON — a crashed run leaves a valid ``status: "partial"`` or
``status: "crashed"`` bundle instead of garbage.

Layout::

    <ledger>/<run_id>/bundle.json

The ledger dir defaults to ``~/.ddprof/runs`` (``DDPROF_LEDGER`` env
override; ``--ledger DIR`` per run).  :func:`gc_ledger` prunes it LRU
(oldest bundle mtime first), the same eviction discipline as the on-disk
trace cache.  :mod:`repro.obs.rundiff` consumes two bundles and reports
dependence/verdict/metric drift between them.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import uuid
from pathlib import Path
from typing import Any, TYPE_CHECKING

from repro.common.errors import ObsError
from repro.obs.environment import environment_fingerprint
from repro.obs.heatmap import heatmap_summary
from repro.obs.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core imports obs)
    from repro.core.result import ProfileResult
    from repro.obs.report import RunReport

SCHEMA = "ddprof.run-bundle/1"

#: The one file a run writes inside its ledger subdirectory.
BUNDLE_NAME = "bundle.json"

#: Parallelism ordering of the four-way loop verdict; a flip toward a
#: lower rank is a regression (see :mod:`repro.obs.rundiff`).
VERDICT_RANK = {"sequential": 0, "pipeline": 1, "reduction": 2, "doall": 3}


def default_ledger_dir() -> Path:
    """``DDPROF_LEDGER`` env override, else ``~/.ddprof/runs``."""
    env = os.environ.get("DDPROF_LEDGER")
    return Path(env) if env else Path.home() / ".ddprof" / "runs"


def new_run_id() -> str:
    """A fresh 12-hex-char correlation id for one profiling run."""
    return uuid.uuid4().hex[:12]


def validate_run_id(run_id: str) -> str:
    """A run id must be a single safe path component (it names the bundle
    directory); reject separators, traversal, and empties."""
    if not run_id:
        raise ObsError("run id must not be empty")
    if run_id in (".", ".."):
        raise ObsError(f"run id {run_id!r} is a reserved path component")
    bad = set("/\\\x00") | ({os.sep, os.altsep} - {None})
    if any(c in run_id for c in bad if c):
        raise ObsError(
            f"run id {run_id!r} must not contain path separators"
        )
    return run_id


def _jsonable(value: Any) -> Any:
    """Numpy scalars/arrays, sets, and tuples → JSON-ready values."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_jsonable(v) for v in value)
    if hasattr(value, "item") and not isinstance(value, (str, bytes)):
        try:
            return value.item()
        except (ValueError, TypeError):
            pass
    if hasattr(value, "tolist"):
        return value.tolist()
    return value


def _json_default(value: Any) -> Any:
    """``json.dumps`` fallback for the leaves ``_jsonable`` would rewrite."""
    if isinstance(value, (set, frozenset)):
        return sorted(_jsonable(v) for v in value)
    if hasattr(value, "item") and not isinstance(value, (str, bytes)):
        try:
            return value.item()
        except (ValueError, TypeError):
            pass
    if hasattr(value, "tolist"):
        return value.tolist()
    raise TypeError(f"not JSON serializable: {type(value).__name__}")


def write_atomic(path: Path, doc: dict[str, Any]) -> Path:
    """Commit ``doc`` to ``path`` via tmp + rename (never torn JSON).

    Serialized compactly in a single C-speed pass (``default=`` hook for
    numpy scalars/arrays and sets) — bundle writes ride the profiling hot
    path's exit, so no pretty-printing and no full pre-walk.  Exotic
    documents (non-string mapping keys) fall back to the recursive
    ``_jsonable`` rewrite.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / (path.name + ".tmp")
    try:
        payload = json.dumps(doc, separators=(",", ":"), default=_json_default)
    except TypeError:
        payload = json.dumps(_jsonable(doc), separators=(",", ":"))
    tmp.write_text(payload)
    tmp.rename(path)
    return path


# -- dependence canonicalization ------------------------------------------


def dependence_edges(result: "ProfileResult") -> list[dict[str, Any]]:
    """Canonical, deterministically-ordered edge list of a profile.

    Each edge is keyed by formatted *source locations* (``fileID:line|tid``)
    plus type, variable name, and the carried loop sites — never by trace
    row indices or timestamps — so two runs over the same program produce
    byte-identical edge lists regardless of pipeline scheduling.
    """
    from repro.common.sourceloc import format_location

    edges = []
    for dep in result.store.sorted_entries():
        edges.append(
            {
                "type": dep.dep_type.name,
                "source": f"{format_location(dep.source_loc)}|{dep.source_tid}",
                "sink": f"{format_location(dep.sink_loc)}|{dep.sink_tid}",
                "var": result.var_name(dep.var),
                "carried": sorted(format_location(s) for s in dep.carried),
                "race": bool(dep.race),
            }
        )
    return edges


def edge_key(edge: dict[str, Any]) -> tuple:
    """Identity of an edge for diffing (``race`` is a per-run annotation,
    not part of the dependence's identity)."""
    return (
        edge["type"],
        edge["source"],
        edge["sink"],
        edge["var"],
        tuple(edge.get("carried", ())),
    )


def dependence_digest(edges: list[dict[str, Any]]) -> str:
    """Stable content hash of the canonical edge list."""
    payload = json.dumps(
        [list(edge_key(e)) for e in edges],
        separators=(",", ":"),
        default=list,
    )
    return "sha256:" + hashlib.sha256(payload.encode("utf-8")).hexdigest()


def loop_section(result: "ProfileResult") -> list[dict[str, Any]]:
    """Per-loop verdict rows (the ``ddprof loops --json`` row shape)."""
    from repro.analyses import loop_table

    return [
        {
            "site": r.site,
            "end": r.end,
            "executions": r.executions,
            "total_iterations": r.total_iterations,
            "mean_iterations": r.mean_iterations,
            "parallelizable": r.parallelizable,
            "verdict": r.verdict,
            "note": r.note,
        }
        for r in loop_table(result)
    ]


def _coverage_section(report: "RunReport | None") -> dict[str, Any] | None:
    """Fast-path coverage of the trace this run built; ``None`` when it
    built none (its trace came from a cache), so ``ddprof runs diff``
    compares coverage only between runs that produced their traces."""
    if report is None:
        return None
    producer = report.producer_summary()
    if producer is None or not producer["events_total"]:
        return None
    return {
        "fastpath_coverage": producer["fastpath_coverage"],
        "events_fastpath": producer["events_fastpath"],
        "events_interpreted": producer["events_interpreted"],
    }


def _provenance_section(report: "RunReport | None") -> dict[str, Any] | None:
    rows = getattr(report, "provenance", None)
    if rows is None:
        return None
    suspect = sorted(
        f"{r['type']} {r['source_loc']}->{r['sink_loc']} var {r['var']}"
        for r in rows
        if r["provenance"]["suspect_fp"]
    )
    return {"n_records": len(rows), "n_suspect": len(suspect), "suspect": suspect}


# -- the writer ------------------------------------------------------------


class RunLedger:
    """One run's bundle writer.

    :meth:`checkpoint` writes a cheap partial bundle (metrics + environment
    only) and is safe to call from engine ``finally`` blocks mid-crash;
    :meth:`finalize` writes the full document and wins over any earlier
    checkpoint.  Both commit atomically.
    """

    def __init__(
        self,
        root: Path | str,
        run_id: str,
        meta: dict[str, Any] | None = None,
    ) -> None:
        self.root = Path(root)
        self.run_id = validate_run_id(run_id)
        self.meta = dict(meta or {})
        self.finalized = False

    @property
    def path(self) -> Path:
        return self.root / self.run_id / BUNDLE_NAME

    def _base_doc(self, registry: MetricsRegistry, status: str, error: str | None):
        return {
            "schema": SCHEMA,
            "run_id": self.run_id,
            "status": status,
            "error": error,
            "meta": self.meta,
            "environment": environment_fingerprint(),
            "metrics": registry.state(),
        }

    def checkpoint(
        self,
        registry: MetricsRegistry,
        status: str = "partial",
        error: str | None = None,
    ) -> Path:
        """Crash-safe partial bundle: whatever telemetry exists right now.

        Never overwrites a finalized bundle (an engine ``finally`` running
        after the CLI already finalized must not regress the document).
        """
        if self.finalized:
            return self.path
        doc = self._base_doc(registry, status, error)
        doc.update(
            report=None,
            dependences=None,
            loops=None,
            coverage=None,
            heatmap=heatmap_summary(registry),
            rebalance_audit=[],
            provenance=None,
        )
        return write_atomic(self.path, doc)

    def finalize(
        self,
        registry: MetricsRegistry,
        report: "RunReport | None" = None,
        result: "ProfileResult | None" = None,
        info: Any = None,
        status: str = "ok",
        error: str | None = None,
    ) -> Path:
        """Write the full bundle; marks this ledger finalized."""
        doc = self._base_doc(registry, status, error)
        edges = dependence_edges(result) if result is not None else None
        doc.update(
            report=report.to_dict() if report is not None else None,
            dependences=(
                None
                if edges is None
                else {
                    "digest": dependence_digest(edges),
                    "n_edges": len(edges),
                    "edges": edges,
                }
            ),
            loops=loop_section(result) if result is not None else None,
            coverage=_coverage_section(report),
            heatmap=heatmap_summary(registry),
            rebalance_audit=(
                list(info.rebalance_audit)
                if info is not None and getattr(info, "rebalance_audit", None)
                else []
            ),
            provenance=_provenance_section(report),
        )
        path = write_atomic(self.path, doc)
        self.finalized = True
        return path


# -- readers ---------------------------------------------------------------


def load_bundle(ref: Path | str) -> dict[str, Any]:
    """Load and validate one bundle from a bundle file or a run directory."""
    p = Path(ref)
    if p.is_dir():
        p = p / BUNDLE_NAME
    if not p.is_file():
        raise ObsError(f"no run bundle at {p}")
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ObsError(f"corrupt run bundle {p}: {exc}") from exc
    if doc.get("schema") != SCHEMA:
        raise ObsError(
            f"{p}: schema {doc.get('schema')!r} is not {SCHEMA!r}"
        )
    return doc


def resolve_bundle(root: Path | str, ref: str) -> Path:
    """A diff operand: a run id under ``root``, or any bundle path."""
    candidate = Path(root) / ref / BUNDLE_NAME
    if candidate.is_file():
        return candidate
    p = Path(ref)
    if p.is_dir() and (p / BUNDLE_NAME).is_file():
        return p / BUNDLE_NAME
    if p.is_file():
        return p
    raise ObsError(
        f"run {ref!r} not found under ledger {root} (and not a bundle path)"
    )


def _entries(root: Path) -> list[tuple[float, int, Path]]:
    """(mtime, total bytes, run dir) per ledger entry, oldest first."""
    out = []
    if not root.is_dir():
        return out
    for d in root.iterdir():
        bundle = d / BUNDLE_NAME
        if not bundle.is_file():
            continue
        size = sum(f.stat().st_size for f in d.rglob("*") if f.is_file())
        out.append((bundle.stat().st_mtime, size, d))
    out.sort()
    return out


def list_runs(root: Path | str | None = None) -> list[dict[str, Any]]:
    """Summaries of every bundle under ``root``, newest first."""
    root = Path(root) if root is not None else default_ledger_dir()
    rows = []
    for mtime, size, d in reversed(_entries(root)):
        try:
            doc = load_bundle(d)
        except ObsError:
            continue
        meta = doc.get("meta") or {}
        deps = doc.get("dependences") or {}
        rows.append(
            {
                "run_id": doc.get("run_id", d.name),
                "status": doc.get("status", "?"),
                "workload": meta.get("workload"),
                "variant": meta.get("variant"),
                "mode": meta.get("mode"),
                "n_edges": deps.get("n_edges"),
                "digest": deps.get("digest"),
                "bytes": size,
                "mtime": mtime,
            }
        )
    return rows


def gc_ledger(
    root: Path | str | None = None,
    limit_bytes: int | None = None,
    keep: int | None = None,
) -> list[str]:
    """LRU prune: evict oldest-mtime bundles until the ledger fits.

    Same discipline as the on-disk trace cache's
    :func:`~repro.workloads.base.enforce_cache_limit` — oldest bundle mtime
    first, until total size is under ``limit_bytes`` and at most ``keep``
    entries remain.  With neither bound this is a no-op.  Returns the
    removed run ids.
    """
    root = Path(root) if root is not None else default_ledger_dir()
    if limit_bytes is None and keep is None:
        return []
    entries = _entries(root)  # oldest first
    total = sum(size for _, size, _ in entries)
    count = len(entries)
    removed: list[str] = []
    for _, size, d in entries:
        over_bytes = limit_bytes is not None and total > limit_bytes
        over_count = keep is not None and count > keep
        if not over_bytes and not over_count:
            break
        shutil.rmtree(d, ignore_errors=True)
        total -= size
        count -= 1
        removed.append(d.name)
    return removed


def bundle_summary(doc: dict[str, Any]) -> str:
    """Terminal rendering of one bundle (``ddprof runs show``)."""
    meta = doc.get("meta") or {}
    head = " ".join(f"{k}={v}" for k, v in meta.items() if v is not None)
    lines = [f"run {doc.get('run_id')} [{doc.get('status')}]" + (f" {head}" if head else "")]
    if doc.get("error"):
        lines.append(f"  error: {doc['error']}")
    env = doc.get("environment") or {}
    if env:
        lines.append(
            f"  environment: {str(env.get('git_sha', 'unknown'))[:12]} on "
            f"{env.get('cpus', '?')} cpus, python {env.get('python', '?')}"
        )
    deps = doc.get("dependences")
    if deps:
        lines.append(
            f"  dependences: {deps['n_edges']} edges, digest {deps['digest']}"
        )
    loops = doc.get("loops")
    if loops:
        verdicts: dict[str, int] = {}
        for row in loops:
            v = row.get("verdict") or "-"
            verdicts[v] = verdicts.get(v, 0) + 1
        pairs = ", ".join(f"{k}={v}" for k, v in sorted(verdicts.items()))
        lines.append(f"  loops: {len(loops)} profiled ({pairs})")
        for row in loops:
            lines.append(
                f"    {row['site']:<8s} {row.get('verdict') or '-':<11s}"
                f" x{row['executions']} ({row['total_iterations']} iters)"
            )
    cov = doc.get("coverage")
    if cov:
        lines.append(
            f"  coverage: fastpath {cov['fastpath_coverage'] * 100:.1f}% "
            f"({cov['events_fastpath']} fast / "
            f"{cov['events_interpreted']} interpreted)"
        )
    prov = doc.get("provenance")
    if prov:
        lines.append(
            f"  provenance: {prov['n_records']} records, "
            f"{prov['n_suspect']} suspect FPs"
        )
    audit = doc.get("rebalance_audit")
    if audit:
        lines.append(f"  rebalance audit: {len(audit)} rounds")
    return "\n".join(lines) + "\n"
