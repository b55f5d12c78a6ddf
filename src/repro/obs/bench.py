"""Benchmark telemetry — structured BENCH records and noise-aware comparison.

The paper's entire evaluation (§VI) is measured slowdown, memory, and
accuracy; this module makes the reproduction's own performance a first-class
observable instead of free-form ``.txt`` dumps.  Three pieces:

* :class:`BenchRecorder` — what every benchmark module reports into.  One
  recorder per *suite* accumulates metric records (median + MAD over
  repeats, unit, direction, warmup policy, optional floor/ceiling bounds)
  plus the structured rows behind the curated text tables, under one
  environment fingerprint (see :mod:`repro.obs.environment`).  It writes
  the canonical ``BENCH_<suite>.json`` file and appends a flattened line to
  the append-only ``benchmarks/history.jsonl`` trajectory.
* :func:`compare` — the noise-aware regression gate.  Each metric shared by
  a baseline and a current record is classified ``improved`` / ``neutral``
  / ``regressed`` using a relative threshold *or* a MAD band, whichever is
  wider, with the metric's declared direction deciding which sign is good.
  Benchmarks that appear/disappear between runs classify as ``added`` /
  ``removed`` (never a crash); non-finite values classify ``invalid``;
  declared floors/ceilings are enforced on the current value regardless of
  the baseline.  ``ddprof bench compare`` and the CI gate are thin shells
  over this function.
* :func:`repeat_timed` — the shared repeat/warmup timing helper
  (``time.perf_counter`` only), so recorded medians are comparable across
  benchmark modules instead of each one hand-rolling best-of-N loops.

Schema (``ddprof.bench/1``)::

    {
      "schema": "ddprof.bench/1",
      "suite": "seq",
      "environment": {git_sha, cpus, platform, python, numpy, timestamp},
      "benchmarks": {
        "<id>": {"unit": ..., "direction": "higher"|"lower",
                  "value": <median>, "mad": ..., "samples": [...],
                  "repeats": ..., "warmup": ..., "tolerance": ...,
                  "floor": ...|null, "ceiling": ...|null, "meta": {...}},
        ...
      },
      "tables": {"<name>": {"title": ..., "headers": [...], "rows": [[...]]}},
      "artifacts": ["<name>", ...]
    }

See ``docs/benchmarks.md`` for the catalog and the gate's decision rules.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.common.errors import ObsError
from repro.obs.environment import environment_fingerprint

SCHEMA = "ddprof.bench/1"

#: Default relative noise tolerance.  Wall-clock metrics on shared CI
#: runners jitter by double-digit percents; per-metric ``tolerance=``
#: overrides tighten this for deterministic quantities.
DEFAULT_TOLERANCE = 0.25

#: MAD band multiplier: |delta| within ``mad_factor * (base.mad + cur.mad)``
#: is noise even when it exceeds the relative tolerance.
DEFAULT_MAD_FACTOR = 4.0

DIRECTIONS = ("higher", "lower")


def classify_delta(
    base_value: float,
    cur_value: float,
    *,
    direction: str | None = "lower",
    tolerance: float | None = None,
    mad_factor: float = DEFAULT_MAD_FACTOR,
    base_mad: float = 0.0,
    cur_mad: float = 0.0,
) -> tuple[str, str]:
    """The noise-band classification shared by :func:`compare` and the
    run-ledger diff (:mod:`repro.obs.rundiff`).

    A delta is *neutral* when it fits inside
    ``max(tolerance * |base|, mad_factor * (base_mad + cur_mad))`` — the
    wider of the relative threshold and the measured noise band.  Outside
    the band, ``direction`` decides the verdict: ``"higher"``/``"lower"``
    yield ``improved``/``regressed``; ``None`` (no preferred direction,
    e.g. a raw run-report counter) yields ``changed``.  Returns
    ``(status, reason)``.
    """
    tol = DEFAULT_TOLERANCE if tolerance is None else tolerance
    band = max(tol * abs(base_value), mad_factor * (base_mad + cur_mad))
    delta = cur_value - base_value
    if abs(delta) <= band:
        return "neutral", f"within band ±{band:.4g}"
    rel = delta / base_value if base_value else math.inf
    why = f"{rel:+.1%} vs band ±{band:.4g}"
    if direction not in DIRECTIONS:
        return "changed", why
    better = delta > 0 if direction == "higher" else delta < 0
    return ("improved" if better else "regressed"), why


def _median(xs: Sequence[float]) -> float:
    s = sorted(xs)
    n = len(s)
    mid = n // 2
    return float(s[mid]) if n % 2 else (s[mid - 1] + s[mid]) / 2.0


def _mad(xs: Sequence[float], center: float) -> float:
    """Median absolute deviation around ``center`` (0.0 for < 2 samples)."""
    if len(xs) < 2:
        return 0.0
    return _median([abs(x - center) for x in xs])


def _jsonable(value: Any) -> Any:
    """Make numpy scalars / arrays JSON-serializable (tables carry them)."""
    if hasattr(value, "item") and not isinstance(value, (str, bytes)):
        try:
            return value.item()
        except (ValueError, TypeError):
            pass
    if hasattr(value, "tolist"):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return value


@dataclass
class TimedSamples:
    """Result of :func:`repeat_timed`: per-repeat wall seconds plus each
    call's return value (so callers can derive throughputs or check
    outputs without re-running)."""

    seconds: list[float]
    results: list[Any]

    @property
    def median(self) -> float:
        return _median(self.seconds)

    @property
    def best(self) -> float:
        return min(self.seconds)

    @property
    def last(self) -> Any:
        return self.results[-1]


def repeat_timed(
    fn: Callable[[], Any], *, repeats: int = 3, warmup: int = 1
) -> TimedSamples:
    """The shared repeat/warmup policy: call ``fn`` ``warmup`` times
    untimed, then ``repeats`` times under ``time.perf_counter``."""
    if repeats < 1:
        raise ObsError(f"repeat_timed needs repeats >= 1, got {repeats}")
    for _ in range(warmup):
        fn()
    seconds: list[float] = []
    results: list[Any] = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        results.append(fn())
        seconds.append(time.perf_counter() - t0)
    return TimedSamples(seconds, results)


@dataclass
class MetricRecord:
    """One benchmark metric: a median over repeats plus its noise model."""

    id: str
    value: float
    unit: str = ""
    direction: str = "lower"
    mad: float = 0.0
    samples: list[float] = field(default_factory=list)
    repeats: int = 1
    warmup: int = 0
    tolerance: float | None = None
    floor: float | None = None
    ceiling: float | None = None
    meta: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "unit": self.unit,
            "direction": self.direction,
            "value": _jsonable(self.value),
            "mad": _jsonable(self.mad),
            "samples": _jsonable(self.samples),
            "repeats": self.repeats,
            "warmup": self.warmup,
            "tolerance": self.tolerance,
            "floor": self.floor,
            "ceiling": self.ceiling,
            "meta": _jsonable(self.meta),
        }

    @classmethod
    def from_dict(cls, bench_id: str, d: dict[str, Any]) -> "MetricRecord":
        return cls(
            id=bench_id,
            value=d.get("value", float("nan")),
            unit=d.get("unit", ""),
            direction=d.get("direction", "lower"),
            mad=d.get("mad", 0.0),
            samples=list(d.get("samples") or []),
            repeats=d.get("repeats", 1),
            warmup=d.get("warmup", 0),
            tolerance=d.get("tolerance"),
            floor=d.get("floor"),
            ceiling=d.get("ceiling"),
            meta=dict(d.get("meta") or {}),
        )


class BenchRecorder:
    """Accumulates one suite's structured benchmark record.

    ``results_dir`` (optional) is where curated text renderings land —
    :meth:`table` and :meth:`text` write there *and* keep the structured
    rows in the record, so the checked-in tables are a rendering of the
    JSON, not a second source of truth.
    """

    def __init__(
        self,
        suite: str,
        *,
        environment: dict[str, Any] | None = None,
        results_dir: Path | str | None = None,
        echo: bool = False,
    ) -> None:
        if not suite or any(c in suite for c in "/\\ "):
            raise ObsError(f"invalid bench suite name: {suite!r}")
        self.suite = suite
        self.environment = (
            dict(environment) if environment is not None else environment_fingerprint()
        )
        self.results_dir = Path(results_dir) if results_dir else None
        self.echo = echo
        self.metrics: dict[str, MetricRecord] = {}
        self.tables: dict[str, dict[str, Any]] = {}
        self.artifacts: list[str] = []

    # -- recording ------------------------------------------------------------
    def record(
        self,
        bench_id: str,
        value: float | None = None,
        *,
        samples: Sequence[float] | None = None,
        unit: str = "",
        direction: str = "lower",
        warmup: int = 0,
        tolerance: float | None = None,
        floor: float | None = None,
        ceiling: float | None = None,
        **meta: Any,
    ) -> MetricRecord:
        """Record one metric: either a scalar ``value`` or ``samples``
        (median + MAD are computed here — the canonical aggregation)."""
        if direction not in DIRECTIONS:
            raise ObsError(
                f"direction must be one of {DIRECTIONS}, got {direction!r}"
            )
        if (value is None) == (samples is None):
            raise ObsError(
                f"record({bench_id!r}) needs exactly one of value= or samples="
            )
        if bench_id in self.metrics:
            raise ObsError(f"duplicate bench id {bench_id!r} in suite {self.suite!r}")
        if samples is not None:
            if not len(samples):
                raise ObsError(f"record({bench_id!r}): empty samples")
            xs = [float(x) for x in samples]
            med = _median(xs)
            rec = MetricRecord(
                id=bench_id, value=med, mad=_mad(xs, med), samples=xs,
                repeats=len(xs), unit=unit, direction=direction, warmup=warmup,
                tolerance=tolerance, floor=floor, ceiling=ceiling, meta=meta,
            )
        else:
            rec = MetricRecord(
                id=bench_id, value=float(value), unit=unit, direction=direction,
                warmup=warmup, tolerance=tolerance, floor=floor, ceiling=ceiling,
                meta=meta,
            )
        self.metrics[bench_id] = rec
        return rec

    def measure(
        self,
        bench_id: str,
        fn: Callable[[], Any],
        *,
        repeats: int = 3,
        warmup: int = 1,
        unit: str = "seconds",
        direction: str = "lower",
        **kwargs: Any,
    ) -> tuple[MetricRecord, TimedSamples]:
        """Time ``fn`` under the shared repeat/warmup policy and record the
        per-repeat seconds as this metric's samples."""
        timed = repeat_timed(fn, repeats=repeats, warmup=warmup)
        rec = self.record(
            bench_id, samples=timed.seconds, unit=unit, direction=direction,
            warmup=warmup, **kwargs,
        )
        return rec, timed

    def record_run_report(self, report: Any, prefix: str) -> list[MetricRecord]:
        """Fold a :class:`~repro.obs.report.RunReport`'s pipeline health
        numbers (producer fast-path share, load imbalance)
        into this suite so they ride the same regression gate."""
        out: list[MetricRecord] = []
        producer = report.producer_summary()
        if producer is not None and producer["events_total"]:
            out.append(
                self.record(
                    f"{prefix}.producer_fastpath_fraction",
                    producer["fastpath_fraction"],
                    unit="fraction", direction="higher", tolerance=0.02,
                )
            )
        if report.parallel:
            out.append(
                self.record(
                    f"{prefix}.access_imbalance",
                    report.parallel["access_imbalance"],
                    unit="max/mean", direction="lower", tolerance=0.05,
                )
            )
        return out

    # -- curated renderings ---------------------------------------------------
    def _write_artifact(self, name: str, text: str) -> Path | None:
        if self.echo:
            print(f"\n=== {name} ===\n{text}")
        if self.results_dir is None:
            return None
        self.results_dir.mkdir(exist_ok=True)
        path = self.results_dir / name
        path.write_text(text)
        return path

    def table(
        self,
        name: str,
        headers: Sequence[str],
        rows: Sequence[Sequence[Any]],
        *,
        title: str | None = None,
        csv: bool = False,
    ) -> None:
        """Keep a table's structured rows and render the curated ``.txt``
        (and optional ``.csv``) from them."""
        from repro.report import ascii_table, csv_lines

        self.tables[name] = {
            "title": title,
            "headers": list(headers),
            "rows": [_jsonable(list(r)) for r in rows],
        }
        self._write_artifact(f"{name}.txt", ascii_table(headers, rows, title=title))
        self.artifacts.append(f"{name}.txt")
        if csv:
            self._write_artifact(f"{name}.csv", csv_lines(headers, rows))
            self.artifacts.append(f"{name}.csv")

    def text(self, name: str, text: str) -> None:
        """Free-form curated artifact (matrices, bar charts) — rendered
        output only; its name is kept in the record for traceability."""
        self._write_artifact(name, text)
        self.artifacts.append(name)

    # -- serialization --------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": SCHEMA,
            "suite": self.suite,
            "environment": self.environment,
            "benchmarks": {k: m.to_dict() for k, m in sorted(self.metrics.items())},
            "tables": self.tables,
            "artifacts": self.artifacts,
        }

    def write(self, path: Path | str) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return path

    def append_history(self, path: Path | str) -> None:
        """One flattened line per suite-run in the append-only trajectory."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        line = {
            "schema": SCHEMA,
            "suite": self.suite,
            "environment": self.environment,
            "metrics": {k: _jsonable(m.value) for k, m in sorted(self.metrics.items())},
        }
        with path.open("a") as f:
            f.write(json.dumps(line, sort_keys=True) + "\n")


def load_bench(source: Path | str | dict[str, Any]) -> dict[str, Any]:
    """Load and validate one ``BENCH_<suite>.json`` document."""
    if isinstance(source, dict):
        doc = source
        where = "<dict>"
    else:
        where = str(source)
        try:
            doc = json.loads(Path(source).read_text())
        except FileNotFoundError:
            raise ObsError(f"bench record not found: {where}") from None
        except json.JSONDecodeError as e:
            raise ObsError(f"bench record {where} is not valid JSON: {e}") from None
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
        raise ObsError(
            f"bench record {where}: schema "
            f"{doc.get('schema') if isinstance(doc, dict) else type(doc).__name__!s}"
            f" does not match {SCHEMA!r} — regenerate the baseline with this "
            f"version of ddprof"
        )
    return doc


def _records_of(source: Any) -> tuple[dict[str, MetricRecord], dict[str, Any]]:
    if isinstance(source, BenchRecorder):
        return dict(source.metrics), source.environment
    doc = load_bench(source)
    recs = {
        k: MetricRecord.from_dict(k, d)
        for k, d in (doc.get("benchmarks") or {}).items()
    }
    return recs, doc.get("environment", {})


@dataclass
class MetricComparison:
    """Verdict for one metric: baseline vs current."""

    id: str
    status: str  # improved | neutral | regressed | added | removed | invalid
    reason: str
    base: float | None = None
    current: float | None = None
    unit: str = ""
    direction: str = "lower"

    @property
    def ratio(self) -> float | None:
        if self.base is None or self.current is None or not self.base:
            return None
        return self.current / self.base


@dataclass
class BenchComparison:
    """All metric verdicts for one suite pair, plus the two environments."""

    suite: str
    results: list[MetricComparison]
    baseline_env: dict[str, Any] = field(default_factory=dict)
    current_env: dict[str, Any] = field(default_factory=dict)

    def of_status(self, status: str) -> list[MetricComparison]:
        return [r for r in self.results if r.status == status]

    @property
    def regressions(self) -> list[MetricComparison]:
        return [r for r in self.results if r.status in ("regressed", "invalid")]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": "ddprof.bench-compare/1",
            "suite": self.suite,
            "ok": self.ok,
            "baseline_env": self.baseline_env,
            "current_env": self.current_env,
            "results": [
                {
                    "id": r.id,
                    "status": r.status,
                    "reason": r.reason,
                    "base": _jsonable(r.base),
                    "current": _jsonable(r.current),
                    "ratio": _jsonable(r.ratio),
                    "unit": r.unit,
                    "direction": r.direction,
                }
                for r in self.results
            ],
        }

    def render(self) -> str:
        from repro.report import ascii_table

        rows = []
        for r in sorted(self.results, key=lambda r: (r.status != "regressed", r.id)):
            rows.append(
                [
                    r.id,
                    "-" if r.base is None else r.base,
                    "-" if r.current is None else r.current,
                    "-" if r.ratio is None else f"{r.ratio:.3f}x",
                    r.unit,
                    r.status.upper() if r.status in ("regressed", "invalid") else r.status,
                    r.reason,
                ]
            )
        counts = {}
        for r in self.results:
            counts[r.status] = counts.get(r.status, 0) + 1
        summary = ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
        verdict = "OK" if self.ok else "REGRESSED"
        table = ascii_table(
            ["benchmark", "baseline", "current", "ratio", "unit", "status", "why"],
            rows,
            title=f"bench compare [{self.suite}] — {verdict} ({summary})",
        )
        env_note = ""
        b_sha = self.baseline_env.get("git_sha")
        c_sha = self.current_env.get("git_sha")
        if b_sha and c_sha:
            env_note = f"baseline {b_sha[:12]} -> current {c_sha[:12]}\n"
        return table + env_note


def _bounds_violation(rec: MetricRecord, base: MetricRecord | None) -> str | None:
    floor = rec.floor if rec.floor is not None else (base.floor if base else None)
    ceiling = rec.ceiling if rec.ceiling is not None else (
        base.ceiling if base else None
    )
    if floor is not None and rec.value < floor:
        return f"value {rec.value:.4g} below declared floor {floor:.4g}"
    if ceiling is not None and rec.value > ceiling:
        return f"value {rec.value:.4g} above declared ceiling {ceiling:.4g}"
    return None


def compare(
    baseline: Any,
    current: Any,
    *,
    tolerance: float | None = None,
    mad_factor: float = DEFAULT_MAD_FACTOR,
    suite: str | None = None,
) -> BenchComparison:
    """Noise-aware comparison of two bench records.

    ``baseline`` / ``current`` accept a path, a loaded dict, or a
    :class:`BenchRecorder`.  A metric is *neutral* when ``|current - base|``
    fits inside ``max(tol * |base|, mad_factor * (base.mad + cur.mad))`` —
    the wider of the relative threshold and the measured noise band — and
    *improved* / *regressed* by its declared direction otherwise.
    """
    base_recs, base_env = _records_of(baseline)
    cur_recs, cur_env = _records_of(current)
    if suite is None:
        for src in (current, baseline):
            if isinstance(src, BenchRecorder):
                suite = src.suite
                break
        else:
            doc = load_bench(current) if not isinstance(current, dict) else current
            suite = doc.get("suite", "?")

    results: list[MetricComparison] = []
    for bench_id in sorted(set(base_recs) | set(cur_recs)):
        base = base_recs.get(bench_id)
        cur = cur_recs.get(bench_id)
        if cur is None:
            results.append(
                MetricComparison(
                    bench_id, "removed", "present in baseline only",
                    base=base.value, unit=base.unit, direction=base.direction,
                )
            )
            continue
        if not math.isfinite(cur.value):
            results.append(
                MetricComparison(
                    bench_id, "invalid", f"non-finite current value {cur.value}",
                    base=None if base is None else base.value,
                    current=cur.value, unit=cur.unit, direction=cur.direction,
                )
            )
            continue
        violation = _bounds_violation(cur, base)
        if violation is not None:
            results.append(
                MetricComparison(
                    bench_id, "regressed", violation,
                    base=None if base is None else base.value,
                    current=cur.value, unit=cur.unit, direction=cur.direction,
                )
            )
            continue
        if base is None or not math.isfinite(base.value):
            why = (
                "new benchmark"
                if base is None
                else f"non-finite baseline value {base.value}"
            )
            results.append(
                MetricComparison(
                    bench_id, "added", why, current=cur.value,
                    unit=cur.unit, direction=cur.direction,
                )
            )
            continue
        tol = tolerance
        if tol is None:
            tol = cur.tolerance if cur.tolerance is not None else base.tolerance
        status, why = classify_delta(
            base.value,
            cur.value,
            direction=cur.direction,
            tolerance=tol,
            mad_factor=mad_factor,
            base_mad=base.mad,
            cur_mad=cur.mad,
        )
        results.append(
            MetricComparison(
                bench_id, status, why, base=base.value, current=cur.value,
                unit=cur.unit, direction=cur.direction,
            )
        )
    return BenchComparison(
        suite=suite or "?", results=results,
        baseline_env=base_env, current_env=cur_env,
    )


class BenchSession:
    """One benchmark run's recorders, flushed together.

    The conftest owns one per pytest session; ``ddprof bench run`` owns one
    per invocation.  All recorders share a single injected timestamp and
    git SHA, write ``BENCH_<suite>.json`` into ``out_dir`` and append to
    ``history_path`` on :meth:`finish`.
    """

    def __init__(
        self,
        out_dir: Path | str,
        *,
        results_dir: Path | str | None = None,
        history_path: Path | str | None = None,
        timestamp: str | None = None,
        sha: str | None = None,
        echo: bool = False,
    ) -> None:
        self.out_dir = Path(out_dir)
        self.results_dir = Path(results_dir) if results_dir else None
        self.history_path = Path(history_path) if history_path else None
        self.environment = environment_fingerprint(timestamp=timestamp, sha=sha)
        self.echo = echo
        self._recorders: dict[str, BenchRecorder] = {}

    def recorder(self, suite: str) -> BenchRecorder:
        if suite not in self._recorders:
            self._recorders[suite] = BenchRecorder(
                suite,
                environment=self.environment,
                results_dir=self.results_dir,
                echo=self.echo,
            )
        return self._recorders[suite]

    @property
    def suites(self) -> list[str]:
        return sorted(self._recorders)

    def finish(self) -> list[Path]:
        """Write every suite's ``BENCH_<suite>.json`` + history line."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        written: list[Path] = []
        for suite in self.suites:
            rec = self._recorders[suite]
            if not rec.metrics and not rec.tables and not rec.artifacts:
                continue
            written.append(rec.write(self.out_dir / f"BENCH_{suite}.json"))
            if self.history_path is not None:
                rec.append_history(self.history_path)
        return written
