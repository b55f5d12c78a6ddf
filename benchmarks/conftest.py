"""Shared fixtures for the experiment harness.

Every module regenerates one table or figure of the paper (see DESIGN.md's
per-experiment index) and reports its measured numbers into the structured
benchmark record: the session-scoped :class:`~repro.obs.bench.BenchSession`
writes one schema-versioned ``BENCH_<suite>.json`` per suite at the repo
root (gitignored — the committed baselines live in ``benchmarks/baseline/``)
and appends each run to the ``benchmarks/history.jsonl`` trajectory.  The
curated ``.txt``/``.csv`` tables under ``benchmarks/results/`` are rendered
*from* those structured records via :meth:`BenchRecorder.table`, never
written as a separate source of truth; volatile wall-clock artifacts stay
out of git entirely (see ``.gitignore``).

Traces are produced once per session through the workload trace cache, so
the timed portions measure profiling, not target execution — the same
separation the paper's overhead numbers use.  All timing goes through
:func:`repro.obs.bench.repeat_timed` (``time.perf_counter`` + a shared
warmup/repeat policy) so recorded medians are comparable across modules.

Environment knobs (used by ``ddprof bench run``):

* ``DDPROF_BENCH_OUT`` — directory for the ``BENCH_*.json`` files
  (default: the repo root);
* ``DDPROF_BENCH_TS`` — injected ISO timestamp shared by every record of
  the run (default: sampled once at session start, then injected).
"""

from __future__ import annotations

import datetime
import os
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).parent
ROOT = BENCHMARKS.parent
RESULTS = BENCHMARKS / "results"


def _suite_of(module_file: str) -> str:
    """This module's suite, from the same table ``ddprof bench run`` uses."""
    from repro.cli import BENCH_SUITES

    name = Path(module_file).name
    for suite, modules in BENCH_SUITES.items():
        if name in modules:
            return suite
    raise LookupError(
        f"{name} is not assigned to a bench suite — add it to "
        f"repro.cli.BENCH_SUITES"
    )


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS.mkdir(exist_ok=True)
    return RESULTS


@pytest.fixture(scope="session")
def bench_session():
    """One structured benchmark record per suite, flushed at session end."""
    from repro.obs import BenchSession

    out_dir = Path(os.environ.get("DDPROF_BENCH_OUT", ROOT))
    ts = os.environ.get("DDPROF_BENCH_TS") or datetime.datetime.now(
        datetime.timezone.utc
    ).isoformat(timespec="seconds")
    session = BenchSession(
        out_dir,
        results_dir=RESULTS,
        history_path=BENCHMARKS / "history.jsonl",
        timestamp=ts,
        echo=True,
    )
    yield session
    for path in session.finish():
        print(f"\nwrote {path}")


@pytest.fixture
def bench_record(bench_session, request):
    """The requesting module's suite recorder.

    ``bench_record.record(id, ...)`` / ``.measure(id, fn, ...)`` add
    metrics; ``.table(name, headers, rows, csv=True)`` keeps the structured
    rows *and* renders the curated ``benchmarks/results/<name>.txt``/
    ``.csv``; ``.text(name, text)`` writes free-form curated artifacts
    (matrices, bar charts).  Everything is echoed to stdout.
    """
    return bench_session.recorder(_suite_of(request.module.__file__))


@pytest.fixture
def metrics_registry(tmp_path, request):
    """A metrics registry writing its telemetry stream to a throwaway file.

    Pass it as ``registry=`` to any profiler; the stream (registry deltas
    at the default cadence plus sample/rebalance records, closed by a
    ``final`` snapshot) goes to ``<tmp_path>/<test_name>.metrics.jsonl``.
    Tests that need the stream read it back via ``reg.sink.path``; nothing
    lands in ``benchmarks/results/`` (checked-in artifacts are the curated
    ``*.txt`` / ``*.csv`` tables only).
    """
    from repro.obs import MetricsRegistry, TelemetryStreamer

    path = tmp_path / f"{request.node.name}.metrics.jsonl"
    reg = MetricsRegistry()
    with TelemetryStreamer(reg, path):
        yield reg


@pytest.fixture(scope="session")
def starbench_names():
    from repro.workloads import workload_names

    return workload_names("starbench")


@pytest.fixture(scope="session")
def nas_names():
    from repro.workloads import workload_names

    return workload_names("nas")


@pytest.fixture(scope="session")
def all_seq_names(nas_names, starbench_names):
    return nas_names + starbench_names
