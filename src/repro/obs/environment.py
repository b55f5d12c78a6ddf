"""Environment fingerprint — the provenance header every recorded number carries.

Both the structured run report (:mod:`repro.obs.report`) and the benchmark
recorder (:mod:`repro.obs.bench`) attach the same fingerprint, built by the
same function, so the two can never drift: a ``BENCH_*.json`` suite file and
a ``ddprof stats --json`` report from the same machine and commit agree on
every environment key.

The timestamp is *injected, not sampled*: callers that own a "run" (the
benchmark session, a CLI invocation) take one stamp at the start and pass it
to every fingerprint they build, so all records of one run share it and a
fingerprint is reproducible in tests.  The git SHA can likewise be injected
(``DDPROF_GIT_SHA`` wins, for CI checkouts without a ``.git``); otherwise it
is read once per process from ``git rev-parse``.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from typing import Any

_GIT_SHA_CACHE: dict[str, str] = {}


def peak_rss_bytes() -> int:
    """High-water resident-set size of *this* process, in bytes.

    ``getrusage`` reports ``ru_maxrss`` in KiB on Linux but bytes on macOS;
    normalize so the ``process.peak_rss_bytes`` gauge means the same thing
    everywhere.  Returns 0 where the ``resource`` module is unavailable.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platforms
        return 0
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return int(rss) if sys.platform == "darwin" else int(rss) * 1024


def process_usage() -> tuple[float, float, int]:
    """User CPU seconds, system CPU seconds and minor page faults of *this*
    process so far (``getrusage``); zeros where the ``resource`` module is
    unavailable.  A forked child starts from zero."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platforms
        return 0.0, 0.0, 0
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime, ru.ru_stime, int(ru.ru_minflt)


def publish_process_usage(
    registry: Any, since: tuple[float, float, int] = (0.0, 0.0, 0), **labels: Any
) -> None:
    """Set ``process.cpu_seconds{kind="user"|"sys"}`` and
    ``process.minor_faults`` in ``registry`` to this process's usage since
    ``since`` (an earlier :func:`process_usage`; default: its whole life)."""
    user, system, faults = (
        now - then for now, then in zip(process_usage(), since)
    )
    registry.gauge("process.cpu_seconds", kind="user", **labels).set(user)
    registry.gauge("process.cpu_seconds", kind="sys", **labels).set(system)
    registry.gauge("process.minor_faults", **labels).set(faults)


def git_sha(repo_dir: str | None = None) -> str:
    """Current commit SHA: ``DDPROF_GIT_SHA`` env override, else ``git
    rev-parse HEAD`` in ``repo_dir`` (default: cwd), else ``"unknown"``."""
    injected = os.environ.get("DDPROF_GIT_SHA")
    if injected:
        return injected
    key = repo_dir or os.getcwd()
    if key not in _GIT_SHA_CACHE:
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=key,
                capture_output=True,
                text=True,
                timeout=10,
            )
            sha = out.stdout.strip() if out.returncode == 0 else ""
        except (OSError, subprocess.SubprocessError):
            sha = ""
        _GIT_SHA_CACHE[key] = sha or "unknown"
    return _GIT_SHA_CACHE[key]


def environment_fingerprint(
    *,
    timestamp: str | None = None,
    sha: str | None = None,
    repo_dir: str | None = None,
) -> dict[str, Any]:
    """The provenance block shared by run reports and bench records.

    ``timestamp`` is stored verbatim when given (ISO-8601 by convention) and
    omitted when not — this function never samples a clock itself.
    """
    try:
        import numpy

        numpy_version = numpy.__version__
    except Exception:  # pragma: no cover - numpy is a hard dependency
        numpy_version = "unavailable"
    env: dict[str, Any] = {
        "git_sha": sha if sha is not None else git_sha(repo_dir),
        "cpus": os.cpu_count() or 1,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "python_impl": platform.python_implementation(),
        "numpy": numpy_version,
        "executable": sys.executable,
    }
    if timestamp is not None:
        env["timestamp"] = timestamp
    return env
