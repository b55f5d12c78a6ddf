"""Prometheus-style text exposition of a :class:`MetricsRegistry`.

``prometheus_text`` renders the classic text format (``# TYPE`` headers,
``name{label="v"} value`` samples, cumulative ``_bucket``/``_sum``/
``_count`` histogram series); ``parse_prometheus`` reads it back into a
flat ``{sample_name: value}`` dict so tests (and scrapers without a real
Prometheus) can round-trip the export.

Metric names use dots internally (``worker.chunks``); the exporter
maps every non ``[a-zA-Z0-9_:]`` character to ``_`` per the Prometheus
naming rules, prefixed with ``ddprof_``.

Label *names* are validated too (``[a-zA-Z_][a-zA-Z0-9_]*``; values only
need escaping, names must match the grammar or the scrape fails).  The
``invalid_names`` policy picks between ``"sanitize"`` (map offending
characters to ``_``, prefix a leading digit — but refuse a sanitization
that collides with another label of the same metric, which would silently
merge two series) and ``"error"`` (raise
:class:`~repro.common.errors.ObsError` at export time, for callers that
prefer loud schema drift).
"""

from __future__ import annotations

import re
from typing import Any

from repro.common.errors import ObsError
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry, format_name

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
_LABEL_SANITIZE_RE = re.compile(r"[^a-zA-Z0-9_]")
# The label section may contain '}' and ',' inside quoted values, so it is
# matched as a sequence of non-quote/non-brace runs and full quoted strings
# (with backslash escapes) rather than a naive [^}]*.
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r'(?:\{(?P<labels>(?:[^"}]|"(?:[^"\\]|\\.)*")*)\})?\s+(?P<value>[^\s]+)$'
)

PREFIX = "ddprof_"


def _prom_name(name: str) -> str:
    return PREFIX + _NAME_RE.sub("_", name)


def sanitize_label_name(name: str) -> str:
    """Coerce ``name`` into the Prometheus label grammar.

    Invalid characters become ``_``; a leading digit (or empty result) gets
    a ``_`` prefix.  Idempotent, so already-valid names pass through.
    """
    out = _LABEL_SANITIZE_RE.sub("_", name)
    if not out or out[0].isdigit():
        out = "_" + out
    return out


def _safe_labels(
    labels: tuple[tuple[str, str], ...], policy: str, where: str
) -> tuple[tuple[str, str], ...]:
    """Apply the ``invalid_names`` policy to one metric's label names."""
    if all(_LABEL_NAME_RE.match(k) for k, _ in labels):
        return labels
    if policy == "error":
        bad = [k for k, _ in labels if not _LABEL_NAME_RE.match(k)]
        raise ObsError(
            f"metric {where}: label name(s) {bad} are not valid Prometheus "
            "label names ([a-zA-Z_][a-zA-Z0-9_]*)"
        )
    out = tuple((sanitize_label_name(k), v) for k, v in labels)
    seen = [k for k, _ in out]
    if len(set(seen)) != len(seen):
        dupes = sorted({k for k in seen if seen.count(k) > 1})
        raise ObsError(
            f"metric {where}: sanitizing label names collides on {dupes} "
            "(two labels would merge into one series)"
        )
    return out


def escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text-exposition spec:
    backslash, double-quote, and line-feed become ``\\\\``, ``\\"``,
    ``\\n``."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _labels_text(labels: tuple[tuple[str, str], ...], extra: str = "") -> str:
    parts = [f'{k}="{escape_label_value(v)}"' for k, v in labels]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _fmt_value(v: float) -> str:
    if isinstance(v, int) or float(v).is_integer():
        return str(int(v))
    return repr(float(v))


def prometheus_text(
    registry: MetricsRegistry, invalid_names: str = "sanitize"
) -> str:
    """Render every instrument in the Prometheus text exposition format.

    ``invalid_names`` governs label names outside the Prometheus grammar:
    ``"sanitize"`` (default) rewrites them via :func:`sanitize_label_name`,
    ``"error"`` raises :class:`~repro.common.errors.ObsError`.  Either way
    a sanitization *collision* (two labels mapping to one name) always
    raises — that would silently merge distinct series.
    """
    if invalid_names not in ("sanitize", "error"):
        raise ValueError(
            f"invalid_names must be 'sanitize' or 'error', got {invalid_names!r}"
        )
    # Group by family so each # TYPE header appears once.
    families: dict[str, tuple[str, list[Any]]] = {}
    for m in registry:
        kind = (
            "counter"
            if isinstance(m, Counter)
            else "gauge" if isinstance(m, Gauge) else "histogram"
        )
        families.setdefault(m.name, (kind, []))[1].append(m)

    lines: list[str] = []
    for name in sorted(families):
        kind, members = families[name]
        pname = _prom_name(name)
        lines.append(f"# TYPE {pname} {kind}")
        for m in sorted(members, key=lambda m: m.labels):
            labels = _safe_labels(
                m.labels, invalid_names, format_name(m.name, m.labels)
            )
            if isinstance(m, Histogram):
                cum = 0
                for ub, c in zip(m.buckets, m.counts):
                    cum += c
                    le = 'le="%s"' % _fmt_value(ub)
                    lines.append(
                        f"{pname}_bucket{_labels_text(labels, le)} {cum}"
                    )
                cum += m.counts[-1]
                inf = 'le="+Inf"'
                lines.append(
                    f"{pname}_bucket{_labels_text(labels, inf)} {cum}"
                )
                lines.append(
                    f"{pname}_sum{_labels_text(labels)} {_fmt_value(m.sum)}"
                )
                lines.append(f"{pname}_count{_labels_text(labels)} {m.count}")
            else:
                lines.append(
                    f"{pname}{_labels_text(labels)} {_fmt_value(m.value)}"
                )
    return "\n".join(lines) + "\n" if lines else ""


def parse_prometheus(text: str) -> dict[str, float]:
    """Parse exposition text into ``{'name{labels}': value}`` (round-trip)."""
    out: dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        m = _SAMPLE_RE.match(line)
        if m is None:
            raise ValueError(f"unparseable sample line: {line!r}")
        labels = m.group("labels")
        key = m.group("name") + (f"{{{labels}}}" if labels else "")
        out[key] = float(m.group("value"))
    return out
