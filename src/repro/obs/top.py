"""``ddprof top`` — a live terminal view of a running profile.

Polls the in-process HTTP exporter (:mod:`repro.obs.httpd`) — ``/snapshot``
for the instrument values and ``/heatmap`` for the memory plane — and
renders one self-contained frame per interval: per-worker throughput,
signature fill, heartbeat verdicts, and the hottest address buckets
as a bar chart.  Pure functions throughout: :func:`render_top` maps the two
JSON documents to a string, so tests exercise the rendering without a
socket, and the CLI loop is a trivial fetch/clear/print cycle.

Works against any exporter the ``--serve`` flag of a pipeline run started;
nothing here imports the profiler itself.
"""

from __future__ import annotations

import json
import re
import sys
import time
import urllib.error
import urllib.request
from typing import Any

#: ``name{k="v",...}`` display-name form produced by the registry snapshot.
_NAME_RE = re.compile(r'^(?P<name>[^{]+)(?:\{(?P<labels>.*)\})?$')
_LABEL_RE = re.compile(r'(\w+)="([^"]*)"')

_HEARTBEAT_STATES = ("live", "stalled", "dead")

#: Eight-step unicode bar used for the heat chart.
_BAR = " ▏▎▍▌▋▊▉█"


def parse_metric_name(full: str) -> tuple[str, dict[str, str]]:
    """Split a snapshot display name into ``(name, labels)``."""
    m = _NAME_RE.match(full)
    if m is None:  # pragma: no cover - the registry never emits this
        return full, {}
    labels = dict(_LABEL_RE.findall(m.group("labels") or ""))
    return m.group("name"), labels


def _family(values: dict[str, Any], name: str) -> dict[tuple[str, ...], float]:
    """All series of one metric family, keyed by sorted label values."""
    out: dict[tuple[str, ...], float] = {}
    for full, v in values.items():
        n, labels = parse_metric_name(full)
        if n == name:
            out[tuple(labels[k] for k in sorted(labels))] = v
    return out


def _by_worker(values: dict[str, Any], name: str) -> dict[str, float]:
    out: dict[str, float] = {}
    for full, v in values.items():
        n, labels = parse_metric_name(full)
        if n == name and "worker" in labels:
            out[labels["worker"]] = v
    return out


def fetch(url: str, timeout: float = 2.0) -> dict[str, Any]:
    """GET one JSON document from the exporter."""
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return json.loads(resp.read().decode("utf-8"))


def _bar(value: float, peak: float, width: int = 24) -> str:
    if peak <= 0:
        return " " * width
    frac = min(value / peak, 1.0) * width
    full, rem = int(frac), frac - int(frac)
    tail = _BAR[int(rem * (len(_BAR) - 1))] if full < width else ""
    return (("█" * full) + tail).ljust(width)


def _fmt_count(v: float) -> str:
    v = int(v)
    if v >= 10_000_000:
        return f"{v / 1e6:.0f}M"
    if v >= 10_000:
        return f"{v / 1e3:.0f}k"
    return str(v)


def _fmt_range(lo: int, hi: int | None) -> str:
    def one(x: int) -> str:
        if x >= 1 << 30:
            return f"2^{x.bit_length() - 1}"
        return str(x)

    return f"[{one(lo)}, {one(hi) if hi is not None else 'inf'}]"


def render_top(
    snapshot: dict[str, Any], heatmap: dict[str, Any] | None = None
) -> str:
    """Render one frame from ``/snapshot`` (+ optional ``/heatmap``) JSON."""
    counters = snapshot.get("counters", {})
    gauges = snapshot.get("gauges", {})
    lines: list[str] = []

    run_id = snapshot.get("run_id") or "?"
    chunks = sum(_family(counters, "pipeline.chunks").values())
    lines.append(f"ddprof top — run {run_id}  ({int(chunks)} chunks)")

    accesses = _by_worker(counters, "worker.accesses")
    wchunks = _by_worker(counters, "worker.chunks")
    hb_state = _by_worker(gauges, "worker.heartbeat.state")
    rss = _by_worker(gauges, "process.peak_rss_bytes")
    fill: dict[str, float] = {}
    for full, v in gauges.items():
        n, labels = parse_metric_name(full)
        if n == "sigmem.fill_ratio" and "worker" in labels:
            w = labels["worker"]
            fill[w] = max(fill.get(w, 0.0), v)

    heat_workers = (heatmap or {}).get("workers", {})
    workers = sorted(
        set(accesses) | set(wchunks) | set(hb_state) | set(heat_workers),
        key=lambda w: (len(w), w),
    )
    if workers:
        lines.append(
            "  worker   accesses   chunks   fill    state      heat r/w"
        )
        for w in workers:
            code = int(hb_state.get(w, -1))
            state = (
                _HEARTBEAT_STATES[code]
                if 0 <= code < len(_HEARTBEAT_STATES)
                else "-"
            )
            wh = heat_workers.get(w) or {}
            hr = sum(wh.get("reads") or [])
            hw = sum(wh.get("writes") or [])
            heat = f"{_fmt_count(hr)}/{_fmt_count(hw)}" if wh else "-"
            lines.append(
                f"  {w:>6s} {_fmt_count(accesses.get(w, 0)):>10s} "
                f"{_fmt_count(wchunks.get(w, 0)):>8s} "
                f"{fill.get(w, 0.0) * 100:5.1f}%  {state:<9s}  {heat}"
            )

    rounds = sum(_family(counters, "rebalance.rounds").values())
    moves = sum(_family(counters, "rebalance.moves").values())
    bank_moves = sum(_family(counters, "rebalance.bank_moves").values())
    evictions = sum(_family(counters, "sigmem.evictions").values())
    moved = f"{int(moves)} moved"
    if bank_moves:
        moved += f", {int(bank_moves)} banks"
    lines.append(f"  rebalances {int(rounds)} ({moved})  evictions {int(evictions)}")
    if rss:
        parts = ", ".join(
            f"w{w}={v / (1 << 20):.0f}MiB"
            for w, v in sorted(rss.items(), key=lambda kv: (len(kv[0]), kv[0]))
        )
        lines.append(f"  peak rss: {parts}")

    cov_gauge = _family(gauges, "producer.fastpath_coverage")
    fast = sum(_family(counters, "producer.events_fastpath").values())
    interp = sum(_family(counters, "producer.events_interpreted").values())
    if cov_gauge or fast or interp:
        coverage = (
            next(iter(cov_gauge.values()))
            if cov_gauge
            else (fast / (fast + interp) if fast + interp else 0.0)
        )
        lines.append(
            f"  producer: fastpath coverage {coverage * 100:.1f}% "
            f"({_fmt_count(fast)} fast / {_fmt_count(interp)} interpreted)"
        )

    banks = (heatmap or {}).get("banks")
    if banks and banks.get("total"):
        total = banks["total"]
        occupied = banks.get("occupied_banks", 0)
        top_banks = sorted(
            ((occ, i) for i, occ in enumerate(total) if occ),
            reverse=True,
        )[:6]
        hot = " ".join(f"b{i}={_fmt_count(occ)}" for occ, i in top_banks)
        lines.append(
            f"  banks: {occupied}/{banks['n_banks']} occupied, "
            f"skew {banks.get('skew', 0.0):.2f} — hottest: {hot}"
        )

    if heatmap and heatmap.get("hottest"):
        lines.append(
            f"  heat: {_fmt_count(heatmap['total_reads'])}r/"
            f"{_fmt_count(heatmap['total_writes'])}w, "
            f"{_fmt_count(heatmap['total_conflicts'])} conflicts — "
            "hottest address buckets:"
        )
        hottest = heatmap["hottest"]
        peak = max(b["reads"] + b["writes"] for b in hottest)
        for b in hottest[:8]:
            total = b["reads"] + b["writes"]
            lines.append(
                f"    {_fmt_range(b['lo'], b['hi']):>16s} "
                f"{_bar(total, peak)} {_fmt_count(total):>8s}"
                + (f"  ({_fmt_count(b['conflicts'])} conf)" if b["conflicts"] else "")
            )
    return "\n".join(lines) + "\n"


def run_top(
    url: str,
    interval: float = 1.0,
    once: bool = False,
    out: Any = None,
) -> int:
    """The ``ddprof top`` loop: poll, clear, render, until interrupted."""
    out = out if out is not None else sys.stdout
    base = url.rstrip("/")
    while True:
        try:
            snapshot = fetch(base + "/snapshot")
            try:
                heatmap = fetch(base + "/heatmap")
            except (urllib.error.URLError, OSError, ValueError):
                heatmap = None
            frame = render_top(snapshot, heatmap)
        except (urllib.error.URLError, OSError, ValueError) as exc:
            if once:
                print(f"ddprof top: cannot reach {base}: {exc}", file=sys.stderr)
                return 1
            frame = f"ddprof top: waiting for {base} ({exc})\n"
        if once:
            out.write(frame)
            return 0
        out.write("\x1b[2J\x1b[H" + frame)
        out.flush()
        try:
            time.sleep(interval)
        except KeyboardInterrupt:  # pragma: no cover - interactive exit
            return 0
