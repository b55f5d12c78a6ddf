"""Benchmark telemetry: recorder, schema, and the noise-aware compare gate."""

import json
import math

import pytest

from repro.common.errors import ObsError
from repro.obs import (
    BenchRecorder,
    BenchSession,
    MetricRecord,
    compare,
    environment_fingerprint,
    load_bench,
    repeat_timed,
)
from repro.obs.bench import SCHEMA


def recorder(**kwargs):
    return BenchRecorder("t", environment={"git_sha": "deadbeef"}, **kwargs)


# -- repeat_timed -------------------------------------------------------------


def test_repeat_timed_policy():
    calls = []
    timed = repeat_timed(lambda: calls.append(len(calls)) or len(calls), repeats=3, warmup=2)
    assert len(calls) == 5  # 2 warmup + 3 timed
    assert len(timed.seconds) == 3
    assert all(s >= 0 for s in timed.seconds)
    assert timed.last == 5  # results kept, warmup calls discarded
    assert timed.results == [3, 4, 5]
    assert timed.best <= timed.median


def test_repeat_timed_rejects_zero_repeats():
    with pytest.raises(ObsError):
        repeat_timed(lambda: None, repeats=0)


# -- recording ----------------------------------------------------------------


def test_record_scalar_and_samples():
    r = recorder()
    a = r.record("a", 3.0, unit="x", direction="higher")
    assert a.value == 3.0 and a.mad == 0.0 and a.repeats == 1
    b = r.record("b", samples=[2.0, 1.0, 10.0], unit="s")
    assert b.value == 2.0  # median, not mean
    assert b.mad == 1.0  # median(|1-2|, |2-2|, |10-2|) = median(1,0,8)
    assert b.repeats == 3 and b.samples == [2.0, 1.0, 10.0]


def test_record_rejects_bad_calls():
    r = recorder()
    with pytest.raises(ObsError, match="direction"):
        r.record("a", 1.0, direction="bigger")
    with pytest.raises(ObsError, match="exactly one"):
        r.record("a", 1.0, samples=[1.0])
    with pytest.raises(ObsError, match="exactly one"):
        r.record("a")
    with pytest.raises(ObsError, match="empty samples"):
        r.record("a", samples=[])
    r.record("a", 1.0)
    with pytest.raises(ObsError, match="duplicate"):
        r.record("a", 2.0)
    with pytest.raises(ObsError, match="suite"):
        BenchRecorder("bad suite")


def test_measure_records_seconds_samples():
    r = recorder()
    rec, timed = r.measure("m", lambda: 42, repeats=4, warmup=0)
    assert rec.repeats == 4 and rec.unit == "seconds" and rec.direction == "lower"
    assert rec.samples == timed.seconds
    assert timed.last == 42


def test_schema_roundtrip(tmp_path):
    r = recorder()
    r.record("x", samples=[1.0, 2.0, 3.0], unit="s", tolerance=0.1, floor=0.5)
    r.table("tbl", ["k", "v"], [["a", 1]], title="T")
    path = r.write(tmp_path / "BENCH_t.json")
    doc = load_bench(path)
    assert doc["schema"] == SCHEMA and doc["suite"] == "t"
    assert doc["environment"]["git_sha"] == "deadbeef"
    x = MetricRecord.from_dict("x", doc["benchmarks"]["x"])
    assert x.value == 2.0 and x.samples == [1.0, 2.0, 3.0]
    assert x.tolerance == 0.1 and x.floor == 0.5 and x.ceiling is None
    assert doc["tables"]["tbl"]["rows"] == [["a", 1]]
    assert doc["artifacts"] == ["tbl.txt"]


def test_table_writes_curated_renderings(tmp_path):
    r = recorder(results_dir=tmp_path)
    r.table("tbl", ["k", "v"], [["a", 1]], csv=True)
    r.text("free.txt", "hello\n")
    assert "a" in (tmp_path / "tbl.txt").read_text()
    assert (tmp_path / "tbl.csv").read_text().startswith("k,v")
    assert (tmp_path / "free.txt").read_text() == "hello\n"
    assert r.artifacts == ["tbl.txt", "tbl.csv", "free.txt"]


def test_load_bench_errors(tmp_path):
    with pytest.raises(ObsError, match="not found"):
        load_bench(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ObsError, match="not valid JSON"):
        load_bench(bad)
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"schema": "ddprof.bench/999", "benchmarks": {}}))
    with pytest.raises(ObsError, match="regenerate the baseline"):
        load_bench(wrong)


def test_history_append(tmp_path):
    hist = tmp_path / "h" / "history.jsonl"
    for v in (1.0, 2.0):
        r = recorder()
        r.record("x", v)
        r.append_history(hist)
    lines = [json.loads(l) for l in hist.read_text().splitlines()]
    assert [l["metrics"]["x"] for l in lines] == [1.0, 2.0]
    assert all(l["suite"] == "t" and l["schema"] == SCHEMA for l in lines)


# -- compare ------------------------------------------------------------------


def pair(base_val, cur_val, *, direction="lower", base_mad=0.0, cur_mad=0.0,
         tolerance=None, **cur_kwargs):
    b, c = recorder(), recorder()
    if base_val is not None:
        rb = b.record("m", base_val, direction=direction, tolerance=tolerance)
        rb.mad = base_mad
    if cur_val is not None:
        rc = c.record("m", cur_val, direction=direction, tolerance=tolerance,
                      **cur_kwargs)
        rc.mad = cur_mad
    return b, c


def verdict(*args, mad_factor=4.0, tolerance_arg=None, **kwargs):
    b, c = pair(*args, **kwargs)
    cmp = compare(b, c, mad_factor=mad_factor, tolerance=tolerance_arg)
    return cmp.results[0]


def test_compare_direction_aware():
    # direction="lower": bigger is worse.
    assert verdict(1.0, 2.0, direction="lower").status == "regressed"
    assert verdict(2.0, 1.0, direction="lower").status == "improved"
    # direction="higher": bigger is better.
    assert verdict(1.0, 2.0, direction="higher").status == "improved"
    assert verdict(2.0, 1.0, direction="higher").status == "regressed"


def test_compare_neutral_within_relative_band():
    r = verdict(100.0, 110.0)  # +10% < default 25%
    assert r.status == "neutral" and "band" in r.reason
    assert verdict(100.0, 130.0).status == "regressed"  # +30%
    # Per-metric tolerance overrides the default.
    assert verdict(100.0, 110.0, tolerance=0.05).status == "regressed"
    # The CLI --threshold argument overrides everything.
    assert verdict(100.0, 110.0, tolerance=0.05, tolerance_arg=0.5).status == "neutral"


def test_compare_mad_band_rescues_noisy_metrics():
    # +50% exceeds any relative tolerance, but the measured noise says so.
    r = verdict(1.0, 1.5, base_mad=0.1, cur_mad=0.1, tolerance=0.05)
    assert r.status == "neutral"  # band = max(0.05, 4*(0.1+0.1)) = 0.8
    # Zero-variance samples fall back to the relative band alone.
    assert verdict(1.0, 1.5, tolerance=0.05).status == "regressed"


def test_compare_added_removed_never_crash():
    assert verdict(None, 1.0).status == "added"
    r = verdict(2.0, None)
    assert r.status == "removed" and r.base == 2.0 and r.current is None
    # removed/added are not regressions by themselves.
    b, c = pair(None, 1.0)
    assert compare(b, c).ok


def test_compare_non_finite_values():
    assert verdict(1.0, float("nan")).status == "invalid"
    assert verdict(1.0, float("inf")).status == "invalid"
    b, c = pair(1.0, float("nan"))
    assert not compare(b, c).ok  # invalid gates like a regression
    # A non-finite *baseline* treats the current value as new, not broken.
    assert verdict(float("nan"), 1.0).status == "added"


def test_compare_zero_baseline():
    assert verdict(0.0, 0.0).status == "neutral"
    r = verdict(0.0, 1.0)
    assert r.status == "regressed" and r.ratio is None


def test_compare_enforces_declared_bounds():
    # Floor/ceiling fire on the current value regardless of the baseline.
    r = verdict(5.0, 4.0, direction="higher", floor=4.5)
    assert r.status == "regressed" and "floor" in r.reason
    r = verdict(1.0, 3.0, ceiling=2.5, tolerance_arg=10.0)
    assert r.status == "regressed" and "ceiling" in r.reason
    # The baseline's declared bounds apply when the current omits them.
    b, c = recorder(), recorder()
    b.record("m", 5.0, direction="higher", floor=4.5)
    c.record("m", 4.0, direction="higher")
    assert compare(b, c).results[0].status == "regressed"


def test_compare_from_files(tmp_path):
    b, c = pair(1.0, 3.0)
    pb = b.write(tmp_path / "BENCH_base.json")
    pc = c.write(tmp_path / "BENCH_cur.json")
    cmp = compare(pb, pc)
    assert cmp.suite == "t"
    assert cmp.results[0].status == "regressed"
    assert not cmp.ok and cmp.regressions
    d = cmp.to_dict()
    assert d["schema"] == "ddprof.bench-compare/1" and d["ok"] is False
    assert d["results"][0]["ratio"] == 3.0
    assert "REGRESSED" in cmp.render()


def test_compare_schema_mismatch_is_clear_error(tmp_path):
    stale = tmp_path / "BENCH_old.json"
    stale.write_text(json.dumps({"schema": "ddprof.bench/0", "suite": "t"}))
    _, c = pair(None, 1.0)
    with pytest.raises(ObsError, match="ddprof.bench/1"):
        compare(stale, c)


# -- environment fingerprint --------------------------------------------------


def test_fingerprint_injected_not_sampled(monkeypatch):
    monkeypatch.setenv("DDPROF_GIT_SHA", "cafe1234")
    env = environment_fingerprint()
    assert env["git_sha"] == "cafe1234"
    assert "timestamp" not in env  # never samples a clock
    env2 = environment_fingerprint(timestamp="2026-08-06T00:00:00+00:00", sha="abc")
    assert env2["git_sha"] == "abc"
    assert env2["timestamp"] == "2026-08-06T00:00:00+00:00"
    assert env2["cpus"] >= 1 and env2["python"] and env2["numpy"]


def test_run_report_and_bench_share_fingerprint(monkeypatch):
    """Satellite: one helper feeds both planes — the keys can't drift."""
    from repro.obs import MetricsRegistry, RunReport

    monkeypatch.setenv("DDPROF_GIT_SHA", "cafe1234")
    report = RunReport.build(MetricsRegistry())
    rec = BenchRecorder("t")
    shared = set(report.environment) & set(rec.environment)
    assert {"git_sha", "cpus", "platform", "python", "numpy"} <= shared
    assert report.environment["git_sha"] == rec.environment["git_sha"] == "cafe1234"
    assert "environment" in report.to_dict()
    assert "cafe1234"[:12] in report.render()


def test_record_run_report_folds_pipeline_health():
    from repro.common.config import ProfilerConfig
    from repro.obs import MetricsRegistry, RunReport
    from repro.parallel import ParallelProfiler
    from tests.trace_helpers import seq_trace

    batch = seq_trace(
        [("w", 0x1000 + 8 * i, 1, "a") for i in range(64)]
        + [("r", 0x1000 + 8 * i, 2, "a") for i in range(64)]
    )
    reg = MetricsRegistry()
    cfg = ProfilerConfig(perfect_signature=True, workers=2)
    _, info = ParallelProfiler(cfg, registry=reg).profile(batch)
    report = RunReport.build(reg, info=info)
    r = recorder()
    recs = r.record_run_report(report, "pipe")
    ids = {m.id for m in recs}
    assert "pipe.access_imbalance" in ids
    assert all(math.isfinite(m.value) for m in recs)


# -- BenchSession -------------------------------------------------------------


def test_bench_session_writes_suites_and_history(tmp_path, monkeypatch):
    monkeypatch.setenv("DDPROF_GIT_SHA", "cafe1234")
    sess = BenchSession(
        tmp_path / "out",
        history_path=tmp_path / "history.jsonl",
        timestamp="2026-08-06T00:00:00+00:00",
    )
    sess.recorder("seq").record("a", 1.0)
    assert sess.recorder("seq") is sess.recorder("seq")  # one per suite
    sess.recorder("empty")  # nothing recorded -> no file
    written = sess.finish()
    assert [p.name for p in written] == ["BENCH_seq.json"]
    doc = load_bench(written[0])
    assert doc["environment"]["timestamp"] == "2026-08-06T00:00:00+00:00"
    assert doc["environment"]["git_sha"] == "cafe1234"
    hist = (tmp_path / "history.jsonl").read_text().splitlines()
    assert len(hist) == 1 and json.loads(hist[0])["suite"] == "seq"
