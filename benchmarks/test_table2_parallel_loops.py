"""Table II — detection of parallelizable loops in NAS (Section VII-A).

Paper: of 147 OpenMP-annotated loops, DiscoPoP's own (perfect) profiling
identifies 136 (92.5%); feeding it our signature profiler's dependences
identifies exactly the same 136 — 0 missed, i.e. the signature introduces
no detection loss when sufficiently large.

Ours: the same three columns over the 8 NAS analogs — annotated ground
truth, identified with the perfect signature (the "DP" column), identified
with an adequately sized array signature (the "sig" column) — plus the
missed count, which must be 0.
"""

import pytest

from repro.common.config import ProfilerConfig
from repro.core import profile_trace
from repro.analyses import analyze_loops
from repro.workloads import get_trace

PERFECT = ProfilerConfig(perfect_signature=True)
#: Largest signature the sizing rule may ask for: each slot plane is one
#: mapping of ``slots * 8`` bytes (2 GiB here), committed page by page as
#: slots are touched, and a mapping must fit in RAM to be granted.
MAX_SLOTS = 1 << 28


def identified_set(batch, meta, config):
    res = profile_trace(batch, config)
    cls = analyze_loops(res)
    return {
        name
        for name, site in meta.annotated_sites().items()
        if site in cls and cls[site].parallelizable
    }


@pytest.fixture(scope="module")
def table2(nas_names):
    rows = []
    per_bench = {}
    for name in nas_names:
        batch, meta = get_trace(name, with_meta=True)
        # "Sufficiently large": collision-free with high probability, i.e.
        # m >> n^2/2 (birthday bound) — a single conflated address pair can
        # fabricate carried dependences in *every* loop sharing the arrays
        # (FT's butterfly stages), so per-lookup FPR is the wrong yardstick
        # here.  Untouched slots cost address space only, so the size is
        # cheap up to MAX_SLOTS, which only IS's 9k addresses reach (at
        # 2**28 slots they expect 0.16 conflated pairs).
        n = batch.n_unique_addresses
        slots = min(max(1 << 22, 64 * n * n), MAX_SLOTS)
        dp = identified_set(batch, meta, PERFECT)
        sig = identified_set(
            batch, meta, ProfilerConfig(signature_slots=slots)
        )
        missed = len(dp - sig)
        rows.append([name.upper(), len(meta.annotated), len(dp), len(sig), missed])
        per_bench[name] = (dp, sig)
    rows.append(
        ["Overall", *(sum(r[c] for r in rows) for c in range(1, 5))]
    )
    return rows, per_bench


HEADERS = ["program", "# OMP", "# identified (DP)", "# identified (sig)", "# missed (sig)"]


def test_table2_loop_detection(benchmark, table2, bench_record):
    rows, per_bench = table2
    bench_record.table(
        "table2_parallel_loops", HEADERS, rows, title="Table II analog",
        csv=True,
    )
    overall = rows[-1]
    bench_record.record(
        "table2.identified_ratio", overall[3] / overall[1], unit="fraction",
        direction="higher", tolerance=0.0, floor=0.85, ceiling=0.98,
    )
    bench_record.record(
        "table2.missed_loops", overall[4], unit="count", direction="lower",
        tolerance=0.0, ceiling=0,
    )
    # Shape 1 (the table's headline): zero missed loops — the signature
    # profiler finds exactly what the perfect profiler finds.
    assert overall[4] == 0
    for name, (dp, sig) in per_bench.items():
        assert dp == sig, f"{name}: signature and perfect disagree"
    # Shape 2: the overall identification ratio sits near the paper's 92.5%.
    ratio = overall[3] / overall[1]
    assert 0.85 <= ratio <= 0.98, ratio
    # Shape 3: identified never exceeds annotated.
    for r in rows:
        assert r[3] <= r[1]
    # Timed kernel: one full profile+classify pass.
    batch, meta = get_trace("mg", with_meta=True)

    def classify():
        res = profile_trace(batch, PERFECT)
        return analyze_loops(res)

    benchmark.pedantic(classify, rounds=3, iterations=1)


def test_table2_undersized_signature_degrades(benchmark):
    """Contrapositive of "sufficiently large": a starved signature fabricates
    carried dependences and loses parallel loops — why Table II insists on
    adequate sizing."""
    batch, meta = get_trace("mg", with_meta=True)
    dp = identified_set(batch, meta, PERFECT)
    tiny = identified_set(batch, meta, ProfilerConfig(signature_slots=64))
    assert len(tiny) < len(dp)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
