"""Fast-path event coverage of the sequential suite (not a paper artifact).

The dependence-graph scheduler's headline number is *coverage*: the share
of all produced trace events that the vectorized fast path emitted instead
of the tree-walking interpreter.  This module sweeps every sequential
workload (NAS + Starbench + splash2x analogs), records per-workload and
aggregate coverage, and declares the aggregate floor the CI gate enforces —
the dependence-graph scheduler lifted it from 18.3% to ~40%, predicated
``if``/``else`` lanes and loaded-index gathers to ~50%, and it must not
regress below 45%.

Workloads newly covered by the scheduler (reduction, sequential-recurrence,
and dynamic-index lanes) also get producer-throughput speedup floors:
fast-path vs. interpreted events/s on the same program, a machine-
independent ratio.
"""

from repro.obs import MetricsRegistry, repeat_timed
from repro.workloads import get_workload, workloads_in_suite
from repro.minivm import run_program

SEQ_SUITES = ("nas", "starbench", "splash2x")

#: Representative workloads that only vectorize through the new statement-
#: group lanes, with conservative fast/interp speedup floors.
NEWLY_COVERED = {
    "cg": 1.1,  # sum/dot reductions -> ufunc.accumulate lane
    "is": 1.5,  # histogram rank -> dynamic-index + sequential lanes
    "lu": 1.2,  # multi-statement elimination bodies -> group schedule
    "mg": 1.5,  # multi-statement stencil relaxations -> group schedule
    "ep": 2.5,  # predicated reductions + histogram under an if
    "streamcluster": 7.5,  # predicated gain reduction + cost update
}


def _producer_counters(program, schedule=None):
    reg = MetricsRegistry()
    batch = run_program(program, schedule=schedule, fastpath=True, registry=reg)
    snap = reg.snapshot()
    fast = snap["counters"].get("producer.events_fastpath", 0)
    slow = snap["counters"].get("producer.events_interpreted", 0)
    cov = snap["gauges"].get("producer.fastpath_coverage", 0.0)
    return batch, fast, fast + slow, cov


def test_seq_suite_fastpath_coverage(bench_record):
    """Aggregate fast-path coverage over the whole sequential suite, with
    the >=45% floor enforced by ``ddprof bench compare``."""
    rows = []
    total_fast = total_events = 0
    for suite in SEQ_SUITES:
        for wl in workloads_in_suite(suite):
            program, _meta = wl.build_seq(wl.default_scale)
            _batch, fast, tot, cov = _producer_counters(program)
            total_fast += fast
            total_events += tot
            rows.append([wl.name, suite, fast, tot, round(cov, 4)])
    coverage = total_fast / total_events
    bench_record.record(
        "producer.seq_coverage", coverage, unit="fraction", direction="higher",
        floor=0.45, events=total_events,
    )
    bench_record.table(
        "producer_coverage",
        ["workload", "suite", "fastpath_events", "total_events", "coverage"],
        rows,
        csv=True,
    )


def test_newly_covered_throughput(bench_record):
    """Producer speedup on workloads the single-template fast path used to
    reject entirely — the measured win the scheduler is accountable for."""
    for name, floor in sorted(NEWLY_COVERED.items()):
        wl = get_workload(name)
        program, _meta = wl.build_seq(wl.default_scale)

        def run(fastpath):
            return run_program(program, fastpath=fastpath)

        fast_t = repeat_timed(lambda: run(True), repeats=3, warmup=1)
        slow_t = repeat_timed(lambda: run(False), repeats=3, warmup=1)
        n_events = len(fast_t.last)
        fast_eps = [n_events / s for s in fast_t.seconds]
        slow_eps = [n_events / s for s in slow_t.seconds]
        bench_record.record(
            f"producer.{name}_fastpath_eps", samples=fast_eps,
            unit="events/s", direction="higher", warmup=1, events=n_events,
        )
        # Machine-independent ratio, but still a ratio of two wall-clock
        # medians: the *floor* is the guarantee; the regression band needs
        # headroom beyond the default 25%.
        bench_record.record(
            f"producer.{name}_speedup",
            sorted(fast_eps)[1] / sorted(slow_eps)[1],
            unit="x", direction="higher", floor=floor, tolerance=0.5,
        )
