"""Semantic tests of Algorithm 1, run against both implementations.

Every test is parameterized over the reference engine (the executable
spec) and ``profile_trace`` (the chunk kernel), which is also diffed
against the reference on each trace — they must agree on everything down
to instance counts.
"""

import pytest

from repro.common.config import ProfilerConfig
from repro.core import DepType
from repro.core.deps import Dependence

from tests.trace_helpers import PROFILERS, loc, seq_trace

PERFECT = ProfilerConfig(perfect_signature=True)


@pytest.fixture(params=list(PROFILERS.values()), ids=list(PROFILERS))
def profile(request):
    return request.param


def deps_of(result, dep_type):
    return {
        (d.sink_loc, d.source_loc, d.var)
        for d in result.store
        if d.dep_type == dep_type
    }


class TestAlgorithmSemantics:
    def test_raw(self, profile):
        batch = seq_trace([("w", 0x100, 1, "x"), ("r", 0x100, 2, "x")])
        res = profile(batch, PERFECT)
        assert deps_of(res, DepType.RAW) == {(loc(2), loc(1), 0)}

    def test_war_requires_prior_write(self, profile):
        """Algorithm 1 suppresses the WAR a *first* write would form: the
        INIT branch returns early (see the pseudocode's else-structure)."""
        batch = seq_trace([("r", 0x100, 1, "x"), ("w", 0x100, 2, "x")])
        res = profile(batch, PERFECT)
        assert deps_of(res, DepType.WAR) == set()
        assert deps_of(res, DepType.INIT) == {(loc(2), -1, -1)}

    def test_war_after_init(self, profile):
        batch = seq_trace(
            [("w", 0x100, 1, "x"), ("r", 0x100, 2, "x"), ("w", 0x100, 3, "x")]
        )
        res = profile(batch, PERFECT)
        assert deps_of(res, DepType.WAR) == {(loc(3), loc(2), 0)}
        assert deps_of(res, DepType.WAW) == {(loc(3), loc(1), 0)}

    def test_waw(self, profile):
        batch = seq_trace([("w", 0x100, 1, "x"), ("w", 0x100, 2, "x")])
        res = profile(batch, PERFECT)
        assert deps_of(res, DepType.WAW) == {(loc(2), loc(1), 0)}

    def test_init_only_for_first_write(self, profile):
        batch = seq_trace([("w", 0x100, 1), ("w", 0x100, 2), ("w", 0x200, 3)])
        res = profile(batch, PERFECT)
        assert deps_of(res, DepType.INIT) == {(loc(1), -1, -1), (loc(3), -1, -1)}

    def test_rar_ignored(self, profile):
        batch = seq_trace([("r", 0x100, 1), ("r", 0x100, 2)])
        res = profile(batch, PERFECT)
        assert len(res.store) == 0

    def test_raw_source_is_last_write(self, profile):
        batch = seq_trace(
            [("w", 0x100, 1, "x"), ("w", 0x100, 2, "x"), ("r", 0x100, 3, "x")]
        )
        res = profile(batch, PERFECT)
        assert deps_of(res, DepType.RAW) == {(loc(3), loc(2), 0)}

    def test_war_source_is_last_read(self, profile):
        batch = seq_trace(
            [
                ("w", 0x100, 1, "x"),
                ("r", 0x100, 2, "x"),
                ("r", 0x100, 3, "x"),
                ("w", 0x100, 4, "x"),
            ]
        )
        res = profile(batch, PERFECT)
        assert deps_of(res, DepType.WAR) == {(loc(4), loc(3), 0)}

    def test_addresses_independent(self, profile):
        batch = seq_trace([("w", 0x100, 1), ("r", 0x200, 2)])
        res = profile(batch, PERFECT)
        assert deps_of(res, DepType.RAW) == set()

    def test_dep_instances_counted(self, profile):
        ops = [("w", 0x100, 1)] + [("r", 0x100, 2)] * 50
        res = profile(seq_trace(ops), PERFECT)
        assert res.stats.dep_instances[DepType.RAW] == 50
        assert len(res.store) == 2  # one INIT + one merged RAW
        assert res.merge_reduction_factor > 20

    def test_variable_name_from_source_access(self, profile):
        batch = seq_trace([("w", 0x100, 1, "alpha"), ("r", 0x100, 2, "beta")])
        res = profile(batch, PERFECT)
        (d,) = [d for d in res.store if d.dep_type == DepType.RAW]
        assert res.var_name(d.var) == "alpha"

    def test_stats_counts(self, profile):
        batch = seq_trace([("w", 0x100, 1), ("r", 0x100, 2), ("r", 0x200, 3)])
        res = profile(batch, PERFECT)
        assert res.stats.n_writes == 1
        assert res.stats.n_reads == 2
        assert res.stats.n_accesses == 3
        assert res.stats.n_unique_addresses == 2


class TestLifetimeAnalysis:
    def test_free_breaks_dependences_across_lifetimes(self, profile):
        """After free(), a reused address must not link to the old variable
        (Section III-B variable lifetime analysis)."""
        batch = seq_trace(
            [
                ("alloc", 0x1000, 64, 1),
                ("w", 0x1000, 2, "a"),
                ("free", 0x1000, 64, 3),
                ("alloc", 0x1000, 64, 4),
                ("r", 0x1000, 5, "b"),  # fresh lifetime: no RAW from line 2
            ]
        )
        res = profile(batch, PERFECT)
        assert deps_of(res, DepType.RAW) == set()

    def test_free_applies_to_whole_range(self, profile):
        ops = [("w", 0x1000 + 8 * i, 1) for i in range(8)]
        ops.append(("free", 0x1000, 64, 2))
        ops += [("w", 0x1000 + 8 * i, 3) for i in range(8)]
        res = profile(seq_trace(ops), PERFECT)
        # Second round of writes are INITs again, not WAWs.
        assert deps_of(res, DepType.WAW) == set()
        assert deps_of(res, DepType.INIT) == {(loc(1), -1, -1), (loc(3), -1, -1)}

    def test_free_outside_range_keeps_deps(self, profile):
        batch = seq_trace(
            [
                ("w", 0x1000, 1, "a"),
                ("free", 0x2000, 64, 2),  # different range
                ("r", 0x1000, 3, "a"),
            ]
        )
        res = profile(batch, PERFECT)
        assert deps_of(res, DepType.RAW) == {(loc(3), loc(1), 0)}

    def test_lifetime_disabled_keeps_stale_deps(self, profile):
        cfg = PERFECT.with_(track_lifetime=False)
        batch = seq_trace(
            [("w", 0x1000, 1, "a"), ("free", 0x1000, 64, 2), ("r", 0x1000, 3, "b")]
        )
        res = profile(batch, cfg)
        assert deps_of(res, DepType.RAW) == {(loc(3), loc(1), 0)}


class TestLoopCarried:
    def test_carried_raw_across_iterations(self, profile):
        # for i: { read s (line 11); write s (line 12) }  -- s carried
        ops = [("L+", 10)]
        for _ in range(3):
            ops += [("Li", 10), ("r", 0x100, 11, "s"), ("w", 0x100, 12, "s")]
        ops += [("L-", 10)]
        res = profile(seq_trace(ops), PERFECT)
        raws = [d for d in res.store if d.dep_type == DepType.RAW]
        assert len(raws) == 1
        assert raws[0].carried == frozenset({loc(10)})

    def test_intra_iteration_dep_not_carried(self, profile):
        # for i: { write t (line 11); read t (line 12) } -- t private-ish
        ops = [("L+", 10)]
        for it in range(3):
            addr = 0x100  # same address but written before read each iter
            ops += [("Li", 10), ("w", addr, 11, "t"), ("r", addr, 12, "t")]
        ops += [("L-", 10)]
        res = profile(seq_trace(ops), PERFECT)
        raws = [d for d in res.store if d.dep_type == DepType.RAW]
        assert len(raws) == 1
        assert raws[0].carried == frozenset()
        # but the write-after-read ACROSS iterations is carried:
        wars = [d for d in res.store if d.dep_type == DepType.WAR]
        assert len(wars) == 1
        assert wars[0].carried == frozenset({loc(10)})

    def test_independent_iterations_produce_no_carried_deps(self, profile):
        ops = [("L+", 10)]
        for it in range(4):
            addr = 0x100 + 8 * it  # disjoint element per iteration
            ops += [("Li", 10), ("w", addr, 11, "a"), ("r", addr, 12, "a")]
        ops += [("L-", 10)]
        res = profile(seq_trace(ops), PERFECT)
        assert all(d.carried == frozenset() for d in res.store)

    def test_nested_loops_carried_on_correct_level(self, profile):
        # outer loop 10, inner loop 20; dep crosses inner iterations only.
        ops = [("L+", 10)]
        for _ in range(2):
            ops += [("Li", 10), ("L+", 20)]
            for _ in range(2):
                ops += [("Li", 20), ("r", 0x100, 21, "s"), ("w", 0x100, 22, "s")]
            ops += [("L-", 20)]
        ops += [("L-", 10)]
        res = profile(seq_trace(ops), PERFECT)
        raws = [d for d in res.store if d.dep_type == DepType.RAW]
        carried_sets = {d.carried for d in raws}
        # Reads in inner iteration 2 see the write of inner iteration 1:
        # carried w.r.t. the inner loop only.
        assert frozenset({loc(20)}) in carried_sets
        # The first read of the second outer iteration sees the write of the
        # previous OUTER iteration; the inner loop was re-entered after that
        # write, so the dep is carried w.r.t. the outer loop only.
        assert frozenset({loc(10)}) in carried_sets
        # WARs pair each write with the same-iteration read: never carried.
        wars = [d for d in res.store if d.dep_type == DepType.WAR]
        assert {d.carried for d in wars} == {frozenset()}

    def test_delayed_push_classified_at_push_time(self, profile):
        """A read whose timestamp was reserved in one iteration but pushed
        in the next is classified against the loop frames at its push: the
        write it reads from belongs to an earlier iteration, so the RAW is
        carried."""
        from repro.trace import TraceRecorder

        r = TraceRecorder()
        r.loop_enter(loc(10))
        r.loop_iter(loc(10))
        r.write(0x100, loc=loc(11))
        t = r.next_ts()
        r.loop_iter(loc(10))
        r.read(0x100, loc=loc(12), ts=t)
        r.loop_exit(loc(10))
        res = profile(r.build(), PERFECT.with_(multithreaded_target=True))
        (d,) = [d for d in res.store if d.dep_type == DepType.RAW]
        assert (d.sink_loc, d.source_loc) == (loc(12), loc(11))
        assert d.carried == frozenset({loc(10)})

    def test_dep_to_preloop_source_not_carried(self, profile):
        ops = [("w", 0x100, 1, "s"), ("L+", 10), ("Li", 10), ("r", 0x100, 11, "s"), ("L-", 10)]
        res = profile(seq_trace(ops), PERFECT)
        (d,) = [d for d in res.store if d.dep_type == DepType.RAW]
        assert d.carried == frozenset()

    def test_loop_info_iteration_counts(self, profile):
        ops = [("L+", 10)]
        for _ in range(7):
            ops += [("Li", 10), ("r", 0x8, 11)]
        ops += [("L-", 10)]
        res = profile(seq_trace(ops), PERFECT)
        assert res.loops[loc(10)].total_iterations == 7


class TestMultithreadedTargets:
    def test_cross_thread_dep_records_tids(self, profile):
        batch = seq_trace(
            [("tid", 1), ("w", 0x100, 1, "g"), ("tid", 2), ("r", 0x100, 2, "g")]
        )
        res = profile(batch, PERFECT.with_(multithreaded_target=True))
        (d,) = [d for d in res.store if d.dep_type == DepType.RAW]
        assert (d.sink_tid, d.source_tid) == (2, 1)
        assert res.multithreaded

    def test_timestamp_reversal_flags_race(self, profile):
        from repro.trace import TraceRecorder

        r = TraceRecorder()
        v = r.intern_var("flag")
        ts1 = r.next_ts()  # thread 1's access happens first...
        ts2 = r.next_ts()  # ...then thread 2's...
        r.write(0x8, loc=loc(5), var=v, tid=2, ts=ts2)  # ...but pushes first
        r.read(0x8, loc=loc(6), var=v, tid=1, ts=ts1)
        res = profile(r.build(), PERFECT.with_(multithreaded_target=True))
        (d,) = [d for d in res.store if d.dep_type == DepType.RAW]
        assert d.race
        assert res.stats.races_flagged == 1

    def test_ordered_pushes_not_flagged(self, profile):
        batch = seq_trace(
            [("tid", 1), ("w", 0x8, 5, "f"), ("tid", 2), ("r", 0x8, 6, "f")]
        )
        res = profile(batch, PERFECT.with_(multithreaded_target=True))
        assert res.stats.races_flagged == 0
        assert all(not d.race for d in res.store)


class TestSignatureMode:
    def test_large_signature_matches_perfect(self, profile):
        ops = []
        for i in range(40):
            ops.append(("w", 0x1000 + 8 * i, 1, "arr"))
            ops.append(("r", 0x1000 + 8 * i, 2, "arr"))
        batch = seq_trace(ops)
        sig = profile(batch, ProfilerConfig(signature_slots=1 << 20))
        per = profile(batch, PERFECT)
        assert sig.store == per.store

    def test_tiny_signature_conflates(self, profile):
        """With one slot everything collides: reads see the last write to
        *any* address (false positives, Table I mechanism)."""
        batch = seq_trace([("w", 0x100, 1, "a"), ("r", 0x999000, 2, "b")])
        res = profile(batch, ProfilerConfig(signature_slots=1))
        assert deps_of(res, DepType.RAW) == {(loc(2), loc(1), 0)}

    def test_empty_trace(self, profile):
        from repro.trace import TraceBuilder

        res = profile(TraceBuilder().build(), PERFECT)
        assert len(res.store) == 0
        assert res.stats.n_accesses == 0

