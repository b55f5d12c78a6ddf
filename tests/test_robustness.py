"""Robustness edges: degenerate traces, extreme configurations, and the
failure modes a downstream user will hit first."""

import numpy as np
import pytest

from repro.common.config import ProfilerConfig
from repro.common.errors import TraceFormatError
from repro.core import profile_trace
from repro.parallel import ParallelProfiler
from repro.trace import LOOP_ENTER, TraceBuilder, TraceRecorder
from tests.trace_helpers import PROFILERS, seq_trace

PERFECT = ProfilerConfig(perfect_signature=True)


@pytest.fixture(params=list(PROFILERS.values()), ids=list(PROFILERS))
def profile(request):
    return request.param


class TestDegenerateTraces:
    def test_single_event(self, profile):
        res = profile(seq_trace([("w", 0x8, 1)]), PERFECT)
        assert len(res.store) == 1  # just the INIT

    def test_control_only_trace(self, profile):
        ops = [("L+", 10), ("Li", 10), ("Li", 10), ("L-", 10)]
        res = profile(seq_trace(ops), PERFECT)
        assert len(res.store) == 0
        assert res.loops and res.stats.n_accesses == 0

    def test_free_only_trace(self, profile):
        res = profile(seq_trace([("free", 0x1000, 64, 1)]), PERFECT)
        assert len(res.store) == 0

    def test_zero_size_free(self, profile):
        ops = [("w", 0x1000, 1, "a"), ("free", 0x1000, 0, 2), ("r", 0x1000, 3, "a")]
        res = profile(seq_trace(ops), PERFECT)
        # A zero-byte free removes nothing.
        assert any(d.dep_type.name == "RAW" for d in res.store)

    def test_huge_addresses(self, profile):
        big = (1 << 47) - 8  # top of a canonical userspace address space
        ops = [("w", big, 1, "p"), ("r", big, 2, "p")]
        res = profile(seq_trace(ops), PERFECT)
        assert any(d.dep_type.name == "RAW" for d in res.store)

    def test_same_line_everything(self, profile):
        """All accesses on one source line still merge into sane records."""
        ops = [("w", 0x8 * i, 7, "v") for i in range(50)]
        ops += [("r", 0x8 * i, 7, "v") for i in range(50)]
        res = profile(seq_trace(ops), PERFECT)
        assert res.store.n_sinks == 1
        assert len(res.store) == 2  # one INIT + one RAW record

    def test_many_threads(self, profile):
        r = TraceRecorder()
        v = r.intern_var("g")
        for tid in range(64):
            r.write(0x8, loc=1, var=v, tid=tid)
        res = profile(
            r.build(), PERFECT.with_(multithreaded_target=True))
        assert len(res.store) == 64  # INIT + 63 distinct cross-thread WAWs


class TestExtremeConfigs:
    def test_one_slot_signature(self, profile):
        batch = seq_trace([("w", 0x8 * i, 1) for i in range(20)])
        res = profile(batch, ProfilerConfig(signature_slots=1))
        assert res.stats.n_writes == 20

    def test_parallel_more_workers_than_addresses(self):
        batch = seq_trace([("w", 0x8, 1), ("r", 0x8, 2)])
        par, info = ParallelProfiler(PERFECT.with_(workers=16)).profile(batch)
        seq = profile_trace(batch, PERFECT)
        assert par.store == seq.store
        assert sum(1 for a in info.per_worker_accesses if a) == 1

    def test_parallel_empty_trace(self):
        par, info = ParallelProfiler(PERFECT.with_(workers=4)).profile(
            TraceBuilder().build()
        )
        assert len(par.store) == 0
        assert info.n_chunks == 0

    def test_chunk_size_one(self):
        batch = seq_trace([("w", 0x8 * i, 1) for i in range(10)])
        cfg = PERFECT.with_(workers=2, chunk_size=1, queue_depth=1)
        par, info = ParallelProfiler(cfg).profile(batch)
        assert par.stats.n_writes == 10
        assert info.n_chunks == 10


class TestMalformedLoopNesting:
    """A trace whose LOOP_ITER/LOOP_EXIT has no enclosing LOOP_ENTER on its
    thread (a truncated or hand-edited cached trace, say) is rejected up
    front by every profiler with one TraceFormatError naming the thread and
    the row — never a bare KeyError from deep inside a replay."""

    @staticmethod
    def enter_dropped():
        ops = [("w", 0x10, 1), ("tid", 2), ("L+", 10), ("Li", 10)]
        ops += [("r", 0x10, 11), ("L-", 10)]
        batch = seq_trace(ops)
        keep = np.flatnonzero(batch.kind != LOOP_ENTER)
        return batch.select(keep)  # rows: w, Li, r, L-

    ITER_ERROR = r"LOOP_ITER on thread 2 at trace row 1 has no enclosing LOOP_ENTER"

    @pytest.mark.parametrize("profile", list(PROFILERS.values()), ids=list(PROFILERS))
    def test_dependence_profiler_rejects(self, profile):
        with pytest.raises(TraceFormatError, match=self.ITER_ERROR):
            profile(self.enter_dropped(), PERFECT)

    @pytest.mark.parametrize("mode", ["deterministic", "processes"])
    def test_pipeline_rejects(self, mode):
        prof = ParallelProfiler(PERFECT.with_(workers=2), mode=mode)
        with pytest.raises(TraceFormatError, match=self.ITER_ERROR):
            prof.profile(self.enter_dropped())

    def test_unmatched_exit_named(self):
        batch = seq_trace(
            [("L+", 10), ("L-", 10), ("w", 0x10, 1), ("L+", 11), ("L-", 11)]
        )
        batch = batch.select(np.array([0, 1, 2, 4]))  # second LOOP_ENTER dropped
        with pytest.raises(TraceFormatError, match="LOOP_EXIT on thread 0 at trace row 3"):
            ParallelProfiler(PERFECT).profile(batch)


class TestResultObject:
    def test_merge_reduction_factor_empty(self):
        res = profile_trace(TraceBuilder().build(), PERFECT)
        assert res.merge_reduction_factor == 0.0

    def test_var_name_out_of_range(self):
        res = profile_trace(seq_trace([("w", 0x8, 1, "x")]), PERFECT)
        assert res.var_name(-1) == "*"
        assert res.var_name(10**6) == "*"

    def test_stats_consistency(self, profile):
        ops = [("w", 0x8 * i, 1) for i in range(30)] + [
            ("r", 0x8 * i, 2) for i in range(30)
        ]
        res = profile(seq_trace(ops), PERFECT)
        assert res.stats.n_accesses == res.stats.n_reads + res.stats.n_writes
        assert res.stats.total_instances == res.store.instances
        assert res.stats.n_unique_addresses == 30
