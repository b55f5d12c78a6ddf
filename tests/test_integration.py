"""Cross-module integration and property tests.

These exercise full paths a downstream user would take: workload -> trace ->
(save/load) -> profiler (kernel, reference oracle, pipeline) -> analyses ->
text output -> parser, and invariants connecting them.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    ParallelProfiler,
    ProfilerConfig,
    format_dependences,
    parse_dependences,
    profile_trace,
)
from repro.trace import load_trace, save_trace
from tests.core.test_engine_equivalence import random_ops
from tests.trace_helpers import reference_engine, reference_profile, seq_trace

PERFECT = ProfilerConfig(perfect_signature=True)


class TestEndToEnd:
    def test_workload_through_every_path(self, tmp_path):
        """One workload through trace IO, three profilers, and the parser."""
        from repro.workloads import get_trace

        batch = get_trace("mg")
        save_trace(batch, tmp_path / "mg.npz")
        loaded = load_trace(tmp_path / "mg.npz")

        vec = profile_trace(loaded, PERFECT)
        ref = reference_profile(loaded, PERFECT)
        par, _ = ParallelProfiler(PERFECT.with_(workers=4)).profile(loaded)
        assert vec.store == ref.store == par.store

        parsed = parse_dependences(format_dependences(vec))
        assert len(parsed.nom) == vec.store.n_sinks
        assert len(parsed.loops_begun) == len(vec.loops)

    def test_analyses_compose_on_parallel_workload(self):
        from repro.analyses import (
            analyze_loops,
            build_execution_tree,
            communication_matrix,
            detect_races,
            section_dependences,
        )
        from repro.workloads import get_trace

        batch = get_trace("kmeans", variant="par", threads=4)
        res = profile_trace(batch, PERFECT.with_(multithreaded_target=True))
        assert analyze_loops(res)  # loops classified
        assert communication_matrix(res, n_threads=5).sum() > 0
        report = detect_races(batch, res)
        assert all(c.verdict != "observed" for c in report.candidates)
        trees = build_execution_tree(batch)
        assert sum(t.total_accesses for t in trees.values()) == batch.n_accesses
        section_dependences(res)  # renders without error

    def test_public_api_surface(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name) is not None


class TestIncrementalProcessing:
    """The worker contract: feeding a trace in chunks must equal one shot."""

    @settings(max_examples=40, deadline=None)
    @given(ops=random_ops(), cut=st.integers(min_value=0, max_value=100))
    def test_incremental_equals_oneshot(self, ops, cut):
        batch = seq_trace(ops)
        k = min(len(batch), cut)
        oneshot = reference_profile(batch, PERFECT)

        engine = reference_engine(PERFECT)
        idx = np.arange(len(batch))
        engine.process(batch.select(idx[:k]))
        engine.process(batch.select(idx[k:]))
        assert engine.store == oneshot.store
        assert engine.store.instances == oneshot.store.instances

    @settings(max_examples=15, deadline=None)
    @given(ops=random_ops())
    def test_many_tiny_chunks(self, ops):
        batch = seq_trace(ops)
        oneshot = reference_profile(batch, PERFECT)
        engine = reference_engine(PERFECT)
        idx = np.arange(len(batch))
        for s in range(0, len(batch), 3):
            engine.process(batch.select(idx[s : s + 3]))
        assert engine.store == oneshot.store


class TestOutputRoundtrip:
    @settings(max_examples=40, deadline=None)
    @given(ops=random_ops())
    def test_format_parse_roundtrip_preserves_records(self, ops):
        batch = seq_trace(ops)
        res = profile_trace(batch, PERFECT)
        mt = batch.n_threads > 1
        parsed = parse_dependences(format_dependences(res, multithreaded=mt))
        # Rebuild the comparable set from the parsed text.
        from repro.common.sourceloc import format_location
        from repro.core import DepType

        expected = set()
        for d in res.store:
            sink = (format_location(d.sink_loc), d.sink_tid if mt else 0)
            if d.dep_type is DepType.INIT:
                expected.add((sink, ("INIT", "*", -1, "*")))
            else:
                expected.add(
                    (
                        sink,
                        (
                            d.dep_type.name,
                            format_location(d.source_loc),
                            d.source_tid if mt else 0,
                            res.var_name(d.var),
                        ),
                    )
                )
        got = {
            (sink, rec) for sink, recs in parsed.nom.items() for rec in recs
        }
        assert got == expected

    @settings(max_examples=25, deadline=None)
    @given(ops=random_ops())
    def test_verbose_output_also_parses(self, ops):
        res = profile_trace(seq_trace(ops), PERFECT)
        parse_dependences(format_dependences(res, verbose=True))
