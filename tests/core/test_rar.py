"""Tests for the optional read-after-read recording (``ignore_rar=False``)."""

import pytest
from hypothesis import given, settings

from repro.common.config import ProfilerConfig
from repro.core import DepType, profile_trace
from tests.core.test_engine_equivalence import random_ops
from tests.trace_helpers import (
    PROFILERS,
    assert_same_profile,
    loc,
    reference_profile,
    seq_trace,
)

WITH_RAR = ProfilerConfig(perfect_signature=True, ignore_rar=False)
DEFAULT = ProfilerConfig(perfect_signature=True)


@pytest.fixture(params=list(PROFILERS.values()), ids=list(PROFILERS))
def profile(request):
    return request.param


class TestRarSemantics:
    def test_rar_recorded_when_enabled(self, profile):
        batch = seq_trace([("r", 0x8, 1, "x"), ("r", 0x8, 2, "x")])
        res = profile(batch, WITH_RAR)
        rars = [d for d in res.store if d.dep_type is DepType.RAR]
        assert [(d.sink_loc, d.source_loc) for d in rars] == [(loc(2), loc(1))]
        assert res.stats.dep_instances[DepType.RAR] == 1

    def test_rar_ignored_by_default(self, profile):
        """The paper's default: RAR dependences are dropped entirely."""
        batch = seq_trace([("r", 0x8, 1, "x"), ("r", 0x8, 2, "x")])
        res = profile(batch, DEFAULT)
        assert len(res.store) == 0
        assert res.stats.dep_instances[DepType.RAR] == 0

    def test_rar_source_is_last_read(self, profile):
        batch = seq_trace(
            [("r", 0x8, 1, "x"), ("r", 0x8, 2, "x"), ("r", 0x8, 3, "x")]
        )
        res = profile(batch, WITH_RAR)
        sinks = {
            d.sink_loc: d.source_loc
            for d in res.store
            if d.dep_type is DepType.RAR
        }
        assert sinks == {loc(2): loc(1), loc(3): loc(2)}

    def test_rar_does_not_change_other_types(self, profile):
        ops = [("w", 0x8, 1, "x"), ("r", 0x8, 2, "x"), ("r", 0x8, 3, "x"),
               ("w", 0x8, 4, "x")]
        with_r = profile(seq_trace(ops), WITH_RAR)
        without = profile(seq_trace(ops), DEFAULT)
        strip = lambda res: {
            d.projected() for d in res.store if d.dep_type is not DepType.RAR
        }
        assert strip(with_r) == strip(without)

    def test_rar_carried_classification(self, profile):
        ops = [("L+", 10)]
        for _ in range(3):
            ops += [("Li", 10), ("r", 0x8, 11, "t")]
        ops += [("L-", 10)]
        res = profile(seq_trace(ops), WITH_RAR)
        (d,) = [d for d in res.store if d.dep_type is DepType.RAR]
        assert d.carried == frozenset({loc(10)})


@settings(max_examples=30, deadline=None)
@given(ops=random_ops())
def test_rar_engine_equivalence(ops):
    batch = seq_trace(ops)
    assert_same_profile(
        profile_trace(batch, WITH_RAR), reference_profile(batch, WITH_RAR)
    )


def test_rar_in_output_format():
    from repro.core import format_dependences, parse_dependences

    batch = seq_trace([("r", 0x8, 1, "x"), ("r", 0x8, 2, "x")])
    res = profile_trace(batch, WITH_RAR)
    text = format_dependences(res)
    assert "{RAR 0:1|x}" in text
    parsed = parse_dependences(text)
    assert ("RAR", "0:1", 0, "x") in parsed.nom[("0:2", 0)]
