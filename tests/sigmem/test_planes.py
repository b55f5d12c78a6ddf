"""Signature planes: the dense key space against a dict model of
address -> key, and the memory a large slot signature commits."""

import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sigmem import DenseKeySpace, DensePlaneTracker, SlotPlaneTracker
from repro.sigmem.signature import AccessRecord

ADDRS = st.integers(0, 40).map(lambda i: 0x1000 + 8 * i)


class DictModel:
    """Keys on first sight, ascending address order within one call."""

    def __init__(self) -> None:
        self.index: dict[int, int] = {}

    def keys_for(self, addrs: list[int]) -> list[int]:
        for a in sorted(set(addrs)):
            self.index.setdefault(a, len(self.index))
        return [self.index[a] for a in addrs]

    def probe_keys(self, lo: int, hi: int, stride: int) -> set[int]:
        return {
            k
            for a, k in self.index.items()
            if lo <= a < hi and (a - lo) % stride == 0
        }


@settings(max_examples=100, deadline=None)
@given(
    calls=st.lists(st.lists(ADDRS, max_size=12), max_size=6),
    probes=st.lists(ADDRS, max_size=6),
    ranges=st.lists(
        st.tuples(ADDRS, st.integers(0, 200), st.sampled_from([8, 16, 24])),
        max_size=4,
    ),
    live=st.lists(ADDRS, max_size=10),
)
def test_key_space_matches_dict_model(calls, probes, ranges, live):
    space = DenseKeySpace()
    model = DictModel()
    for addrs in calls:
        got = space.keys_for(np.array(addrs, dtype=np.int64))
        assert got.tolist() == model.keys_for(addrs)
        assert len(space) == len(model.index)
    for a in probes:
        assert space.get(a) == model.index.get(a)
    for lo, size, stride in ranges:
        keys = space.probe_keys(lo, lo + size, stride).tolist()
        assert len(keys) == len(set(keys))
        assert set(keys) == model.probe_keys(lo, lo + size, stride)

    # Occupied addresses come back in key order, as the dict iterates.
    tracker = DensePlaneTracker(space)
    for a in live:
        tracker.insert(a, AccessRecord(loc=1, var=0, tid=0, ts=0))
    for a in live:
        model.index.setdefault(a, len(model.index))
    assert tracker.occupied_addrs().tolist() == [
        a for a in model.index if a in set(live)
    ]


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs /proc")
def test_large_signature_commits_only_touched_pages():
    """A 2**26-slot signature holding 64 records costs a few base pages per
    plane, not a 2 MiB huge page per touched slot."""

    def resident() -> int:
        with open("/proc/self/statm") as f:
            return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")

    before = resident()
    tracker = SlotPlaneTracker(1 << 26)
    keys = np.arange(64, dtype=np.int64) << 20  # 8 MiB apart in an int64 plane
    col = np.zeros(64, dtype=np.int64)
    tracker.set_rows(keys, col, col, col, col, keys)
    assert tracker.occupied() == 64
    assert resident() - before < 16 << 20
