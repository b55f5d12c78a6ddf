"""Tests for the array signature and the tracker protocol."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sigmem import (
    AccessRecord,
    ArraySignature,
    ChainedHashTable,
    PerfectSignature,
    ShadowMemory,
)

REC = AccessRecord(loc=100, var=3, tid=1, ts=42)
REC2 = AccessRecord(loc=200, var=4, tid=2, ts=99)

ALL_TRACKERS = [
    lambda: ArraySignature(1 << 16),
    lambda: PerfectSignature(),
    lambda: ShadowMemory(),
    lambda: ChainedHashTable(1 << 12),
]
TRACKER_IDS = ["signature", "perfect", "shadow", "hashtable"]


@pytest.fixture(params=ALL_TRACKERS, ids=TRACKER_IDS)
def tracker(request):
    return request.param()


class TestTrackerProtocol:
    """Behaviour every AccessTracker implementation must share."""

    def test_lookup_missing_is_none(self, tracker):
        assert tracker.lookup(0x1234) is None
        assert not tracker.contains(0x1234)

    def test_insert_then_lookup(self, tracker):
        tracker.insert(0x1000, REC)
        assert tracker.lookup(0x1000) == REC
        assert tracker.contains(0x1000)

    def test_insert_overwrites(self, tracker):
        tracker.insert(0x1000, REC)
        tracker.insert(0x1000, REC2)
        assert tracker.lookup(0x1000) == REC2
        assert tracker.occupied() == 1

    def test_remove(self, tracker):
        tracker.insert(0x1000, REC)
        tracker.remove(0x1000)
        assert tracker.lookup(0x1000) is None

    def test_remove_missing_is_noop(self, tracker):
        tracker.remove(0x5555)  # must not raise
        assert tracker.occupied() == 0

    def test_remove_range(self, tracker):
        for i in range(16):
            tracker.insert(0x2000 + 8 * i, REC)
        tracker.remove_range(0x2000, 0x2000 + 8 * 8, stride=8)
        # First 8 removed, rest intact (exact trackers); the array signature
        # may additionally evict colliding addresses, but never *keeps* a
        # removed one.
        for i in range(8):
            assert tracker.lookup(0x2000 + 8 * i) is None

    def test_remove_empty_range_is_noop(self, tracker):
        tracker.insert(0x100, REC)
        tracker.remove_range(0x200, 0x200)
        assert tracker.lookup(0x100) == REC

    def test_clear(self, tracker):
        for i in range(10):
            tracker.insert(8 * i, REC)
        tracker.clear()
        assert tracker.occupied() == 0
        for i in range(10):
            assert tracker.lookup(8 * i) is None

    def test_memory_bytes_positive(self, tracker):
        tracker.insert(0x10, REC)
        assert tracker.memory_bytes > 0


class TestArraySignatureSpecific:
    def test_rejects_nonpositive_slots(self):
        with pytest.raises(ValueError):
            ArraySignature(0)

    def test_collision_conflates_addresses(self):
        """Two addresses in one slot overwrite each other — by design."""
        sig = ArraySignature(1)  # everything collides
        sig.insert(0x1000, REC)
        sig.insert(0x2000, REC2)
        # Membership for the first address now reports the second's payload:
        # the false-positive mechanism behind Table I.
        assert sig.lookup(0x1000) == REC2

    def test_fixed_memory_footprint(self):
        sig = ArraySignature(1000)
        before = sig.memory_bytes
        for i in range(10_000):
            sig.insert(i * 8, REC)
        assert sig.memory_bytes == before  # bounded state, Section III-B

    def test_vectorized_slots_match_scalar(self):
        sig = ArraySignature(12345, salt=7)
        addrs = np.arange(0, 8 * 1000, 8, dtype=np.int64)
        vec = sig.slots_of(addrs)
        scalars = [sig.slot_of(int(a)) for a in addrs]
        assert vec.tolist() == scalars

    def test_intersection_contains_common_elements(self):
        """Disambiguation guarantee: common inserts appear in the intersection."""
        a, b = ArraySignature(256), ArraySignature(256)
        common = [8 * i for i in range(20)]
        for addr in common:
            a.insert(addr, REC)
            b.insert(addr, REC2)
        a.insert(0x9000, REC)
        inter = set(a.intersect(b).tolist())
        for addr in common:
            assert a.slot_of(addr) in inter

    def test_intersect_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            ArraySignature(64).intersect(ArraySignature(128))

    def test_salt_changes_layout(self):
        a, b = ArraySignature(1 << 20, salt=0), ArraySignature(1 << 20, salt=1)
        addrs = np.arange(0, 8 * 512, 8, dtype=np.int64)
        assert not np.array_equal(a.slots_of(addrs), b.slots_of(addrs))

    def test_occupied_slots_view(self):
        sig = ArraySignature(1 << 12)
        for i in range(5):
            sig.insert(0x100 + 8 * i, REC)
        occ = sig.occupied_slots()
        assert len(occ) == sig.occupied() == 5
        assert dict(sig.iter_occupied())  # iterable, non-empty

    @settings(max_examples=50)
    @given(
        addrs=st.lists(
            st.integers(min_value=0, max_value=2**40).map(lambda x: x * 8),
            min_size=1, max_size=200, unique=True,
        )
    )
    def test_no_false_negatives_without_removal(self, addrs):
        """A signature never *forgets* an inserted element unless another
        insert/remove touched its slot; with unique records we can check the
        weaker but crucial property: lookup never returns None for a slot
        that was written."""
        sig = ArraySignature(4096)
        for a in addrs:
            sig.insert(a, REC)
        for a in addrs:
            assert sig.lookup(a) is not None


class TestShadowMemorySpecific:
    def test_pages_grow_with_address_spread(self):
        sm = ShadowMemory()
        sm.insert(0, REC)
        one_page = sm.memory_bytes
        sm.insert(10 * 32 * 1024, REC)  # far away -> second page
        assert sm.memory_bytes == 2 * one_page
        assert sm.n_pages == 2

    def test_dense_addresses_share_page(self):
        sm = ShadowMemory()
        for i in range(100):
            sm.insert(8 * i, REC)
        assert sm.n_pages == 1

    def test_rejects_bad_granularity(self):
        with pytest.raises(ValueError):
            ShadowMemory(granularity=0)


class TestChainedHashTableSpecific:
    def test_chains_preserve_exactness_under_collision(self):
        ht = ChainedHashTable(1)  # single bucket: worst case
        ht.insert(0x10, REC)
        ht.insert(0x20, REC2)
        assert ht.lookup(0x10) == REC
        assert ht.lookup(0x20) == REC2
        assert ht.max_chain_length == 2

    def test_remove_from_chain_middle(self):
        ht = ChainedHashTable(1)
        ht.insert(0x10, REC)
        ht.insert(0x20, REC2)
        ht.insert(0x30, REC)
        ht.remove(0x20)
        assert ht.lookup(0x20) is None
        assert ht.lookup(0x10) == REC and ht.lookup(0x30) == REC

    def test_rejects_nonpositive_buckets(self):
        with pytest.raises(ValueError):
            ChainedHashTable(0)
