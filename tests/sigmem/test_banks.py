"""Sharded signature banks: geometry, occupancy, export/import migration."""

import numpy as np
import pytest

from repro.obs.metrics import MetricsRegistry
from repro.sigmem import (
    ArraySignature,
    BankGeometry,
    ChainedHashTable,
    DenseKeySpace,
    DensePlaneTracker,
    PerfectSignature,
    SlotPlaneTracker,
    payload_size,
)
from repro.sigmem.signature import AccessRecord

GEO = BankGeometry(n_banks=4, shift=12)


def make_trackers(geo=GEO):
    ks = DenseKeySpace()
    return {
        "perfect": PerfectSignature(geometry=geo),
        "chained": ChainedHashTable(64, geometry=geo),
        "array": ArraySignature(64, geometry=geo),
        "dense": DensePlaneTracker(ks, geometry=geo),
        "slots": SlotPlaneTracker(64, geometry=geo),
    }


def fill(tracker, addrs, ts0=0):
    for i, a in enumerate(addrs):
        tracker.insert(a, AccessRecord(loc=100 + i, var=i, tid=0, ts=ts0 + i))


class TestBankGeometry:
    def test_bank_of_stripes_addresses(self):
        g = BankGeometry(n_banks=4, shift=12)
        assert g.bank_of(0) == 0
        assert g.bank_of((1 << 12) - 8) == 0  # same 4 KiB stripe
        assert g.bank_of(1 << 12) == 1
        assert g.bank_of(4 << 12) == 0  # wraps modulo n_banks

    def test_banks_of_vectorized_matches_scalar(self):
        g = BankGeometry(n_banks=3, shift=4)
        addrs = np.arange(0, 512, 8, dtype=np.int64)
        banks = g.banks_of(addrs)
        assert [g.bank_of(int(a)) for a in addrs] == banks.tolist()

    def test_bank_slots_rounding(self):
        g = BankGeometry(n_banks=4, shift=12)
        assert g.bank_slots(10) == 2
        assert g.round_slots(10) == 8


class TestBankOccupancy:
    @pytest.mark.parametrize("kind", ["perfect", "chained", "array", "dense", "slots"])
    def test_occupancy_attributes_to_the_right_bank(self, kind):
        t = make_trackers()[kind]
        # three addresses in bank 1's stripe, one in bank 2's
        fill(t, [1 << 12, (1 << 12) + 8, (1 << 12) + 16, 2 << 12])
        occ = t.bank_occupancy()
        assert occ is not None and len(occ) == GEO.n_banks
        assert occ[1] == 3 and occ[2] == 1
        assert occ[0] == 0 and occ[3] == 0

    def test_unbanked_tracker_has_no_occupancy(self):
        assert PerfectSignature().bank_occupancy() is None


class TestExportImport:
    @pytest.mark.parametrize("kind", ["perfect", "chained", "array", "dense", "slots"])
    def test_round_trip_moves_state(self, kind):
        trackers = make_trackers()
        src, dst = trackers[kind], make_trackers()[kind]
        addrs = [1 << 12, (1 << 12) + 8, 2 << 12]
        fill(src, addrs)
        payload = src.export_bank(1)
        assert payload_size(payload) == 2
        # export clears the source's bank 1 but leaves bank 2 alone
        assert src.lookup(1 << 12) is None
        assert src.lookup(2 << 12) is not None
        dst.import_bank(payload)
        rec = dst.lookup((1 << 12) + 8)
        assert rec is not None and rec.loc == 101

    @pytest.mark.parametrize("kind", ["perfect", "chained", "array", "dense", "slots"])
    def test_import_is_newest_wins(self, kind):
        trackers = make_trackers()
        a, b = trackers[kind], make_trackers()[kind]
        addr = 1 << 12
        a.insert(addr, AccessRecord(loc=1, var=0, tid=0, ts=5))
        b.insert(addr, AccessRecord(loc=2, var=0, tid=0, ts=50))
        b.import_bank(a.export_bank(1))  # older record must not clobber
        assert b.lookup(addr).ts == 50
        # and the newer one wins when shipped the other way
        b2 = make_trackers()[kind]
        b2.insert(addr, AccessRecord(loc=2, var=0, tid=0, ts=50))
        a2 = make_trackers()[kind]
        a2.insert(addr, AccessRecord(loc=1, var=0, tid=0, ts=5))
        a2.import_bank(b2.export_bank(1))
        assert a2.lookup(addr).ts == 50

    def test_array_migration_not_counted_as_eviction(self):
        src = ArraySignature(64, geometry=GEO)
        dst = ArraySignature(64, geometry=GEO)
        fill(src, [1 << 12, (1 << 12) + 8])
        dst.import_bank(src.export_bank(1))
        assert dst.bank_evictions() is not None
        assert int(dst.bank_evictions().sum()) == 0

    def test_export_requires_geometry(self):
        with pytest.raises(Exception):
            PerfectSignature().export_bank(0)


class TestEvictionParity:
    """The slot planes apply ArraySignature's eviction rule on their scalar
    path too (per-address rebalance migration inserts through it): one
    operation sequence gives both trackers the same eviction count, the
    same conflict-heat addresses and the same set of evicted slots."""

    def test_same_sequence_same_evictions(self):
        reg = MetricsRegistry()
        heat = {"array": [], "slots": []}
        sig = ArraySignature(
            64,
            eviction_counter=reg.counter("evictions", kind="array"),
            conflict_heat=heat["array"].append,
            geometry=GEO,
        )
        planes = SlotPlaneTracker(
            64,
            eviction_counter=reg.counter("evictions", kind="slots"),
            conflict_heat=lambda addrs: heat["slots"].extend(addrs.tolist()),
            geometry=GEO,
        )
        source = SlotPlaneTracker(64, geometry=GEO)
        fill(source, [(1 << 12) + 8 * i for i in range(40)], ts0=1000)
        payload = source.export_bank(1)
        bank0 = [8 * i for i in range(48)]  # 48 addresses over 16 slots
        bank1 = [(1 << 12) + 8 * i for i in range(40, 60)]
        for t in (sig, planes):
            fill(t, bank0)  # colliding inserts
            fill(t, bank0[:10], ts0=100)  # owners changed by the collisions
            t.remove(bank0[3])
            fill(t, [bank0[3], bank0[19]], ts0=200)  # insert after a kill
            t.remove_range(0, 8 * 16)
            fill(t, bank0[20:30], ts0=300)
            t.import_bank(payload)  # migration merges are not evictions
            fill(t, bank1, ts0=2000)  # collide with imported owners
        evictions = reg.counter("evictions", kind="array").value
        assert evictions > 0
        assert reg.counter("evictions", kind="slots").value == evictions
        assert heat["slots"] == heat["array"]
        assert np.flatnonzero(planes._evicted).tolist() == sorted(sig._evicted_slots)
        for a in bank0 + bank1:
            assert planes.lookup(a) == sig.lookup(a)
