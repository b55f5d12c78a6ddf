"""Column-plane access trackers for the vectorized worker kernel.

The scalar trackers (:class:`~repro.sigmem.ArraySignature`,
:class:`~repro.sigmem.PerfectSignature`) store one boxed record per entry —
ideal for the event-at-a-time reference engine, hostile to array code.  The
incremental chunk kernel instead keeps the *same* state as parallel numpy
planes (``loc``/``var``/``tid``/``ts`` plus a presence mask) indexed by a
*tracking key*, so a whole chunk can gather its carry-in state and scatter
its carry-out state in a handful of array operations.

Two key spaces mirror the two scalar trackers:

* :class:`SlotPlaneTracker` — keys are hash slots of the paper's array
  signature (same hash, same conflation-on-collision, same removal and
  eviction semantics), so a vectorized worker with ``n`` slots is
  bit-for-bit equivalent to a reference worker with an ``ArraySignature``
  of ``n`` slots, eviction counts and suspect-FP flags included.
* :class:`DensePlaneTracker` — keys are dense indices handed out by a
  :class:`DenseKeySpace` (one per worker, shared by the worker's read and
  write planes so both sides agree on every key), equivalent to the
  collision-free :class:`~repro.sigmem.PerfectSignature`.

Both implement the full :class:`~repro.sigmem.AccessTracker` protocol, so
signature migration during load balancing and the workers' occupancy/fill
gauges work unchanged.
"""

from __future__ import annotations

import mmap
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.sigmem.banks import BankGeometry, slots_payload
from repro.sigmem.hashing import hash_address, hash_addresses
from repro.sigmem.signature import SLOT_BYTES, AccessRecord, AccessTracker

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.obs.metrics import Counter


#: On Linux numpy asks for transparent huge pages (2 MiB each) for every
#: array of at least this many bytes.
_HUGEPAGE_BYTES = 1 << 22


def _sparse_zeros(n: int, dtype) -> np.ndarray:
    """A zeroed slot plane whose memory is committed in base pages as its
    slots are first written.

    Slot planes are touched sparsely, one slot per tracked address.  On
    huge pages every touched slot would commit 2 MiB per plane, so a large
    signature over a few thousand addresses would cost gigabytes; below
    numpy's huge-page size the plane is a plain ``np.zeros``.
    """
    dtype = np.dtype(dtype)
    nbytes = n * dtype.itemsize
    if nbytes < _HUGEPAGE_BYTES:
        return np.zeros(n, dtype=dtype)
    buf = mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE)
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        buf.madvise(mmap.MADV_NOHUGEPAGE)
    return np.frombuffer(buf, dtype=dtype)


class _PlaneStore:
    """The shared plane mechanics: presence mask + four payload columns."""

    def __init__(self, capacity: int, zeros=np.zeros) -> None:
        self._present = zeros(capacity, dtype=bool)
        self._loc = zeros(capacity, dtype=np.int64)
        self._var = zeros(capacity, dtype=np.int64)
        self._tid = zeros(capacity, dtype=np.int64)
        self._ts = zeros(capacity, dtype=np.int64)
        self._filled = 0

    # -- batch ops (the kernel's hot path) --------------------------------
    def gather(
        self, keys: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Presence + payload columns for ``keys`` (payload is garbage where
        not present; callers mask)."""
        return (
            self._present[keys],
            self._loc[keys],
            self._var[keys],
            self._tid[keys],
            self._ts[keys],
        )

    def set_rows(
        self,
        keys: np.ndarray,
        loc: np.ndarray,
        var: np.ndarray,
        tid: np.ndarray,
        ts: np.ndarray,
    ) -> None:
        """Scatter records at unique ``keys`` (last-access payload)."""
        if len(keys) == 0:
            return
        self._filled += int(np.count_nonzero(~self._present[keys]))
        self._present[keys] = True
        self._loc[keys] = loc
        self._var[keys] = var
        self._tid[keys] = tid
        self._ts[keys] = ts

    def clear_keys(self, keys: np.ndarray) -> None:
        """Remove records at unique ``keys`` (variable-lifetime kills)."""
        if len(keys) == 0:
            return
        self._filled -= int(np.count_nonzero(self._present[keys]))
        self._present[keys] = False

    # -- scalar ops (migration / lifetime support) ------------------------
    def get(self, key: int) -> AccessRecord | None:
        if not self._present[key]:
            return None
        return AccessRecord(
            int(self._loc[key]),
            int(self._var[key]),
            int(self._tid[key]),
            int(self._ts[key]),
        )

    def put(self, key: int, record: AccessRecord) -> None:
        if not self._present[key]:
            self._filled += 1
            self._present[key] = True
        self._loc[key] = record.loc
        self._var[key] = record.var
        self._tid[key] = record.tid
        self._ts[key] = record.ts

    def drop(self, key: int) -> None:
        if self._present[key]:
            self._filled -= 1
            self._present[key] = False

    def wipe(self) -> None:
        self._present[:] = False
        self._filled = 0

    def grow_to(self, capacity: int) -> None:
        old = len(self._present)
        if capacity <= old:
            return
        cap = max(old * 2, capacity, 16)
        for name in ("_present", "_loc", "_var", "_tid", "_ts"):
            arr = getattr(self, name)
            new = np.zeros(cap, dtype=arr.dtype)
            new[:old] = arr
            setattr(self, name, new)


class SlotPlaneTracker(AccessTracker):
    """Array-signature state as numpy planes (key = hash slot).

    Identical observable behaviour to :class:`~repro.sigmem.ArraySignature`:
    colliding addresses overwrite one another, ``remove`` clears the slot
    regardless of owner, and ``remove_range`` clears the slots of every
    stride-aligned address in the range.

    Two planes beside the payload keep the collision bookkeeping: the
    owner-address plane (which address last wrote each slot — occupancy
    attribution, bank payloads, the eviction rule) and a 1-byte evicted
    plane (slots that ever had a colliding overwrite — the suspect-FP
    lineage).  The eviction rule (:meth:`evicts`) is the array signature's:
    an insert evicts when its slot holds another address's record.  The
    chunk kernel applies it to a whole chunk at once and reports the
    evicting rows through :meth:`note_evictions`; the scalar :meth:`insert`
    (used by per-address rebalance migration) applies it to one address.  Either
    way each eviction is counted in ``eviction_counter`` and attributed
    through ``conflict_heat`` (called with an array of inserted addresses),
    the same hooks :class:`~repro.sigmem.ArraySignature` takes.

    With a ``geometry`` the slot planes are sharded into per-address-range
    banks exactly as :class:`~repro.sigmem.ArraySignature` banks its slot
    list (``key = bank * bank_slots + h(addr) % bank_slots``), so a bank is
    one contiguous plane slice and :meth:`export_bank`/:meth:`import_bank`
    move it with a handful of array ops.
    """

    def __init__(
        self,
        n_slots: int,
        salt: int = 0,
        eviction_counter: "Counter | None" = None,
        conflict_heat: "Callable[[np.ndarray], None] | None" = None,
        geometry: BankGeometry | None = None,
    ) -> None:
        if n_slots <= 0:
            raise ValueError("n_slots must be positive")
        self.bank_geometry = geometry
        self.bank_slots = (
            geometry.bank_slots(n_slots) if geometry is not None else 0
        )
        self.n_slots = (
            geometry.round_slots(n_slots) if geometry is not None else int(n_slots)
        )
        self.salt = int(salt)
        self.eviction_counter = eviction_counter
        self.conflict_heat = conflict_heat
        self._store = _PlaneStore(self.n_slots, zeros=_sparse_zeros)
        self._addrs = _sparse_zeros(self.n_slots, dtype=np.int64)
        self._evicted = _sparse_zeros(self.n_slots, dtype=bool)

    # -- key derivation ----------------------------------------------------
    def key_of(self, addr: int) -> int:
        if self.bank_geometry is None:
            return hash_address(addr, self.n_slots, self.salt)
        bank = self.bank_geometry.bank_of(addr)
        return bank * self.bank_slots + hash_address(
            addr, self.bank_slots, self.salt
        )

    def keys_of(self, addrs: np.ndarray) -> np.ndarray:
        if self.bank_geometry is None:
            return hash_addresses(addrs, self.n_slots, self.salt)
        banks = self.bank_geometry.banks_of(addrs)
        return banks * self.bank_slots + hash_addresses(
            addrs, self.bank_slots, self.salt
        )

    # -- batch ops ---------------------------------------------------------
    def gather(self, keys: np.ndarray):
        return self._store.gather(keys)

    def gather_owners(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Owner address and evicted flag of each slot in ``keys``."""
        return self._addrs[keys], self._evicted[keys]

    def set_rows(self, keys, loc, var, tid, ts, addr) -> None:
        self._store.set_rows(keys, loc, var, tid, ts)
        self._addrs[keys] = addr

    def clear_keys(self, keys: np.ndarray) -> None:
        self._store.clear_keys(keys)

    @staticmethod
    def evicts(present, owner, addr):
        """The eviction rule, on scalars or aligned arrays: an insert of
        ``addr`` evicts when its slot is ``present`` and held by another
        ``owner``."""
        return present & (owner != addr)

    def note_evictions(self, keys: np.ndarray, addrs: np.ndarray) -> None:
        """Record hash-conflict evictions: inserts of ``addrs`` that
        overwrote another address's record in slots ``keys``."""
        n = len(keys)
        if n == 0:
            return
        self._evicted[keys] = True
        if self.eviction_counter is not None:
            self.eviction_counter.inc(n)
        if self.conflict_heat is not None:
            self.conflict_heat(addrs)

    # -- AccessTracker protocol --------------------------------------------
    def insert(self, addr: int, record: AccessRecord) -> None:
        key = self.key_of(addr)
        if self.evicts(self._store._present[key], self._addrs[key], addr):
            self.note_evictions(
                np.array([key], dtype=np.int64), np.array([addr], dtype=np.int64)
            )
        self._store.put(key, record)
        self._addrs[key] = addr

    def lookup(self, addr: int) -> AccessRecord | None:
        return self._store.get(self.key_of(addr))

    def remove(self, addr: int) -> None:
        self._store.drop(self.key_of(addr))

    def remove_range(self, lo: int, hi: int, stride: int = 8) -> None:
        if hi <= lo:
            return
        addrs = np.arange(lo, hi, stride, dtype=np.int64)
        self._store.clear_keys(np.unique(self.keys_of(addrs)))

    def clear(self) -> None:
        self._store.wipe()
        self._evicted[:] = False

    def occupied(self) -> int:
        return self._store._filled

    def fill_ratio(self) -> float:
        return self._store._filled / self.n_slots

    def occupied_addrs(self) -> np.ndarray:
        """Owner addresses of the occupied slots (current owner where
        conflated, matching :class:`~repro.sigmem.ArraySignature`)."""
        return self._addrs[self._store._present]

    @property
    def memory_bytes(self) -> int:
        # Same accounting as ArraySignature: the configured slot count is the
        # committed footprint whether or not the planes are resident.
        return self.n_slots * SLOT_BYTES

    # -- bank protocol ------------------------------------------------------
    def bank_occupancy(self) -> np.ndarray | None:
        geo = self.bank_geometry
        if geo is None:
            return None
        present = self._store._present[: self.n_slots]
        return present.reshape(geo.n_banks, self.bank_slots).sum(axis=1)

    def export_bank(self, bank: int) -> dict:
        """Extract-and-clear one bank: a contiguous plane slice, vectorized."""
        geo = self._require_geometry()
        if not (0 <= bank < geo.n_banks):
            raise ValueError(f"bank {bank} out of range [0, {geo.n_banks})")
        base = bank * self.bank_slots
        present = self._store._present[base : base + self.bank_slots]
        local = np.flatnonzero(present).astype(np.int64)
        keys = base + local
        payload = slots_payload(
            bank,
            self.bank_slots,
            local,
            self._store._loc[keys],
            self._store._var[keys],
            self._store._tid[keys],
            self._store._ts[keys],
            self._addrs[keys],
        )
        self._store.clear_keys(keys)
        return payload

    def import_bank(self, payload: dict) -> None:
        """Merge a bank payload, newest access winning per slot."""
        geo = self._require_geometry()
        if payload["format"] != "slots":
            raise ValueError(
                f"{type(self).__name__} imports slots-format bank payloads, "
                f"got {payload['format']!r}"
            )
        if int(payload["bank_slots"]) != self.bank_slots:
            raise ValueError(
                f"bank payload has {payload['bank_slots']} slots/bank, "
                f"this tracker has {self.bank_slots}"
            )
        bank = int(payload["bank"])
        if not (0 <= bank < geo.n_banks):
            raise ValueError(f"bank {bank} out of range [0, {geo.n_banks})")
        keys = bank * self.bank_slots + payload["slot"]
        present, _, _, _, ts = self._store.gather(keys)
        win = ~present | (ts < payload["ts"])
        if not win.any():
            return
        keep = keys[win]
        self._store.set_rows(
            keep,
            payload["loc"][win],
            payload["var"][win],
            payload["tid"][win],
            payload["ts"][win],
        )
        if payload["addr"] is not None:
            self._addrs[keep] = payload["addr"][win]


class DenseKeySpace:
    """Address -> dense-key mapping shared by one worker's plane pair.

    Keys are handed out on first sight — in ascending address order within
    one call — and never recycled: a freed address keeps its key so later
    reuse of the address maps to the same plane row (whose presence bit the
    kill cleared).

    The mapping is two sorted numpy columns (known addresses ascending, and
    the key of each), so every lookup is a ``searchsorted``; a third column,
    :attr:`addrs`, maps each key back to its address.
    """

    def __init__(self) -> None:
        self._sorted = np.empty(0, dtype=np.int64)
        self._sorted_keys = np.empty(0, dtype=np.int64)
        #: The address of every key, indexed by key.
        self.addrs = np.empty(0, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.addrs)

    def _find(self, addrs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Positions of ``addrs`` in the sorted column, and which are known."""
        pos = np.searchsorted(self._sorted, addrs)
        hit = pos < len(self._sorted)
        hit[hit] = self._sorted[pos[hit]] == addrs[hit]
        return pos, hit

    def get(self, addr: int) -> int | None:
        pos, hit = self._find(np.array([addr], dtype=np.int64))
        return int(self._sorted_keys[pos[0]]) if hit[0] else None

    def key_for(self, addr: int) -> int:
        return int(self.keys_for(np.array([addr], dtype=np.int64))[0])

    def keys_for(self, addrs: np.ndarray) -> np.ndarray:
        """Key of each address in ``addrs``; unseen addresses get new keys."""
        addrs = np.asarray(addrs, dtype=np.int64)
        order = np.argsort(addrs, kind="stable")
        ordered = addrs[order]
        first = np.ones(len(ordered), dtype=bool)
        np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
        uniq = ordered[first]
        pos, hit = self._find(uniq)
        keys = np.empty(len(uniq), dtype=np.int64)
        keys[hit] = self._sorted_keys[pos[hit]]
        new = ~hit
        n_new = int(np.count_nonzero(new))
        if n_new:
            fresh = np.arange(len(self), len(self) + n_new, dtype=np.int64)
            keys[new] = fresh
            self._sorted = np.insert(self._sorted, pos[new], uniq[new])
            self._sorted_keys = np.insert(self._sorted_keys, pos[new], fresh)
            self.addrs = np.concatenate([self.addrs, uniq[new]])
        out = np.empty(len(addrs), dtype=np.int64)
        out[order] = keys[np.cumsum(first) - 1]
        return out

    def probe_keys(self, lo: int, hi: int, stride: int) -> np.ndarray:
        """Keys of known addresses in ``[lo, hi)`` aligned to ``lo`` modulo
        ``stride`` (``PerfectSignature.remove_range``'s rule)."""
        if hi <= lo:
            return np.empty(0, dtype=np.int64)
        a, b = np.searchsorted(self._sorted, [lo, hi])
        aligned = (self._sorted[a:b] - lo) % stride == 0
        return self._sorted_keys[a:b][aligned]


class DensePlaneTracker(AccessTracker):
    """Collision-free tracking as numpy planes (key = dense address index).

    Equivalent to :class:`~repro.sigmem.PerfectSignature`; memory accounting
    follows the same ~88-bytes-per-live-entry model so cost/memory reports
    stay comparable with the reference engine's.

    Dense keys have no bank structure, so a ``geometry`` enables the
    *generic* record-format bank protocol from the base class: exports are
    exact per-address payloads recovered through the key space's inverse
    map, imports re-insert newest-wins.
    """

    def __init__(
        self, space: DenseKeySpace, geometry: BankGeometry | None = None
    ) -> None:
        self.space = space
        self.bank_geometry = geometry
        self._store = _PlaneStore(16)

    # -- batch ops ---------------------------------------------------------
    def keys_of(self, addrs: np.ndarray) -> np.ndarray:
        keys = self.space.keys_for(addrs)
        self._store.grow_to(len(self.space))
        return keys

    def gather(self, keys: np.ndarray):
        self._store.grow_to(len(self.space))
        return self._store.gather(keys)

    def set_rows(self, keys, loc, var, tid, ts, addr=None) -> None:
        # ``addr`` accepted for kernel-signature parity; the dense key space
        # already knows every key's owner, so no extra plane is kept.
        self._store.grow_to(len(self.space))
        self._store.set_rows(keys, loc, var, tid, ts)

    def clear_keys(self, keys: np.ndarray) -> None:
        self._store.grow_to(len(self.space))
        self._store.clear_keys(keys)

    # -- AccessTracker protocol --------------------------------------------
    def insert(self, addr: int, record: AccessRecord) -> None:
        key = self.space.key_for(addr)
        self._store.grow_to(len(self.space))
        self._store.put(key, record)

    def lookup(self, addr: int) -> AccessRecord | None:
        key = self.space.get(addr)
        if key is None or key >= len(self._store._present):
            return None
        return self._store.get(key)

    def remove(self, addr: int) -> None:
        key = self.space.get(addr)
        if key is not None and key < len(self._store._present):
            self._store.drop(key)

    def remove_range(self, lo: int, hi: int, stride: int = 8) -> None:
        keys = self.space.probe_keys(lo, hi, stride)
        if len(keys):
            self._store.grow_to(len(self.space))
            self._store.clear_keys(keys)

    def clear(self) -> None:
        self._store.wipe()

    def occupied(self) -> int:
        return self._store._filled

    def occupied_addrs(self) -> np.ndarray:
        """Owner addresses of the live entries, recovered from the key
        space (keys never recycle, so the inverse map is exact)."""
        present = self._store._present
        n = min(len(present), len(self.space))
        return self.space.addrs[:n][present[:n]]

    @property
    def memory_bytes(self) -> int:
        return 64 + self._store._filled * 88
