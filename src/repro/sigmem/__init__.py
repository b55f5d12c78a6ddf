"""Signature-based memory-access tracking (Section III-B of the paper).

A *signature* approximates an unbounded set of memory addresses with a
bounded array: one hash function maps an address to a slot, and the slot
stores the payload of the last access (source line, variable, thread,
timestamp).  Collisions conflate addresses — producing the false
positives/negatives quantified in Table I and Eq. 2 — in exchange for a
fixed, configurable memory footprint and O(1) untraversed lookups.

This package provides six interchangeable :class:`AccessTracker`
implementations.  Every profiling run's workers use the two plane
trackers:

* :class:`SlotPlaneTracker` — the array signature as numpy planes, which
  the chunk kernel reads and writes a chunk at a time,
* :class:`DensePlaneTracker` — the perfect signature as numpy planes
  (keys from a :class:`DenseKeySpace`).

The four scalar trackers are the executable specification and the
paper's comparison points:

* :class:`ArraySignature` — the paper's data structure (fixed slots, one
  hash function, element removal for variable-lifetime analysis),
* :class:`PerfectSignature` — the collision-free baseline used to measure
  FPR/FNR (Table I),
* :class:`ShadowMemory` — the classic paged shadow-memory scheme the paper
  argues against on space grounds,
* :class:`ChainedHashTable` — the bucket-chained alternative the paper
  measures as 1.5–3.7x slower.

plus the Eq. 2 false-positive model and a signature-sizing helper.
"""

from repro.sigmem.hashing import hash_address, hash_addresses
from repro.sigmem.signature import AccessRecord, AccessTracker, ArraySignature
from repro.sigmem.perfect import PerfectSignature
from repro.sigmem.planes import DenseKeySpace, DensePlaneTracker, SlotPlaneTracker
from repro.sigmem.shadow import ShadowMemory
from repro.sigmem.hashtable import ChainedHashTable
from repro.sigmem.model import (
    expected_fpr,
    expected_occupancy,
    slots_for_target_fpr,
)

__all__ = [
    "AccessRecord",
    "AccessTracker",
    "ArraySignature",
    "ChainedHashTable",
    "DenseKeySpace",
    "DensePlaneTracker",
    "PerfectSignature",
    "ShadowMemory",
    "SlotPlaneTracker",
    "expected_fpr",
    "expected_occupancy",
    "hash_address",
    "hash_addresses",
    "slots_for_target_fpr",
]
