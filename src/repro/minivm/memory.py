"""MiniVM's flat 64-bit memory model.

Layout (8-byte elements everywhere — the profiler's access granularity):

* globals   at ``0x0001_0000`` — bump-allocated once per program,
* heap      at ``0x1000_0000`` — ``malloc``/``free`` with first-fit reuse of
  freed blocks, so address recycling (the motivation for variable-lifetime
  analysis) actually happens,
* stacks    at ``0x2000_0000 + tid * 0x0100_0000`` — one bump stack per
  thread; frames pop on return, so traced locals of successive calls reuse
  addresses, just like a real call stack.

Values live in a dict keyed by address; uninitialized reads return 0.
"""

from __future__ import annotations

from repro.common.errors import MiniVmError

ELEM_SIZE = 8
GLOBAL_BASE = 0x0001_0000
HEAP_BASE = 0x1000_0000
STACK_BASE = 0x2000_0000
STACK_SPAN = 0x0100_0000
MAX_THREADS = 512


class Memory:
    """Address allocation + value storage for one program execution."""

    def __init__(self) -> None:
        self._global_top = GLOBAL_BASE
        self._heap_top = HEAP_BASE
        self._free_blocks: list[tuple[int, int]] = []  # (size_elems, base)
        self._stack_tops: dict[int, list[int]] = {}  # tid -> frame base stack
        self._values: dict[int, float | int] = {}
        self._heap_sizes: dict[int, int] = {}  # live block base -> elems

    # -- allocation -----------------------------------------------------------
    def alloc_global(self, n_elems: int) -> int:
        base = self._global_top
        self._global_top += n_elems * ELEM_SIZE
        return base

    def malloc(self, n_elems: int) -> int:
        """First-fit from the free list, else bump — addresses get reused."""
        if n_elems <= 0:
            raise MiniVmError(f"malloc of {n_elems} elements")
        for i, (size, base) in enumerate(self._free_blocks):
            if size >= n_elems:
                self._free_blocks.pop(i)
                self._heap_sizes[base] = n_elems
                return base
        base = self._heap_top
        self._heap_top += n_elems * ELEM_SIZE
        self._heap_sizes[base] = n_elems
        return base

    def mfree(self, base: int) -> int:
        """Free a live block; returns its size in elements."""
        size = self._heap_sizes.pop(base, None)
        if size is None:
            raise MiniVmError(f"free of unallocated address {base:#x}")
        self._free_blocks.append((size, base))
        # Values of the dead block are dropped so a reusing malloc starts at 0.
        for a in range(base, base + size * ELEM_SIZE, ELEM_SIZE):
            self._values.pop(a, None)
        return size

    def push_frame(self, tid: int, n_elems: int) -> int:
        if tid >= MAX_THREADS:
            raise MiniVmError(f"thread id {tid} exceeds {MAX_THREADS}")
        stack = self._stack_tops.setdefault(tid, [STACK_BASE + tid * STACK_SPAN])
        base = stack[-1]
        top = base + n_elems * ELEM_SIZE
        if top > STACK_BASE + (tid + 1) * STACK_SPAN:
            raise MiniVmError(f"stack overflow on thread {tid}")
        stack.append(top)
        return base

    def pop_frame(self, tid: int) -> None:
        stack = self._stack_tops.get(tid)
        if not stack or len(stack) < 2:
            raise MiniVmError(f"pop_frame on empty stack of thread {tid}")
        top = stack.pop()
        base = stack[-1]
        # Drop dead stack values so reused addresses read as fresh zeros.
        for a in range(base, top, ELEM_SIZE):
            self._values.pop(a, None)

    # -- value access ------------------------------------------------------------
    def read(self, addr: int) -> float | int:
        return self._values.get(addr, 0)

    def write(self, addr: int, value: float | int) -> None:
        self._values[addr] = value

    def read_block(self, addrs) -> list[float | int]:
        """Read many addresses at once (affine fast path gather)."""
        get = self._values.get
        return [get(a, 0) for a in addrs]

    def write_block(self, addrs, values) -> None:
        """Write many address/value pairs at once (affine fast path scatter).

        Later pairs win on duplicate addresses, matching a sequential run.
        """
        self._values.update(zip(addrs, values))

    # -- introspection --------------------------------------------------------------
    @property
    def n_live_heap_blocks(self) -> int:
        return len(self._heap_sizes)
