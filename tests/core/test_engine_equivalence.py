"""Property-based equivalence: ``profile_trace`` == the reference engine.

Random event streams (reads/writes/frees/loops over a small address pool so
collisions and revisits are frequent, plus reads pushed after later events
with an earlier timestamp) must produce identical dependence stores,
instance counts, and race counts under the chunk kernel and the reference
engine, for both perfect and signature tracking.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.config import ProfilerConfig
from repro.core import profile_trace
from tests.trace_helpers import assert_same_profile, reference_profile, seq_trace


@st.composite
def random_ops(draw):
    """A well-formed op list mixing accesses, frees, loops, and threads."""
    n = draw(st.integers(min_value=0, max_value=120))
    ops = []
    open_loops: dict[int, list[int]] = {}  # per tid loop stacks
    tid = 0
    next_line = [100]

    def line():
        next_line[0] += 1
        return next_line[0]

    addr_pool = [0x1000 + 8 * i for i in range(12)]
    loop_sites = [10, 20, 30]
    held = 0  # timestamps reserved for delayed reads
    for _ in range(n):
        stack = open_loops.setdefault(tid, [])
        choices = ["r", "w", "free", "tid", "ts"]
        if held:
            choices.append("rd")
        if stack:
            choices += ["Li", "L-"]
        if len(stack) < len(loop_sites):
            choices.append("L+")
        op = draw(st.sampled_from(choices))
        if op in ("r", "w", "rd"):
            # accesses inside a loop body require an iteration to have begun
            if stack and not draw(st.booleans()):
                ops.append(("Li", stack[-1]))
            addr = draw(st.sampled_from(addr_pool))
            var = draw(st.sampled_from(["a", "b", "c"]))
            ops.append((op, addr, draw(st.integers(1, 9)), var))
            held -= op == "rd"
        elif op == "ts":
            ops.append(("ts",))
            held += 1
        elif op == "free":
            base = draw(st.sampled_from(addr_pool))
            size = draw(st.sampled_from([8, 16, 64]))
            ops.append(("free", base, size, line()))
        elif op == "L+":
            site = loop_sites[len(stack)]
            stack.append(site)
            ops.append(("L+", site))
            ops.append(("Li", site))  # loops always begin an iteration
        elif op == "Li":
            ops.append(("Li", stack[-1]))
        elif op == "L-":
            ops.append(("L-", stack.pop()))
        elif op == "tid":
            tid = draw(st.integers(0, 2))
            ops.append(("tid", tid))
    # close all loops
    for t, stack in open_loops.items():
        ops.append(("tid", t))
        while stack:
            ops.append(("L-", stack.pop()))
    return ops


CONFIGS = [
    ProfilerConfig(perfect_signature=True),
    ProfilerConfig(signature_slots=1 << 16),
    ProfilerConfig(signature_slots=7),  # heavy collisions
    ProfilerConfig(signature_slots=1 << 16, track_lifetime=False),
]
CONFIG_IDS = ["perfect", "sig-64k", "sig-7", "no-lifetime"]


@pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
@settings(max_examples=60, deadline=None)
@given(ops=random_ops())
def test_engines_equivalent(config, ops):
    batch = seq_trace(ops)
    assert_same_profile(profile_trace(batch, config), reference_profile(batch, config))


@settings(max_examples=25, deadline=None)
@given(ops=random_ops(), salt=st.integers(0, 3))
def test_salt_affects_only_collisions(ops, salt):
    """Different salts may change collision-induced deps, but the kernel
    and the reference must still agree with each other under the same
    salt."""
    config = ProfilerConfig(signature_slots=13, hash_salt=salt)
    batch = seq_trace(ops)
    assert_same_profile(profile_trace(batch, config), reference_profile(batch, config))
