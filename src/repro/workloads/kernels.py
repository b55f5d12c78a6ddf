"""Reusable MiniVM kernel builders.

The benchmark analogs compose these the way the originals compose BLAS-ish
loops: every helper emits one loop into a :class:`FunctionBuilder` and
returns the loop statement (whose ``.line`` is the loop's site for
ground-truth bookkeeping).

Dependence character of each kernel (what Table II ground truth relies on):

===================  ========================================================
kernel               carried dependences
===================  ========================================================
init / fill / copy   none — parallelizable
axpy / scale         none — parallelizable
dot reduce           same-line RAW+WAW on the accumulator — reduction
stencil (dst!=src)   none — parallelizable
histogram_rank       RAW between distinct lines via indirection — blocked
prefix / recurrence  RAW across iterations — blocked
lcg_fill             none on memory (state in a register) — parallelizable
===================  ========================================================
"""

from __future__ import annotations

from repro.minivm.astnodes import Variable
from repro.minivm.builder import FunctionBuilder

#: LCG constants (glibc) for in-program pseudo-random data.
LCG_A = 1103515245
LCG_C = 12345
LCG_M = 1 << 31


def lcg_step(f: FunctionBuilder, seed_reg) -> None:
    """Advance a register-held LCG state: seed = (a*seed + c) mod m."""
    f.set(seed_reg, (seed_reg * LCG_A + LCG_C) % LCG_M)


def fill(f: FunctionBuilder, arr: Variable, n, value_of) -> object:
    """``for i: arr[i] = value_of(i)`` — parallelizable."""
    i = f.reg(f"i_fill_{arr.name}")
    with f.for_loop(i, 0, n) as loop:
        f.store(arr, i, value_of(i))
    return loop


def lcg_fill(f: FunctionBuilder, arr: Variable, n, seed: int) -> object:
    """Fill with LCG pseudo-randoms; the chain lives in a register, so the
    loop itself carries no memory dependence (like -O2'd rand inlining)."""
    s = f.reg(f"seed_{arr.name}")
    f.set(s, seed % LCG_M)
    i = f.reg(f"i_lcg_{arr.name}")
    with f.for_loop(i, 0, n) as loop:
        lcg_step(f, s)
        f.store(arr, i, s % 1000)
    return loop


def copy(f: FunctionBuilder, dst: Variable, src: Variable, n) -> object:
    i = f.reg(f"i_copy_{dst.name}")
    with f.for_loop(i, 0, n) as loop:
        f.store(dst, i, f.load(src, i))
    return loop


def axpy(f: FunctionBuilder, y: Variable, x: Variable, n, alpha) -> object:
    """``y[i] += alpha * x[i]`` — parallelizable (element-local RAW only)."""
    i = f.reg(f"i_axpy_{y.name}")
    with f.for_loop(i, 0, n) as loop:
        f.store(y, i, f.load(y, i) + alpha * f.load(x, i))
    return loop


def scale(f: FunctionBuilder, y: Variable, n, alpha) -> object:
    i = f.reg(f"i_scale_{y.name}")
    with f.for_loop(i, 0, n) as loop:
        f.store(y, i, f.load(y, i) * alpha)
    return loop


def dot_reduce(
    f: FunctionBuilder, acc: Variable, x: Variable, y: Variable, n
) -> object:
    """``acc += x[i]*y[i]`` — reduction."""
    i = f.reg(f"i_dot_{acc.name}")
    with f.for_loop(i, 0, n) as loop:
        f.store(acc, None, f.load(acc) + f.load(x, i) * f.load(y, i))
    return loop


def stencil3(f: FunctionBuilder, dst: Variable, src: Variable, n) -> object:
    """Out-of-place 3-point smoothing — parallelizable."""
    i = f.reg(f"i_st_{dst.name}")
    with f.for_loop(i, 1, n - 1) as loop:
        f.store(
            dst,
            i,
            (f.load(src, i - 1) + f.load(src, i) * 2 + f.load(src, i + 1)) / 4,
        )
    return loop


def recurrence(f: FunctionBuilder, a: Variable, n) -> object:
    """``a[i] = a[i-1] + a[i]`` — inherently sequential (prefix sum)."""
    i = f.reg(f"i_rec_{a.name}")
    with f.for_loop(i, 1, n) as loop:
        f.store(a, i, f.load(a, i - 1) + f.load(a, i))
    return loop


def histogram_rank(
    f: FunctionBuilder,
    counts: Variable,
    keys: Variable,
    out: Variable,
    n,
) -> object:
    """Counting-sort ranking: ``pos = counts[k]; out[pos] = i; counts[k]++``.

    The read and increment of ``counts`` sit on *different* source lines, so
    the carried RAW is not a same-line reduction — dependence analysis
    rightly refuses to parallelize it (the OpenMP original uses atomics and
    per-thread sub-histograms instead).
    """
    i = f.reg(f"i_hist_{counts.name}")
    k = f.reg(f"k_hist_{counts.name}")
    p = f.reg(f"p_hist_{counts.name}")
    with f.for_loop(i, 0, n) as loop:
        f.set(k, f.load(keys, i))
        f.set(p, f.load(counts, k))
        f.store(out, p, i)
        f.store(counts, k, f.reg(p.name) + 1)
    return loop


def gather(
    f: FunctionBuilder, dst: Variable, src: Variable, index: Variable, n
) -> object:
    """``dst[i] = src[index[i]]`` — parallelizable (reads may collide, writes
    are disjoint)."""
    i = f.reg(f"i_gth_{dst.name}")
    with f.for_loop(i, 0, n) as loop:
        f.store(dst, i, f.load(src, f.load(index, i)))
    return loop
