"""Randomized differential test of the producer fast path.

A seeded :class:`~repro.minivm.ProgramBuilder` generator writes small
programs biased to the shapes the fast path runs in its exact scalar lane
(``sequential`` statement groups): register and shifted-array recurrences,
histograms through loaded or computed indexes, in-group ``if``/``else``,
guarded division, shifts, floats, ``sin``/``cos`` and unset registers.
Every program runs with the fast path on and off; the trace (all eight
columns and the intern tables), final memory and the raised error type must
be identical.  Tier-1 runs the fixed :data:`BUDGET`; CI runs the same
generator over 3,000 seeds through :func:`fuzz`.
"""

from __future__ import annotations

import random

import numpy as np

from repro.minivm import ProgramBuilder, Scheduler, affine
from repro.minivm.astnodes import BinOp, Const, For, UnOp

N = 40  # array extent
H = 12  # histogram extent
BUDGET = 500

COLUMNS = ("kind", "tid", "loc", "addr", "aux", "var", "ts", "ctx")
ARITH = ("+", "-", "*", "//", "%", "/", "min", "max")
BITS = ("<<", ">>", "&", "|", "^")  # raise TypeError on a float operand
COMPARE = ("<", "<=", ">", ">=", "==", "!=")
UNOPS = ("-", "not", "int", "abs", "sqrt", "sin", "cos")


class _Body:
    """Random statements for one loop body over induction register ``i``."""

    def __init__(self, rng: random.Random, f, i, v: dict, regs: list, risky: bool):
        self.rng, self.f, self.i, self.v, self.regs = rng, f, i, v, regs
        #: whether this program may read unset registers and index out of bounds
        self.risky = risky

    def leaf(self):
        rng, f, i, v = self.rng, self.f, self.i, self.v
        pick = rng.random()
        if pick < 0.35:
            return rng.choice(self.regs)
        if pick < 0.45:
            return Const(rng.randint(-3, 9))
        if pick < 0.5:
            return Const(rng.choice([0.5, -1.25, 2.0]))
        if pick < 0.55:
            return i
        if pick < 0.57 and self.risky:
            return f.reg("u")  # never set: the interpreter raises on it
        arr = rng.choice(["a", "c", "x", "a", "c"])
        if pick < 0.9:
            return f.load(v[arr], i)
        if pick < 0.96:
            return f.load(v["h"], f.load(v["c"], i))  # gather, in bounds
        return f.load(v["s"])

    def expr(self, depth: int):
        rng = self.rng
        if depth == 0 or rng.random() < 0.3:
            return self.leaf()
        if rng.random() < 0.1:
            return UnOp(rng.choice(UNOPS), self.expr(depth - 1))
        op = rng.choice(ARITH * 2 + BITS + COMPARE)
        return self.binop(op, self.expr(depth - 1), depth - 1)

    def binop(self, op: str, lhs, depth: int):
        """``lhs op rhs`` with a random ``rhs`` of at most ``depth`` levels;
        values grow by a bounded number of bits per iteration."""
        rng = self.rng
        if op == "*":
            rhs = rng.choice([Const(rng.randint(-4, 7)), self.f.load(self.v["c"], self.i)])
        elif op == "<<" or (op == ">>" and not self.risky):
            rhs = Const(rng.randint(0, 3))
        else:
            rhs = self.expr(depth)
        if op in BITS and not self.risky:
            lhs, rhs = UnOp("int", lhs), UnOp("int", rhs)
        return BinOp(op, lhs, rhs)

    def bounded(self, e):
        """Most recurrences wrap their value, so it stays small."""
        if self.rng.random() < 0.8:
            return BinOp("%", e, Const(self.rng.randint(5, 97)))
        return e

    def index(self):
        """A histogram index: usually in bounds, sometimes not."""
        rng, f, i, v = self.rng, self.f, self.i, self.v
        choices = [
            lambda: f.load(v["c"], i),
            lambda: f.load(v["a"], i) % H,
            lambda: rng.choice(self.regs) % H,  # a float register: int() coerces
        ]
        if self.risky:
            choices += [
                lambda: f.load(v["a"], i),  # negative entries leave the array
                lambda: f.load(v["a"], i) + 6,  # large entries leave the array
                lambda: f.load(v["x"], i) * 2,
                lambda: rng.choice(self.regs),
            ]
        return rng.choice(choices)()

    def update(self, r) -> None:
        """One recurrence: a register chain, a shifted array recurrence, a
        histogram bump or a slot recurrence."""
        rng, f, i, v = self.rng, self.f, self.i, self.v
        kind = rng.choice(["reg", "reg", "reg", "array", "hist", "hist", "slot"])
        if kind == "reg":
            f.set(r, self.bounded(self.binop(rng.choice(ARITH + BITS), r, 2)))
        elif kind == "array":
            arr = v[rng.choice(["a", "c", "x"])]
            f.store(arr, i, self.bounded(f.load(arr, i - 1) + self.expr(2)))
        elif kind == "hist":
            k = self.index()
            f.store(v["h"], k, f.load(v["h"], k) + self.expr(1))
        else:
            f.store(v["s"], None, self.bounded(f.load(v["s"]) * 3 + self.expr(2)))

    def statement(self) -> None:
        rng, f, i, v = self.rng, self.f, self.i, self.v
        kind = rng.choice(["update"] * 7 + ["down", "if_in", "if_in", "if_out", "pred_def"])
        r = rng.choice(self.regs)
        if kind == "update":
            self.update(r)
        elif kind == "down":  # reads the lanes' outputs
            f.store(v[rng.choice(["c", "x"])], i, self.expr(2))
        elif kind == "if_in":  # condition inside a register recurrence
            with f.if_(BinOp(rng.choice(COMPARE), r % 3, Const(1))):
                f.set(r, self.bounded(r + self.expr(1)))
                if rng.random() < 0.4:
                    self.update(r)
            if rng.random() < 0.7:
                with f.else_():
                    self.update(r)
        elif kind == "if_out":  # condition outside the recurrences
            with f.if_(f.load(v["a"], i).gt(rng.randint(-3, 8))):
                for _ in range(rng.randint(1, 2)):
                    self.update(r)
        else:  # predicated def read by a recurrence
            q = f.reg("q")
            with f.if_((i % 3).eq(rng.randint(0, 2))):
                f.set(q, self.expr(1))
            f.set(r, self.bounded(r + q))


def random_program(seed: int):
    """One seeded program: a seeding prologue, then 1-3 target loops."""
    rng = random.Random(seed)
    b = ProgramBuilder(f"fuzz-{seed}")
    v = {name: b.global_array(name, N) for name in ("a", "c", "x")}
    v["h"] = b.global_array("h", H)
    v["s"] = b.global_scalar("s")
    with b.function("main") as f:
        j = f.reg("j")
        with f.for_loop(j, 0, N):
            f.store(v["a"], j, (j * rng.randint(1, 9) + rng.randint(0, 9)) % 23 - 6)
            f.store(v["c"], j, (j * rng.randint(1, 5)) % 7)
            f.store(v["x"], j, j * 0.25 - rng.randint(0, 4))
        risky = rng.random() < 0.3
        regs = [f.reg(f"r{n}") for n in range(3)]
        if not risky:
            f.set(f.reg("q"), 0)  # else: predicated defs may leave it unset
        for r in regs:
            if not risky or rng.random() < 0.8:  # else: read before any definition
                f.set(r, rng.randint(-5, 30) if rng.random() < 0.7 else rng.uniform(-2, 2))
        for li in range(rng.randint(1, 3)):
            i = f.reg(f"i{li}")
            trip = rng.randint(affine.MIN_TRIP - 1, N - 3)
            header = (1, trip + 1) if rng.random() < 0.8 else (trip, 0, -1)
            with f.for_loop(i, *header):
                body = _Body(rng, f, i, v, regs, risky)
                for _ in range(rng.randint(1, 4)):
                    body.statement()
    return b.build()


def _run(program, fastpath: bool):
    """(scheduler, trace or ``None`` after an error, memory, error)."""
    sched = Scheduler(program, fastpath=fastpath)
    batch = error = None
    try:
        batch = sched.run(())
    except Exception as exc:  # the differential compares the error
        error = f"{type(exc).__name__}: {exc}"
    memory = {a: (type(x).__name__, repr(x)) for a, x in sched.memory._values.items()}
    return sched, batch, memory, error


def mismatch(program) -> tuple[str | None, dict]:
    """What differs between the fast-path and interpreted runs of
    ``program`` (``None`` if nothing), and the fast run's bailouts."""
    fast, fb, fmem, ferr = _run(program, True)
    _, sb, smem, serr = _run(program, False)
    bailouts = fast.interp.fastpath_stats.bailouts
    if ferr != serr:
        return f"error {ferr!r} vs {serr!r}", bailouts
    if fmem != smem:
        return "final memory", bailouts
    if ferr is not None:
        return None, bailouts
    for col in COLUMNS:
        x, y = getattr(fb, col), getattr(sb, col)
        if x.dtype != y.dtype or len(x) != len(y) or not np.array_equal(x, y):
            return f"column {col}", bailouts
    for table in ("var_names", "file_names", "ctx_stacks"):
        if getattr(fb, table) != getattr(sb, table):
            return f"intern table {table}", bailouts
    return None, bailouts


def has_sequential_group(program) -> bool:
    for s in program.function("main").body:
        if isinstance(s, For):
            tmpl, _ = affine.classify_loop(s)
            if tmpl is not None and any(g.mode == "sequential" for g in tmpl.groups):
                return True
    return False


def fuzz(seeds) -> dict:
    """Run every seed; returns the mismatching seeds, the share of
    programs with a ``sequential`` template and the bailouts seen."""
    bad, sequential, bailouts = {}, 0, {}
    seeds = list(seeds)
    for seed in seeds:
        program = random_program(seed)
        sequential += has_sequential_group(program)
        what, seen = mismatch(program)
        if what is not None:
            bad[seed] = what
        for reason, n in seen.items():
            bailouts[reason] = bailouts.get(reason, 0) + n
    return {"bad": bad, "sequential": sequential / len(seeds), "bailouts": bailouts}


def test_fast_path_matches_interpreter_on_random_programs():
    got = fuzz(range(BUDGET))
    assert not got["bad"], got["bad"]
    # Not vacuous: most programs reach the sequential lane, and the budget
    # reaches the lane's bailouts as well as its hits.
    assert got["sequential"] >= 0.8, got["sequential"]
    assert {"oob_index", "error:KeyError"} <= set(got["bailouts"]), got["bailouts"]
