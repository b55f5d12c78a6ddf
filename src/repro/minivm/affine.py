"""Affine-loop fast path: the producer-side "tracing JIT" of the MiniVM.

The tree-walking interpreter costs ~10 Python-level calls per loop iteration
(register update, loop_iter marker, per-access address eval + emit + memory
touch), which makes trace *production* the serial bottleneck of the whole
pipeline.  This module removes that bottleneck for innermost counted loops
whose bodies are ``SetReg``/``Store`` statements over numpy-expressible
expressions, plus one level of ``if``/``else`` whose arms hold only such
statements.

Classification builds a per-loop dependence graph
(:mod:`repro.minivm.depgraph`): statements are nodes, every traced access is
a symbolic :class:`~repro.minivm.depgraph.MemoryRef` (loop-invariant *slot*,
affine ``base + stride*i``, or vector-evaluated *dynamic* index — an index
that loads memory is fed by its own load refs), and RAW/WAR/WAW edges carry
dependence distances.  An ``if`` lowers to a condition node plus
*predicated* arm statements; every lane runs a predicated statement only on
the iterations whose condition takes its arm.  The scheduler condenses the
value-flow subgraph into SCCs and executes each group whole-iteration-space
in dependence order:

* **vector** groups evaluate as numpy arrays with interval bounds riding
  along (overflow / precision risks bail out),
* **reduction** groups (``x = x ⊕ term``, ⊕ in ``+ - * min max``) lower to
  ``ufunc.accumulate`` — a sequential left fold, bit-identical to the
  interpreter's own evaluation order,
* **sequential** groups (any other recurrence: LCG chains, stencils,
  histogram updates) replay just the cyclic statements through an exact
  Python-scalar lane using the interpreter's own operator tables, while
  everything downstream still vectorizes.

Execution is two-phase so a bailout is always safe:

* **prepare** (pure): resolve bindings, strides and trip count, bounds-check
  every index, evaluate all groups, then alias-check every pair of
  progressions that the graph could not relate statically.  Nothing is
  mutated; any :class:`Bailout` simply falls back to the interpreter.
* **commit**: scatter final memory values, finalize registers, and
  bulk-append the event rows — LOOP_ITER markers plus every access each
  iteration runs, in exactly the interpreter's order.

The contract (enforced by the differential-oracle tests) is *bit-for-bit*
trace equality with the interpreted path and value-identical memory, so any
loop the analysis cannot prove safe simply bails out to the interpreter.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING, Any, Iterator

import numpy as np

from repro.minivm import astnodes as ast
from repro.minivm.depgraph import (
    AFFINE,
    DYNAMIC,
    SLOT,
    DependencyGraph,
    GroupScheduler,
    MemoryRef,
    REDUCTION_OPS,
    StmtGroup,
    StmtNode,
    loop_verdict,
)
from repro.minivm.memory import ELEM_SIZE, Memory
from repro.trace.events import LOOP_ITER, READ, WRITE

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.minivm.program import Program
    from repro.obs.metrics import MetricsRegistry

#: Loops with fewer iterations than this run interpreted: numpy setup cost
#: is not amortized, and tiny loops dominate unit-test programs.
MIN_TRIP = 8

_INT63 = 1 << 63
_INT62 = 1 << 62
_EXACT_FLOAT = 1 << 53  # ints below this round-trip through float64

#: Unary operators with numpy equivalents proven bit-identical to the
#: interpreter's scalar semantics.  ``sin``/``cos`` are deliberately absent
#: (vector groups reject them; the sequential lane replays libm itself).
_ALLOWED_UNOPS = frozenset({"-", "not", "int", "abs", "sqrt"})


class Bailout(Exception):
    """Raised during the pure prepare phase; the loop runs interpreted."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


# ---------------------------------------------------------------------------
# Vectorized values with interval bounds
# ---------------------------------------------------------------------------


class _VecVal:
    """A per-iteration value: numpy array or exact Python scalar, plus
    interval bounds and a uniform element kind ('i' int / 'f' float)."""

    __slots__ = ("val", "lo", "hi", "kind")

    def __init__(self, val: Any, lo: Any, hi: Any, kind: str) -> None:
        self.val = val
        self.lo = lo
        self.hi = hi
        self.kind = kind


class _SeqVal:
    """Per-iteration values from the sequential lane: exact Python scalars
    (kept raw so per-element types — int vs float — survive the round trip
    to memory and registers)."""

    __slots__ = ("vals",)

    def __init__(self, vals: list) -> None:
        self.vals = vals


def _is_scalar(v: Any) -> bool:
    return not isinstance(v, np.ndarray)


def _scalar_val(v: Any) -> _VecVal:
    t = type(v)
    if t is float:
        return _VecVal(v, v, v, "f")
    if t is int or t is bool:
        return _VecVal(v, v, v, "i")
    raise Bailout("value_type")


def _check_int_bounds(lo: int, hi: int) -> None:
    if lo < -_INT63 or hi >= _INT63:
        raise Bailout("overflow_risk")


def _check_exact(v: _VecVal) -> None:
    """An int operand about to mix with floats must convert losslessly."""
    if v.kind == "i" and max(abs(v.lo), abs(v.hi)) >= _EXACT_FLOAT:
        raise Bailout("precision_risk")


_NP_BINOPS = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "&": np.bitwise_and,
    "|": np.bitwise_or,
    "^": np.bitwise_xor,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
    "==": np.equal,
    "!=": np.not_equal,
}


def _vec_binop(op: str, a: _VecVal, b: _VecVal) -> _VecVal:
    if _is_scalar(a.val) and _is_scalar(b.val):
        # Scalar fold with the interpreter's own operator table: exact.
        return _scalar_val(ast._BINOPS[op](a.val, b.val))
    av, bv = a.val, b.val
    if op in ("+", "-", "*"):
        if a.kind == "f" or b.kind == "f":
            _check_exact(a)
            _check_exact(b)
            kind = "f"
        else:
            kind = "i"
        if op == "+":
            lo, hi = a.lo + b.lo, a.hi + b.hi
        elif op == "-":
            lo, hi = a.lo - b.hi, a.hi - b.lo
        else:
            corners = (a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi)
            lo, hi = min(corners), max(corners)
        if kind == "i":
            _check_int_bounds(lo, hi)
        return _VecVal(_NP_BINOPS[op](av, bv), lo, hi, kind)
    if op == "/":
        # The interpreter's guard returns float 0.0 on a zero divisor, so a
        # masked division reproduces it exactly; int operands must be small
        # enough that the implicit int->float conversion is lossless.
        _check_exact(a)
        _check_exact(b)
        if _is_scalar(bv):
            if bv == 0:
                return _scalar_val(0.0)
            v = np.true_divide(av, bv)
        else:
            mask = bv != 0
            if mask.all():
                v = np.true_divide(av, bv)
            else:
                v = np.where(mask, np.true_divide(av, np.where(mask, bv, 1)), 0.0)
        return _VecVal(v, -math.inf, math.inf, "f")
    if op in ("//", "%"):
        # Python's floored semantics match numpy only for ints; the guard
        # value (int 0) would also break per-element type uniformity on
        # float inputs.
        if a.kind != "i" or b.kind != "i":
            raise Bailout("float_intdiv")
        if op == "//":
            m = max(abs(a.lo), abs(a.hi))
            lo, hi = -m - 1, m
        else:
            m = max(abs(b.lo), abs(b.hi))
            lo, hi = -m, m
        fn = np.floor_divide if op == "//" else np.remainder
        if _is_scalar(bv):
            if bv == 0:
                return _scalar_val(0)
            v = fn(av, bv)
        else:
            mask = bv != 0
            if mask.all():
                v = fn(av, bv)
            else:
                v = np.where(mask, fn(av, np.where(mask, bv, 1)), 0)
        return _VecVal(v, lo, hi, "i")
    if op in ("<<", ">>"):
        if a.kind != "i" or b.kind != "i":
            raise Bailout("float_shift")
        if b.lo < 0:
            raise Bailout("negative_shift")
        m = max(abs(a.lo), abs(a.hi))
        if op == "<<":
            if b.hi > 62:
                raise Bailout("overflow_risk")
            lo, hi = -(m << b.hi), m << b.hi
            _check_int_bounds(lo, hi)
            return _VecVal(np.left_shift(av, bv), lo, hi, "i")
        return _VecVal(np.right_shift(av, bv), -m - 1, m, "i")
    if op in ("&", "|", "^"):
        if a.kind != "i" or b.kind != "i":
            raise Bailout("float_bitop")
        # int64 two's complement equals Python's infinite two's complement
        # only when both operands (and hence the result) are in range.
        _check_int_bounds(a.lo, a.hi)
        _check_int_bounds(b.lo, b.hi)
        if a.lo >= 0 and b.lo >= 0:
            if op == "&":
                lo, hi = 0, min(a.hi, b.hi)
            else:
                lo, hi = 0, (1 << int(max(a.hi, b.hi)).bit_length()) - 1
        else:
            lo, hi = -_INT63, _INT63 - 1
        return _VecVal(_NP_BINOPS[op](av, bv), lo, hi, "i")
    if op in ("<", "<=", ">", ">=", "==", "!="):
        if a.kind != b.kind:
            _check_exact(a)
            _check_exact(b)
        else:
            if a.kind == "i":
                _check_int_bounds(a.lo, a.hi)
                _check_int_bounds(b.lo, b.hi)
        v = _NP_BINOPS[op](av, bv).astype(np.int64)
        return _VecVal(v, 0, 1, "i")
    if op in ("min", "max"):
        if a.kind != b.kind:
            raise Bailout("mixed_minmax")
        if a.kind == "f":
            for x in (av, bv):
                if isinstance(x, np.ndarray):
                    if np.isnan(x).any():
                        raise Bailout("nan_minmax")
                elif x != x:
                    raise Bailout("nan_minmax")
        else:
            _check_int_bounds(a.lo, a.hi)
            _check_int_bounds(b.lo, b.hi)
        fn = np.minimum if op == "min" else np.maximum
        pick = min if op == "min" else max
        return _VecVal(fn(av, bv), pick(a.lo, b.lo), pick(a.hi, b.hi), a.kind)
    raise Bailout(f"binop:{op}")


def _vec_unop(op: str, a: _VecVal) -> _VecVal:
    if _is_scalar(a.val):
        return _scalar_val(ast._UNOPS[op](a.val))
    av = a.val
    if op == "-":
        lo, hi = -a.hi, -a.lo
        if a.kind == "i":
            _check_int_bounds(lo, hi)
        return _VecVal(np.negative(av), lo, hi, a.kind)
    if op == "not":
        return _VecVal(np.equal(av, 0).astype(np.int64), 0, 1, "i")
    if op == "abs":
        lo = 0 if a.lo <= 0 <= a.hi else min(abs(a.lo), abs(a.hi))
        hi = max(abs(a.lo), abs(a.hi))
        if a.kind == "i":
            _check_int_bounds(lo, hi)
        return _VecVal(np.abs(av), lo, hi, a.kind)
    if op == "int":
        if a.kind == "i":
            return a
        if not (math.isfinite(a.lo) and math.isfinite(a.hi)):
            raise Bailout("unbounded_trunc")
        lo, hi = math.trunc(a.lo), math.trunc(a.hi)
        if lo < -_INT62 or hi > _INT62:
            raise Bailout("overflow_risk")
        return _VecVal(np.trunc(av).astype(np.int64), lo, hi, "i")
    if op == "sqrt":
        # Interpreter guard: sqrt(a) if a >= 0 else 0.0.  int64->float64
        # conversion and IEEE sqrt are both identical to the scalar path.
        v = np.where(av >= 0, np.sqrt(np.where(av >= 0, av, 0)), 0.0)
        if a.hi != a.hi:  # NaN bound propagates
            hi = a.hi
        elif a.hi > 0:
            hi = math.sqrt(a.hi)
        else:
            hi = 0.0
        return _VecVal(v, 0.0, hi, "f")
    raise Bailout(f"unop:{op}")


# ---------------------------------------------------------------------------
# Static classification
# ---------------------------------------------------------------------------


def _degree(e: ast.Expr, ind: str, body_regs: set[str]) -> int | None:
    """Polynomial degree of ``e`` in the induction register (0 or 1), or
    ``None`` where linearity cannot be proven statically."""
    if isinstance(e, ast.Const):
        return 0
    if isinstance(e, ast.Reg):
        if e.name == ind:
            return 1
        return None if e.name in body_regs else 0
    if isinstance(e, ast.Load):
        return None
    if isinstance(e, ast.BinOp):
        dl = _degree(e.lhs, ind, body_regs)
        dr = _degree(e.rhs, ind, body_regs)
        if dl is None or dr is None:
            return None
        if e.op in ("+", "-"):
            return max(dl, dr)
        if e.op == "*":
            return dl + dr if dl + dr <= 1 else None
        return 0 if dl == dr == 0 else None
    if isinstance(e, ast.UnOp):
        d = _degree(e.operand, ind, body_regs)
        if d is None:
            return None
        if e.op == "-":
            return d
        return 0 if d == 0 else None
    return None


def _index_shape(idx: ast.Expr | None, ind: str, body_regs: set[str]) -> str:
    """Classify an index expression's address progression shape; an index
    that loads memory is dynamic, fed by its own load refs."""
    if idx is None:
        return SLOT
    d = _degree(idx, ind, body_regs)
    if d == 0:
        return SLOT
    if d == 1:
        return AFFINE
    return DYNAMIC


def _scan_stmt(
    s: ast.Stmt, idx: int, ind: str, body_regs: set[str], pred: tuple | None
) -> "tuple[StmtNode | None, str | None]":
    """Lower one straight-line statement (or an ``if``'s condition) to a
    node, or return why it cannot be.  Loads are recorded in the exact event
    emission order of the interpreter (``loads``: an index's loads before
    the read they address, a store's value loads before its index loads, as
    in ``Interp._exec_stmt``) and in expression-walk order (``eval_loads``:
    the read first)."""
    loads: list[MemoryRef] = []
    eval_loads: list[MemoryRef] = []

    def scan(e: ast.Expr) -> str | None:
        if isinstance(e, ast.Const):
            return None if isinstance(e.value, (int, float)) else "const_type"
        if isinstance(e, ast.Reg):
            return None  # bindings (incl. loop-carried reads) resolve in the graph
        if isinstance(e, ast.Load):
            shape = _index_shape(e.index, ind, body_regs)
            ref = MemoryRef(READ, e.var, e.index, s.line, idx, shape, pred)
            eval_loads.append(ref)
            # Only a dynamic index can load; slot/affine ones are load-free.
            reason = scan(e.index) if shape == DYNAMIC else None
            loads.append(ref)
            return reason
        if isinstance(e, ast.BinOp):
            return scan(e.lhs) or scan(e.rhs)
        if isinstance(e, ast.UnOp):
            return scan(e.operand) if e.op in ast._UNOPS else "expr_type"
        return "expr_type"

    expr = s.cond if isinstance(s, ast.If) else s.expr
    reason = scan(expr)
    if reason:
        return None, reason
    if isinstance(s, ast.SetReg):
        return StmtNode(idx, s.line, s.reg.name, None, expr, loads, eval_loads, pred), None
    if isinstance(s, ast.If):
        return StmtNode(idx, s.line, None, None, expr, loads, eval_loads), None
    shape = _index_shape(s.index, ind, body_regs)
    reason = scan(s.index) if shape == DYNAMIC else None
    if reason:
        return None, reason
    w = MemoryRef(WRITE, s.var, s.index, s.line, idx, shape, pred)
    return StmtNode(idx, s.line, None, w, expr, loads, eval_loads, pred), None


def classify_loop(loop: ast.For) -> "tuple[AffineTemplate | None, str | None]":
    """Statically classify ``loop``; returns (template, None) on success or
    (None, reject_reason) when the loop can never take the fast path.

    The body may hold ``SetReg``/``Store`` statements and ``if``/``else``
    statements whose arms hold only those; each ``if`` lowers to a
    condition node followed by its then-arm and else-arm statements, all
    in execution order."""
    ind = loop.reg.name
    flat: list[tuple[ast.Stmt, bool | None]] = []  # (stmt, arm taken?)
    for s in loop.body:
        if isinstance(s, ast.If):
            arms = [(a, True) for a in s.then_body]
            arms += [(a, False) for a in s.else_body]
            for a, _ in arms:
                if not isinstance(a, (ast.SetReg, ast.Store)):
                    return None, f"if_arm:{type(a).__name__.lower()}"
            flat.append((s, None))
            flat.extend(arms)
        elif isinstance(s, (ast.SetReg, ast.Store)):
            flat.append((s, None))
        else:
            return None, f"stmt:{type(s).__name__.lower()}"
    body_regs = {s.reg.name for s, _ in flat if isinstance(s, ast.SetReg)}
    if ind in body_regs:
        return None, "induction_reassigned"
    nodes: list[StmtNode] = []
    accesses: list[MemoryRef] = []
    cond = -1
    for si, (s, taken) in enumerate(flat):
        if isinstance(s, ast.If):
            cond = si
        pred = None if taken is None else (cond, taken)
        node, reason = _scan_stmt(s, si, ind, body_regs, pred)
        if reason:
            return None, reason
        nodes.append(node)
        accesses.extend(node.loads)
        if node.store is not None:
            accesses.append(node.store)
    graph = DependencyGraph(ind, nodes)
    if graph.reject:
        return None, graph.reject
    groups, reason = GroupScheduler(graph).schedule()
    if groups is None:
        return None, reason
    verdict = loop_verdict(graph, groups)
    return AffineTemplate(loop, ind, nodes, accesses, graph, groups, verdict), None


#: Structural-classification memo shared across interpreter instances:
#: (program structural hash, loop header line) -> (template, reject reason).
#: Templates hold no per-execution state, so reuse across runs (and across
#: structurally identical programs) is safe.
_CLASSIFY_MEMO: dict[tuple, "tuple[AffineTemplate | None, str | None]"] = {}
_CLASSIFY_MEMO_MAX = 1024


def classify_loop_cached(
    program: "Program", loop: ast.For
) -> "tuple[AffineTemplate | None, str | None, bool]":
    """Memoized :func:`classify_loop`; third element reports a memo hit."""
    key = (program.structural_hash, loop.line)
    hit = _CLASSIFY_MEMO.get(key)
    if hit is not None:
        return hit[0], hit[1], True
    tmpl, reason = classify_loop(loop)
    if len(_CLASSIFY_MEMO) >= _CLASSIFY_MEMO_MAX:
        _CLASSIFY_MEMO.clear()
    _CLASSIFY_MEMO[key] = (tmpl, reason)
    return tmpl, reason, False


def program_has_spawn(program: "Program") -> bool:
    """Whether any function of ``program`` can spawn a thread (conservative:
    scans every function, reachable or not)."""

    def scan(body: list[ast.Stmt]) -> bool:
        for s in body:
            if isinstance(s, ast.Spawn):
                return True
            for attr in ("body", "then_body", "else_body"):
                sub = getattr(s, attr, None)
                if sub and scan(sub):
                    return True
        return False

    return any(scan(fn.body) for fn in program.functions.values())


# ---------------------------------------------------------------------------
# Runtime execution
# ---------------------------------------------------------------------------


class _Resolved:
    """Per-execution resolution of one access: concrete progression."""

    __slots__ = ("shape", "base", "size", "addr0", "astride", "addrs", "gathered", "sel")

    def __init__(self, shape: str, base: int, size: int) -> None:
        self.shape = shape
        self.base = base
        self.size = size
        self.addr0 = base
        self.astride = 0
        #: dynamic shapes only: one address per iteration the access runs
        self.addrs: np.ndarray | None = None
        self.gathered: _VecVal | None = None
        #: iterations a predicated access runs on (``None``: every one)
        self.sel: np.ndarray | None = None

    def span(self, n_iters: int) -> tuple[int, int]:
        last = self.addr0 + self.astride * (n_iters - 1)
        return (min(self.addr0, last), max(self.addr0, last))

    def check_bounds(self, n_iters: int) -> None:
        """Bounds-check a slot/affine progression on the iterations it runs
        (the interpreter never computes an address on a skipped one);
        dynamic shapes are checked where their addresses are resolved."""
        sel = self.sel
        if sel is None:
            first, last = 0, n_iters - 1
        elif sel.size:
            first, last = int(sel[0]), int(sel[-1])
        else:
            return
        lo = self.addr0 - self.base + self.astride * first
        hi = self.addr0 - self.base + self.astride * last
        if lo > hi:
            lo, hi = hi, lo
        if lo < 0 or hi >= ELEM_SIZE * self.size:
            raise Bailout("oob_index")


class _Ctx:
    """Everything the pure prepare phase computes, ready to commit."""

    __slots__ = (
        "interp",
        "act",
        "n",
        "k",
        "start",
        "step",
        "ind_val",
        "res",
        "reg_post",
        "store_post",
        "dyn_addrs",
        "overlays",
        "masks",
        "_lists",
        "_sels",
    )

    def __init__(self, interp, act, n, k, start, step, ind_val) -> None:
        self.interp = interp
        self.act = act
        self.n = n
        self.k = k
        self.start = start
        self.step = step
        self.ind_val = ind_val
        self.res: dict[int, _Resolved] = {}
        self.reg_post: dict[int, Any] = {}  # def stmt idx -> value
        self.store_post: dict[int, Any] = {}  # store stmt idx -> value
        #: (access key, predicate) -> addrs on the iterations the access runs
        self.dyn_addrs: dict[tuple, np.ndarray] = {}
        self.overlays: list[dict[int, Any]] = []  # sequential-group writes
        self.masks: dict[int, np.ndarray] = {}  # if-condition idx -> truth
        self._lists: dict[int, list] = {}
        self._sels: dict[tuple, np.ndarray | None] = {}

    def as_list(self, v: Any) -> list:
        """Exact Python-scalar view of a per-iteration value (memoized)."""
        got = self._lists.get(id(v))
        if got is None:
            if isinstance(v, _SeqVal):
                got = v.vals
            elif _is_scalar(v.val):
                got = [v.val] * self.n
            else:
                got = v.val.tolist()
            self._lists[id(v)] = got
        return got

    def lanes(self, pred: tuple | None) -> np.ndarray | None:
        """Iterations a statement under ``pred`` runs on, ascending;
        ``None`` when that is every iteration."""
        if pred is None:
            return None
        if pred not in self._sels:
            m = self.masks[pred[0]]
            sel = np.flatnonzero(m if pred[1] else ~m)
            self._sels[pred] = None if sel.size == self.n else sel
        return self._sels[pred]

    def shared_addrs(self, ref: MemoryRef, sel: np.ndarray | None) -> np.ndarray | None:
        """Addresses already resolved for ``ref``'s key on its iterations:
        by a ref under the same predicate, or by an unpredicated one."""
        got = self.dyn_addrs.get((ref.key, ref.pred))
        if got is None and ref.pred is not None:
            got = self.dyn_addrs.get((ref.key, None))
            if got is not None and sel is not None:
                got = got[sel]
        return got


#: Register value of a predicated def before anything defined it.
_UNSET = object()


def _vals_to_vec(vals: list) -> _VecVal:
    """Exact numpy conversion of Python scalars; mixed or bool-typed element
    lists bail (numpy would silently unify the per-element types)."""
    kinds = set(map(type, vals))
    if kinds == {int}:
        try:
            arr = np.array(vals, dtype=np.int64)
        except OverflowError:
            raise Bailout("overflow_risk") from None
        return _VecVal(arr, int(arr.min()), int(arr.max()), "i")
    if kinds == {float}:
        arr = np.array(vals, dtype=np.float64)
        return _VecVal(arr, float(arr.min()), float(arr.max()), "f")
    raise Bailout("mixed_types")


def _view(v: Any, sel: np.ndarray | None) -> _VecVal:
    """A per-iteration value on the iterations ``sel`` (``None``: all)."""
    if isinstance(v, _SeqVal):
        vals = v.vals if sel is None else [v.vals[i] for i in sel.tolist()]
        return _vals_to_vec(vals)
    if sel is None or _is_scalar(v.val):
        return v
    return _VecVal(v.val[sel], v.lo, v.hi, v.kind)


def _scatter(v: _VecVal | None, sel: np.ndarray, n: int) -> Any:
    """Spread a value computed on the iterations ``sel`` over all ``n``;
    the other iterations hold a filler nobody reads."""
    if v is None or _is_scalar(v.val):
        return v
    full = np.zeros(n, dtype=v.val.dtype)
    full[sel] = v.val
    return _VecVal(full, v.lo, v.hi, v.kind)


def _select(sel: np.ndarray, v: _VecVal, prior: _VecVal, n: int) -> _VecVal:
    """``v`` on the iterations ``sel``, ``prior`` on the others."""
    if v.kind != prior.kind:
        raise Bailout("mixed_types")
    if _is_scalar(prior.val):
        full = np.full(n, prior.val, dtype=np.int64 if v.kind == "i" else np.float64)
    else:
        full = prior.val.copy()
    full[sel] = v.val
    return _VecVal(full, min(prior.lo, v.lo), max(prior.hi, v.hi), v.kind)


def _fill(init: Any, sel: np.ndarray, v: _VecVal | None, n: int) -> Any:
    """Per-iteration value of a predicated def that keeps its previous
    value (``init`` before the loop) on the iterations it skips: ``v`` on
    the iterations ``sel``, forward-filled over the rest."""
    if v is None:  # the arm never runs
        if init is _UNSET:
            return _SeqVal([_UNSET] * n)
        return _scalar_val(init)
    src = np.zeros(n, dtype=np.int64)
    src[sel] = np.arange(1, sel.size + 1)
    np.maximum.accumulate(src, out=src)
    ext = np.empty(sel.size + 1, dtype=np.int64 if v.kind == "i" else np.float64)
    ext[1:] = v.val
    lo, hi = v.lo, v.hi
    lead = int(sel[0])  # iterations before the first run keep ``init``
    if lead and init is _UNSET:
        vals = ext[src].tolist()
        vals[:lead] = [_UNSET] * lead
        return _SeqVal(vals)
    if lead:
        if type(init) is bool:
            raise Bailout("value_type")
        if (type(init) is float) != (v.kind == "f"):
            raise Bailout("mixed_types")
        try:
            ext[0] = init
        except OverflowError:
            raise Bailout("overflow_risk") from None
        lo, hi = min(lo, init), max(hi, init)
    return _VecVal(ext[src], lo, hi, v.kind)


def _truth(v: _VecVal, n: int) -> np.ndarray:
    """Per-iteration truth of an ``if`` condition, as Python's ``if`` sees
    it: nonzero is true, so NaN is true and ``-0.0`` false."""
    if _is_scalar(v.val):
        return np.full(n, bool(v.val))
    return v.val != 0


def _pre_vec(post: Any, init: Any, n: int) -> _VecVal:
    """Previous-iteration view of a slot's per-iteration post-values:
    ``[init, post[0], ..., post[n-2]]``."""
    if type(init) is bool:
        raise Bailout("value_type")
    if isinstance(post, _SeqVal):
        return _vals_to_vec([init] + post.vals[:-1])
    v = post.val
    if _is_scalar(v):
        return _vals_to_vec([init] + [v] * (n - 1))
    if post.kind == "i":
        if type(init) is not int:
            raise Bailout("mixed_types")
        arr = np.empty(n, dtype=np.int64)
        try:
            arr[0] = init
        except OverflowError:
            raise Bailout("overflow_risk") from None
        arr[1:] = v[:-1]
        return _VecVal(arr, min(post.lo, init), max(post.hi, init), "i")
    if type(init) is not float:
        raise Bailout("mixed_types")
    arr = np.empty(n, dtype=np.float64)
    arr[0] = init
    arr[1:] = v[:-1]
    return _VecVal(arr, min(post.lo, init), max(post.hi, init), "f")


def _gather(mem: Memory, r: _Resolved, n_iters: int) -> _VecVal:
    if r.astride == 0:
        return _scalar_val(mem.read(r.addr0))
    addrs = range(r.addr0, r.addr0 + r.astride * n_iters, r.astride)
    return _vals_to_vec(mem.read_block(addrs))


def _raw_list(val: Any, n: int, sel: np.ndarray | None = None) -> list:
    """Exact Python values of a per-iteration value on the iterations
    ``sel`` (``None``: all ``n``)."""
    if isinstance(val, _SeqVal):
        return val.vals if sel is None else [val.vals[i] for i in sel.tolist()]
    v = val.val
    if _is_scalar(v):
        return [v] * (n if sel is None else sel.size)
    return (v if sel is None else v[sel]).tolist()


def _last_raw(val: Any) -> Any:
    if isinstance(val, _SeqVal):
        return val.vals[-1]
    v = val.val
    return v if _is_scalar(v) else v[-1].item()


def _accumulate(op: str, init: Any, term: _VecVal, n: int) -> _VecVal:
    """Exact reduction lowering: ``ufunc.accumulate`` is a sequential left
    fold, i.e. the interpreter's own evaluation order, so int and IEEE-float
    prefix values are bit-identical.  Int paths carry conservative prefix
    bounds (int64 wraps silently); float min/max refuses NaN (numpy and
    Python disagree on NaN propagation)."""
    if type(init) is bool:
        raise Bailout("value_type")
    init_f = isinstance(init, float)
    if op in ("min", "max"):
        if init_f != (term.kind == "f"):
            raise Bailout("mixed_minmax")
        if term.kind == "f":
            if init != init:
                raise Bailout("nan_minmax")
            tv = term.val
            if _is_scalar(tv):
                if tv != tv:
                    raise Bailout("nan_minmax")
            elif np.isnan(tv).any():
                raise Bailout("nan_minmax")
            dtype, kind = np.float64, "f"
        else:
            _check_int_bounds(term.lo, term.hi)
            _check_int_bounds(init, init)
            dtype, kind = np.int64, "i"
        lo, hi = min(init, term.lo), max(init, term.hi)
    else:  # + - *
        kind = "f" if (init_f or term.kind == "f") else "i"
        if kind == "f":
            _check_exact(term)
            if not init_f and abs(init) >= _EXACT_FLOAT:
                raise Bailout("precision_risk")
            dtype = np.float64
            lo, hi = -math.inf, math.inf
        else:
            dtype = np.int64
            if op == "+":
                lo = init + n * min(term.lo, 0)
                hi = init + n * max(term.hi, 0)
            elif op == "-":
                lo = init - n * max(term.hi, 0)
                hi = init - n * min(term.lo, 0)
            else:  # *
                maxt = max(abs(term.lo), abs(term.hi))
                if maxt <= 1:
                    m = max(abs(init), 1)
                else:
                    bits = abs(init).bit_length() + n * maxt.bit_length()
                    if bits > 62:
                        raise Bailout("overflow_risk")
                    m = 1 << bits
                lo, hi = -m, m
            _check_int_bounds(lo, hi)
    seq = np.empty(n + 1, dtype=dtype)
    seq[0] = init
    seq[1:] = term.val
    full = getattr(np, REDUCTION_OPS[op]).accumulate(seq)
    return _VecVal(full[1:], lo, hi, kind)


def _pure_eval(expr: ast.Expr, regs: dict) -> Any:
    """Event-free scalar evaluation (index expressions are load-free)."""
    if isinstance(expr, ast.Const):
        return expr.value
    if isinstance(expr, ast.Reg):
        return regs[expr.name]
    if isinstance(expr, ast.BinOp):
        return expr.apply(_pure_eval(expr.lhs, regs), _pure_eval(expr.rhs, regs))
    if isinstance(expr, ast.UnOp):
        return expr.apply(_pure_eval(expr.operand, regs))
    raise Bailout("index_expr")


class AffineTemplate:
    """A compiled loop: a dependence-scheduled sequence of statement groups
    executing the whole iteration space at once."""

    __slots__ = (
        "loop",
        "ind",
        "nodes",
        "accesses",
        "graph",
        "groups",
        "verdict",
        "_seq_stmts",
        "_seq_group_of",
        "_revisit_sets",
    )

    def __init__(
        self,
        loop: ast.For,
        ind: str,
        nodes: list[StmtNode],
        accesses: list[MemoryRef],
        graph: DependencyGraph,
        groups: list[StmtGroup],
        verdict: str,
    ) -> None:
        self.loop = loop
        self.ind = ind
        self.nodes = nodes
        self.accesses = accesses
        self.graph = graph
        self.groups = groups
        self.verdict = verdict
        self._seq_stmts: set[int] = set()
        self._seq_group_of: dict[int, int] = {}
        for gi, grp in enumerate(groups):
            if grp.mode == "sequential":
                for si in grp.stmts:
                    self._seq_stmts.add(si)
                    self._seq_group_of[si] = gi
        self._revisit_sets = self._revisit_candidates()

    def _revisit_candidates(self) -> list[list[MemoryRef]]:
        """Refs of one dynamic key that must not touch a cell on two
        different iterations (checked per execution by _reject_revisits).

        A gathered load reads pre-loop memory, so no cell it reads may be
        stored on a different iteration by the same key's stores; and
        stores of one key under different predicates scatter statement by
        statement, which is iteration order only when no cell is written on
        two iterations.  Loads replayed in a sequential group together with
        all of their key's stores read the overlay instead."""
        out: list[list[MemoryRef]] = []
        for key, stores in self.graph.mem_stores.items():
            if self.nodes[stores[0]].store.shape != DYNAMIC:
                continue
            refs = [self.nodes[i].store for i in stores]
            if len({r.pred for r in refs}) > 1:
                out.append(refs)
            groups = {self._seq_group_of.get(i, -1 - i) for i in stores}
            for ld in self.accesses:
                if ld.key != key or ld.is_store or ld.binding[0] != "init":
                    continue
                if groups != {self._seq_group_of.get(ld.stmt_idx)}:
                    out.append([ld] + refs)
        return out

    @property
    def events_per_iteration(self) -> int:
        """Event slots per iteration: LOOP_ITER + every access.  An iteration
        emits the slots of the ``if`` arms it takes only."""
        return 1 + len(self.accesses)

    # -- phase A: pure -----------------------------------------------------
    def _prepare(self, interp, act, start: int, end: int, step: int) -> _Ctx:
        for v in (start, end, step):
            if not isinstance(v, int):
                raise Bailout("nonint_bounds")
        if step > 0:
            n_iters = (end - start + step - 1) // step if end > start else 0
        else:
            n_iters = (start - end - step - 1) // (-step) if start > end else 0
        if n_iters < MIN_TRIP:
            raise Bailout("short_trip")
        last = start + step * (n_iters - 1)
        if max(abs(start), abs(last)) >= _INT62:
            raise Bailout("overflow_risk")
        k = np.arange(n_iters, dtype=np.int64)
        ind_val = _VecVal(start + step * k, min(start, last), max(start, last), "i")
        ctx = _Ctx(interp, act, n_iters, k, start, step, ind_val)

        # Resolve every slot/affine access to a concrete (addr0, stride)
        # progression and bounds-check the whole iteration space; dynamic
        # shapes resolve later, during group evaluation, and predicated
        # accesses are bounds-checked once their iterations are known.
        regs0 = dict(act.regs)
        regs0[self.ind] = start
        regs1 = dict(act.regs)
        regs1[self.ind] = start + step
        for acc in self.accesses:
            base, size = interp._binding(act, acc.var)
            r = _Resolved(acc.shape, base, size)
            if acc.shape == SLOT and acc.index is not None:
                e0 = _pure_eval(acc.index, regs0)
                if not isinstance(e0, int):
                    raise Bailout("nonint_index")
                r.addr0 = base + ELEM_SIZE * e0
            elif acc.shape == AFFINE:
                e0 = _pure_eval(acc.index, regs0)
                e1 = _pure_eval(acc.index, regs1)
                if not isinstance(e0, int) or not isinstance(e1, int):
                    raise Bailout("nonint_index")
                stride = e1 - e0
                if stride == 0:
                    # A statically-moving progression that degenerates at
                    # runtime would invalidate the slot/forwarding model.
                    raise Bailout("degenerate_stride")
                r.addr0 = base + ELEM_SIZE * e0
                r.astride = ELEM_SIZE * stride
            if acc.pred is None and acc.shape != DYNAMIC:
                r.check_bounds(n_iters)
            ctx.res[id(acc)] = r

        # Evaluate statement groups in dependence order.
        for grp in self.groups:
            if grp.mode == "vector":
                self._eval_vector_stmt(self.nodes[grp.stmts[0]], ctx)
            elif grp.mode == "reduction":
                self._eval_reduction(grp, ctx)
            else:
                self._eval_sequential(grp, ctx)

        for acc in self.accesses:
            r = ctx.res[id(acc)]
            if acc.pred is not None:
                r.sel = ctx.lanes(acc.pred)
                if r.shape != DYNAMIC:
                    r.check_bounds(n_iters)
            if r.shape == DYNAMIC and r.addrs is None:
                if r.sel is not None and not r.sel.size:
                    r.addrs = r.sel  # the access never runs
                else:
                    # Forward-bound loads share their store's progression.
                    r.addrs = ctx.shared_addrs(acc, r.sel)
                    if r.addrs is None:
                        raise Bailout("unresolved_index")

        for refs in self._revisit_sets:
            _reject_revisits(ctx, refs)
        self._alias_checks(ctx)
        return ctx

    # -- vector groups -----------------------------------------------------
    def _eval_vector_stmt(self, node: StmtNode, ctx: _Ctx) -> None:
        """Evaluate one statement on the iterations it runs on (all, or its
        arm's), then spread the result over the iteration space."""
        sel = None if node.pred is None else ctx.lanes(node.pred)
        val = None
        if sel is None or sel.size:
            load_vals = self._load_all(node, ctx, sel, None)
            val = self._veval(node.expr, ctx, node, load_vals, sel)
            if node.store is not None and node.store.shape == DYNAMIC:
                self._resolve_dynamic(node.store, ctx, node, load_vals, sel)
        if node.target_reg is not None:
            post = val if sel is None else self._merge(node, ctx, sel, val)
            ctx.reg_post[node.idx] = post
        elif node.store is None:  # an if condition
            ctx.masks[node.idx] = _truth(val, ctx.n)
        elif sel is None:
            ctx.store_post[node.idx] = val
        elif node.store.shape == SLOT:
            ctx.store_post[node.idx] = self._merge(node, ctx, sel, val)
        else:
            ctx.store_post[node.idx] = _scatter(val, sel, ctx.n)

    def _merge(self, node: StmtNode, ctx: _Ctx, sel, val: _VecVal | None) -> Any:
        """Post value of a predicated register or cell def: on iterations
        that skip it, the value it would have found there."""
        name = node.target_reg
        if name is None:  # a cell with no other writer keeps its own value
            return _fill(
                ctx.interp.mem.read(ctx.res[id(node.store)].addr0), sel, val, ctx.n
            )
        if node.reg_binds[name] == ("pre", node.idx):
            return _fill(ctx.act.regs.get(name, _UNSET), sel, val, ctx.n)
        prior = self._veval(ast.Reg(name), ctx, node, {}, None)
        return prior if val is None else _select(sel, val, prior, ctx.n)

    def _load_all(
        self, node: StmtNode, ctx: _Ctx, sel, skip: tuple | None
    ) -> dict[tuple, _VecVal]:
        """Values of ``node``'s loads, in emission order (an index's loads
        come before the access they address)."""
        load_vals: dict[tuple, _VecVal] = {}
        for ld in node.loads:
            pair = (ld.var.name, ld.index)
            if pair == skip:
                continue
            if pair not in load_vals:
                load_vals[pair] = self._load_value(ld, ctx, node, load_vals, sel)
            elif ld.shape == DYNAMIC:
                # One statement reads the same expression twice: same cells.
                first = next(x for x in node.loads if (x.var.name, x.index) == pair)
                ctx.res[id(ld)].addrs = ctx.res[id(first)].addrs
        return load_vals

    def _resolve_dynamic(
        self, ref: MemoryRef, ctx: _Ctx, node: StmtNode, load_vals: dict, sel
    ) -> np.ndarray:
        r = ctx.res[id(ref)]
        if r.addrs is not None:
            return r.addrs
        cached = ctx.shared_addrs(ref, sel)
        if cached is not None:
            r.addrs = cached
            return cached
        iv = self._veval(ref.index, ctx, node, load_vals, sel)
        if iv.kind != "i":
            raise Bailout("nonint_index")
        v = iv.val
        if _is_scalar(v):
            idx = int(v)
            if not 0 <= idx < r.size:
                raise Bailout("oob_index")
            m = ctx.n if sel is None else sel.size
            addrs = np.full(m, r.base + ELEM_SIZE * idx, dtype=np.int64)
        else:
            if iv.lo < 0 or iv.hi >= r.size:
                if (v < 0).any() or (v >= r.size).any():
                    raise Bailout("oob_index")
            addrs = r.base + ELEM_SIZE * v.astype(np.int64)
        r.addrs = addrs
        ctx.dyn_addrs[(ref.key, ref.pred)] = addrs
        return addrs

    def _load_value(
        self, ld: MemoryRef, ctx: _Ctx, node: StmtNode, load_vals: dict, sel
    ) -> _VecVal:
        b = ld.binding
        if b[0] == "fwd":
            return _view(ctx.store_post[b[1]], sel)
        r = ctx.res[id(ld)]
        mem = ctx.interp.mem
        if b[0] == "pre":
            return _view(_pre_vec(ctx.store_post[b[1]], mem.read(r.addr0), ctx.n), sel)
        if r.shape == DYNAMIC:
            # Gathers read pre-loop memory; _reject_revisits proves no
            # iteration reads a cell an earlier iteration stored.
            addrs = self._resolve_dynamic(ld, ctx, node, load_vals, sel)
            return _vals_to_vec(mem.read_block(addrs.tolist()))
        if sel is not None and r.astride:
            return _vals_to_vec(mem.read_block((r.addr0 + r.astride * sel).tolist()))
        if r.gathered is None:
            r.gathered = _gather(mem, r, ctx.n)
        return r.gathered

    def _veval(
        self, e: ast.Expr, ctx: _Ctx, node: StmtNode, load_vals: dict, sel
    ) -> _VecVal:
        if isinstance(e, ast.Const):
            return _scalar_val(e.value)
        if isinstance(e, ast.Reg):
            if e.name == self.ind:
                return ctx.ind_val if sel is None else _view(ctx.ind_val, sel)
            b = node.reg_binds.get(e.name)
            if b is None or b[0] == "inv":
                # Loop-invariant register: an unset one bails so the
                # interpreter can raise its error at the right position.
                return _scalar_val(ctx.act.regs[e.name])
            if b[0] == "post":
                v = ctx.reg_post[b[1]]
            else:
                v = _pre_vec(ctx.reg_post[b[1]], ctx.act.regs[e.name], ctx.n)
            return v if sel is None and type(v) is _VecVal else _view(v, sel)
        if isinstance(e, ast.Load):
            return load_vals[(e.var.name, e.index)]
        if isinstance(e, ast.BinOp):
            lhs = self._veval(e.lhs, ctx, node, load_vals, sel)
            rhs = self._veval(e.rhs, ctx, node, load_vals, sel)
            return _vec_binop(e.op, lhs, rhs)
        if isinstance(e, ast.UnOp):
            return _vec_unop(e.op, self._veval(e.operand, ctx, node, load_vals, sel))
        raise Bailout("expr_type")

    # -- reduction groups --------------------------------------------------
    def _eval_reduction(self, grp: StmtGroup, ctx: _Ctx) -> None:
        """A predicated reduction folds only the terms of the iterations its
        arm runs on, then forward-fills: padding skipped iterations with the
        identity would not be bit-identical (``-0.0 + 0.0`` is ``0.0``)."""
        idx = grp.stmts[0]
        node = self.nodes[idx]
        red = grp.reduction
        if red.slot_kind == "reg":
            init = ctx.act.regs[red.slot_name]
            skip = None
        else:
            r = ctx.res[id(red.self_load)]
            init = ctx.interp.mem.read(r.addr0)
            skip = (red.self_load.var.name, red.self_load.index)
        sel = None if node.pred is None else ctx.lanes(node.pred)
        post = None
        if sel is None or sel.size:
            load_vals = self._load_all(node, ctx, sel, skip)
            term = self._veval(red.term, ctx, node, load_vals, sel)
            post = _accumulate(red.op, init, term, ctx.n if sel is None else sel.size)
        if sel is not None:
            post = _fill(init, sel, post, ctx.n)
        if red.slot_kind == "reg":
            ctx.reg_post[idx] = post
        else:
            ctx.store_post[idx] = post

    # -- sequential groups -------------------------------------------------
    def _eval_sequential(self, grp: StmtGroup, ctx: _Ctx) -> None:
        """Exact scalar lane: replay the group's statements per iteration
        with the interpreter's own operator tables, skipping a predicated
        statement on the iterations its arm does not run.  In-group memory
        traffic goes through an address-keyed overlay, which reproduces
        chronological read/write interleavings (stencils, histograms) by
        construction."""
        nodes = [self.nodes[i] for i in grp.stmts]
        group = set(grp.stmts)
        overlay: dict[int, Any] = {}
        reg_state: dict[str, Any] = {}
        outputs: dict[int, list] = {i: [] for i in grp.stmts}
        dyn_logs: dict[int, tuple[MemoryRef, list]] = {}
        truth: dict[int, bool] = {}  # in-group condition -> this iteration
        gates: list = []  # per node: None (always runs), a pred, or a list
        for node in nodes:
            p = node.pred
            if p is None or p[0] in group:
                gates.append(p)
            else:
                m = ctx.masks[p[0]]
                gates.append((m if p[1] else ~m).tolist())
        mem = ctx.interp.mem
        seval, seq_addr = self._seval, self._seq_addr
        plan = [(node, gate, outputs[node.idx]) for node, gate in zip(nodes, gates)]
        for k in range(ctx.n):
            i_val = ctx.start + ctx.step * k
            for node, gate, out in plan:
                if gate is not None and not (
                    gate[k] if type(gate) is list else truth[gate[0]] == gate[1]
                ):
                    # Skipped: a register or cell keeps the value it had.
                    if node.target_reg is not None:
                        v = reg_state[node.target_reg] = self._seq_reg(
                            node.target_reg, node, ctx, k, group, reg_state
                        )
                    elif node.store.shape == SLOT:
                        v = out[k - 1] if k else mem.read(ctx.res[id(node.store)].addr0)
                    else:
                        v = None
                    out.append(v)
                    continue
                it = iter(node.eval_loads)
                v = seval(
                    node.expr, node, ctx, k, i_val, group, reg_state, overlay,
                    dyn_logs, it,
                )
                if node.target_reg is not None:
                    reg_state[node.target_reg] = v
                elif node.store is not None:
                    addr = seq_addr(
                        node.store, node, ctx, k, i_val, group, reg_state,
                        overlay, dyn_logs, it,
                    )
                    overlay[addr] = v
                else:  # an if condition
                    v = truth[node.idx] = bool(v)
                out.append(v)
        for node in nodes:
            out = outputs[node.idx]
            if node.is_cond:
                ctx.masks[node.idx] = np.array(out, dtype=bool)
            elif node.target_reg is not None:
                ctx.reg_post[node.idx] = _SeqVal(out)
            else:
                ctx.store_post[node.idx] = _SeqVal(out)
        for ref, log in dyn_logs.values():
            addrs = np.array(log, dtype=np.int64)
            ctx.res[id(ref)].addrs = addrs
            ctx.dyn_addrs.setdefault((ref.key, ref.pred), addrs)
        ctx.overlays.append(overlay)

    def _seq_addr(
        self, ref, node, ctx, k, i_val, group, reg_state, overlay, dyn_logs,
        load_iter: Iterator[MemoryRef],
    ) -> int:
        r = ctx.res[id(ref)]
        if r.shape != DYNAMIC:
            return r.addr0 + r.astride * k
        iv = self._seval(
            ref.index, node, ctx, k, i_val, group, reg_state, overlay,
            dyn_logs, load_iter,
        )
        idx = int(iv)  # the interpreter's _addr coercion
        if not 0 <= idx < r.size:
            raise Bailout("oob_index")
        addr = r.base + ELEM_SIZE * idx
        entry = dyn_logs.get(id(ref))
        if entry is None:
            entry = dyn_logs[id(ref)] = (ref, [])
        entry[1].append(addr)
        return addr

    def _seq_reg(self, name, node, ctx, k, group, reg_state) -> Any:
        """A register's value at ``node`` in iteration ``k``."""
        b = node.reg_binds.get(name)
        if b is None or b[0] == "inv":
            return ctx.act.regs[name]
        if b[1] in group:
            # "post" reads see this iteration's def (textually earlier);
            # "pre" reads happen before the def, so the state still holds
            # last iteration's value (or the pre-loop register).
            if b[0] == "post" or name in reg_state:
                return reg_state[name]
            return ctx.act.regs[name]
        lst = ctx.as_list(ctx.reg_post[b[1]])
        if b[0] == "post":
            v = lst[k]
        else:
            v = lst[k - 1] if k else ctx.act.regs[name]
        if v is _UNSET:  # the interpreter raises here: leave it the loop
            raise Bailout("unset_register")
        return v

    def _seval(
        self, e, node, ctx, k, i_val, group, reg_state, overlay, dyn_logs,
        load_iter: Iterator[MemoryRef],
    ) -> Any:
        if isinstance(e, ast.Const):
            return e.value
        if isinstance(e, ast.Reg):
            if e.name == self.ind:
                return i_val
            return self._seq_reg(e.name, node, ctx, k, group, reg_state)
        if isinstance(e, ast.Load):
            ld = next(load_iter)
            b = ld.binding
            if b[0] != "init" and b[1] not in group:
                if ld.shape == DYNAMIC:  # its index loads still run
                    self._seq_addr(
                        ld, node, ctx, k, i_val, group, reg_state, overlay,
                        dyn_logs, load_iter,
                    )
                lst = ctx.as_list(ctx.store_post[b[1]])
                if b[0] == "fwd":
                    return lst[k]
                return lst[k - 1] if k else ctx.interp.mem.read(ctx.res[id(ld)].addr0)
            addr = self._seq_addr(
                ld, node, ctx, k, i_val, group, reg_state, overlay, dyn_logs,
                load_iter,
            )
            if addr in overlay:
                return overlay[addr]
            return ctx.interp.mem.read(addr)
        if isinstance(e, ast.BinOp):
            lhs = self._seval(
                e.lhs, node, ctx, k, i_val, group, reg_state, overlay,
                dyn_logs, load_iter,
            )
            rhs = self._seval(
                e.rhs, node, ctx, k, i_val, group, reg_state, overlay,
                dyn_logs, load_iter,
            )
            return e.apply(lhs, rhs)
        if isinstance(e, ast.UnOp):
            return e.apply(
                self._seval(
                    e.operand, node, ctx, k, i_val, group, reg_state, overlay,
                    dyn_logs, load_iter,
                )
            )
        raise Bailout("expr_type")

    # -- alias checks (end of prepare, still pure) -------------------------
    def _alias_checks(self, ctx: _Ctx) -> None:
        """Pairwise checks between *different* progressions of one array.
        Gathers read pre-loop memory regardless of evaluation order, so
        running these after group evaluation is safe — nothing was mutated.
        Pairs inside one sequential group are exempt: the overlay reproduces
        their chronological interleaving exactly."""
        by_var: dict[str, list[MemoryRef]] = {}
        for ref in self.accesses:
            by_var.setdefault(ref.var.name, []).append(ref)
        for refs in by_var.values():
            if not any(r.is_store for r in refs):
                continue
            for i, a in enumerate(refs):
                for b in refs[i + 1 :]:
                    if not (a.is_store or b.is_store) or a.key == b.key:
                        continue
                    ga = self._seq_group_of.get(a.stmt_idx)
                    if ga is not None and ga == self._seq_group_of.get(b.stmt_idx):
                        continue
                    self._check_pair(ctx, a, b)

    def _check_pair(self, ctx: _Ctx, a: MemoryRef, b: MemoryRef) -> None:
        ra, rb = ctx.res[id(a)], ctx.res[id(b)]
        both_store = a.is_store and b.is_store
        reason = "store_overlap" if both_store else "loop_carried_alias"
        if (
            ra.shape == DYNAMIC
            or rb.shape == DYNAMIC
            or ra.sel is not None
            or rb.sel is not None
        ):
            if np.intersect1d(_addr_set(ctx, ra), _addr_set(ctx, rb)).size:
                raise Bailout(reason)
            return
        (alo, ahi), (blo, bhi) = ra.span(ctx.n), rb.span(ctx.n)
        if ahi < blo or bhi < alo:
            return
        if ra.astride == rb.astride:
            if ra.astride == 0:
                if ra.addr0 == rb.addr0:
                    raise Bailout(reason)
                return
            if ra.addr0 == rb.addr0:
                # Identical progression under different structural keys.
                if both_store:
                    return  # per-statement scatter order matches stmt order
                ld, st = (a, b) if b.is_store else (b, a)
                if ld.binding == ("init",) and ld.stmt_idx <= st.stmt_idx:
                    return  # element k is read before iteration k writes it
                raise Bailout(reason)
            if (ra.addr0 - rb.addr0) % abs(ra.astride) == 0:
                raise Bailout(reason)  # nonzero loop-carried distance
            return  # interleaved progressions never meet
        if np.intersect1d(_addr_set(ctx, ra), _addr_set(ctx, rb)).size:
            raise Bailout(reason)

    # -- phase B: commit ---------------------------------------------------
    def _commit(self, interp, act, tid: int, site: int, ctx: _Ctx) -> int:
        """Apply the prepared loop; returns the number of trace rows."""
        mem = interp.mem
        n_iters, k = ctx.n, ctx.k

        # Scatter stores (cross-progression overlap was alias-checked; a
        # slot store keeps only its last value, like the interpreter would).
        # A predicated store writes only the iterations its arm ran.
        for node in self.nodes:
            if node.store is None or node.idx in self._seq_stmts:
                continue
            r = ctx.res[id(node.store)]
            val = ctx.store_post[node.idx]
            sel = r.sel
            if sel is not None and not sel.size:
                continue
            if r.shape == DYNAMIC:
                # dict.update keeps the *last* pair per address, which is
                # exactly iteration order within one statement.
                mem.write_block(r.addrs.tolist(), _raw_list(val, n_iters, sel))
            elif r.astride == 0:
                mem.write(r.addr0, _last_raw(val))
            elif sel is not None:
                addrs = r.addr0 + r.astride * sel
                mem.write_block(addrs.tolist(), _raw_list(val, n_iters, sel))
            else:
                addrs = range(r.addr0, r.addr0 + r.astride * n_iters, r.astride)
                if isinstance(val, _VecVal) and _is_scalar(val.val):
                    mem.write_block(addrs, itertools.repeat(val.val, n_iters))
                else:
                    mem.write_block(addrs, _raw_list(val, n_iters))
        # Sequential groups committed their chronology into the overlay,
        # whose insertion order is the interpreter's own write order.
        for overlay in ctx.overlays:
            if overlay:
                mem.write_block(overlay.keys(), overlay.values())

        # Registers end exactly as after the last interpreted iteration.
        act.regs[self.ind] = ctx.start + ctx.step * (n_iters - 1)
        for name, defs in self.graph.reg_defs.items():
            v = _last_raw(ctx.reg_post[defs[-1]])
            if v is not _UNSET:
                act.regs[name] = v

        # Synthesize the event block: iteration-major tiling of the per-
        # iteration slot pattern [LOOP_ITER, access, access, ...], where an
        # if's slots are its condition's loads, then its then-arm's and its
        # else-arm's accesses.  A predicated slot is kept only on the
        # iterations its arm ran, so each iteration emits exactly the
        # interpreter's events.  Variable names intern in the order of their
        # first emitted row, as the interpreter interns them, keeping the
        # intern tables bit-identical too.
        n_slots = self.events_per_iteration
        kind_pat = np.empty(n_slots, dtype=np.uint8)
        loc_pat = np.empty(n_slots, dtype=np.int32)
        var_pat = np.empty(n_slots, dtype=np.int32)
        addr = np.empty((n_iters, n_slots), dtype=np.int64)
        aux = np.zeros((n_iters, n_slots), dtype=np.int64)
        keep: np.ndarray | None = None  # per-slot active mask, if any
        first_rows: list[int] = []  # first emitted row of each emitting slot
        kind_pat[0] = LOOP_ITER
        loc_pat[0] = site
        var_pat[0] = -1
        addr[:, 0] = site
        aux[:, 0] = k
        for j, acc in enumerate(self.accesses, start=1):
            r = ctx.res[id(acc)]
            kind_pat[j] = acc.kind
            loc_pat[j] = interp.loc(acc.line)
            if r.sel is None:
                first_rows.append(j)
                if r.shape == DYNAMIC:
                    addr[:, j] = r.addrs
                else:
                    addr[:, j] = r.addr0 + r.astride * k
                continue
            if keep is None:
                keep = np.ones((n_iters, n_slots), dtype=bool)
            keep[:, j] = False
            keep[r.sel, j] = True
            if not r.sel.size:
                continue
            first_rows.append(int(r.sel[0]) * n_slots + j)
            if r.shape == DYNAMIC:
                addr[r.sel, j] = r.addrs
            else:
                addr[r.sel, j] = r.addr0 + r.astride * r.sel
        for row in sorted(first_rows):
            j = row % n_slots
            var_pat[j] = interp._var_id(self.accesses[j - 1].var.name)
        cols = {
            "kind": np.tile(kind_pat, n_iters),
            "loc": np.tile(loc_pat, n_iters),
            "addr": addr.reshape(-1),
            "aux": aux.reshape(-1),
            "var": np.tile(var_pat, n_iters),
        }
        if keep is not None:
            keep = keep.reshape(-1)
            cols = {name: col[keep] for name, col in cols.items()}
        interp.gate.emit_block(tid, site, n_iters, **cols)
        return len(cols["kind"])

    def execute(
        self,
        interp,
        act,
        tid: int,
        start: Any,
        end: Any,
        step: Any,
        site: int,
        stats: "FastPathStats",
    ) -> bool:
        """Try to run the whole loop vectorized; ``False`` means nothing was
        mutated and the caller must interpret the loop normally."""
        try:
            ctx = self._prepare(interp, act, start, end, step)
        except Bailout as b:
            stats.bailout(b.reason)
            return False
        except Exception as exc:  # interpreter reproduces the error in place
            stats.bailout(f"error:{type(exc).__name__}")
            return False
        n_rows = self._commit(interp, act, tid, site, ctx)
        stats.hit(ctx.n, n_rows)
        return True


def _addr_set(ctx: _Ctx, r: _Resolved) -> np.ndarray:
    """Addresses ``r`` touches on the iterations it runs."""
    if r.shape == DYNAMIC:
        return r.addrs
    if r.astride == 0:
        if r.sel is not None and not r.sel.size:
            return r.sel
        return np.array([r.addr0], dtype=np.int64)
    return r.addr0 + r.astride * (ctx.k if r.sel is None else r.sel)


def _reject_revisits(ctx: _Ctx, refs: list[MemoryRef]) -> None:
    """Bail when some address is touched on two different iterations by
    ``refs`` (all of one dynamic key)."""
    parts = {}  # refs sharing one resolution count once
    for ref in refs:
        r = ctx.res[id(ref)]
        parts[(id(r.sel), id(r.addrs))] = (r.sel, r.addrs)
    if len(parts) == 1:
        (sel, addrs), = parts.values()
        if np.unique(addrs).size != addrs.size:
            raise Bailout("dup_index")
        return
    lanes = np.concatenate(
        [ctx.k if sel is None else sel for sel, _ in parts.values()]
    )
    addrs = np.concatenate([a for _, a in parts.values()])
    order = np.lexsort((lanes, addrs))
    a, ln = addrs[order], lanes[order]
    if ((a[1:] == a[:-1]) & (ln[1:] != ln[:-1])).any():
        raise Bailout("dup_index")


# ---------------------------------------------------------------------------
# Telemetry
# ---------------------------------------------------------------------------


class FastPathStats:
    """Producer-side fast-path accounting for one interpreter instance."""

    __slots__ = (
        "loops",
        "iterations",
        "events",
        "templates",
        "memo_hits",
        "rejects",
        "bailouts",
        "verdicts",
    )

    def __init__(self) -> None:
        self.loops = 0  # loop executions taken by the fast path
        self.iterations = 0
        self.events = 0  # trace rows synthesized in bulk
        self.templates = 0  # loops that classified as schedulable
        self.memo_hits = 0  # classifications served from the structural memo
        self.rejects: dict[str, int] = {}  # static, once per loop site
        self.bailouts: dict[str, int] = {}  # dynamic, once per execution
        self.verdicts: dict[str, int] = {}  # static verdicts of compiled loops

    def hit(self, n_iters: int, n_rows: int) -> None:
        self.loops += 1
        self.iterations += n_iters
        self.events += n_rows

    def compiled(self, verdict: str | None = None) -> None:
        self.templates += 1
        if verdict is not None:
            self.verdicts[verdict] = self.verdicts.get(verdict, 0) + 1

    def memo_hit(self) -> None:
        self.memo_hits += 1

    def reject(self, reason: str) -> None:
        self.rejects[reason] = self.rejects.get(reason, 0) + 1

    def bailout(self, reason: str) -> None:
        self.bailouts[reason] = self.bailouts.get(reason, 0) + 1

    def publish(self, registry: "MetricsRegistry", total_events: int) -> None:
        """Fold into ``producer.*`` counters (RunReport / ddprof stats)."""
        c = registry.counter
        c("producer.events_fastpath").inc(self.events)
        c("producer.events_interpreted").inc(max(0, total_events - self.events))
        c("producer.fastpath_loops").inc(self.loops)
        c("producer.fastpath_iterations").inc(self.iterations)
        c("producer.templates_compiled").inc(self.templates)
        c("producer.classify_cache_hits").inc(self.memo_hits)
        for verdict, n in sorted(self.verdicts.items()):
            c("producer.loop_verdicts", verdict=verdict).inc(n)
        for reason, n in sorted(self.rejects.items()):
            c("producer.template_rejects", reason=reason).inc(n)
        for reason, n in sorted(self.bailouts.items()):
            c("producer.fastpath_bailouts", reason=reason).inc(n)
        # Coverage over everything this registry has accumulated so far —
        # the headline fastpath-events / total-events ratio as a first-class
        # metric instead of a hand-derived number.
        fast = c("producer.events_fastpath").value
        slow = c("producer.events_interpreted").value
        total = fast + slow
        registry.gauge("producer.fastpath_coverage").set(
            fast / total if total else 0.0
        )
