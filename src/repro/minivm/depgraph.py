"""Per-loop dependence-graph IR and statement-group scheduler.

The affine fast path (:mod:`repro.minivm.affine`) used to reject any loop
body whose statements depend on each other — a single template covered only
independent straight-line bodies.  This module gives classification a real
intermediate representation, in the spirit of graph-based dependence
identifiers (Alluru & Jeganathan) and of PROMPT's one-core/many-analyses
reuse:

* **nodes** are the loop-body statements (``SetReg`` / ``Store``), with one
  level of ``if``/``else`` flattened in execution order: the condition
  becomes a node of its own, and each arm statement a *predicated* node
  that runs only on the iterations where the interpreter takes its arm,
* every traced access is a :class:`MemoryRef` — a symbolic affine
  description of the address progression (loop-invariant *slot*, affine
  ``base + stride*i``, or *dynamic* vector-evaluated index, e.g. one that
  loads memory: ``a[b[i]]`` reads ``b[i]`` through a ref of its own),
* **edges** are RAW / WAR / WAW dependences with a dependence distance
  (0 = intra-iteration, 1 = adjacent-iteration slot/register recurrence,
  ``None`` = statically unknown) and a loop-carried flag.

The :class:`GroupScheduler` condenses the intra-iteration + loop-carried
RAW subgraph into strongly connected components, topologically orders them,
and assigns each group an execution *mode*:

========== ==============================================================
``vector``     no cycle: evaluate the whole iteration space as numpy arrays
``reduction``  single-statement self-recurrence matching ``x = x ⊕ term``
               for ⊕ in ``+ - * min max`` — runs as ``ufunc.accumulate``
               (sequential left fold, bit-identical to the interpreter)
``sequential`` any other recurrence (e.g. an LCG chain): an exact scalar
               lane replays just the cyclic statements per iteration while
               everything downstream still vectorizes
========== ==============================================================

A predicated node takes whichever lane its group gets; an arm node depends
on its condition node (a RAW edge ``on "if"``), so the condition is always
evaluated first.  Bodies the lanes cannot run exactly set ``reject``:
``pred_fwd`` (a load would forward from a store under another predicate)
and ``pred_slot_store`` (a predicated store to a loop-invariant cell that
another statement also stores).

The same graph doubles as the parallelization advisor: :func:`loop_verdict`
derives a DOALL / reduction / pipeline / sequential classification from the
loop-carried edges, and the dynamic-dependence analysis
(:mod:`repro.analyses.parallelism`) reuses :func:`carried_graph_verdict` so
the static and profiled classifications can never diverge in logic.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable

from repro.minivm import astnodes as ast
from repro.trace.events import READ, WRITE

#: Binary operators with an exact ``ufunc.accumulate`` reduction lowering.
#: ``accumulate`` applies the ufunc as a sequential left fold, which is the
#: interpreter's own evaluation order — so int and IEEE-float results are
#: bit-identical (NaN-bearing min/max bails at runtime instead).
REDUCTION_OPS = {
    "+": "add",
    "-": "subtract",
    "*": "multiply",
    "min": "minimum",
    "max": "maximum",
}

#: Index-expression shapes, decided statically per access.
SLOT = "slot"  # loop-invariant index: the same cell every iteration
AFFINE = "affine"  # degree-1 polynomial in the induction register
DYNAMIC = "dynamic"  # loop-variant but non-affine: vector-evaluated index


class MemoryRef:
    """One trace-event-emitting access per iteration, symbolically.

    ``key`` identifies the access's address progression *statically*: two
    refs with the same key provably walk identical addresses, which is what
    store-to-load forwarding and last-store-wins WAW resolution rely on.
    ``binding`` (set by the graph build) says where the ref's value comes
    from: pre-loop memory, a forwarded in-iteration store, or the previous
    iteration's slot value.
    """

    __slots__ = (
        "kind", "var", "index", "line", "stmt_idx", "shape", "pred", "key", "binding",
    )

    def __init__(
        self,
        kind: int,
        var: ast.Variable,
        index: ast.Expr | None,
        line: int,
        stmt_idx: int,
        shape: str,
        pred: tuple | None = None,
    ) -> None:
        self.kind = kind
        self.var = var
        self.index = index
        self.line = line
        self.stmt_idx = stmt_idx
        self.shape = shape
        self.pred = pred  # the owning statement's predicate
        self.key = (var.name, index)
        self.binding: tuple = ("init",)

    @property
    def is_store(self) -> bool:
        return self.kind == WRITE

    def describe(self) -> str:
        idx = "" if self.index is None else f"[{self.shape}]"
        rw = "W" if self.kind == WRITE else "R"
        return f"{rw}:{self.var.name}{idx}@s{self.stmt_idx}"


class DepEdge:
    """A dependence between two body statements (producer ``src`` first)."""

    __slots__ = ("src", "dst", "dep", "carried", "distance", "on")

    def __init__(
        self,
        src: int,
        dst: int,
        dep: str,
        carried: bool,
        distance: int | None,
        on: str,
    ) -> None:
        self.src = src
        self.dst = dst
        self.dep = dep  # "RAW" | "WAR" | "WAW"
        self.carried = carried
        self.distance = distance  # 0 intra, 1 slot/register recurrence, None unknown
        self.on = on  # register name or "var[...]" description

    def describe(self) -> str:
        span = "carried" if self.carried else "intra"
        d = "?" if self.distance is None else str(self.distance)
        return f"{self.src}->{self.dst} {self.dep}/{span} d={d} on {self.on}"


class StmtNode:
    """One classified body statement with its scanned access set.

    A node with neither ``target_reg`` nor ``store`` is an ``if`` condition;
    ``pred = (cond_idx, taken)`` marks a statement of that ``if``'s then
    (``taken`` true) or else arm.  ``loads`` lists the reads in emission
    order (an index's loads before the read they address); ``eval_loads``
    lists the same refs in expression-walk order (a read before its
    index's loads), the order the sequential lane meets them.
    """

    __slots__ = (
        "idx", "line", "target_reg", "store", "expr", "loads", "eval_loads",
        "pred", "reg_binds",
    )

    def __init__(
        self,
        idx: int,
        line: int,
        target_reg: str | None,
        store: MemoryRef | None,
        expr: ast.Expr,
        loads: list[MemoryRef],
        eval_loads: list[MemoryRef],
        pred: tuple | None = None,
    ) -> None:
        self.idx = idx
        self.line = line
        self.target_reg = target_reg
        self.store = store
        self.expr = expr
        self.loads = loads
        self.eval_loads = eval_loads
        self.pred = pred
        #: register name -> ("post", def_idx) | ("pre", def_idx) | ("inv",);
        #: a predicated SetReg also binds its own target: the value it keeps
        #: on iterations that skip its arm.
        self.reg_binds: dict[str, tuple] = {}

    @property
    def is_cond(self) -> bool:
        return self.target_reg is None and self.store is None


class ReductionInfo:
    """A recognized ``slot = slot ⊕ term`` idiom on one statement."""

    __slots__ = ("op", "term", "slot_kind", "slot_name", "self_load")

    def __init__(
        self,
        op: str,
        term: ast.Expr,
        slot_kind: str,  # "reg" | "mem"
        slot_name: str,
        self_load: MemoryRef | None,
    ) -> None:
        self.op = op
        self.term = term
        self.slot_kind = slot_kind
        self.slot_name = slot_name
        self.self_load = self_load


class StmtGroup:
    """A schedulable unit: one SCC of the value-flow graph."""

    __slots__ = ("stmts", "mode", "reduction")

    def __init__(
        self, stmts: list[int], mode: str, reduction: ReductionInfo | None = None
    ) -> None:
        self.stmts = stmts  # statement indices, in body order
        self.mode = mode  # "vector" | "reduction" | "sequential"
        self.reduction = reduction

    def describe(self) -> str:
        return f"{self.mode}({','.join(map(str, self.stmts))})"


def _tarjan_sccs(n: int, succ: dict[int, set[int]]) -> list[list[int]]:
    """Strongly connected components of nodes ``0..n-1``, iterative Tarjan.

    Returned in reverse topological order of the condensation (callers
    reverse for producer-first scheduling); members sorted ascending.
    """
    index = [0] * n
    low = [0] * n
    state = [0] * n  # 0 unvisited, 1 on stack, 2 done
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = [1]
    for root in range(n):
        if state[root]:
            continue
        work = [(root, iter(sorted(succ.get(root, ()))))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        state[root] = 1
        stack.append(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if not state[w]:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    state[w] = 1
                    stack.append(w)
                    work.append((w, iter(sorted(succ.get(w, ())))))
                    advanced = True
                    break
                if state[w] == 1:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                pv = work[-1][0]
                low[pv] = min(low[pv], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    state[w] = 2
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(sorted(comp))
    return sccs


def carried_graph_verdict(
    n_nodes: int, edges: Iterable[tuple[int, int, bool]]
) -> str:
    """Shared DOALL/pipeline/sequential rule over a carried-dependence graph.

    ``edges`` are ``(src, dst, carried)`` true-dependence (RAW) edges with
    storage-reuse (WAR/WAW) and recognized reductions already removed — both
    are repaired by privatization / a reduction clause, the treatment the
    paper's Table II assumes.  The rule, DSWP-style:

    * no carried edge → ``doall`` (iterations are independent),
    * carried edges exist but no strongly connected component of the
      intra+carried graph contains one internally → ``pipeline`` (the body
      splits into stages; carried data only flows forward between them),
    * otherwise → ``sequential`` (some stage feeds itself across iterations).
    """
    edge_list = list(edges)
    if not any(carried for _, _, carried in edge_list):
        return "doall"
    succ: dict[int, set[int]] = {}
    for src, dst, _ in edge_list:
        succ.setdefault(src, set()).add(dst)
    comp_of: dict[int, int] = {}
    for ci, comp in enumerate(_tarjan_sccs(n_nodes, succ)):
        for v in comp:
            comp_of[v] = ci
    for src, dst, carried in edge_list:
        if carried and comp_of[src] == comp_of[dst]:
            return "sequential"
    return "pipeline"


def _affine_coeffs(e: ast.Expr, ind: str) -> tuple[int, int] | None:
    """``e`` as ``coeff*i + offset`` with *literal* integer constants, or
    ``None``.  Used only for static distance labeling (never for safety —
    runtime resolution re-derives every progression)."""
    if e is None:
        return (0, 0)
    if isinstance(e, ast.Const):
        return (0, e.value) if isinstance(e.value, int) else None
    if isinstance(e, ast.Reg):
        return (1, 0) if e.name == ind else None
    if isinstance(e, ast.UnOp) and e.op == "-":
        sub = _affine_coeffs(e.operand, ind)
        return None if sub is None else (-sub[0], -sub[1])
    if isinstance(e, ast.BinOp):
        lhs = _affine_coeffs(e.lhs, ind)
        rhs = _affine_coeffs(e.rhs, ind)
        if lhs is None or rhs is None:
            return None
        if e.op == "+":
            return (lhs[0] + rhs[0], lhs[1] + rhs[1])
        if e.op == "-":
            return (lhs[0] - rhs[0], lhs[1] - rhs[1])
        if e.op == "*":
            if lhs[0] == 0:
                return (lhs[1] * rhs[0], lhs[1] * rhs[1])
            if rhs[0] == 0:
                return (rhs[1] * lhs[0], rhs[1] * lhs[1])
    return None


class DependencyGraph:
    """Static dependence graph of one innermost counted loop body."""

    __slots__ = (
        "ind", "nodes", "edges", "reg_defs", "mem_stores", "slot_keys", "reject",
    )

    def __init__(self, ind: str, nodes: list[StmtNode]) -> None:
        self.ind = ind
        self.nodes = nodes
        self.edges: list[DepEdge] = []
        #: register name -> ascending statement indices that define it
        self.reg_defs: dict[str, list[int]] = {}
        #: access key -> ascending statement indices that store through it
        self.mem_stores: dict[tuple, list[int]] = {}
        #: memory keys that are loop-invariant cells written every iteration
        self.slot_keys: set[tuple] = set()
        #: why the predicated lanes cannot run this body exactly, if they can't
        self.reject: str | None = None
        self._build()

    # -- construction ------------------------------------------------------
    def _build(self) -> None:
        stored_at: dict[str, list[int]] = {}  # array name -> storing stmts
        for node in self.nodes:
            if node.target_reg is not None:
                self.reg_defs.setdefault(node.target_reg, []).append(node.idx)
            elif node.store is not None:
                stored_at.setdefault(node.store.var.name, []).append(node.idx)
        for node in self.nodes:
            self._bind_regs(node)
            if node.pred is not None:
                self.edges.append(
                    DepEdge(node.pred[0], node.idx, "RAW", False, 0, "if")
                )
        # Keys must capture the *binding context* of index registers: two
        # structurally equal index expressions name the same progression only
        # when their registers resolve to the same defs.  Likewise an index
        # that loads memory names the same cells at two refs only when no
        # store to an array it loads sits between them: such refs get keys
        # of different "epochs" (stores to those arrays before the ref).
        for node in self.nodes:
            for ref in node.loads + ([node.store] if node.store else []):
                ref.key = self._refined_key(ref, node)
                if ref.shape == DYNAMIC:  # only a dynamic index can load
                    epoch = sum(
                        bisect_left(stored_at.get(var, ()), node.idx)
                        for var in _loaded_vars(ref.index)
                    )
                    if epoch:
                        ref.key += (epoch,)
        for node in self.nodes:
            if node.store is not None:
                self.mem_stores.setdefault(node.store.key, []).append(node.idx)
        for key, stores in self.mem_stores.items():
            first_store = stores[0]
            shape = next(
                n.store.shape for n in self.nodes if n.idx == first_store
            )
            if shape == SLOT:
                self.slot_keys.add(key)
                # A predicated cell store keeps the cell's value on skipped
                # iterations; that is its own previous value only when no
                # other statement writes the cell.
                if len(stores) > 1 and any(
                    self.nodes[i].pred is not None for i in stores
                ):
                    self.reject = self.reject or "pred_slot_store"
        for node in self.nodes:
            self._bind_loads(node)
        self._reg_output_edges()
        self._mem_output_edges()
        self._cross_key_edges()

    def _refined_key(self, ref: MemoryRef, node: StmtNode) -> tuple:
        if ref.index is None:
            return (ref.var.name, None, ())
        names: set[str] = set()
        _collect_regs(ref.index, names)
        ctxt = tuple(
            sorted(
                (nm, node.reg_binds.get(nm, ("inv",)))
                for nm in names
                if nm != self.ind
            )
        )
        return (ref.var.name, ref.index, ctxt)

    def _bind_regs(self, node: StmtNode) -> None:
        """Resolve every register read of ``node`` to its reaching def."""
        names: set[str] = set()
        exprs = [node.expr]
        exprs += [ld.index for ld in node.loads if ld.index is not None]
        if node.store is not None and node.store.index is not None:
            exprs.append(node.store.index)
        for e in exprs:
            _collect_regs(e, names)
        # A predicated def that only keeps its own previous value on skipped
        # iterations is a forward fill, not a recurrence: no carried edge.
        fill = None
        if node.pred is not None and node.target_reg is not None:
            if node.target_reg not in names:
                fill = node.target_reg
            names.add(node.target_reg)
        for name in sorted(names):
            if name == self.ind or name not in self.reg_defs:
                node.reg_binds[name] = ("inv",)
                continue
            defs = self.reg_defs[name]
            before = [d for d in defs if d < node.idx]
            if before:
                node.reg_binds[name] = ("post", before[-1])
                self.edges.append(
                    DepEdge(before[-1], node.idx, "RAW", False, 0, name)
                )
            else:
                node.reg_binds[name] = ("pre", defs[-1])
                if name != fill or defs[-1] != node.idx:
                    self.edges.append(
                        DepEdge(defs[-1], node.idx, "RAW", True, 1, name)
                    )

    def _bind_loads(self, node: StmtNode) -> None:
        """Resolve every load to pre-loop memory, a forwarded store, or the
        previous iteration's slot value."""
        for ld in node.loads:
            stores = self.mem_stores.get(ld.key)
            on = f"{ld.var.name}[{ld.shape}]"
            if not stores:
                ld.binding = ("init",)
                continue
            before = [d for d in stores if d < node.idx]
            if before:
                # Same progression, earlier statement: the interpreter's
                # load observes this iteration's store — forward its value.
                # A store under another predicate may not have run.
                src_pred = self.nodes[before[-1]].pred
                if src_pred is not None and src_pred != node.pred:
                    self.reject = self.reject or "pred_fwd"
                ld.binding = ("fwd", before[-1])
                self.edges.append(
                    DepEdge(before[-1], node.idx, "RAW", False, 0, on)
                )
            elif ld.key in self.slot_keys:
                # Loop-invariant cell read before it is (re)written: the
                # value is last iteration's — a distance-1 recurrence.
                ld.binding = ("pre", stores[-1])
                self.edges.append(
                    DepEdge(stores[-1], node.idx, "RAW", True, 1, on)
                )
            else:
                # Moving progression, load-before-store: iteration k reads
                # element k before writing it, so pre-loop values are right
                # for affine shapes.  A dynamic shape may revisit addresses
                # across iterations (histogram updates), so it also gets a
                # carried may-RAW edge — cyclic cases then take the exact
                # sequential lane; acyclic ones get a runtime revisit check.
                ld.binding = ("init",)
                self.edges.append(
                    DepEdge(node.idx, stores[0], "WAR", False, 0, on)
                )
                if ld.shape == DYNAMIC:
                    self.edges.append(
                        DepEdge(stores[-1], node.idx, "RAW", True, None, on)
                    )

    def _reg_output_edges(self) -> None:
        for name, defs in self.reg_defs.items():
            for a, b in zip(defs, defs[1:]):
                self.edges.append(DepEdge(a, b, "WAW", False, 0, name))
            self.edges.append(DepEdge(defs[-1], defs[0], "WAW", True, 1, name))

    def _mem_output_edges(self) -> None:
        for key, stores in self.mem_stores.items():
            var = key[0]
            for a, b in zip(stores, stores[1:]):
                self.edges.append(DepEdge(a, b, "WAW", False, 0, var))
            if key in self.slot_keys:
                self.edges.append(
                    DepEdge(stores[-1], stores[0], "WAW", True, 1, var)
                )

    def _cross_key_edges(self) -> None:
        """May-alias edges between *different* progressions of one array.

        Distances come from literal affine coefficients when both sides have
        them (``a[i]`` vs ``a[i-1]`` → distance 1); otherwise the edge is
        flagged unknown.  These edges inform the parallelism verdict only;
        execution safety always re-checks concrete addresses at runtime.
        """
        by_var: dict[str, list[MemoryRef]] = {}
        for node in self.nodes:
            for ref in node.loads + ([node.store] if node.store else []):
                by_var.setdefault(ref.var.name, []).append(ref)
        for refs in by_var.values():
            for i, a in enumerate(refs):
                for b in refs[i + 1 :]:
                    if a.key == b.key or not (a.is_store or b.is_store):
                        continue
                    wr, rd = (a, b) if a.is_store else (b, a)
                    ca = _affine_coeffs(wr.index, self.ind)
                    cb = _affine_coeffs(rd.index, self.ind)
                    dist: int | None = None
                    if ca is not None and cb is not None and ca[0] == cb[0]:
                        if ca[0] == 0:
                            if ca[1] != cb[1]:
                                continue  # distinct literal cells: no alias
                            dist = 0
                        elif (ca[1] - cb[1]) % ca[0] == 0:
                            dist = abs((ca[1] - cb[1]) // ca[0])
                        else:
                            continue  # interleaved progressions: disjoint
                    if dist == 0:
                        continue  # same element, same iteration: key-level
                    dep = "WAW" if rd.is_store else "RAW"
                    on = f"{wr.var.name}[?]"
                    self.edges.append(
                        DepEdge(
                            wr.stmt_idx, rd.stmt_idx, dep, True, dist, on
                        )
                    )

    # -- views -------------------------------------------------------------
    def raw_edges(self, carried: bool | None = None) -> list[DepEdge]:
        return [
            e
            for e in self.edges
            if e.dep == "RAW" and (carried is None or e.carried is carried)
        ]

    def describe(self) -> list[str]:
        return [e.describe() for e in self.edges]


class GroupScheduler:
    """Condenses a :class:`DependencyGraph` into ordered statement groups."""

    def __init__(self, graph: DependencyGraph) -> None:
        self.graph = graph

    def schedule(self) -> tuple[list[StmtGroup] | None, str | None]:
        """Topologically ordered groups, or ``(None, reason)`` when some
        group's mode cannot be executed exactly."""
        g = self.graph
        n = len(g.nodes)
        succ: dict[int, set[int]] = {}
        for e in g.raw_edges():
            succ.setdefault(e.src, set()).add(e.dst)
        groups: list[StmtGroup] = []
        for comp in reversed(_tarjan_sccs(n, succ)):
            groups.append(self._make_group(comp, succ))
        for grp in groups:
            reason = self._feasible(grp)
            if reason is not None:
                return None, reason
        # A sequential group commits its stores after every other group's,
        # so stores of one progression may not sit in it and elsewhere: a
        # later statement outside the group would lose to an earlier one in it.
        seq_of = {
            i: gi for gi, grp in enumerate(groups) if grp.mode == "sequential"
            for i in grp.stmts
        }
        if seq_of:
            for stores in g.mem_stores.values():
                owners = {seq_of.get(i, -1 - i) for i in stores}
                if len(owners) > 1 and any(i in seq_of for i in stores):
                    return None, "split_store"
        return groups, None

    def _make_group(self, comp: list[int], succ: dict[int, set[int]]) -> StmtGroup:
        g = self.graph
        if len(comp) > 1:
            return StmtGroup(comp, "sequential")
        idx = comp[0]
        if idx not in succ.get(idx, ()):  # no self-recurrence
            return StmtGroup(comp, "vector")
        red = self._match_reduction(g.nodes[idx])
        if red is not None:
            return StmtGroup(comp, "reduction", red)
        return StmtGroup(comp, "sequential")

    def _match_reduction(self, node: StmtNode) -> ReductionInfo | None:
        """``x = x ⊕ term`` with the self-read as a *direct* operand and no
        other reference to ``x`` inside ``term``."""
        e = node.expr
        if not isinstance(e, ast.BinOp) or e.op not in REDUCTION_OPS:
            return None
        if node.target_reg is not None:
            name = node.target_reg
            is_self = (
                lambda sub: isinstance(sub, ast.Reg)
                and sub.name == name
                and node.reg_binds.get(name, ())[:1] == ("pre",)
            )
            refs_slot = lambda sub: _reads_reg(sub, name)  # noqa: E731
            kind, self_load = "reg", None
        else:
            store = node.store
            if store is None or store.key not in self.graph.slot_keys:
                return None
            name = store.var.name
            pair = (store.var.name, store.index)
            is_self = (
                lambda sub: isinstance(sub, ast.Load)
                and (sub.var.name, sub.index) == pair
            )
            refs_slot = lambda sub: _reads_key(sub, pair)  # noqa: E731
            kind = "mem"
            self_load = next(
                (ld for ld in node.loads if ld.key == store.key), None
            )
            if self_load is None or self_load.binding[:1] != ("pre",):
                return None
        if is_self(e.lhs) and not refs_slot(e.rhs):
            return ReductionInfo(e.op, e.rhs, kind, name, self_load)
        if e.op != "-" and is_self(e.rhs) and not refs_slot(e.lhs):
            return ReductionInfo(e.op, e.lhs, kind, name, self_load)
        return None

    def _feasible(self, grp: StmtGroup) -> str | None:
        """Vector-evaluated expressions must avoid libm ops (numpy sin/cos
        are not guaranteed bit-identical to the scalar math module); the
        sequential lane replays the interpreter's own operators, so it has
        no such restriction."""
        if grp.mode == "sequential":
            return None
        for idx in grp.stmts:
            node = self.graph.nodes[idx]
            exprs = [node.expr] if grp.mode == "vector" else []
            if grp.mode == "reduction" and grp.reduction is not None:
                exprs = [grp.reduction.term]
            exprs += [ld.index for ld in node.loads if ld.index is not None]
            if node.store is not None and node.store.index is not None:
                exprs.append(node.store.index)
            for e in exprs:
                if _has_libm(e):
                    return "libm_op"
        return None


def loop_verdict(
    graph: DependencyGraph, groups: list[StmtGroup] | None
) -> str:
    """Static DOALL / reduction / pipeline / sequential verdict.

    Recognized reduction recurrences do not block (they parallelize with a
    reduction clause); WAR/WAW edges never block (privatizable storage
    reuse).  Remaining carried RAW edges go through the shared
    :func:`carried_graph_verdict` rule.
    """
    reduction_stmts = {
        g.stmts[0] for g in groups or [] if g.mode == "reduction"
    }
    edges = [
        (e.src, e.dst, e.carried)
        for e in graph.raw_edges()
        if not (e.carried and e.src == e.dst and e.src in reduction_stmts)
    ]
    verdict = carried_graph_verdict(len(graph.nodes), edges)
    if verdict == "doall" and reduction_stmts:
        return "reduction"
    return verdict


# -- small expression walkers -------------------------------------------------


def _collect_regs(e: ast.Expr, out: set[str]) -> None:
    if isinstance(e, ast.Reg):
        out.add(e.name)
    elif isinstance(e, ast.BinOp):
        _collect_regs(e.lhs, out)
        _collect_regs(e.rhs, out)
    elif isinstance(e, ast.UnOp):
        _collect_regs(e.operand, out)
    elif isinstance(e, ast.Load) and e.index is not None:
        _collect_regs(e.index, out)


def _loaded_vars(e: ast.Expr) -> set[str]:
    """Names of the arrays ``e`` loads from."""
    if isinstance(e, ast.Load):
        inner = set() if e.index is None else _loaded_vars(e.index)
        return inner | {e.var.name}
    if isinstance(e, ast.BinOp):
        return _loaded_vars(e.lhs) | _loaded_vars(e.rhs)
    if isinstance(e, ast.UnOp):
        return _loaded_vars(e.operand)
    return set()


def _reads_reg(e: ast.Expr, name: str) -> bool:
    if isinstance(e, ast.Reg):
        return e.name == name
    if isinstance(e, ast.BinOp):
        return _reads_reg(e.lhs, name) or _reads_reg(e.rhs, name)
    if isinstance(e, ast.UnOp):
        return _reads_reg(e.operand, name)
    if isinstance(e, ast.Load) and e.index is not None:
        return _reads_reg(e.index, name)
    return False


def _reads_key(e: ast.Expr, pair: tuple) -> bool:
    if isinstance(e, ast.Load):
        if (e.var.name, e.index) == pair:
            return True
        return e.index is not None and _reads_key(e.index, pair)
    if isinstance(e, ast.BinOp):
        return _reads_key(e.lhs, pair) or _reads_key(e.rhs, pair)
    if isinstance(e, ast.UnOp):
        return _reads_key(e.operand, pair)
    return False


#: Unary operators with numpy lowerings proven bit-identical to the scalar
#: interpreter.  Anything else (``sin``/``cos``: libm vs. numpy ULP drift)
#: may only run in the sequential lane, which replays interpreter operators.
VECTOR_SAFE_UNOPS = frozenset({"-", "not", "int", "abs", "sqrt"})


def _has_libm(e: ast.Expr) -> bool:
    if isinstance(e, ast.UnOp):
        return e.op not in VECTOR_SAFE_UNOPS or _has_libm(e.operand)
    if isinstance(e, ast.BinOp):
        return _has_libm(e.lhs) or _has_libm(e.rhs)
    if isinstance(e, ast.Load) and e.index is not None:
        return _has_libm(e.index)
    return False


READ = READ  # re-export for graph consumers building MemoryRefs
WRITE = WRITE
