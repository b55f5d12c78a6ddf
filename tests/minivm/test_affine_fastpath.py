"""Tests for the affine-loop producer fast path.

The contract under test: with ``fastpath=True`` the interpreter may execute
whole loops as array operations, but the resulting trace must be
*bit-for-bit* identical (all eight columns plus the three intern tables) to
the tree-walking path, and memory/registers must end in value- and
type-identical states.  Classification and bailout edge cases are pinned
down by reason string so a regression shows up as the wrong reason, not
just as "didn't vectorize".
"""

import numpy as np
import pytest

from repro.common.errors import MiniVmError
from repro.minivm import ProgramBuilder, ScheduleConfig, Scheduler, run_program
from repro.minivm import affine
from repro.minivm.astnodes import For, UnOp


def first_for(program, func="main"):
    """The first (outermost) For statement of ``func``."""
    for s in program.function(func).body:
        if isinstance(s, For):
            return s
    raise AssertionError("program has no For loop")


def run_both(program, schedule=None, args=()):
    """Run fast-path and interpreted; return (fast_sched, slow_sched, batches)."""
    fast = Scheduler(program, schedule=schedule, fastpath=True)
    fast_batch = fast.run(args)
    slow = Scheduler(program, schedule=schedule, fastpath=False)
    slow_batch = slow.run(args)
    return fast, slow, fast_batch, slow_batch


def assert_traces_identical(a, b):
    for col in ("kind", "tid", "loc", "addr", "aux", "var", "ts", "ctx"):
        x, y = getattr(a, col), getattr(b, col)
        assert len(x) == len(y), f"column {col}: {len(x)} vs {len(y)} rows"
        if not np.array_equal(x, y):
            i = int(np.argmax(x != y))
            raise AssertionError(
                f"column {col} differs first at row {i}: {x[i]} vs {y[i]}"
            )
        assert x.dtype == y.dtype, col
    assert a.var_names == b.var_names
    assert a.file_names == b.file_names
    assert a.ctx_stacks == b.ctx_stacks


def memory_state(sched):
    """Type-exact memory snapshot: float 2.0 != int 2."""
    return {
        addr: (type(v).__name__, repr(v))
        for addr, v in sched.memory._values.items()
    }


def assert_equivalent(program, schedule=None, args=()):
    fast, slow, fb, sb = run_both(program, schedule=schedule, args=args)
    assert_traces_identical(fb, sb)
    assert memory_state(fast) == memory_state(slow)
    return fast.interp.fastpath_stats


N = 70  # global array extent used by most programs here


def build(body_fn, n=N, trip=16, step=1, start=None, before=None, after=None):
    """One-loop program over arrays a,b,c and scalar s; body_fn(f, i, vars).
    ``before``/``after`` (f, vars) add straight-line code around the loop."""
    b = ProgramBuilder("affine-case")
    arrs = {name: b.global_array(name, n) for name in ("a", "b", "c")}
    arrs["s"] = b.global_scalar("s")
    with b.function("main") as f:
        i = f.reg("i")
        j = f.reg("j")
        # Seed memory with mixed int/float content through an affine prologue.
        with f.for_loop(j, 0, n):
            f.store(arrs["a"], j, j * 3 - 5)
            f.store(arrs["b"], j, j * 0.5)
        if before is not None:
            before(f, arrs)
        if start is None:
            start = trip - 1 if step < 0 else 0
        end = -1 if step < 0 else trip
        with f.for_loop(i, start, end, step):
            body_fn(f, i, arrs)
        if after is not None:
            after(f, arrs)
    return b.build()


def branchy_body(f, i, v):
    """if/else whose arms emit different accesses (the benchmark's shape)."""
    t = f.reg("t")
    f.set(t, f.load(v["a"], i))
    with f.if_(t % 2):
        f.store(v["c"], i, f.load(v["b"], i) + t)
    with f.else_():
        f.store(v["c"], i, f.load(v["c"], i) - t)


def predicated_sum_body(f, i, v):
    """A condition that loads memory guarding a slot reduction."""
    with f.if_(f.load(v["a"], i).gt(f.load(v["c"], i))):
        f.store(v["s"], None, f.load(v["s"]) + f.load(v["a"], i))


class TestClassification:
    """Static accept/reject decisions, pinned by reason."""

    def classify(self, program):
        # Loops of interest are built second (after the seeding prologue).
        loops = [s for s in program.function("main").body if isinstance(s, For)]
        return affine.classify_loop(loops[-1])

    def test_affine_fill_accepted(self):
        p = build(lambda f, i, v: f.store(v["a"], i, i * 2 + 1))
        tmpl, reason = self.classify(p)
        assert reason is None
        assert tmpl.events_per_iteration == 2  # LOOP_ITER + WRITE

    def test_load_slots_in_emission_order(self):
        p = build(lambda f, i, v: f.store(v["c"], i, f.load(v["a"], i) + f.load(v["b"], i)))
        tmpl, _ = self.classify(p)
        assert [a.var.name for a in tmpl.accesses] == ["a", "b", "c"]

    def test_nested_loop_rejected(self):
        def body(f, i, v):
            k = f.reg("k")
            with f.for_loop(k, 0, 4):
                f.store(v["a"], i, k)

        tmpl, reason = self.classify(build(body))
        assert tmpl is None and reason == "stmt:for"

    def test_if_compiles(self):
        def body(f, i, v):
            with f.if_((i % 2).eq(0)):
                f.store(v["a"], i, 1)

        tmpl, reason = self.classify(build(body))
        assert reason is None
        # The condition is a node of its own; the arm statement runs under it.
        assert [n.pred for n in tmpl.nodes] == [None, (0, True)]
        assert tmpl.nodes[0].is_cond

    @pytest.mark.parametrize("inner, reason", [("for", "if_arm:for"), ("if", "if_arm:if")])
    def test_if_arm_with_control_flow_rejected(self, inner, reason):
        def body(f, i, v):
            with f.if_((i % 2).eq(0)):
                if inner == "for":
                    k = f.reg("k")
                    with f.for_loop(k, 0, 4):
                        f.store(v["a"], i, k)
                else:
                    with f.if_(i.gt(3)):
                        f.store(v["a"], i, 1)

        tmpl, reason_got = self.classify(build(body))
        assert tmpl is None and reason_got == reason

    def test_induction_reassignment_rejected(self):
        def body(f, i, v):
            f.set(i, i + 1)

        tmpl, reason = self.classify(build(body))
        assert tmpl is None and reason == "induction_reassigned"

    def test_register_reduction_compiles(self):
        def body(f, i, v):
            r = f.reg("r")
            f.set(r, r + f.load(v["a"], i))

        tmpl, reason = self.classify(build(body))
        assert reason is None and tmpl.verdict == "reduction"
        assert [g.mode for g in tmpl.groups] == ["reduction"]

    def test_register_defined_then_used_accepted(self):
        def body(f, i, v):
            r = f.reg("r")
            f.set(r, f.load(v["a"], i) * 2)
            f.store(v["c"], i, r + 1)

        tmpl, reason = self.classify(build(body))
        assert reason is None and tmpl is not None

    def test_indirect_index_compiles(self):
        p = build(lambda f, i, v: f.store(v["c"], f.load(v["a"], i), 1))
        tmpl, reason = self.classify(p)
        assert reason is None
        # The loaded index is its own read, feeding a dynamic store.
        assert [(a.var.name, a.shape) for a in tmpl.accesses] == [
            ("a", "affine"),
            ("c", "dynamic"),
        ]

    def test_loaded_index_slots_in_emission_order(self):
        # Store: value loads, then index loads (innermost first), then write.
        p = build(
            lambda f, i, v: f.store(
                v["c"], f.load(v["a"], f.load(v["b"], i)), f.load(v["s"])
            )
        )
        tmpl, _ = self.classify(p)
        assert [a.var.name for a in tmpl.accesses] == ["s", "b", "a", "c"]

    def test_quadratic_index_compiles_dynamic(self):
        p = build(lambda f, i, v: f.store(v["a"], i * i % N, 1))
        tmpl, reason = self.classify(p)
        assert reason is None
        assert tmpl.accesses[-1].shape == "dynamic"

    def test_store_split_from_sequential_group_rejected(self):
        # c[39-i] is stored by a sequential-lane statement (its gather may
        # alias its own store) and by a later vector statement; sequential
        # groups commit last, so the later statement's value would be lost.
        def body(f, i, v):
            f.store(v["c"], 39 - i, f.load(v["c"], (i * 3) % 40))
            f.store(v["c"], 39 - i, f.load(v["s"]) + 0.5)

        p = build(body, trip=8)
        tmpl, reason = self.classify(p)
        assert tmpl is None and reason == "split_store"
        assert_equivalent(p)

    def test_libm_value_rejected(self):
        p = build(lambda f, i, v: f.store(v["a"], i, UnOp("sin", i * 1.0)))
        tmpl, reason = self.classify(p)
        assert tmpl is None and reason == "libm_op"


class TestOracle:
    """Differential equivalence, with the expected dynamic outcome pinned."""

    def check(self, body_fn, expect, trip=16, step=1, **kw):
        stats = assert_equivalent(build(body_fn, trip=trip, step=step, **kw))
        # The seeding prologue loop always hits, so "hit" means both loops
        # vectorized while a bailout reason means only the prologue did.
        if expect == "hit":
            assert stats.loops == 2, (stats.rejects, stats.bailouts)
            assert not stats.bailouts, stats.bailouts
        else:
            assert stats.loops == 1
            assert expect in stats.bailouts, (stats.rejects, stats.bailouts)
        return stats

    def test_fill_hits(self):
        stats = self.check(lambda f, i, v: f.store(v["a"], i, i * 2), "hit")
        assert stats.iterations == N + 16  # prologue + target
        assert stats.events == N * 3 + 16 * 2

    def test_copy_and_axpy_hit(self):
        def body(f, i, v):
            f.store(v["c"], i, f.load(v["a"], i) * 2 + f.load(v["b"], i))

        self.check(body, "hit")

    def test_negative_stride_hits(self):
        self.check(lambda f, i, v: f.store(v["a"], i, i), "hit", step=-1)

    def test_strided_affine_index_hits(self):
        self.check(lambda f, i, v: f.store(v["a"], 2 * i + 1, i), "hit", trip=30)

    def test_scalar_load_broadcast_hits(self):
        def body(f, i, v):
            f.store(v["c"], i, f.load(v["s"]) + i)

        self.check(body, "hit")

    def test_in_place_update_hits(self):
        # a[i] = a[i] * 2: load and store walk the same progression,
        # load-before-store, so gather-then-scatter is exact.
        self.check(lambda f, i, v: f.store(v["a"], i, f.load(v["a"], i) * 2), "hit")

    def test_float_division_hits(self):
        self.check(lambda f, i, v: f.store(v["c"], i, f.load(v["b"], i) / 3.0), "hit")

    def test_division_by_zero_guard_matches(self):
        # The interpreter's `/` guard returns 0.0 for zero divisors; the
        # vectorized masked division must reproduce that bit-for-bit and
        # leave float-typed zeros in memory.
        self.check(lambda f, i, v: f.store(v["c"], i, 100.0 / (i % 3)), "hit")

    def test_int_floordiv_and_mod_hit(self):
        def body(f, i, v):
            f.store(v["c"], i, f.load(v["a"], i) // 3 + i % 5)

        self.check(body, "hit")

    def test_min_max_comparisons_hit(self):
        from repro.minivm.astnodes import BinOp, Const

        def body(f, i, v):
            f.store(v["c"], i, BinOp("min", i * 7 % 13, Const(6)) + i.lt(8))

        self.check(body, "hit")

    def test_sqrt_of_negative_guard_matches(self):
        def body(f, i, v):
            f.store(v["c"], i, UnOp("sqrt", f.load(v["a"], i)))

        self.check(body, "hit")  # a[] holds negative ints: guard yields 0.0

    def test_short_trip_bails(self):
        stats = self.check(
            lambda f, i, v: f.store(v["a"], i, i), "short_trip",
            trip=affine.MIN_TRIP - 1,
        )
        assert stats.templates == 2  # still classified (prologue + loop)

    def test_shifted_recurrence_sequential_lane_hits(self):
        # Reads a[i], writes a[i+1] — loop-carried distance-1 recurrence.
        # The dependence graph routes it through the exact sequential lane.
        self.check(
            lambda f, i, v: f.store(v["a"], i + 1, f.load(v["a"], i)),
            "hit",
        )

    def test_store_store_same_key_hits(self):
        # Two stores through the same progression: statement-order scatter
        # keeps the interpreter's last-write-wins result.
        def body(f, i, v):
            f.store(v["a"], i, 1)
            f.store(v["a"], i, 2)

        self.check(body, "hit")

    def test_scalar_accumulation_reduction_hits(self):
        # s = s + a[i] through memory: a slot reduction, lowered to
        # ufunc.accumulate (sequential left fold, interpreter-exact).
        def body(f, i, v):
            f.store(v["s"], None, f.load(v["s"]) + f.load(v["a"], i))

        self.check(body, "hit")

    def test_mixed_type_gather_bails(self):
        # c[] holds uninitialized ints (0) after a[] got floats mid-array.
        def body(f, i, v):
            f.store(v["a"], i, f.load(v["c"], i))

        def seed_mixed(f, j, v):
            pass

        b = ProgramBuilder("mixed")
        a = b.global_array("a", N)
        c = b.global_array("c", N)
        with b.function("main") as f:
            j = f.reg("j")
            i = f.reg("i")
            with f.for_loop(j, 0, 8):
                f.store(c, 2 * j, j * 0.5)  # floats at even slots only
            with f.for_loop(i, 0, 16):
                f.store(a, i, f.load(c, i))
        stats = assert_equivalent(b.build())
        assert "mixed_types" in stats.bailouts

    def test_float_intdiv_bails(self):
        # Python floor-divides floats happily (with an int-0 guard value that
        # breaks kind uniformity), so the fast path must hand this back.
        self.check(
            lambda f, i, v: f.store(v["c"], i, f.load(v["b"], i) // 2),
            "float_intdiv",
        )

    def test_out_of_bounds_error_identical(self):
        p = build(lambda f, i, v: f.store(v["a"], i + N - 4, i))
        with pytest.raises(MiniVmError):
            run_program(p, fastpath=True)
        with pytest.raises(MiniVmError):
            run_program(p, fastpath=False)

    def test_bailout_mid_program(self):
        """Affine, then non-affine, then affine again: the fast path must
        resync memory/ts/loop-stack perfectly across the interpreted gap."""
        b = ProgramBuilder("mid")
        a = b.global_array("a", N)
        c = b.global_array("c", N)
        with b.function("main") as f:
            i = f.reg("i")
            r = f.reg("r")
            with f.for_loop(i, 0, 32):
                f.store(a, i, i * 3)
            f.set(r, 0)
            with f.for_loop(i, 0, 32):  # register reduction: accumulate lane
                f.set(r, r + f.load(a, i))
            f.store(c, 0, r)
            with f.for_loop(i, 0, 32):  # affine again, reads updated memory
                f.store(c, i + 1, f.load(a, i) + f.load(c, 0))
        stats = assert_equivalent(b.build())
        assert stats.loops == 3
        assert stats.verdicts.get("reduction") == 1

    def test_register_results_feed_later_addresses(self):
        """Loop-end register values become later indexes: wrong finalization
        would shift subsequent addresses, not just values."""
        b = ProgramBuilder("regfinal")
        a = b.global_array("a", N)
        with b.function("main") as f:
            i = f.reg("i")
            r = f.reg("r")
            with f.for_loop(i, 0, 20):
                f.set(r, i % 7)
                f.store(a, i, r)
            f.store(a, r + 10, 1)  # index uses final r (and i is 19)
            f.store(a, i + 30, 2)
        stats = assert_equivalent(b.build())
        assert stats.loops == 1


    # -- predicated if/else lanes ---------------------------------------
    def test_if_without_else_hits(self):
        def body(f, i, v):
            with f.if_((i % 3).eq(0)):
                f.store(v["c"], i, f.load(v["a"], i) * 2)

        self.check(body, "hit")

    def test_if_else_arms_emit_different_event_counts(self):
        def body(f, i, v):
            t = f.reg("t")
            with f.if_(f.load(v["a"], i) % 2):  # a[i] = 3i - 5: odd for even i
                f.set(t, f.load(v["a"], i) + f.load(v["b"], i))
                f.store(v["c"], i, t)
            with f.else_():
                f.store(v["c"], i, 7)
            f.store(v["a"], i, i)

        stats = self.check(body, "hit")
        # Rows actually emitted: 8 iterations of [ITER, a, a, b, c, a] and
        # 8 of [ITER, a, c, a], after the seeding prologue's 3 per element.
        assert stats.events == N * 3 + 8 * 6 + 8 * 4

    def test_condition_loading_memory_hits(self):
        # NAS IS full_verify: compare neighbours, count inversions.
        def body(f, i, v):
            with f.if_((f.load(v["a"], i) % 4).gt(f.load(v["a"], i + 1) % 4)):
                f.store(v["s"], None, f.load(v["s"]) + 1_000_000)

        self.check(body, "hit")

    @pytest.mark.parametrize(
        "init, term",
        [
            (0, lambda f, i, v: f.load(v["a"], i)),
            (-0.0, lambda f, i, v: f.load(v["b"], i) * -0.0),
            (-0.0, lambda f, i, v: f.load(v["b"], i)),
            (3, lambda f, i, v: i * 2),
        ],
        ids=["int", "float-negzero-terms", "float-negzero-start", "int-register"],
    )
    def test_predicated_slot_reduction_hits(self, init, term):
        # EP / streamcluster: a reduction that folds only taken iterations.
        # Padding skipped ones with 0.0 would turn -0.0 into 0.0.
        def body(f, i, v):
            with f.if_((i % 3).eq(1)):
                f.store(v["s"], None, f.load(v["s"]) + term(f, i, v))

        def set_s(f, v):
            f.store(v["s"], None, init)

        self.check(body, "hit", before=set_s)

    def test_predicated_register_reduction_hits(self):
        def body(f, i, v):
            r = f.reg("r")
            with f.if_(f.load(v["a"], i) % 2):
                f.set(r, r + f.load(v["a"], i))
            with f.else_():
                f.set(r, r * 2)

        self.check(
            body,
            "hit",
            before=lambda f, v: f.set(f.reg("r"), 1),
            after=lambda f, v: f.store(v["s"], None, f.reg("r")),
        )

    def test_predicated_register_read_after_if_and_next_iteration(self):
        def body(f, i, v):
            r = f.reg("r")
            f.store(v["c"], i, r)  # the previous iteration's r
            with f.if_((i % 3).eq(0)):
                f.set(r, f.load(v["a"], i))
            f.store(v["b"], i, r + 1)  # this iteration's r, taken or not

        self.check(
            body,
            "hit",
            before=lambda f, v: f.set(f.reg("r"), 5),
            after=lambda f, v: f.store(v["s"], None, f.reg("r")),
        )

    def test_predicated_register_first_set_inside_arm(self):
        # Unset before the loop, first taken on a later iteration; read only
        # under its own predicate (EP's annulus index).
        def body(f, i, v):
            q = f.reg("q")
            with f.if_((i % 4).eq(3)):
                f.set(q, i % 5)
                f.store(v["c"], q, f.load(v["c"], q) + 1)

        self.check(body, "hit", after=lambda f, v: f.store(v["s"], None, f.reg("q")))

    def test_untaken_arm_out_of_bounds_index_hits(self):
        def body(f, i, v):
            with f.if_(i.gt(100)):
                f.store(v["c"], i + N, 1)  # affine, never in bounds
            with f.if_(f.load(v["a"], i).ge(0)):
                # a[i] is negative on the iterations this arm skips.
                f.store(v["c"], i, f.load(v["b"], f.load(v["a"], i)))

        self.check(body, "hit")

    def test_untaken_arm_zero_divisor_hits(self):
        def body(f, i, v):
            d = i % 4
            with f.if_(d):
                f.store(v["c"], i, f.load(v["a"], i) // d + 100 % d)
            with f.else_():
                f.store(v["c"], i, f.load(v["b"], i) / (d + 1))

        self.check(body, "hit")

    def test_condition_truthiness_nan_true_negative_zero_false(self):
        def special(f, v):
            f.store(v["b"], 1, float("nan"))
            f.store(v["b"], 2, -0.0)

        def body(f, i, v):
            with f.if_(f.load(v["b"], i)):
                f.store(v["c"], i, 1)
            with f.else_():
                f.store(v["c"], i, 2)

        p = build(body, before=special)
        stats = assert_equivalent(p)
        assert stats.loops == 2 and not stats.bailouts
        sched = Scheduler(p, fastpath=True)
        sched.run(())
        base = sched.interp._global_bases["c"][0]
        got = [sched.memory.read(base + 8 * k) for k in range(4)]
        assert got == [2, 1, 2, 1]  # 0.0 false, NaN true, -0.0 false

    def test_sequential_lane_forwarding_from_untaken_arm_hits(self):
        # The recurrence forwards c[i] from a store of the same arm, which
        # runs in another group and never runs at all: the lane takes that
        # store's (empty) values as an input and must never read them.
        def body(f, i, v):
            r = f.reg("r")
            with f.if_(i.gt(100)):
                f.store(v["c"], i, f.load(v["a"], i) * 2)
                f.set(r, (r + f.load(v["c"], i)) % 7)

        self.check(body, "hit", before=lambda f, v: f.set(f.reg("r"), 1))

    # -- loaded-index gathers and scatters -------------------------------
    def test_gather_through_loaded_index_hits(self):
        self.check(
            lambda f, i, v: f.store(v["c"], i, f.load(v["b"], f.load(v["a"], i) % N)),
            "hit",
        )

    def test_loaded_index_store_last_writer_wins(self):
        # a[i] % 5 repeats: later iterations overwrite earlier ones.
        self.check(lambda f, i, v: f.store(v["c"], f.load(v["a"], i) % 5, i), "hit")

    def test_doubly_indirect_gather_hits(self):
        def body(f, i, v):
            inner = f.load(v["a"], f.load(v["a"], i) % N) % N
            f.store(v["c"], i, f.load(v["b"], inner))

        self.check(body, "hit")

    def test_index_into_stored_array_runs_sequential_lane(self):
        # The index loads the array the statement updates: the histogram
        # cycle runs in the exact sequential lane.
        def body(f, i, v):
            k = f.load(v["c"], i) % 8
            f.store(v["c"], k, f.load(v["c"], k) + 1)

        self.check(body, "hit")

    def test_index_from_array_stored_earlier_bails_dup_index(self):
        # b[i] is stored, then indexes c; c's cells repeat across iterations,
        # so the gather of c cannot read pre-loop memory.
        def body(f, i, v):
            f.store(v["b"], i, f.load(v["a"], i) % 4)
            f.store(v["s"], None, f.load(v["c"], f.load(v["b"], i)))
            f.store(v["c"], f.load(v["b"], i), i)

        self.check(body, "dup_index")


class TestSequentialLaneBailouts:
    """The sequential lane hands a loop back to the interpreter where the
    interpreter raises, so the run fails exactly as it does interpreted."""

    def check(self, body, reason, trip=16, before=None):
        p = build(body, trip=trip, before=before)
        loop = [s for s in p.function("main").body if isinstance(s, For)][-1]
        tmpl, _ = affine.classify_loop(loop)
        assert "sequential" in [g.mode for g in tmpl.groups]
        errors = []
        for fastpath in (True, False):
            sched = Scheduler(p, fastpath=fastpath)
            with pytest.raises(MiniVmError) as exc:
                sched.run(())
            errors.append(str(exc.value))
            if fastpath:
                stats = sched.interp.fastpath_stats
        assert errors[0] == errors[1]
        assert stats.bailouts == {reason: 1}
        assert stats.loops == 1  # the seeding prologue only

    def test_histogram_index_leaving_the_array(self):
        # a[i] + 5 = 3i walks past c's 70 cells at i = 24.
        def body(f, i, v):
            k = f.load(v["a"], i) + 5
            f.store(v["c"], k, f.load(v["c"], k) + 1)

        self.check(body, "oob_index", trip=30)

    def test_register_read_before_any_definition(self):
        def body(f, i, v):
            r = f.reg("r")
            f.set(r, (r * 3 + f.load(v["a"], i)) % 7)

        self.check(body, "error:KeyError")

    def test_predicated_definition_not_run_yet(self):
        # q is first set on iteration 3; the recurrence reads it on 0.
        def body(f, i, v):
            q, r = f.reg("q"), f.reg("r")
            with f.if_((i % 4).eq(3)):
                f.set(q, i % 5)
            f.set(r, (r + q) % 7)

        self.check(body, "unset_register", before=lambda f, v: f.set(f.reg("r"), 1))


class TestSchedulingGates:
    def test_multithreaded_region_interpreted(self):
        b = ProgramBuilder("mt")
        a = b.global_array("a", N)
        with b.function("worker", params=("base",)) as f:
            i = f.reg("i")
            with f.for_loop(i, 0, 16):
                f.store(a, f.param("base") + i, i)
        with b.function("main") as f:
            i = f.reg("i")
            f.spawn("worker", 0)
            f.spawn("worker", 16)
            f.join_all()
            with f.for_loop(i, 0, 16):  # main alone again: eligible
                f.store(a, i + 32, i)
        p = b.build()
        sched = ScheduleConfig(policy="roundrobin", seed=3)
        stats = assert_equivalent(p, schedule=sched)
        # Worker loops ran interpreted (two live threads); the tail loop of
        # main ran fast (sole survivor).
        assert stats.loops == 1

    def test_random_policy_with_spawn_fully_interpreted(self):
        b = ProgramBuilder("mt-random")
        a = b.global_array("a", N)
        with b.function("worker") as f:
            i = f.reg("i")
            with f.for_loop(i, 0, 16):
                f.store(a, i, i)
        with b.function("main") as f:
            i = f.reg("i")
            with f.for_loop(i, 0, 16):
                f.store(a, i + 20, i)
            f.spawn("worker")
            f.join_all()
        p = b.build()
        sched = ScheduleConfig(policy="random", seed=11)
        stats = assert_equivalent(p, schedule=sched)
        assert stats.loops == 0  # RNG-per-pick makes step counts observable

    def test_delay_model_fully_interpreted(self):
        p = build(lambda f, i, v: f.store(v["a"], i, i))
        sched = ScheduleConfig(delay_probability=0.5, seed=7)
        stats = assert_equivalent(p, schedule=sched)
        assert stats.loops == 0


class TestRandomizedPrograms:
    """Randomized builder programs: any mix of affine and non-affine loops
    must produce bit-identical traces and memory."""

    BODIES = [
        lambda f, i, v: f.store(v["a"], i, i * 3 - 7),
        lambda f, i, v: f.store(v["b"], i, f.load(v["a"], i)),
        lambda f, i, v: f.store(v["c"], i, f.load(v["a"], i) * 2 + f.load(v["b"], i)),
        lambda f, i, v: f.store(v["s"], None, f.load(v["s"]) + f.load(v["a"], i)),
        lambda f, i, v: f.store(v["a"], 2 * i, i),
        lambda f, i, v: f.store(v["b"], i + 1, f.load(v["b"], i) + 1),
        lambda f, i, v: f.store(v["c"], i, f.load(v["b"], i) / 4.0),
        lambda f, i, v: f.store(v["c"], i, i % 5 + (i // 3)),
        lambda f, i, v: (f.set(f.reg("t"), f.load(v["a"], i) + 1),
                         f.store(v["c"], i, f.reg("t") * f.reg("t"))),
        lambda f, i, v: f.store(v["a"], i, f.load(v["c"], N - 1 - i)),
        branchy_body,
        predicated_sum_body,
        lambda f, i, v: f.store(v["b"], f.load(v["a"], i) % N, f.load(v["c"], i)),
    ]

    @pytest.mark.parametrize("seed", range(12))
    def test_random_program(self, seed):
        rng = np.random.default_rng(seed)
        b = ProgramBuilder(f"rand-{seed}")
        v = {name: b.global_array(name, N) for name in ("a", "b", "c")}
        v["s"] = b.global_scalar("s")
        with b.function("main") as f:
            for k in range(int(rng.integers(2, 6))):
                i = f.reg(f"i{k}")
                trip = int(rng.integers(2, 34))
                body = self.BODIES[int(rng.integers(0, len(self.BODIES)))]
                if rng.random() < 0.25:
                    with f.for_loop(i, trip - 1, -1, -1):
                        body(f, i, v)
                else:
                    with f.for_loop(i, 0, trip):
                        body(f, i, v)
        assert_equivalent(b.build())


class TestClassificationMemo:
    """Static classification is memoized per (program structure, loop site):
    rebuilding the same program — the trace amplifier and repeated workload
    builds do this constantly — must not re-run graph construction."""

    def _program(self, trip=16):
        b = ProgramBuilder("memo-case")
        a = b.global_array("a", N)
        s = b.global_scalar("s")
        with b.function("main") as f:
            i = f.reg("i")
            with f.for_loop(i, 0, trip):
                f.store(a, i, i * 2)
                f.store(s, None, f.load(s) + f.load(a, i))
        return b.build()

    def test_second_structural_build_hits_memo(self):
        affine._CLASSIFY_MEMO.clear()
        p1, p2 = self._program(), self._program()
        t1, r1, h1 = affine.classify_loop_cached(p1, first_for(p1))
        assert t1 is not None and not h1
        t2, r2, h2 = affine.classify_loop_cached(p2, first_for(p2))
        assert h2 and t2 is t1  # same template object, zero rebuild cost

    def test_different_structure_misses(self):
        affine._CLASSIFY_MEMO.clear()
        p1, p2 = self._program(), self._program(trip=17)
        _, _, h1 = affine.classify_loop_cached(p1, first_for(p1))
        _, _, h2 = affine.classify_loop_cached(p2, first_for(p2))
        assert not h1 and not h2

    def test_memoized_template_replays_exactly(self):
        """A template memoized from one build must execute another build of
        the same program bit-for-bit (and count the hit)."""
        affine._CLASSIFY_MEMO.clear()
        first = Scheduler(self._program(), fastpath=True)
        first.run(())
        assert first.interp.fastpath_stats.memo_hits == 0
        stats = assert_equivalent(self._program())
        assert stats.memo_hits == 1
        assert stats.loops == 1
