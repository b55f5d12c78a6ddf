"""Dependence provenance: attribution records, suspect_fp, oracle check."""

from repro.common.config import ProfilerConfig
from repro.core import profile_trace
from repro.core.deps import DepType, Dependence
from repro.obs import ProvenanceCollector, ProvenanceRecord, oracle_cross_check
from repro.parallel import ParallelProfiler
from repro.sigmem.signature import AccessRecord, ArraySignature
from tests.trace_helpers import seq_trace


def small_trace(n_addr=24, rounds=3):
    ops = []
    for _ in range(rounds):
        for i in range(n_addr):
            a = 0x1000 + 8 * i
            ops.append(("w", a, 10 + i % 3, "x"))
            ops.append(("r", a, 20 + i % 2, "x"))
    return seq_trace(ops)


class TestProvenanceRecord:
    def test_note_widens_window(self):
        rec = ProvenanceRecord(worker=1, chunk=3, ts=100, suspect=False)
        rec.note(worker=2, chunk=1, ts=50, suspect=True)
        rec.note(worker=1, chunk=7, ts=200, suspect=False)
        assert rec.workers == {1, 2}
        assert (rec.first_chunk, rec.last_chunk) == (1, 7)
        assert (rec.first_ts, rec.last_ts) == (50, 200)
        assert rec.count == 3
        assert rec.suspect_fp  # sticky once any instance was suspect

    def test_fold_merges_everything(self):
        a = ProvenanceRecord(worker=0, chunk=2, ts=10, suspect=False)
        b = ProvenanceRecord(worker=3, chunk=0, ts=90, suspect=True)
        b.oracle_spurious = True
        a.fold(b)
        assert a.workers == {0, 3}
        assert (a.first_chunk, a.last_chunk) == (0, 2)
        assert (a.first_ts, a.last_ts) == (10, 90)
        assert a.count == 2 and a.suspect_fp and a.oracle_spurious

    def test_to_dict_schema(self):
        d = ProvenanceRecord(worker=0, chunk=1, ts=5, suspect=False).to_dict()
        assert set(d) == {
            "workers", "chunks", "ts", "count", "suspect_fp", "oracle_spurious"
        }
        assert d["oracle_spurious"] is None  # unknown until the oracle runs


class TestCollector:
    def dep(self, sink=10, source=5, t=DepType.RAW):
        return Dependence(t, sink_loc=sink, sink_tid=0,
                          source_loc=source, source_tid=0, var=1)

    def test_note_and_get(self):
        c = ProvenanceCollector(worker=2)
        c.chunk = 4
        c.note(self.dep(), ts=7)
        c.note(self.dep(), ts=9, suspect=True)
        rec = c.get(self.dep())
        assert rec.count == 2 and rec.workers == {2}
        assert (rec.first_ts, rec.last_ts) == (7, 9)
        assert rec.suspect_fp

    def test_merge_folds_per_dependence(self):
        a, b = ProvenanceCollector(worker=0), ProvenanceCollector(worker=1)
        a.chunk = b.chunk = 0
        a.note(self.dep(), ts=1)
        b.note(self.dep(), ts=5)
        b.note(self.dep(sink=99), ts=2)
        a.merge(b)
        assert len(a) == 2
        assert a.get(self.dep()).workers == {0, 1}
        assert a.get(self.dep(sink=99)).workers == {1}

    def test_to_list_is_sorted_and_json_ready(self):
        import json

        c = ProvenanceCollector()
        c.note(self.dep(sink=20), ts=1)
        c.note(self.dep(sink=10), ts=1)
        rows = c.to_list()
        assert [r["sink_loc"] for r in rows] == [10, 20]
        json.dumps(rows)  # fully serializable
        assert all("provenance" in r for r in rows)

    def test_to_list_order_ignores_insertion_order(self):
        """Records differing only in ``carried`` or ``race`` serialize in
        the same order whichever was collected first."""
        base = dict(sink_loc=10, sink_tid=0, source_loc=5, source_tid=0, var=1)
        deps = [
            Dependence(DepType.RAW, **base, carried=frozenset({7})),
            Dependence(DepType.RAW, **base),
            Dependence(DepType.RAW, **base, race=True),
            Dependence(DepType.RAW, **base, carried=frozenset({3, 7})),
        ]
        lists = []
        for ordered in (deps, deps[::-1]):
            c = ProvenanceCollector()
            for d in ordered:
                c.note(d, ts=1)
            lists.append(c.to_list())
        assert lists[0] == lists[1]
        assert [(r["carried"], r["race"]) for r in lists[0]] == [
            ([], False), ([], True), ([3, 7], False), ([7], False)
        ]


class TestSuspectFalsePositives:
    def test_signature_reports_slot_conflicts(self):
        sig = ArraySignature(1, track_conflicts=True)
        sig.insert(0x1000, AccessRecord(1, 0, 0, 0))
        assert not sig.suspect_source(0x1000)
        assert sig.suspect_source(0x2000)  # live collision: slot owned by 0x1000
        sig.insert(0x2000, AccessRecord(2, 0, 0, 1))  # evicts 0x1000's record
        assert sig.suspect_source(0x1000)
        assert sig.suspect_source(0x2000)  # eviction history taints the slot

    def test_untracked_signature_never_suspects(self):
        sig = ArraySignature(1)
        sig.insert(0x1000, AccessRecord(1, 0, 0, 0))
        assert not sig.suspect_source(0x2000)

    def test_collision_dependence_flagged_and_oracle_confirms_spurious(self):
        """A 1-slot signature conflates two addresses: the second write sees
        the first address's record and fabricates a WAW the perfect oracle
        never produces — flagged suspect, confirmed spurious."""
        batch = seq_trace([("w", 0x1000, 1, "x"), ("w", 0x2000, 2, "y")])
        cfg = ProfilerConfig(signature_slots=1)
        res = profile_trace(batch, cfg, provenance=True)
        prov = res.provenance
        fabricated = [
            d for d in res.store
            if d.dep_type is DepType.WAW and d.sink_loc == 2 and d.source_loc == 1
        ]
        assert fabricated, "1-slot signature must conflate the two addresses"
        rec = prov.get(fabricated[0])
        assert rec is not None and rec.suspect_fp
        assert rec.oracle_spurious is None

        n = oracle_cross_check(prov, batch, cfg)
        assert n >= 1
        assert prov.get(fabricated[0]).oracle_spurious is True
        assert prov.n_oracle_spurious == n

    def test_oracle_clears_genuine_dependences(self):
        batch = seq_trace([("w", 0x1000, 1, "x"), ("r", 0x1000, 2, "x")])
        cfg = ProfilerConfig(signature_slots=64)
        res = profile_trace(batch, cfg, provenance=True)
        prov = res.provenance
        oracle_cross_check(prov, batch, cfg)
        raw = [d for d in res.store if d.dep_type is DepType.RAW]
        assert raw and prov.get(raw[0]).oracle_spurious is False


class TestPipelineProvenance:
    def test_every_dependence_annotated(self):
        batch = small_trace()
        cfg = ProfilerConfig(perfect_signature=True, workers=3, chunk_size=16)
        res, _ = ParallelProfiler(cfg, provenance=True).profile(batch)
        prov = res.provenance
        assert prov is not None
        assert set(res.store) == {dep for dep, _ in prov}
        for _, rec in prov:
            assert rec.workers <= {0, 1, 2}
            assert 0 <= rec.first_chunk <= rec.last_chunk
            assert 0 <= rec.first_ts <= rec.last_ts
            assert rec.count >= 1

    def test_provenance_matches_store_instance_counts(self):
        batch = small_trace()
        cfg = ProfilerConfig(perfect_signature=True, workers=2, chunk_size=16)
        res, _ = ParallelProfiler(cfg, provenance=True).profile(batch)
        for dep, rec in res.provenance:
            assert rec.count == res.store.count(dep)

    def test_pipeline_without_flag_collects_nothing(self):
        batch = small_trace()
        cfg = ProfilerConfig(perfect_signature=True, workers=2)
        res, _ = ParallelProfiler(cfg).profile(batch)
        assert res.provenance is None

    def test_perfect_signature_is_never_suspect(self):
        batch = small_trace()
        cfg = ProfilerConfig(perfect_signature=True, workers=2)
        res, _ = ParallelProfiler(cfg, provenance=True).profile(batch)
        assert res.provenance.n_suspect == 0
