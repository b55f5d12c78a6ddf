"""Tests for the report renderers and the ddprof CLI."""

import pytest

from repro.cli import main
from repro.report import ascii_table, bar_chart, csv_lines, fmt


class TestFmt:
    def test_float_precision(self):
        assert fmt(3.14159) == "3.142"
        assert fmt(42.123) == "42.1"
        assert fmt(1234.5) == "1,234"
        assert fmt(0.0) == "0"

    def test_bool_and_str(self):
        assert fmt(True) == "yes"
        assert fmt(False) == "no"
        assert fmt("abc") == "abc"


class TestAsciiTable:
    def test_alignment_and_title(self):
        out = ascii_table(["name", "v"], [["a", 1], ["bb", 22]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert all(len(l) == len(lines[1]) for l in lines[3:])

    def test_empty_rows(self):
        out = ascii_table(["x"], [])
        assert "x" in out


class TestCsv:
    def test_basic(self):
        out = csv_lines(["a", "b"], [[1, 2.5]])
        assert out.splitlines() == ["a,b", "1,2.500"]

    def test_thousands_commas_stripped(self):
        out = csv_lines(["v"], [[12345.0]])
        assert out.splitlines()[1] == "12345"


class TestBarChart:
    def test_bars_scale(self):
        out = bar_chart([("a", 10.0), ("b", 5.0)], title="chart", unit="x")
        lines = out.splitlines()
        assert lines[0] == "chart"
        assert lines[1].count("#") == 2 * lines[2].count("#")

    def test_zero_and_empty(self):
        assert "(no data)" in bar_chart([], title="t")
        out = bar_chart([("a", 0.0)])
        assert "#" not in out


class TestCli:
    def test_workloads_lists_suites(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "[nas]" in out and "cg" in out and "water-spatial" in out

    def test_profile_sequential(self, capsys):
        assert main(["profile", "ep"]) == 0
        out = capsys.readouterr().out
        assert "NOM" in out and "merged dependences" in out

    def test_profile_with_signature_slots(self, capsys):
        assert main(["profile", "ep", "--slots", "100000"]) == 0
        assert "NOM" in capsys.readouterr().out

    def test_loops_table(self, capsys):
        assert main(["loops", "mg"]) == 0
        out = capsys.readouterr().out
        assert "parallelizable" in out or "parallel" in out

    def test_comm_matrix(self, capsys):
        assert main(["comm", "water-spatial", "--threads", "4"]) == 0
        out = capsys.readouterr().out
        assert "(producers)" in out

    def test_races_clean_program(self, capsys):
        assert main(["races", "md5", "--delay", "0.0", "--threads", "2"]) == 0
        assert "no potential data races" in capsys.readouterr().out

    def test_unknown_workload_errors(self):
        from repro.common.errors import WorkloadError

        with pytest.raises(WorkloadError):
            main(["profile", "quake"])

    def test_listing(self, capsys):
        assert main(["listing", "ep"]) == 0
        out = capsys.readouterr().out
        assert "def main():" in out and "for " in out

    def test_listing_parallel_variant(self, capsys):
        assert main(["listing", "md5", "--variant", "par", "--threads", "2"]) == 0
        assert "spawn" in capsys.readouterr().out

    def test_tree(self, capsys):
        assert main(["tree", "ep"]) == 0
        out = capsys.readouterr().out
        assert "<root>" in out and "loop" in out

    def test_sections(self, capsys):
        assert main(["sections", "mg"]) == 0
        out = capsys.readouterr().out
        assert "RAW" in out and "loop" in out

    def test_distances(self, capsys):
        assert main(["distances", "cg"]) == 0
        out = capsys.readouterr().out
        assert "DOALL" in out and "serial" in out
        assert "distance 1" in out  # the forward-substitution recurrence


class TestCliTracing:
    def test_trace_subcommand_writes_valid_chrome_trace(self, tmp_path, capsys):
        import json

        from repro.obs import validate_chrome_trace

        out_path = tmp_path / "ep.trace.json"
        assert main(["trace", "ep", "--workers", "3", "--out", str(out_path)]) == 0
        printed = capsys.readouterr().out
        assert "wrote" in printed and "worker 0" in printed
        obj = json.loads(out_path.read_text())
        assert validate_chrome_trace(obj) == []
        # One timeline track per worker plus the main thread.
        tids = {e["tid"] for e in obj["traceEvents"] if e["ph"] != "M"}
        assert {0, 1, 2, 3} <= tids
        names = {
            e["args"].get("name")
            for e in obj["traceEvents"]
            if e["ph"] == "M"
        }
        assert {"main", "worker 0", "worker 1", "worker 2"} <= names

    def test_profile_trace_out_flag(self, tmp_path, capsys):
        from repro.obs import validate_chrome_trace_file

        out_path = tmp_path / "p.trace.json"
        assert main(["profile", "ep", "--trace-out", str(out_path)]) == 0
        assert "NOM" in capsys.readouterr().out  # dependence output unchanged
        assert validate_chrome_trace_file(out_path) == []

    def test_profile_provenance_text(self, capsys):
        assert main(["profile", "ep", "--provenance", "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "# provenance:" in out
        assert "workers [" in out and "chunks" in out

    def test_profile_provenance_json_report(self, capsys):
        import json

        assert main(["profile", "ep", "--provenance", "--json"]) == 0
        out = capsys.readouterr().out
        # The report starts on its own line, after the dependence listing
        # (whose notation also uses braces).
        report = json.loads(out[out.index("\n{\n") + 1:])
        rows = report["provenance"]
        assert rows and all("provenance" in r for r in rows)
        row = rows[0]["provenance"]
        assert {"workers", "chunks", "ts", "count", "suspect_fp"} <= set(row)

    def test_lossy_provenance_runs_one_worker(self, capsys):
        """``--provenance`` without ``--mode`` or ``--workers`` runs the
        pipeline at one worker: one row per merged dependence, each settled
        by the oracle cross-check, and the run's eviction counters."""
        import json

        assert main(
            ["profile", "is", "--slots", "256", "--provenance", "--json", "--no-ledger"]
        ) == 0
        out = capsys.readouterr().out
        report = json.loads(out[out.index("\n{\n") + 1:])
        assert report["parallel"]["workers"] == 1
        rows = report["provenance"]
        assert len(rows) == report["profile"]["merged_dependences"] > 0
        assert all(r["provenance"]["oracle_spurious"] is not None for r in rows)
        evictions = sum(
            v for k, v in report["counters"].items() if k.startswith("sigmem.evictions")
        )
        assert evictions > 0
        assert report["memory"]["heatmap"]["total_conflicts"] == evictions

    def test_mode_runs_pipeline(self, capsys):
        import json

        assert main(
            ["profile", "is", "--mode", "deterministic", "--workers", "2", "--json",
             "--no-ledger"]
        ) == 0
        out = capsys.readouterr().out
        report = json.loads(out[out.index("\n{\n") + 1:])
        assert report["parallel"]["workers"] == 2

    def test_trace_json_report_has_track_summary(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "t.trace.json"
        assert main(
            ["trace", "ep", "--json", "--workers", "2", "--out", str(out_path)]
        ) == 0
        out = capsys.readouterr().out
        report = json.loads(out[out.index("{"):])
        tracks = report["trace"]["tracks"]
        assert "main" in tracks and "worker 0" in tracks and "worker 1" in tracks
        for t in tracks.values():
            assert {"busy_frac", "stall_frac", "idle_frac"} <= set(t)
