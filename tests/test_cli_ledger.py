"""End-to-end CLI tests of the run ledger and ``ddprof runs`` commands."""

import json

import pytest

from repro.cli import main
from repro.obs import load_bundle


def profile(tmp_path, *extra):
    assert main(["profile", "cg", "--ledger", str(tmp_path), *extra]) == 0


class TestLedgerWrites:
    def test_profile_writes_ok_bundle(self, tmp_path, capsys):
        profile(tmp_path, "--run-id", "a")
        doc = load_bundle(tmp_path / "a")
        assert doc["status"] == "ok"
        assert doc["meta"]["command"] == "profile"
        assert doc["meta"]["workload"] == "cg"
        assert doc["meta"]["workers"] == doc["report"]["parallel"]["workers"] == 1
        assert doc["dependences"]["n_edges"] > 0
        assert doc["report"]["counters"]

    def test_pipeline_runs_say_so(self, tmp_path, capsys):
        profile(tmp_path, "--run-id", "a", "--mode", "deterministic")
        doc = load_bundle(tmp_path / "a")
        assert doc["meta"]["mode"] == "deterministic"
        assert doc["meta"]["workers"] == doc["report"]["parallel"]["workers"] == 1

    def test_no_ledger_opts_out(self, tmp_path, capsys):
        profile(tmp_path, "--no-ledger", "--run-id", "a")
        assert not (tmp_path / "a").exists()

    def test_run_id_with_separator_is_rejected_by_argparse(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main(["profile", "cg", "--run-id", "a/b"])
        assert err.value.code == 2
        assert "path separators" in capsys.readouterr().err

    def test_env_default_ledger_dir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("DDPROF_LEDGER", str(tmp_path / "envled"))
        assert main(["profile", "cg", "--run-id", "a"]) == 0
        assert load_bundle(tmp_path / "envled" / "a")["status"] == "ok"

    def test_cli_crash_finalizes_crashed_bundle(self, tmp_path, monkeypatch, capsys):
        import repro.cli as cli_mod

        def boom(args, reg, batch):
            raise RuntimeError("injected cli crash")

        monkeypatch.setattr(cli_mod, "_profile_for", boom)
        with pytest.raises(RuntimeError, match="injected cli crash"):
            main(["profile", "cg", "--ledger", str(tmp_path), "--run-id", "a"])
        doc = load_bundle(tmp_path / "a")
        assert doc["status"] == "crashed"
        assert "RuntimeError: injected cli crash" in doc["error"]


class TestRunsCommands:
    def test_list_text_and_json(self, tmp_path, capsys):
        profile(tmp_path, "--run-id", "a")
        capsys.readouterr()
        assert main(["runs", "list", "--ledger", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "a" in out and "cg" in out
        assert main(["runs", "list", "--ledger", str(tmp_path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "ddprof.run-list/1"
        assert [r["run_id"] for r in doc["runs"]] == ["a"]

    def test_show(self, tmp_path, capsys):
        profile(tmp_path, "--run-id", "a")
        capsys.readouterr()
        assert main(["runs", "show", "a", "--ledger", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "run a [ok]" in out and "dependences:" in out
        assert main(["runs", "show", "nope", "--ledger", str(tmp_path)]) == 2

    def test_gc(self, tmp_path, capsys):
        profile(tmp_path, "--run-id", "a")
        profile(tmp_path, "--run-id", "b")
        capsys.readouterr()
        assert main(
            ["runs", "gc", "--ledger", str(tmp_path), "--keep", "1", "--json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["removed"] == ["a"] and doc["kept"] == 1


class TestDiffExitContract:
    @pytest.mark.parametrize(
        "extra",
        [(), ("--mode", "processes", "--workers", "2")],
        ids=["default", "processes"],
    )
    def test_identical_config_runs_diff_empty_exit_zero(self, tmp_path, capsys, extra):
        """Resource and timing instruments (CPU seconds, faults, heartbeat
        ages) differ between any two runs; the diff skips them."""
        profile(tmp_path, "--run-id", "a", *extra)
        profile(tmp_path, "--run-id", "b", *extra)
        capsys.readouterr()
        assert main(["runs", "diff", "a", "b", "--ledger", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "dependences: identical" in out
        assert "verdict: identical" in out

    def test_cold_and_cached_trace_runs_diff_identical(self, tmp_path, capsys):
        """Run a builds the cg trace, run b takes it from the in-memory
        trace cache: only a run that built its trace records fast-path
        coverage, so the two diff as identical."""
        from repro.workloads import clear_trace_cache

        clear_trace_cache()
        profile(tmp_path, "--run-id", "a")
        profile(tmp_path, "--run-id", "b")
        assert load_bundle(tmp_path / "a")["coverage"]["fastpath_coverage"] > 0
        assert load_bundle(tmp_path / "b")["coverage"] is None
        capsys.readouterr()
        assert main(["runs", "diff", "a", "b", "--ledger", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "dependences: identical" in out
        assert "verdict: identical" in out

    def test_verdict_flip_exits_nonzero_naming_the_loop(self, tmp_path, capsys):
        """rgbyuv under 64 signature slots deterministically conflates the
        frame loop's accesses into carried dependences: 0:23 flips
        doall -> sequential, and the diff must gate on it by name."""
        assert main(
            ["profile", "rgbyuv", "--ledger", str(tmp_path), "--run-id", "a"]
        ) == 0
        assert main(
            ["profile", "rgbyuv", "--ledger", str(tmp_path), "--run-id", "b",
             "--slots", "64"]
        ) == 0
        capsys.readouterr()
        assert main(["runs", "diff", "a", "b", "--ledger", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "loop 0:23 doall -> sequential" in out
        assert "REGRESSED" in out

    def test_metric_delta_noticed_without_regression(self, tmp_path, capsys):
        """Perturbing slot count moves tracker memory (outside the noise
        band) but must not flag a verdict regression on cg."""
        assert main(
            ["profile", "cg", "--ledger", str(tmp_path), "--run-id", "a",
             "--slots", "65536"]
        ) == 0
        assert main(
            ["profile", "cg", "--ledger", str(tmp_path), "--run-id", "b",
             "--slots", "262144"]
        ) == 0
        capsys.readouterr()
        assert main(
            ["runs", "diff", "a", "b", "--ledger", str(tmp_path), "--json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        # More slots can only sharpen verdicts (fewer conflation FPs): any
        # flip here is an improvement, and improvements never gate.
        assert all(
            f["direction"] == "improvement" for f in doc["verdict_flips"]
        )
        assert doc["regressions"] == []
        changed = {m["name"] for m in doc["metrics"]["changed"]}
        assert 'engine.tracker_memory_bytes{worker="0"}' in changed

    def test_missing_operand_exits_two(self, tmp_path, capsys):
        profile(tmp_path, "--run-id", "a")
        capsys.readouterr()
        assert main(["runs", "diff", "a", "nope", "--ledger", str(tmp_path)]) == 2
        assert "not found" in capsys.readouterr().err
