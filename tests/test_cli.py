"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestBasicCommands:
    def test_list(self, capsys):
        code, out = run_cli(capsys, "list")
        assert code == 0
        assert "realm16-t0" in out
        assert "drum-k8" in out

    def test_multiply(self, capsys):
        code, out = run_cli(capsys, "multiply", "accurate", "123", "456")
        assert code == 0
        assert str(123 * 456) in out

    def test_multiply_approximate_reports_error(self, capsys):
        code, out = run_cli(capsys, "multiply", "calm", "40000", "50000")
        assert code == 0
        assert "relative error" in out

    def test_factors(self, capsys):
        code, out = run_cli(capsys, "factors", "--m", "4")
        assert code == 0
        assert "s_ij factors for M=4" in out
        assert "quantized LUT codes" in out

    def test_factors_mse(self, capsys):
        code, out = run_cli(capsys, "factors", "--m", "2", "--objective", "mse")
        assert code == 0
        assert "objective=mse" in out

    def test_characterize_quick(self, capsys):
        code, out = run_cli(capsys, "characterize", "drum-k8", "--quick")
        assert code == 0
        assert "DRUM" in out and "paper" in out

    def test_unknown_design_exits_cleanly(self, capsys):
        # a bad design id is a usage error (exit 2 + stderr), not a traceback
        for argv in (
            ["characterize", "realm99-t0", "--quick"],
            ["verilog", "realm99-t0"],
            ["report", "realm99-t0"],
        ):
            with pytest.raises(SystemExit) as info:
                run_cli(capsys, *argv)
            assert info.value.code == 2, argv
            err = capsys.readouterr().err
            assert "unknown multiplier 'realm99-t0'" in err
            assert "repro-realm list" in err

    def test_no_command_exits(self):
        with pytest.raises(SystemExit):
            main([])


class TestFigureCommands:
    def test_fig2(self, capsys):
        code, out = run_cli(capsys, "fig2", "--m", "4")
        assert code == 0
        assert "cALM per-segment" in out
        assert "REALM per-segment" in out

    def test_fig3(self, capsys):
        code, out = run_cli(capsys, "fig3", "--m", "4", "--t", "2")
        assert code == 0
        assert "gate_count" in out
        assert "lut_entries" in out

    def test_fig5_quick(self, capsys):
        code, out = run_cli(capsys, "fig5", "--quick")
        assert code == 0
        assert "REALM16 (t=0)" in out
        assert "spread" in out

    def test_fig5_rejects_engine_flags(self, capsys, tmp_path):
        # the histograms run outside the engine, so its knobs are refused
        store = tmp_path / "D"
        argv = ["fig5", "--quick", "--warehouse", str(store), "--workers", "2",
                "--checkpoint"]
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not store.exists()


class TestExtensionCommands:
    def test_theory(self, capsys):
        code, out = run_cli(capsys, "theory")
        assert code == 0
        assert "REALM16" in out and "ME" in out

    def test_report(self, capsys):
        code, out = run_cli(capsys, "report", "calm")
        assert code == 0
        assert "critical path" in out

    def test_verilog_stdout(self, capsys):
        code, out = run_cli(capsys, "verilog", "ssm-m8")
        assert code == 0
        assert "module" in out and "endmodule" in out

    def test_verilog_file(self, capsys, tmp_path):
        target = tmp_path / "design.v"
        code, out = run_cli(capsys, "verilog", "drum-k6", "-o", str(target))
        assert code == 0
        assert target.exists()
        assert "endmodule" in target.read_text()

    def test_fir(self, capsys):
        code, out = run_cli(capsys, "fir", "realm16-t0", "calm")
        assert code == 0
        assert "SNR" in out

    def test_nn(self, capsys):
        code, out = run_cli(capsys, "nn", "accurate", "realm16-t0")
        assert code == 0
        assert "accuracy" in out

    def test_explore(self, capsys):
        code, out = run_cli(
            capsys, "explore", "--max-me", "1.0", "--quick", "--top", "3"
        )
        assert code == 0
        assert "REALM" in out

    def test_explore_infeasible(self, capsys):
        # DNNCO's near-exact windows satisfy ME <= 0.0001 on their own,
        # so pin an area floor no near-exact design can also clear
        code, out = run_cli(
            capsys,
            "explore", "--max-me", "0.0001", "--min-area", "50", "--quick",
        )
        assert code == 1
        assert "no feasible" in out

    def test_table2(self, capsys):
        code, out = run_cli(capsys, "table2")
        assert code == 0
        assert "cameraman" in out and "stand-ins" in out

    def test_divide(self, capsys):
        code, out = run_cli(capsys, "divide", "50000", "37", "--m", "8")
        assert code == 0
        assert "REALM-div8" in out and "relative error" in out

    def test_divide_mitchell(self, capsys):
        code, out = run_cli(capsys, "divide", "1000", "10")
        assert code == 0
        assert "cALM-div16" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ("factors", "--q", "2"),
            ("factors", "--m", "0"),
            ("factors", "--m", "0", "--objective", "mse"),
            ("divide", "5", "0"),
            ("divide", "50000", "37", "--m", "6"),
            ("divide", "70000", "3"),
        ],
    )
    def test_bad_arguments_are_structured_errors(self, capsys, argv):
        # a rejected value is exit 2 and one error line, not a traceback
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:")
        assert captured.out == ""

class TestResilienceFlags:
    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--max-retries", "-1"),
            ("--batch-timeout", "0"),
            ("--batch-timeout", "-2.5"),
            ("--samples", "0"),
            ("--samples", "-4"),
            ("--workers", "0"),
            ("--workers", "-2"),
        ],
    )
    def test_rejects_nonsensical_values(self, capsys, flag, value):
        with pytest.raises(SystemExit):
            main(["characterize", "calm", "--quick", flag, value])
        assert "error" in capsys.readouterr().err

    def test_characterize_accepts_resilience_flags(self, capsys):
        code, out = run_cli(
            capsys, "characterize", "calm", "--quick",
            "--max-retries", "0", "--batch-timeout", "60",
        )
        assert code == 0
        assert "cALM" in out

    def test_engine_options_build_one_policy(self):
        import argparse
        import pickle

        from repro.analysis.runtime import ResiliencePolicy
        from repro.cli import _engine_options, _serve_engine_options

        args = argparse.Namespace(max_retries=0, batch_timeout=60.0)
        policy = _engine_options(args)["policy"]
        assert policy == ResiliencePolicy(max_retries=0, batch_timeout=60.0)
        only_retries = _engine_options(argparse.Namespace(max_retries=5))
        assert only_retries["policy"] == ResiliencePolicy(max_retries=5)
        assert _engine_options(argparse.Namespace())["policy"] is None
        # serve ships its engine options to shard processes
        engine = _serve_engine_options(args)
        assert pickle.loads(pickle.dumps(engine)) == {"policy": policy}
        unset = argparse.Namespace(max_retries=None, batch_timeout=None)
        assert _serve_engine_options(unset) == {}

    def test_checkpoint_run_leaves_no_state_behind(self, capsys, tmp_path,
                                                   monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        code, _ = run_cli(
            capsys, "characterize", "drum-k8", "--quick", "--checkpoint",
        )
        assert code == 0
        # the run finished, so its checkpoint was discarded
        assert not list(tmp_path.glob("checkpoints/*.json"))

    def test_progress_reports_injected_retry(self, capsys, tmp_path, monkeypatch):
        from repro.analysis.chaos import CHAOS_ENV, ChaosPlan, FaultSpec

        plan = ChaosPlan(
            (FaultSpec(kind="raise", block=0, times=1),), str(tmp_path)
        )
        monkeypatch.setenv(CHAOS_ENV, plan.to_json())
        code = main(["characterize", "calm", "--quick", "--progress"])
        captured = capsys.readouterr()
        assert code == 0
        assert "retrying batch@0" in captured.err
        assert "injected fault" in captured.err

    def test_progress_printer_formats_resilience_events(self, capsys):
        import argparse

        from repro.cli import _progress_printer

        emit = _progress_printer(argparse.Namespace(progress=True))
        emit({"event": "retry", "design": "X", "batch": 3, "attempt": 1,
              "delay": 0.15, "cause": "boom"})
        emit({"event": "pool-rebuild", "design": "X", "rebuilds": 1,
              "cause": "crashed"})
        emit({"event": "degraded", "design": "X", "rebuilds": 3,
              "cause": "crashed"})
        emit({"event": "resume", "design": "X", "blocks_done": 2,
              "samples_done": 131072})
        err = capsys.readouterr().err
        assert "retrying batch@3 (attempt 1, backoff 0.15s): boom" in err
        assert "rebuilding worker pool (#1)" in err
        assert "degraded to serial execution after 3 pool rebuilds" in err
        assert "resumed 2 block(s) (131072 samples) from checkpoint" in err


class TestVerilogExtras:
    def test_verilog_with_testbench(self, capsys, tmp_path):
        target = tmp_path / "dut.v"
        code, out = run_cli(
            capsys, "verilog", "ssm-m8", "--testbench", "--vectors", "4",
            "-o", str(target),
        )
        assert code == 0
        text = target.read_text()
        assert "endmodule" in text
        assert text.count("check(") == 4
        assert "ALL %0d VECTORS PASS" in text


class TestArgumentValidation:
    """Explicit coverage for the CLI's usage-error paths."""

    def test_multiply_unknown_design(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["multiply", "not-a-design", "3", "4"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "unknown multiplier 'not-a-design'" in err

    def test_multiply_operand_out_of_range(self, capsys):
        code = main(["multiply", "accurate", str(1 << 16), "2"])
        assert code == 2
        assert "outside [0, 2**16)" in capsys.readouterr().err

    def test_multiply_negative_operand(self, capsys):
        code = main(["multiply", "calm", "--", "-5", "2"])
        assert code == 2
        assert "outside" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["formal", "--design", "calm", "--max-error", "--warehouse",
             "wh-dir", "--no-warehouse"],
            ["conform", "--design", "calm", "--warehouse", "wh-dir",
             "--no-warehouse"],
            ["formal", "--design", "calm", "--max-error", "--no-warehouse",
             "--warehouse"],
        ],
    )
    def test_conflicting_cache_knobs(self, capsys, argv):
        # the warehouse is the result store of formal and conform: asking
        # for it and switching it off in one call is a usage error
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "--warehouse and --no-warehouse are mutually exclusive" in err

    @pytest.mark.parametrize("flag", ["--cache", "--no-cache"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["characterize", "calm", "--quick"],
            ["table1", "--quick"],
            ["fig4", "--quick"],
            ["fig5", "--quick"],
            ["serve"],
            ["formal", "--design", "calm", "--max-error"],
            ["conform", "--design", "calm"],
        ],
    )
    def test_engine_commands_reject_cache_flags(self, capsys, argv, flag):
        # the warehouse is the one result store: --warehouse/--no-warehouse
        # (certificates and counterexamples included)
        with pytest.raises(SystemExit) as info:
            main(argv + [flag])
        assert info.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["conform", "--design", "calm", "--workers", "2"],
            ["table1", "--quick", "--resume"],
            ["characterize", "calm", "--quick", "--resume"],
            ["serve", "--characterize-slots", "2"],
        ],
    )
    def test_removed_campaign_flags_are_rejected(self, capsys, argv):
        # a campaign runs one serial fuzzing path, --checkpoint resumes,
        # and a served characterize runs one at a time
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--max-batch", "0"),
            ("--max-queue", "0"),
            ("--max-latency-ms", "-1"),
            ("--workers", "0"),
        ],
    )
    def test_serve_rejects_nonsensical_policy(self, capsys, flag, value):
        with pytest.raises(SystemExit) as info:
            main(["serve", flag, value])
        assert info.value.code == 2
        assert "error" in capsys.readouterr().err

    def test_client_requires_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            main(["client"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["client", "characterize", "calm", "--samples", "0"],
            ["client", "characterize", "calm", "--seed", "-1"],
            ["client", "--port", "0", "ping"],
            ["client", "--timeout", "0", "ping"],
        ],
    )
    def test_client_rejects_bad_values(self, capsys, argv):
        with pytest.raises(SystemExit):
            main(argv)

    def test_client_unreachable_server(self, capsys):
        import socket

        # grab a port that nothing listens on
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        code = main(["client", "--port", str(port), "ping"])
        assert code == 1
        assert "cannot reach" in capsys.readouterr().err


class TestWarehouseReport:
    """`repro report` with no design renders warehouse trends; with a
    design id it stays the synthesis report it always was."""

    def _populate(self, capsys, tmp_path):
        code, _ = run_cli(
            capsys, "characterize", "calm", "--quick",
            "--warehouse", str(tmp_path),
        )
        assert code == 0

    def test_run_summary_counts_reuse_from_the_warehouse(self, capsys, tmp_path):
        argv = ["characterize", "calm", "--quick", "--warehouse", str(tmp_path)]
        assert main(argv) == 0
        cold = capsys.readouterr()
        assert "warehouse 0 reused / 1 computed" in cold.err
        assert "Msamples/s" in cold.err
        assert main(argv) == 0
        warm = capsys.readouterr()
        assert warm.out == cold.out
        assert "warehouse 1 reused / 0 computed" in warm.err
        assert "Msamples/s" not in warm.err  # nothing was evaluated

    def test_trend_text_report(self, capsys, tmp_path):
        self._populate(capsys, tmp_path)
        code, out = run_cli(capsys, "report", "--warehouse", str(tmp_path))
        assert code == 0
        assert "cALM" in out  # the registry display name, not the CLI id
        assert "characterize" in out

    def test_trend_json_is_byte_stable(self, capsys, tmp_path):
        import json

        self._populate(capsys, tmp_path)
        code, first = run_cli(
            capsys, "report", "--json", "--warehouse", str(tmp_path)
        )
        assert code == 0
        _, second = run_cli(
            capsys, "report", "--json", "--warehouse", str(tmp_path)
        )
        assert first == second
        trends = json.loads(first)
        assert "cALM" in trends["designs"]
        assert trends["runs"][0]["kind"] == "characterize"

    def test_kind_filter_and_limit(self, capsys, tmp_path):
        self._populate(capsys, tmp_path)
        code, out = run_cli(
            capsys, "report", "--json", "--kind", "sweep",
            "--limit", "1", "--warehouse", str(tmp_path),
        )
        import json

        assert code == 0
        assert json.loads(out)["runs"] == []

    def test_unusable_warehouse_is_a_clean_failure(self, capsys, tmp_path):
        import sqlite3

        connection = sqlite3.connect(tmp_path / "warehouse.db")
        connection.execute("CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT)")
        connection.execute("INSERT INTO meta VALUES ('schema_version', '99')")
        connection.commit()
        connection.close()
        code = main(["report", "--warehouse", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 1
        assert "no experiment warehouse available" in captured.err

    def test_damaged_warehouse_is_one_error_line(self, capsys, tmp_path):
        import sqlite3

        self._populate(capsys, tmp_path)
        connection = sqlite3.connect(tmp_path / "warehouse.db")
        connection.execute("DROP TABLE results")
        connection.commit()
        connection.close()
        code = main(["report", "--warehouse", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ") and "no such table: results" in line

    def test_a_refused_store_is_named_on_every_command(self, capsys, tmp_path):
        import sqlite3

        connection = sqlite3.connect(tmp_path / "warehouse.db")
        connection.execute("CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT)")
        connection.execute("INSERT INTO meta VALUES ('schema_version', '99')")
        connection.commit()
        connection.close()
        cause = "database schema v99 is newer than this build"
        notes = {
            "characterize": "warehouse failed (1 error)",
            "formal": f"# warehouse recording failed: {cause}",
        }
        commands = (
            ["characterize", "calm", "--quick"],
            ["formal", "--design", "calm", "--bitwidth", "8", "--max-error"],
        )
        for argv in commands:
            assert main([*argv, "--no-warehouse"]) == 0
            off = capsys.readouterr()
            assert main([*argv, "--warehouse", str(tmp_path)]) == 0
            refused = capsys.readouterr()
            assert refused.out == off.out, argv
            assert notes[argv[0]] in refused.err, argv
            assert "warehouse off" not in refused.err, argv
        assert main(["report", "--warehouse", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ") and cause in line
        assert "pass --warehouse DIR" not in line

    def test_a_damaged_store_is_named_in_the_summary(self, capsys, tmp_path):
        import sqlite3

        self._populate(capsys, tmp_path)
        connection = sqlite3.connect(tmp_path / "warehouse.db")
        connection.execute("DROP TABLE results")
        connection.commit()
        connection.close()
        argv = ["characterize", "calm", "--quick", "--warehouse", str(tmp_path)]
        assert main(argv) == 0
        # the failed lookup and the dropped record
        summary = "warehouse 0 reused / 1 computed  warehouse failed (2 errors)"
        assert summary in capsys.readouterr().err

    def test_warehouse_flags_are_mutually_exclusive(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as info:
            run_cli(
                capsys, "report", "--warehouse", str(tmp_path), "--no-warehouse"
            )
        assert info.value.code == 2

    def test_design_argument_still_means_synthesis_report(self, capsys):
        code, out = run_cli(capsys, "report", "calm")
        assert code == 0
        assert "critical path" in out
