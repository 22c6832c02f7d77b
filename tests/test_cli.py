"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


class TestCLI:
    def test_describe(self, capsys):
        assert main(["describe"]) == 0
        output = json.loads(capsys.readouterr().out)
        assert "JOBS" in output["components"]["data_registry"]["entries"]

    def test_ask(self, capsys):
        code = main(["ask", "I am looking for a data scientist position in SF bay area."])
        assert code == 0
        output = capsys.readouterr().out
        assert "plan: PROFILER -> JOB_MATCHER -> PRESENTER" in output
        assert "budget:" in output

    def test_ask_with_qos(self, capsys):
        code = main([
            "ask", "I am looking for a data scientist position in SF bay area.",
            "--max-cost", "1.0",
        ])
        assert code == 0
        assert "budget:" in capsys.readouterr().out

    def test_plan(self, capsys):
        assert main(["plan", "data scientist position in SF bay area"]) == 0
        output = capsys.readouterr().out
        assert "TaskPlan" in output
        assert "DataPlan" in output
        assert "llm_call" in output

    def test_plan_with_verify(self, capsys):
        main(["plan", "data scientist position in SF bay area", "--verify"])
        assert "verify" in capsys.readouterr().out

    def test_employer(self, capsys):
        code = main([
            "employer", "--click", "1",
            "--say", "how many applicants have python skills?",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "UI: [select job 1]" in output
        assert "System:" in output

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            main([])


class TestRunCLI:
    def test_run_parallel_is_default_and_reports_speedup(self, capsys):
        assert main(["run"]) == 0
        output = capsys.readouterr().out
        assert "mode: parallel (wave scheduler)" in output
        assert "w1: m1, m2, m3" in output
        assert "simulated latency: 1.40s" in output
        assert "serial baseline:   2.50s" in output
        assert "speedup: 1.79x" in output
        assert "scheduler.waves = 3.0" in output
        assert "scheduler.parallel_nodes = 3.0" in output

    def test_run_serial_sums_latencies(self, capsys):
        assert main(["run", "--serial"]) == 0
        output = capsys.readouterr().out
        assert "mode: serial" in output
        assert "simulated latency: 2.50s" in output
        assert "speedup" not in output
        assert "scheduler." not in output

    def test_run_modes_agree_on_outputs(self, capsys):
        main(["run", "--parallel"])
        parallel_out = capsys.readouterr().out
        main(["run", "--serial"])
        serial_out = capsys.readouterr().out
        pick = lambda text: sorted(
            line for line in text.splitlines() if " -> " in line
        )
        assert pick(parallel_out) == pick(serial_out)
        assert "cost: $0.0600" in parallel_out
        assert "cost: $0.0600" in serial_out

    def test_run_modes_are_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            main(["run", "--parallel", "--serial"])


class TestRecoverCLI:
    def test_recover_demo_kill_and_resume(self, capsys):
        assert main(["recover", "--demo", "--kill", "3"]) == 0
        output = capsys.readouterr().out
        assert "killed at barrier 3" in output
        assert "resumed from the journal" in output
        assert "byte-identical:    True" in output
        assert "recovery.resumed_nodes" in output
        assert "recovery.replayed_effects" in output
        assert "recover:demo-plan" in output  # the recovery span

    def test_recover_demo_kill_beyond_barriers_is_uninterrupted(self, capsys):
        assert main(["recover", "--demo", "--kill", "99"]) == 0
        output = capsys.readouterr().out
        assert "never reached" in output
        assert "byte-identical:    True" in output

    def test_recover_export_analysis(self, capsys, tmp_path):
        export_file = tmp_path / "export.json"
        assert main([
            "recover", "--demo", "--kill", "2", "--output", str(export_file),
        ]) == 0
        capsys.readouterr()
        assert main([
            "recover", "--export", str(export_file), "--plan", "demo-plan",
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        journal = report["journals"][0]["journal"]
        assert journal["plans"] == 1
        assert journal["incomplete"] == []
        detail = report["journals"][0]["plan_detail"]
        assert detail["status"] == "completed"
        assert detail["nodes_completed"] == 3

    def test_recover_export_without_journal(self, capsys, tmp_path):
        export_file = tmp_path / "empty.json"
        export_file.write_text('{"clock": 0.0, "streams": [], "messages": []}')
        assert main(["recover", "--export", str(export_file)]) == 1
        assert "no write-ahead journal" in capsys.readouterr().out

    def test_recover_requires_a_mode(self, capsys):
        assert main(["recover"]) == 2


class TestFleetCommand:
    def test_fleet_reports_speedup_and_contention(self, capsys):
        assert main([
            "fleet", "--plans", "4", "--max-inflight", "2", "--slots", "2",
        ]) == 0
        output = capsys.readouterr().out
        assert "admitted=4 queued=2 rejected=0" in output
        assert "fleet makespan:" in output
        assert "serial baseline:" in output
        assert "speedup:" in output
        assert "single-flight:" in output
        fleet = float(output.split("fleet makespan:")[1].split("s")[0])
        serial = float(output.split("serial baseline:")[1].split("s")[0])
        assert fleet < serial

    def test_fleet_backlog_overflow_rejects(self, capsys):
        assert main([
            "fleet", "--plans", "3", "--max-inflight", "1",
            "--max-backlog", "1", "--slots", "0",
        ]) == 0
        output = capsys.readouterr().out
        assert "rejected=1" in output
        assert "rejected (backlog full)" in output

    def test_fleet_validates_plan_count(self, capsys):
        assert main(["fleet", "--plans", "0"]) == 2

    def test_fleet_rejects_removed_async_backend(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["fleet", "--backend", "async"])
        assert exit_info.value.code == 2  # argparse usage error
        assert "invalid choice: 'async'" in capsys.readouterr().err
