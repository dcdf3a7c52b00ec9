"""Tests for the command-line interface."""

import json
import logging
import re
from pathlib import Path

import pytest

from repro.cli import main, verbosity_to_level
from repro.obs import count_by_type, read_trace


@pytest.fixture
def trace_path(tmp_path):
    path = tmp_path / "trace.json"
    code = main(
        [
            "generate-trace",
            "--out",
            str(path),
            "--workflows",
            "2",
            "--jobs",
            "5",
            "--adhoc",
            "6",
            "--seed",
            "11",
        ]
    )
    assert code == 0
    return path


class TestGenerateTrace:
    def test_writes_valid_json(self, trace_path, capsys):
        payload = json.loads(trace_path.read_text())
        assert len(payload["workflows"]) == 2
        assert all(len(wf["jobs"]) == 5 for wf in payload["workflows"])

    def test_reports_summary(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        main(["generate-trace", "--out", str(path), "--workflows", "1", "--jobs", "3"])
        out = capsys.readouterr().out
        assert "3 deadline jobs" in out

    def test_scientific_flag(self, tmp_path):
        path = tmp_path / "sci.json"
        code = main(
            [
                "generate-trace",
                "--out",
                str(path),
                "--workflows",
                "2",
                "--jobs",
                "10",
                "--scientific",
            ]
        )
        assert code == 0
        payload = json.loads(path.read_text())
        names = {wf["name"] for wf in payload["workflows"]}
        assert names <= {"montage", "cybershake", "epigenomics", "inspiral", "sipht"}


class TestDecompose:
    def test_prints_windows_for_all(self, trace_path, capsys):
        assert main(["decompose", "--trace", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "wf0" in out and "wf1" in out
        assert "levels" in out

    def test_single_workflow_filter(self, trace_path, capsys):
        assert main(["decompose", "--trace", str(trace_path), "--workflow", "wf1"]) == 0
        out = capsys.readouterr().out
        assert "wf1:" in out and "wf0:" not in out

    def test_unknown_workflow_errors(self, trace_path, capsys):
        assert main(["decompose", "--trace", str(trace_path), "--workflow", "nope"]) == 2


class TestRun:
    def test_flowtime_run(self, trace_path, capsys):
        assert main(["run", "--trace", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "scheduler:            FlowTime" in out
        assert "finished:             True" in out
        assert "util |" in out

    def test_other_scheduler(self, trace_path, capsys):
        assert main(["run", "--trace", str(trace_path), "--scheduler", "FIFO"]) == 0
        assert "FIFO" in capsys.readouterr().out

    def test_gantt_flag(self, trace_path, capsys):
        assert main(["run", "--trace", str(trace_path), "--gantt"]) == 0
        out = capsys.readouterr().out
        assert "#" in out  # execution marks

    def test_rejects_unknown_scheduler(self, trace_path):
        with pytest.raises(SystemExit):
            main(["run", "--trace", str(trace_path), "--scheduler", "SLURM"])

    def test_no_plan_cache_flags_reach_planner(self, trace_path, monkeypatch):
        import repro.cli as cli_mod

        captured = {}
        real_run_one = cli_mod.run_one

        def spy(name, trace, cluster, **kwargs):
            captured.update(kwargs)
            return real_run_one(name, trace, cluster, **kwargs)

        monkeypatch.setattr(cli_mod, "run_one", spy)
        code = main(
            ["run", "--trace", str(trace_path), "--no-plan-cache",
             "--no-warm-start"]
        )
        assert code == 0
        assert captured["scheduler_kwargs"] == {
            "planner": {"plan_cache": False, "warm_start": False}
        }

    def test_no_plan_cache_matches_default_outcome(self, trace_path, capsys):
        def summary(extra):
            assert main(["run", "--trace", str(trace_path), *extra]) == 0
            out = capsys.readouterr().out
            return [
                line for line in out.splitlines()
                if line.startswith(("jobs missed", "workflows missed",
                                    "ad-hoc turnaround"))
            ]

        assert summary(["--no-plan-cache"]) == summary([])

    def test_trace_out_writes_jsonl(self, trace_path, tmp_path, capsys):
        out_path = tmp_path / "run.jsonl"
        code = main(
            ["run", "--trace", str(trace_path), "--scheduler", "FIFO",
             "--trace-out", str(out_path)]
        )
        assert code == 0
        events = read_trace(out_path)
        counts = count_by_type(events)
        assert counts["run_start"] == 1 and counts["run_end"] == 1
        assert counts["job_completed"] >= 1
        stdout = capsys.readouterr().out
        assert f"wrote {len(events)} events to {out_path}" in stdout

    def test_metrics_flag_prints_phase_table(self, trace_path, capsys):
        assert main(["run", "--trace", str(trace_path), "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "per-phase timings" in out
        assert "sched.decide" in out
        assert "sim.slot" in out
        assert "slowest slot:" in out

    def test_verbose_implies_metrics(self, trace_path, capsys):
        assert main(["-v", "run", "--trace", str(trace_path),
                     "--scheduler", "FIFO"]) == 0
        assert "per-phase timings" in capsys.readouterr().out

    def test_quiet_run_still_prints_summary(self, trace_path, capsys):
        assert main(["-q", "run", "--trace", str(trace_path),
                     "--scheduler", "FIFO"]) == 0
        out = capsys.readouterr().out
        assert "scheduler:" in out
        assert "per-phase timings" not in out


class TestGlobalFlags:
    def test_version(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as exc_info:
            main(["--version"])
        assert exc_info.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {__version__}"
        # One source: the package metadata reads ``repro.__version__`` too,
        # so pyproject.toml's [project] table carries no literal version.
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        project = pyproject.read_text().split("[project]", 1)[1].split("\n[", 1)[0]
        assert not re.search(r"^version\s*=", project, re.MULTILINE)
        assert re.search(r'^dynamic\s*=.*"version"', project, re.MULTILINE)

    def test_verbosity_mapping(self):
        assert verbosity_to_level(quiet=True, verbose=0) == logging.ERROR
        assert verbosity_to_level(quiet=False, verbose=0) == logging.WARNING
        assert verbosity_to_level(quiet=False, verbose=1) == logging.INFO
        assert verbosity_to_level(quiet=False, verbose=2) == logging.DEBUG


class TestCompare:
    def test_default_comparison_table(self, trace_path, capsys):
        assert main(
            ["compare", "--trace", str(trace_path), "--algorithms", "FlowTime", "FIFO"]
        ) == 0
        out = capsys.readouterr().out
        assert "jobs missed" in out
        assert "relative to FlowTime" in out

    def test_without_flowtime_no_ratios(self, trace_path, capsys):
        assert main(
            ["compare", "--trace", str(trace_path), "--algorithms", "FIFO", "Fair"]
        ) == 0
        out = capsys.readouterr().out
        assert "relative to FlowTime" not in out


class TestErrorHandling:
    def test_malformed_trace_reports_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        assert main(["run", "--trace", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_trace_file(self, capsys):
        assert main(["compare", "--trace", "/nonexistent/trace.json"]) == 2
        assert "error:" in capsys.readouterr().err


class TestServe:
    def test_async_sharded_boots_answers_and_drains(self, tmp_path):
        """``--async`` with ``--shards``: one route table, either transport."""
        import os
        import signal
        import subprocess
        import sys

        from repro.service import HttpServiceClient
        from tests.conftest import adhoc_job

        src = str(Path(__file__).resolve().parents[1] / "src")
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--port", "0",
                "--async", "--shards", "2", "--journal", str(tmp_path / "wal"),
            ],
            env={**os.environ, "PYTHONPATH": src},
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        try:
            banner = process.stdout.readline()
            url = re.search(r"x2 shards behind router on (http://\S+)", banner)
            assert url, banner
            result = HttpServiceClient(url.group(1)).submit_adhoc(
                adhoc_job("t/a", arrival=0)
            )
            assert result.accepted and result.shard in ("shard0", "shard1")
            process.send_signal(signal.SIGTERM)
            summary, _ = process.communicate(timeout=60)
        finally:
            process.kill()
        assert process.returncode == 0, summary
        assert "ad-hoc:    1 accepted, 0 shed" in summary
        assert "conservation: verify: 3 checks, 0 violations" in summary
