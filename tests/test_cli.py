"""Tests for the command-line interface."""

import json
import logging
import re
from pathlib import Path

import pytest

from repro.chaos import ChaosConfig
from repro.cli import main, verbosity_to_level
from repro.cluster import DetectorConfig, SupervisorConfig
from repro.estimation.errors import ErrorModel
from repro.obs import SLOConfig, count_by_type, read_trace
from repro.service import ServiceConfig
from repro.simulator.engine import SimulationConfig
from repro.simulator.failures import FailureModel


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
        assert "SLO status:" in out

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
    def test_single_service_drains_on_sigterm(self, tmp_path):
        """One service in a subprocess: SIGTERM drains it, the process
        exits 0 after the summary, and its trace and journal hold up."""
        import os
        import signal
        import subprocess
        import sys

        from repro.model.workflow import Workflow
        from repro.service import HttpServiceClient
        from repro.service.journal import read_journal
        from repro.verify import validate_trace
        from tests.conftest import adhoc_job, deadline_job

        jobs = [deadline_job(f"w-j{i}", "w") for i in range(2)]
        workflow = Workflow.from_jobs("w", jobs, [("w-j0", "w-j1")], 0, 60)
        journal, trace = tmp_path / "wal", tmp_path / "run.jsonl"
        src = str(Path(__file__).resolve().parents[1] / "src")
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--port", "0",
                "--journal", str(journal), "--trace-out", str(trace),
            ],
            env={**os.environ, "PYTHONPATH": src},
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        try:
            banner = process.stdout.readline()
            url = re.search(r"serving FlowTime on (http://\S+)", banner)
            assert url, banner
            client = HttpServiceClient(url.group(1))
            try:
                assert client.submit_workflow(workflow).accepted
                assert client.submit_adhoc(adhoc_job("t/a", arrival=0)).accepted
            finally:
                client.close()
            process.send_signal(signal.SIGTERM)
            summary, _ = process.communicate(timeout=60)
        finally:
            process.kill()
        assert process.returncode == 0, summary
        assert re.search(r"drained after \d+ slots \(finished=True\)", summary), summary
        assert "workflows: 1 accepted, 0 rejected, 0 missed deadline" in summary
        assert "ad-hoc:    1 accepted, 0 shed" in summary
        assert re.search(rf"trace:     wrote \d+ events to {re.escape(str(trace))}", summary)
        report = validate_trace(read_trace(trace))
        assert report.ok, report.render()
        records, _ = read_journal(journal)
        ids = {
            r.entity.workflow_id if r.kind == "workflow" else r.entity.job_id
            for r in records
        }
        assert ids == {"w", "t/a"}

    def test_sharded_boots_answers_and_drains(self, tmp_path):
        """``--shards``: the router's route table behind the HTTP server."""
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
                "--shards", "2", "--journal", str(tmp_path / "wal"),
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

    def test_sharded_serve_keeps_chaos_and_trace_rotation(self, tmp_path):
        """``--shards`` runs under the ``--chaos-*`` fault hook and writes
        size-capped ``--trace-rotate-mb`` shard traces, as one service does."""
        import os
        import signal
        import subprocess
        import sys
        import time

        from repro.model.workflow import Workflow
        from repro.service import HttpServiceClient
        from tests.conftest import deadline_job

        jobs = [deadline_job(f"w-j{i}", "w") for i in range(2)]
        workflow = Workflow.from_jobs("w", jobs, [("w-j0", "w-j1")], 0, 60)
        trace = tmp_path / "run.jsonl"
        src = str(Path(__file__).resolve().parents[1] / "src")
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--port", "0",
                "--shards", "2", "--chaos-fault-prob", "1.0",
                "--trace-out", str(trace), "--trace-rotate-mb", "0.0001",
            ],
            env={**os.environ, "PYTHONPATH": src},
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        try:
            banner = [process.stdout.readline(), process.stdout.readline()]
            assert banner[0].startswith("chaos: fault_prob=1.0"), banner
            url = re.search(r"behind router on (http://\S+)", banner[1])
            assert url, banner
            client = HttpServiceClient(url.group(1))
            assert client.submit_workflow(workflow).accepted
            deadline = time.monotonic() + 30
            while not client.metrics()["aggregate"].get("lp.solve.failures"):
                assert time.monotonic() < deadline, "no solve failed"
                time.sleep(0.05)
            process.send_signal(signal.SIGTERM)
            summary, _ = process.communicate(timeout=60)
        finally:
            process.kill()
        assert process.returncode == 0, summary
        assert (tmp_path / "run.jsonl.shard0.1").exists()


def _parse(*argv: str):
    from repro.cli import _build_parser

    return _build_parser().parse_args(list(argv))


class TestFlagSurface:
    """Every flag of every subcommand, and what each config-backed flag of
    ``run`` and ``serve`` sets: the command lines below must keep yielding
    the configs written out by hand."""

    #: Option strings per subcommand, besides ``-h/--help``.
    OPTIONS = {
        "": "--quiet --verbose --version -q -v",
        "generate-trace": "--adhoc --cpu --jobs --looseness --mem --out --rate "
        "--scientific --seed --spread --workflows",
        "decompose": "--chart --cpu --mem --trace --workflow",
        "run": "--cpu --error-high --error-low --fault-seed --gantt "
        "--max-setback --mem --metrics "
        "--scheduler --setback-prob --slot-seconds --solve-budget --trace "
        "--trace-out --verify",
        "verify": "--cpu --mem --slot-seconds --workload",
        "compare": "--algorithms --cpu --mem --trace",
        "serve": "--batch-window --chaos-fault-prob --chaos-seed "
        "--chaos-slow-prob --chaos-slow-s --cpu --dead-after --error-high "
        "--error-low --failover --fault-seed --host --journal --max-setback "
        "--mem --no-admission --port --probe-interval --queue-limit "
        "--realtime --rebalance-interval --reconcile-interval --scheduler "
        "--setback-prob --shards --slo-decide-p99 --slo-objective "
        "--slo-window --slot-seconds --solve-budget --trace-out "
        "--trace-rotate-backups --trace-rotate-mb",
        "trace": "",
        "trace query": "--json --max-events --request",
        "top": "--interval --iterations --once --url",
    }

    def test_every_subcommand_keeps_its_flags(self):
        import argparse

        from repro.cli import _build_parser

        found = {}

        def walk(parser, name):
            found[name] = {
                option for action in parser._actions
                for option in action.option_strings
            } - {"-h", "--help"}
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    for sub, subparser in action.choices.items():
                        walk(subparser, f"{name} {sub}".strip())

        walk(_build_parser(), "")
        assert found == {k: set(v.split()) for k, v in self.OPTIONS.items()}

    def _run(self, monkeypatch, trace_path, *argv):
        """(SimulationConfig, scheduler kwargs) ``repro run`` would use."""
        import repro.cli as cli_mod

        class Stop(Exception):
            pass

        seen = {}

        def spy(name, trace, cluster, *, config, scheduler_kwargs, obs):
            seen.update(config=config, kwargs=scheduler_kwargs)
            raise Stop

        monkeypatch.setattr(cli_mod, "run_one", spy)
        with pytest.raises(Stop):
            main(["run", "--trace", str(trace_path), *argv])
        return seen["config"], seen["kwargs"]

    # Each table compares reprs, so a flag that parses to the wrong type
    # (``9.0`` for ``9``) fails as surely as one that sets the wrong field.

    @pytest.mark.parametrize(
        "argv, config, kwargs",
        [
            # The empty command line: today's defaults, spelled out.
            ((), {}, {}),
            (("--slot-seconds", "5", "--verify"),
             {"slot_seconds": 5.0, "verify": True}, {}),
            (("--solve-budget", "0.5"), {}, {"planner": {"solve_budget_s": 0.5}}),
            (("--scheduler", "FIFO", "--solve-budget", "1"), {}, {}),
            (("--setback-prob", "0.25", "--max-setback", "2", "--fault-seed", "7"),
             {"failures": FailureModel(setback_prob=0.25, max_setback_units=2,
                                       seed=7)}, {}),
        ],
    )
    def test_run_flags_set_their_fields(
        self, monkeypatch, trace_path, argv, config, kwargs
    ):
        expected = {"slot_seconds": 10.0, "verify": False, "failures": None}
        got = self._run(monkeypatch, trace_path, *argv)
        assert repr(got) == repr(
            (SimulationConfig(**{**expected, **config}), kwargs)
        )

    def test_run_error_model_flags(self):
        from repro.cli import _fault_models

        assert _fault_models(_parse("run", "--trace", "t")) == (None, None, 0)
        got = _fault_models(
            _parse("run", "--trace", "t", "--error-low", "0.5", "--error-high", "2")
        )
        assert repr(got) == repr((None, ErrorModel(low=0.5, high=2.0), 0))

    @pytest.mark.parametrize(
        "argv, service, chaos, detector",
        [
            # The empty command line: today's defaults, spelled out below.
            ((), {}, {}, {}),
            (("--slot-seconds", "5", "--realtime", "--batch-window", "0",
              "--queue-limit", "9", "--no-admission", "--journal", "wal.jsonl"),
             {"slot_seconds": 5.0, "realtime": True, "batch_window_s": 0.0,
              "adhoc_queue_limit": 9, "admission": False,
              "journal_path": "wal.jsonl"}, {}, {}),
            (("--slo-objective", "0.9", "--slo-decide-p99", "0.5",
              "--slo-window", "60"),
             {"slo": SLOConfig(deadline_objective=0.9, decide_p99_s=0.5,
                               window_s=60.0)}, {}, {}),
            (("--solve-budget", "0.25"),
             {"scheduler_kwargs": {"planner": {"solve_budget_s": 0.25}}}, {}, {}),
            (("--scheduler", "FIFO", "--solve-budget", "0.25"),
             {"scheduler": "FIFO"}, {}, {}),
            (("--setback-prob", "0.25", "--max-setback", "2", "--fault-seed", "7",
              "--error-low", "0.5", "--error-high", "2"),
             {"failures": FailureModel(setback_prob=0.25, max_setback_units=2,
                                       seed=7),
              "error_model": ErrorModel(low=0.5, high=2.0), "fault_seed": 7},
             {}, {}),
            (("--chaos-fault-prob", "0.3", "--chaos-slow-prob", "0.2",
              "--chaos-slow-s", "0.01", "--chaos-seed", "7"),
             {}, {"solver_fault_prob": 0.3, "solver_slow_prob": 0.2,
                  "solver_slow_s": 0.01, "seed": 7}, {}),
            (("--probe-interval", "0.5", "--dead-after", "2"),
             {}, {}, {"probe_interval_s": 0.5, "dead_after_s": 2.0}),
        ],
    )
    def test_serve_flags_set_their_fields(self, argv, service, chaos, detector):
        from repro.cli import _serve_configs

        # serve holds a 0.05 s batch window; the field's default is 0.
        defaults = {
            "scheduler": "FlowTime", "scheduler_kwargs": {}, "slot_seconds": 10.0,
            "realtime": False, "batch_window_s": 0.05, "adhoc_queue_limit": 256,
            "admission": True, "journal_path": None, "failures": None,
            "error_model": None, "fault_seed": 0,
            "slo": SLOConfig(deadline_objective=0.99, decide_p99_s=1.0,
                             window_s=300.0),
        }
        detector = {"probe_interval_s": 1.0, "dead_after_s": 5.0, **detector}
        expected = (
            ServiceConfig(**{**defaults, **service}),
            ChaosConfig(**{"solver_fault_prob": 0.0, "solver_slow_prob": 0.0,
                           "solver_slow_s": 0.05, "seed": 0, **chaos}),
            DetectorConfig(**detector),
            SupervisorConfig(failover_after_s=detector["dead_after_s"]),
        )
        assert repr(_serve_configs(_parse("serve", *argv))) == repr(expected)
