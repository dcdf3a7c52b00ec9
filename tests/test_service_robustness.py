"""Service fault-tolerance tests: journal recovery, idempotency, typed
backpressure, retrying clients, and the chaos kill/restart contract.

The headline invariant (docs/ROBUSTNESS.md): **anything a client was told
was accepted survives a crash** — the journal is fsync'd before the
decision is resolved, and a new service on the same journal re-registers
every record.  Everything else here guards the edges of that contract:
idempotent retries, saturation answers, and the deadline-parity bound
under injected solver faults.
"""

import json
import urllib.request

import pytest

from repro.chaos import ChaosConfig, chaos_solver
from repro.lp.solver import install_fault_injector
from repro.model.cluster import ClusterCapacity
from repro.model.workflow import Workflow
from repro.obs import JsonlSink, MemorySink, Observability, read_trace
from repro.service import (
    HttpServiceClient,
    QueueFullError,
    SchedulerService,
    ServiceConfig,
    ServiceSaturatedError,
    SubmissionJournal,
    serve_http,
)
from repro.service.client import ServiceUnavailableError
from repro.service.journal import read_journal
from repro.simulator.failures import FailureModel
from repro.estimation.errors import ErrorModel
from tests.conftest import adhoc_job, deadline_job, straddling_workflow


@pytest.fixture
def cluster() -> ClusterCapacity:
    return ClusterCapacity.uniform(cpu=40, mem=80)


def chain(wid: str, n: int = 3, deadline: int = 90) -> Workflow:
    jobs = [deadline_job(f"{wid}-j{i}", wid) for i in range(n)]
    edges = [(f"{wid}-j{i}", f"{wid}-j{i+1}") for i in range(n - 1)]
    return Workflow.from_jobs(wid, jobs, edges, 0, deadline)


class TestJournal:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with SubmissionJournal(path) as journal:
            journal.append_workflow(chain("w"), key="k1")
            journal.append_adhoc(adhoc_job("a", arrival=0))
        records, skipped = read_journal(path)
        assert skipped == 0
        assert [r.kind for r in records] == ["workflow", "adhoc"]
        assert records[0].key == "k1" and records[1].key is None
        assert records[0].entity.workflow_id == "w"
        assert records[1].entity.job_id == "a"

    def test_truncated_tail_is_skipped_not_fatal(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with SubmissionJournal(path) as journal:
            journal.append_workflow(chain("w"))
        with open(path, "a") as handle:
            handle.write('{"v": 1, "type": "workflow", "enti')  # crash mid-append
        records, skipped = read_journal(path)
        assert len(records) == 1 and skipped == 1

    def test_unknown_version_is_skipped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('{"v": 99, "type": "workflow"}\n')
        records, skipped = read_journal(path)
        assert records == [] and skipped == 1

    def test_missing_file_is_empty(self, tmp_path):
        records, skipped = read_journal(tmp_path / "nope.jsonl")
        assert records == [] and skipped == 0


class TestCrashRecovery:
    def test_kill_restart_loses_no_accepted_work(self, cluster, tmp_path):
        path = str(tmp_path / "j.jsonl")
        service = SchedulerService(cluster, ServiceConfig(journal_path=path))
        service.start()
        workflows = [chain(f"w{i}") for i in range(3)]
        for i, workflow in enumerate(workflows):
            assert service.submit_workflow(
                workflow, idempotency_key=f"wf-{i}"
            ).accepted
        for i in range(3):
            assert service.submit_adhoc(adhoc_job(f"a{i}", arrival=0)).accepted
        service.kill(timeout=30)
        assert not service.alive()
        with pytest.raises(RuntimeError, match="without a result"):
            service.drain()

        restarted = SchedulerService(cluster, ServiceConfig(journal_path=path))
        status = restarted.status()
        assert status.accepted_workflows == 3
        assert status.accepted_adhoc == 3
        restarted.start()
        result = restarted.drain(timeout=120)
        assert result.finished
        for workflow in workflows:
            assert result.workflows[workflow.workflow_id].completion_slot is not None
        for i in range(3):
            assert result.jobs[f"a{i}"].completion_slot is not None

    def test_restart_keeps_the_trace(self, cluster, tmp_path):
        # One service object across a crash: the restart replays the
        # journal but keeps its observability handle, so the trace file
        # continues instead of being reopened (and truncated) by a new one.
        trace = tmp_path / "trace.jsonl"
        config = ServiceConfig(
            journal_path=str(tmp_path / "j.jsonl"),
            journal_fsync=False,
            scheduler="FIFO",
        )
        service = SchedulerService(
            cluster, config, name="s0", obs=Observability(sink=JsonlSink(trace))
        ).start()
        assert service.submit_workflow(chain("w1"), request_id="req-w1").accepted
        service.kill(timeout=30)
        assert service.restart() is service and service.alive()
        assert service.owns("w1")  # replayed from the journal
        assert service.submit_workflow(chain("w2"), request_id="req-w2").accepted
        service.drain(timeout=120)
        service.obs.close()
        assert b"\0" not in trace.read_bytes()
        events = read_trace(trace)
        request_ids = {event.get("request_id") for event in events}
        assert {"req-w1", "req-w2"} <= request_ids
        assert [e["type"] for e in events].count("service_start") == 2
        seqs = [event["seq"] for event in events]
        assert all(a < b for a, b in zip(seqs, seqs[1:]))

    def test_restart_refuses_a_live_service(self, cluster, tmp_path):
        path = tmp_path / "j.jsonl"
        service = SchedulerService(
            cluster, ServiceConfig(journal_path=str(path), journal_fsync=False)
        ).start()
        assert service.submit_workflow(chain("w1"), idempotency_key="k1").accepted
        journal = service.state.journal
        with pytest.raises(RuntimeError, match="running"):
            service.restart()
        # Still the one loop writing the one journal it had.
        assert service.alive() and service.state.journal is journal
        assert service.submit_workflow(chain("w2"), idempotency_key="k2").accepted
        service.drain(timeout=120)
        records, skipped = read_journal(path)
        assert skipped == 0
        assert [record.key for record in records] == ["k1", "k2"]

    def test_recovery_restores_idempotency_keys(self, cluster, tmp_path):
        path = str(tmp_path / "j.jsonl")
        service = SchedulerService(cluster, ServiceConfig(journal_path=path))
        service.start()
        assert service.submit_workflow(chain("w"), idempotency_key="k").accepted
        service.kill(timeout=30)

        restarted = SchedulerService(cluster, ServiceConfig(journal_path=path))
        restarted.start()
        # The pre-crash client never saw its answer and retries the key:
        # original decision, not a duplicate-id rejection.
        retry = restarted.submit_workflow(chain("w"), idempotency_key="k")
        assert retry.accepted and retry.reason == "admitted"
        assert restarted.status().accepted_workflows == 1
        restarted.drain(timeout=120)

    @pytest.mark.parametrize("confirmed", [True, False])
    def test_key_of_a_handed_off_workflow_survives_restart(
        self, cluster, tmp_path, confirmed
    ):
        # The decision under key K was made here; the workflow then moved
        # to another shard.  A retry of K that straddles a crash still
        # gets the original decision — never a second admission.
        path = str(tmp_path / "j.jsonl")
        config = ServiceConfig(  # frozen clock: w must not start before it moves
            journal_path=path, realtime=True, slot_seconds=3600.0
        )
        service = SchedulerService(cluster, config).start()
        assert service.submit_workflow(chain("w"), idempotency_key="K").accepted
        service.migrate_out("w", dest="s1", epoch=1)
        if confirmed:
            service.confirm("w", epoch=1)
        live = service.submit_workflow(chain("w"), idempotency_key="K")
        assert live.accepted and not service.owns("w")
        service.kill(timeout=30)
        n_records = len(read_journal(path)[0])

        obs = Observability()
        restarted = SchedulerService(cluster, config, obs=obs).start()
        retry = restarted.submit_workflow(chain("w"), idempotency_key="K")
        assert retry.accepted and retry.reason == "admitted"
        assert not restarted.owns("w")
        held = {} if confirmed else {"w": {"dest": "s1", "epoch": 1}}
        assert restarted.orphans() == held
        assert restarted.status().accepted_workflows == 0
        hits = obs.registry.snapshot()["service.idempotent.hits"]
        assert hits["value"] == 1
        restarted.kill(timeout=30)
        assert len(read_journal(path)[0]) == n_records  # nothing re-admitted

    def test_journal_survives_graceful_drain_too(self, cluster, tmp_path):
        path = str(tmp_path / "j.jsonl")
        service = SchedulerService(cluster, ServiceConfig(journal_path=path))
        service.start()
        assert service.submit_workflow(chain("w")).accepted
        result = service.drain(timeout=120)
        assert result.finished
        records, skipped = read_journal(path)
        assert len(records) == 1 and skipped == 0

    def test_recovered_counter(self, cluster, tmp_path):
        path = str(tmp_path / "j.jsonl")
        service = SchedulerService(cluster, ServiceConfig(journal_path=path))
        service.start()
        service.submit_workflow(chain("w"))
        service.kill(timeout=30)
        obs = Observability()
        SchedulerService(cluster, ServiceConfig(journal_path=path), obs=obs)
        snap = obs.registry.snapshot()
        assert snap["service.journal.recovered"]["value"] == 1


class TestIdempotency:
    def test_repeated_key_returns_original_decision(self, cluster):
        service = SchedulerService(cluster).start()
        first = service.submit_workflow(chain("w"), idempotency_key="k")
        second = service.submit_workflow(chain("w"), idempotency_key="k")
        assert first.accepted and second.accepted
        assert service.status().accepted_workflows == 1
        service.drain(timeout=120)

    def test_rejections_are_not_pinned(self, cluster):
        # A shed ad-hoc may succeed on retry once the queue drains: the
        # key must not freeze the rejection.
        service = SchedulerService(
            cluster,
            ServiceConfig(adhoc_queue_limit=1, realtime=True, slot_seconds=300.0),
        ).start()
        assert service.submit_adhoc(adhoc_job("a0", arrival=0)).accepted
        shed = service.submit_adhoc(adhoc_job("a1", arrival=0), idempotency_key="k")
        assert not shed.accepted and shed.reason == "queue_full"
        assert "k" not in service.state.keys
        service.drain(timeout=120)

    def test_no_key_no_dedup(self, cluster):
        service = SchedulerService(cluster).start()
        assert service.submit_workflow(chain("w")).accepted
        duplicate = service.submit_workflow(chain("w"))
        assert not duplicate.accepted and duplicate.reason == "invalid"
        service.drain(timeout=120)


class TestBackpressure:
    def test_command_queue_saturation_raises_typed_error(self, cluster):
        # Not started: commands pile up, the limit bites synchronously.
        service = SchedulerService(
            cluster, ServiceConfig(command_queue_limit=2)
        )
        service.submit_workflow(chain("w0"), wait=False)
        service.submit_workflow(chain("w1"), wait=False)
        with pytest.raises(ServiceSaturatedError) as excinfo:
            service.submit_workflow(chain("w2"), wait=False)
        assert excinfo.value.retry_after_s >= 1.0
        service.start()
        service.drain(timeout=120)

    def test_service_returns_queue_full(self, cluster):
        # The shard shed convention the router spills on: a full queue is
        # a returned decision, not an exception (HttpServiceClient raises).
        service = SchedulerService(
            cluster,
            ServiceConfig(adhoc_queue_limit=1, realtime=True, slot_seconds=300.0),
        ).start()
        assert service.submit_adhoc(adhoc_job("a0", arrival=0)).accepted
        shed = service.submit_adhoc(adhoc_job("a1", arrival=0))
        assert not shed.accepted and shed.reason == "queue_full"
        assert shed.queue_depth == 1
        service.drain(timeout=120)


class TestAdmissionUnavailable:
    """The LP solver is down.  Only a committed set with no binding
    resource needs the LP; the flow route keeps admitting."""

    @staticmethod
    def fail_everything(problem):
        raise RuntimeError("injected outage")

    def test_solver_outage_answers_unavailable_not_silent_admit(self):
        cluster = ClusterCapacity.uniform(cpu=16, mem=32)
        workflow = straddling_workflow("w")
        service = SchedulerService(cluster, ServiceConfig(admission=True)).start()
        install_fault_injector(self.fail_everything)
        try:
            result = service.submit_workflow(workflow)
        finally:
            install_fault_injector(None)
        assert not result.accepted and result.reason == "unavailable"
        # The outage clears: the same workflow is admissible again.
        assert service.submit_workflow(workflow).accepted
        service.drain(timeout=120)

    def test_solver_outage_does_not_stop_the_flow_route(self, cluster):
        # Frozen clock: no plan is attempted while the solver is down.
        service = SchedulerService(
            cluster,
            ServiceConfig(admission=True, realtime=True, slot_seconds=3600.0),
        ).start()
        install_fault_injector(self.fail_everything)
        try:
            result = service.submit_workflow(chain("w"))
        finally:
            install_fault_injector(None)
        assert result.accepted
        service.drain(timeout=120)


@pytest.fixture
def served(cluster):
    service = SchedulerService(
        cluster,
        ServiceConfig(adhoc_queue_limit=1, realtime=True, slot_seconds=300.0),
    ).start()
    server = serve_http(service)
    client = HttpServiceClient(server.url, timeout=30)
    yield service, server, client
    server.shutdown()
    if service.alive():
        service.drain(timeout=120)


class TestHttpRobustness:
    def test_health_probes(self, served):
        _, _, client = served
        assert client.healthy()
        assert client.ready()

    def test_readyz_503_while_draining(self, cluster):
        service = SchedulerService(cluster).start()
        server = serve_http(service)
        try:
            client = HttpServiceClient(server.url, timeout=30)
            service.drain(timeout=120)
            assert client.healthy()  # process alive...
            assert not client.ready()  # ...but no longer admitting
        finally:
            server.shutdown()

    def test_http_client_raises_queue_full_with_retry_after(self, served):
        _, server, client = served
        assert client.submit_adhoc(adhoc_job("a0", arrival=0)).accepted
        with pytest.raises(QueueFullError):
            client.submit_adhoc(adhoc_job("a1", arrival=0))
        # Raw 429 carries Retry-After for generic clients.
        from repro.workloads.traces import job_to_dict

        request = urllib.request.Request(
            server.url + "/jobs",
            data=json.dumps(job_to_dict(adhoc_job("a2", arrival=0))).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 429
        assert excinfo.value.headers.get("Retry-After") is not None

    def test_idempotency_key_over_http(self, served):
        service, _, client = served
        first = client.submit_workflow(chain("w"), idempotency_key="k")
        second = client.submit_workflow(chain("w"), idempotency_key="k")
        assert first.accepted and second.accepted
        assert service.status().accepted_workflows == 1

    def test_retries_exhausted_raise_unavailable(self):
        # Nothing listens on a reserved port: every attempt is a
        # connection error; the client gives up after max_retries.
        client = HttpServiceClient(
            "http://127.0.0.1:9", timeout=1, max_retries=1, backoff_s=0.01
        )
        with pytest.raises(ServiceUnavailableError):
            client.status()

    def test_retry_after_floors_the_backoff(self):
        client = HttpServiceClient("http://example.invalid", backoff_s=0.01)
        assert client._backoff(0, retry_after=2.5) >= 2.5
        assert client._backoff(0, retry_after=None) <= 0.01


class TestFaultModelsInService:
    def test_setbacks_during_serving_still_drain_cleanly(self, cluster):
        sink = MemorySink()
        obs = Observability(sink=sink)
        service = SchedulerService(
            cluster,
            ServiceConfig(
                admission=False,
                failures=FailureModel(setback_prob=0.3, max_setback_units=3, seed=5),
            ),
            obs=obs,
        ).start()
        workflows = [chain(f"w{i}", deadline=200) for i in range(2)]
        for workflow in workflows:
            assert service.submit_workflow(workflow).accepted
        result = service.drain(timeout=120)
        assert result.finished
        for workflow in workflows:
            assert result.workflows[workflow.workflow_id].completion_slot is not None
        # Setbacks actually happened and triggered re-planning events.
        assert sink.of_type("job_setback")
        assert service.scheduler.replans > 1

    def test_error_model_perturbs_true_structure_deterministically(
        self, cluster, tmp_path
    ):
        config = ServiceConfig(
            admission=False,
            error_model=ErrorModel(low=2.0, high=2.0),
            fault_seed=11,
            journal_path=str(tmp_path / "j.jsonl"),
        )
        service = SchedulerService(cluster, config).start()
        assert service.submit_workflow(chain("w")).accepted
        service.kill(timeout=30)

        restarted = SchedulerService(cluster, config)
        restarted.start()
        result = restarted.drain(timeout=120)
        assert result.finished
        # factor 2.0 doubles true durations: true != believed, and the
        # journal replay re-derived the same perturbation from the seed.
        record = result.jobs["w-j0"]
        assert record.true_units == 2 * record.est_units


class TestChaosEndToEnd:
    def test_chaos_with_kill_restart_zero_loss_and_parity(self, cluster, tmp_path):
        """The CI chaos gate in miniature: 10% solver faults + SIGKILL +
        restart must lose nothing and stay deadline-comparable."""
        workflows = [chain(f"w{i}", deadline=200) for i in range(3)]
        adhoc = [adhoc_job(f"a{i}", arrival=0) for i in range(3)]

        def run(chaos_config=None, kill=False, journal=None):
            obs = Observability()
            config = ServiceConfig(admission=False, journal_path=journal)
            if chaos_config is None:
                service = SchedulerService(cluster, config, obs=obs).start()
                for workflow in workflows:
                    assert service.submit_workflow(workflow).accepted
                for job in adhoc:
                    assert service.submit_adhoc(job).accepted
                return service.drain(timeout=120), obs
            with chaos_solver(chaos_config) as chaos:
                service = SchedulerService(cluster, config, obs=obs).start()
                for workflow in workflows:
                    assert service.submit_workflow(workflow).accepted
                for job in adhoc:
                    assert service.submit_adhoc(job).accepted
                if kill:
                    service.kill(timeout=30)
                    obs = Observability()
                    service = SchedulerService(
                        cluster, config, obs=obs
                    ).start()
                result = service.drain(timeout=120)
            assert chaos.n_faults > 0
            return result, obs

        baseline, _ = run()
        chaotic, obs = run(
            ChaosConfig(solver_fault_prob=0.10, seed=3),
            kill=True,
            journal=str(tmp_path / "j.jsonl"),
        )

        assert chaotic.finished
        # Zero loss: every accepted submission completed despite the kill.
        for workflow in workflows:
            assert chaotic.workflows[workflow.workflow_id].completion_slot is not None
        for job in adhoc:
            assert chaotic.jobs[job.job_id].completion_slot is not None
        # Deadline-hit parity within bound (ISSUE: 5pp on 3 workflows -> no
        # more than one extra miss is already stricter than the bound).
        def met(result):
            return sum(r.met_deadline for r in result.workflows.values())

        assert met(baseline) - met(chaotic) <= 1


class TestServiceRunsVerified:
    """Differential verification of the service paths: journal-replayed
    and chaos-degraded runs are validator-clean, and a replayed run's
    outcome metrics equal the plain batch run (docs/VERIFICATION.md)."""

    @staticmethod
    def _validate(cluster, workflows, adhoc, result, windows=None):
        from repro.simulator.metrics import summarize
        from repro.verify import ScheduleValidator

        jobs = [job for wf in workflows for job in wf.jobs] + list(adhoc)
        validator = ScheduleValidator(
            cluster, workflows=workflows, jobs=jobs, windows=windows
        )
        report = validator.validate(result)
        if windows is not None:
            validator.check_reported(
                result, summarize(result, windows), report
            )
        assert report.ok, report.render()

    def test_journal_replay_is_clean_and_equals_batch(self, cluster, tmp_path):
        from repro.core.decomposition import decompose_deadline
        from repro.schedulers.registry import make_scheduler
        from repro.simulator.engine import Simulation, SimulationConfig
        from repro.simulator.metrics import summarize

        workflows = [chain(f"w{i}") for i in range(2)]
        adhoc = [adhoc_job(f"a{i}", arrival=0) for i in range(2)]
        windows = {}
        for workflow in workflows:
            windows.update(decompose_deadline(workflow, cluster).windows)

        config = ServiceConfig(
            admission=False,
            record_execution=True,
            journal_path=str(tmp_path / "journal.jsonl"),
        )
        service = SchedulerService(cluster, config).start()
        for workflow in workflows:
            assert service.submit_workflow(workflow).accepted
        for job in adhoc:
            assert service.submit_adhoc(job).accepted
        service.kill(timeout=30)
        replayed = SchedulerService(cluster, config).start().drain(timeout=120)
        self._validate(cluster, workflows, adhoc, replayed, windows)

        batch = Simulation(
            cluster,
            make_scheduler("FlowTime"),
            workflows=workflows,
            adhoc_jobs=adhoc,
            config=SimulationConfig(record_execution=True),
        ).run()
        self._validate(cluster, workflows, adhoc, batch, windows)

        def comparable(result):
            return {
                k: v
                for k, v in summarize(result, windows).items()
                if not k.startswith("decide_ms")
            }

        assert comparable(replayed) == comparable(batch)

    def test_chaos_degraded_run_is_validator_clean(self, cluster):
        workflows = [chain(f"w{i}") for i in range(2)]
        adhoc = [adhoc_job(f"a{i}", arrival=0) for i in range(2)]
        with chaos_solver(
            ChaosConfig(solver_fault_prob=0.30, seed=3)
        ) as chaos:
            service = SchedulerService(
                cluster, ServiceConfig(admission=False, record_execution=True)
            ).start()
            for workflow in workflows:
                assert service.submit_workflow(workflow).accepted
            for job in adhoc:
                assert service.submit_adhoc(job).accepted
            result = service.drain(timeout=120)
        assert chaos.n_faults > 0
        self._validate(cluster, workflows, adhoc, result)
