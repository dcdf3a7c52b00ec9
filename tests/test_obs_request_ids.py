"""Request correlation end to end: X-Request-Id → trace → timeline query.

The acceptance path for the telemetry subsystem: an HTTP client submits a
workflow with an ``X-Request-Id``; the id is echoed in header and body,
stamped onto trace events from admission through execution, and ``repro
trace query RUN.jsonl --request <id>`` reconstructs the submission's full
timeline — admission verdict, placements, completion, deadline outcome.
"""

from __future__ import annotations

import json
import time
import urllib.request

import pytest

from repro.model.cluster import ClusterCapacity
from repro.model.job import Job, JobKind, TaskSpec
from repro.model.resources import CPU, MEM, ResourceVector
from repro.model.workflow import Workflow
from repro.obs import (
    JsonlSink,
    Observability,
    format_timeline,
    read_trace,
    request_timeline,
)
from repro.service import (
    HttpServiceClient,
    SchedulerService,
    ServiceConfig,
    serve_http,
)


def small_workflow(wid: str, deadline: int = 100) -> Workflow:
    spec = TaskSpec(
        count=1, duration_slots=2, demand=ResourceVector({CPU: 1, MEM: 1})
    )
    jobs = [Job(job_id=f"{wid}-j{i}", tasks=spec, workflow_id=wid) for i in range(2)]
    return Workflow.from_jobs(
        wid, jobs, [(f"{wid}-j0", f"{wid}-j1")], 0, deadline
    )


def wait_until(predicate, timeout_s: float = 30.0) -> None:
    deadline = time.time() + timeout_s
    while time.time() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    raise AssertionError("condition not met in time")


@pytest.fixture
def traced_served(tmp_path):
    trace_path = tmp_path / "run.jsonl"
    sink = JsonlSink(trace_path)
    obs = Observability(sink=sink, level=10)
    cluster = ClusterCapacity.uniform(cpu=8, mem=16)
    service = SchedulerService(
        cluster, ServiceConfig(slot_seconds=0.02), obs=obs
    ).start()
    server = serve_http(service)
    client = HttpServiceClient(server.url, timeout=30)
    yield service, server, client, trace_path
    server.shutdown()
    if service.alive():
        service.drain(timeout=60)
    sink.close()


class TestHttpRequestIds:
    def test_full_timeline_reconstruction_over_http(self, traced_served):
        """The PR's acceptance test: header in, full timeline out."""
        service, _, client, trace_path = traced_served
        result = client.submit_workflow(
            small_workflow("w1"), request_id="acceptance-req-1"
        )
        assert result.accepted
        assert result.request_id == "acceptance-req-1"
        wait_until(lambda: service.status().remaining_jobs == 0)
        service.drain(timeout=60)

        events = read_trace(trace_path)
        timeline = request_timeline(events, "acceptance-req-1")
        assert timeline.found
        assert timeline.workflow_ids == ["w1"]
        assert timeline.job_ids == ["w1-j0", "w1-j1"]
        assert timeline.admission == "accept"
        assert timeline.placement_slots, "no placements correlated"
        # 2 jobs x 1 task x 2 duration slots = 4 task-slot units.
        assert timeline.units_placed == 4.0
        assert timeline.completed_slot is not None
        assert timeline.deadline_missed is False
        kinds = [event["type"] for event in timeline.events]
        assert "admission_accept" in kinds
        assert "workflow_arrived" in kinds
        assert "task_placement" in kinds
        assert "workflow_completed" in kinds
        # The stamped subset carries the id verbatim.
        stamped = [e for e in timeline.events
                   if e.get("request_id") == "acceptance-req-1"]
        assert stamped

    def test_header_echoed_and_minted(self, traced_served):
        _, server, _, _ = traced_served
        body = json.dumps(
            {"workflow": "nonsense"}
        ).encode()
        request = urllib.request.Request(
            server.url + "/workflows", data=body,
            headers={"Content-Type": "application/json",
                     "X-Request-Id": "client-id-7"},
            method="POST",
        )
        try:
            urllib.request.urlopen(request, timeout=30)
        except urllib.error.HTTPError as error:
            assert error.code == 400
            assert error.headers.get("X-Request-Id") == "client-id-7"
        else:
            pytest.fail("malformed submission should 400")

        # No header → the server mints one.
        request = urllib.request.Request(
            server.url + "/workflows", data=body,
            headers={"Content-Type": "application/json"}, method="POST",
        )
        try:
            urllib.request.urlopen(request, timeout=30)
        except urllib.error.HTTPError as error:
            minted = error.headers.get("X-Request-Id")
            assert minted and len(minted) == 32

    def test_invalid_header_replaced_not_trusted(self, traced_served):
        _, server, _, _ = traced_served
        request = urllib.request.Request(
            server.url + "/workflows", data=b"{}",
            headers={"Content-Type": "application/json",
                     "X-Request-Id": "bad id with spaces!"},
            method="POST",
        )
        try:
            urllib.request.urlopen(request, timeout=30)
        except urllib.error.HTTPError as error:
            echoed = error.headers.get("X-Request-Id")
            assert echoed != "bad id with spaces!"
            assert echoed

    def test_idempotent_replay_returns_original_request_id(self, traced_served):
        _, _, client, _ = traced_served
        first = client.submit_workflow(
            small_workflow("w2"), idempotency_key="key-1",
            request_id="original-req",
        )
        assert first.accepted
        replay = client.submit_workflow(
            small_workflow("w2"), idempotency_key="key-1",
            request_id="retry-req",
        )
        # The replay answers with the id the submission was processed
        # under — that's the id the trace events carry.
        assert replay.request_id == "original-req"

    def test_adhoc_timeline(self, traced_served):
        service, _, client, trace_path = traced_served
        spec = TaskSpec(
            count=1, duration_slots=1, demand=ResourceVector({CPU: 1, MEM: 1})
        )
        job = Job(job_id="a1", tasks=spec, kind=JobKind.ADHOC, arrival_slot=0)
        result = client.submit_adhoc(job, request_id="adhoc-req")
        assert result.accepted and result.request_id == "adhoc-req"
        wait_until(lambda: service.status().remaining_jobs == 0)
        service.drain(timeout=60)
        timeline = request_timeline(read_trace(trace_path), "adhoc-req")
        assert timeline.found
        assert timeline.job_ids == ["a1"]
        assert timeline.completed_slot is not None


class TestInProcessRequestIds:
    def test_submit_result_carries_minted_id(self):
        cluster = ClusterCapacity.uniform(cpu=8, mem=16)
        service = SchedulerService(
            cluster, ServiceConfig(slot_seconds=0.02)
        ).start()
        try:
            result = service.submit_workflow(small_workflow("w"))
            assert result.accepted
            assert result.request_id and len(result.request_id) == 32
        finally:
            service.drain(timeout=60)


class TestCliTraceQuery:
    def _make_trace(self, tmp_path):
        trace_path = tmp_path / "run.jsonl"
        sink = JsonlSink(trace_path)
        obs = Observability(sink=sink, level=10)
        cluster = ClusterCapacity.uniform(cpu=8, mem=16)
        service = SchedulerService(
            cluster, ServiceConfig(slot_seconds=0.02), obs=obs
        ).start()
        service.submit_workflow(small_workflow("w"), request_id="cli-req")
        wait_until(lambda: service.status().remaining_jobs == 0)
        service.drain(timeout=60)
        sink.close()
        return trace_path

    def test_query_text_and_json(self, tmp_path, capsys):
        from repro.cli import main

        trace_path = self._make_trace(tmp_path)
        assert main(["trace", "query", str(trace_path),
                     "--request", "cli-req"]) == 0
        out = capsys.readouterr().out
        assert "request cli-req" in out
        assert "admission: accept" in out
        assert "workflow_completed" in out

        assert main(["trace", "query", str(trace_path),
                     "--request", "cli-req", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["request_id"] == "cli-req"
        assert payload["admission"] == "accept"
        assert payload["n_events"] > 0

    def test_query_unknown_id_exits_nonzero(self, tmp_path, capsys):
        from repro.cli import main

        trace_path = self._make_trace(tmp_path)
        assert main(["trace", "query", str(trace_path),
                     "--request", "no-such"]) == 1
        assert "no events found" in capsys.readouterr().out

    def test_format_timeline_handles_missing(self):
        timeline = request_timeline([], "ghost")
        text = format_timeline(timeline)
        assert "no events found" in text


class TestJsonlRotation:
    def test_rotation_caps_disk_and_keeps_seq(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path, max_bytes=2048, backups=2)
        for i in range(200):
            sink.emit({"type": "job_arrived", "slot": i, "job_id": f"j{i}"})
        sink.close()
        assert sink.rotations > 0
        generations = [path, path.with_name("trace.jsonl.1"),
                       path.with_name("trace.jsonl.2")]
        assert all(p.exists() for p in generations)
        assert not path.with_name("trace.jsonl.3").exists()  # oldest dropped
        for p in generations:
            assert p.stat().st_size <= 2048 + 256
        # Sequence numbers keep counting across rotations: stitching the
        # surviving generations back together yields a strictly ordered,
        # gap-detectable stream.
        seqs = sorted(
            event["seq"] for p in generations for event in read_trace(p)
        )
        assert seqs == list(range(seqs[0], seqs[0] + len(seqs)))
        assert seqs[-1] == 199

    def test_no_cap_never_rotates(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = JsonlSink(path)
        for i in range(100):
            sink.emit({"type": "job_arrived", "slot": i, "job_id": f"j{i}"})
        sink.close()
        assert sink.rotations == 0
        assert len(read_trace(path)) == 100

    def test_bad_args_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="max_bytes"):
            JsonlSink(tmp_path / "x.jsonl", max_bytes=0)
        with pytest.raises(ValueError, match="backups"):
            JsonlSink(tmp_path / "x.jsonl", backups=-1)
