"""Trace schema contract: every emitted event type is declared, and every
emitted event carries its declared required fields.

Two directions of drift are caught:

* **Source scan** — every ``obs.event("literal", ...)`` call site in the
  source tree, and every :class:`repro.model.events.EventKind` value (they
  are emitted via ``event.kind.value``), must name a type declared in
  :data:`repro.obs.EVENT_SCHEMA`.  Adding an emission without declaring
  its schema fails here.
* **Live runs** — a traced simulation and a traced service run must emit
  only declared types, each carrying that type's required fields.
  Declaring a schema the emitters don't honour fails here.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.model.events import EventKind
from repro.obs import EVENT_SCHEMA, EVENT_TYPES, MemorySink, Observability

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: String-literal first argument of an ``.event(...)`` call.
_EVENT_CALL = re.compile(r"\.event\(\s*[\"']([a-z_]+)[\"']")


def _emission_sites() -> list[tuple[str, str]]:
    sites = []
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        for match in _EVENT_CALL.finditer(text):
            sites.append((str(path.relative_to(SRC)), match.group(1)))
    return sites


class TestSchemaDeclaration:
    def test_every_literal_emission_site_is_declared(self):
        sites = _emission_sites()
        assert sites, "source scan found no emission sites — regex rotted?"
        undeclared = [
            (path, kind) for path, kind in sites if kind not in EVENT_SCHEMA
        ]
        assert not undeclared, (
            f"emission sites using undeclared event types: {undeclared}; "
            f"declare them in repro.obs.trace.EVENT_SCHEMA"
        )

    def test_every_engine_event_kind_is_declared(self):
        # Engine events are emitted as ``event.kind.value`` — dynamic, so
        # the literal scan can't see them.
        missing = [k.value for k in EventKind if k.value not in EVENT_SCHEMA]
        assert not missing, f"EventKind values missing from EVENT_SCHEMA: {missing}"

    def test_event_types_mirrors_schema(self):
        assert EVENT_TYPES == tuple(EVENT_SCHEMA)

    def test_required_fields_are_tuples_of_names(self):
        for kind, fields in EVENT_SCHEMA.items():
            assert isinstance(fields, tuple), kind
            assert all(isinstance(f, str) and f for f in fields), kind


def _check_events(events: list[dict]) -> None:
    assert events, "run emitted no events"
    for event in events:
        kind = event.get("type")
        assert kind in EVENT_SCHEMA, f"undeclared event type {kind!r}: {event}"
        missing = [f for f in EVENT_SCHEMA[kind] if f not in event]
        assert not missing, (
            f"{kind} event missing required fields {missing}: {event}"
        )
        # The envelope every sink stamps.
        assert "ts" in event and "seq" in event


class TestLiveRuns:
    def test_simulation_trace_honours_schema(self, small_cluster):
        from repro.model.job import Job, JobKind, TaskSpec
        from repro.model.resources import CPU, MEM, ResourceVector
        from repro.model.workflow import Workflow
        from repro.schedulers.registry import make_scheduler
        from repro.simulator.engine import Simulation

        spec = TaskSpec(
            count=2, duration_slots=2, demand=ResourceVector({CPU: 2, MEM: 2})
        )
        jobs = [Job(job_id=f"w-j{i}", tasks=spec, workflow_id="w") for i in range(2)]
        workflow = Workflow.from_jobs("w", jobs, [("w-j0", "w-j1")], 0, 40)
        adhoc = Job(
            job_id="a0", tasks=spec, kind=JobKind.ADHOC, arrival_slot=1
        )
        sink = MemorySink()
        obs = Observability(sink=sink, level=10, trace_spans=True)
        Simulation(
            small_cluster, make_scheduler("FlowTime"),
            workflows=[workflow], adhoc_jobs=[adhoc], obs=obs,
        ).run()
        _check_events(sink.events)
        kinds = {event["type"] for event in sink.events}
        assert {"run_start", "task_placement", "workflow_completed",
                "run_end"} <= kinds
        assert "span" in kinds  # trace_spans=True routes spans to the sink

    def test_service_trace_honours_schema(self, tiny_cluster):
        from repro.model.job import Job, TaskSpec
        from repro.model.resources import CPU, MEM, ResourceVector
        from repro.model.workflow import Workflow
        from repro.service import SchedulerService, ServiceConfig

        sink = MemorySink()
        obs = Observability(sink=sink, level=10)
        service = SchedulerService(
            tiny_cluster, ServiceConfig(slot_seconds=0.02), obs=obs
        )
        service.start()
        try:
            spec = TaskSpec(
                count=1, duration_slots=1,
                demand=ResourceVector({CPU: 1, MEM: 1}),
            )
            jobs = [Job(job_id="w-j0", tasks=spec, workflow_id="w")]
            result = service.submit_workflow(
                Workflow.from_jobs("w", jobs, [], 0, 100)
            )
            assert result.accepted
        finally:
            service.drain()
        _check_events(sink.events)
        kinds = {event["type"] for event in sink.events}
        assert {"service_start", "admission_accept",
                "service_drain_start"} <= kinds
        accept, = sink.of_type("admission_accept")
        assert accept["route"] in ("flow", "lp")
