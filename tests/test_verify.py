"""Tests for the independent verification subsystem (:mod:`repro.verify`).

The core property: a known-good schedule passes every check, and *any*
mutation of it — a capacity overflow, a precedence swap, a shifted
execution slot — is always flagged, and so is every engine fault planted
under ``verify=True``.  Plus the metric-recomputation regression over the
example workload shapes and the trace-level checker.
"""

from __future__ import annotations

import copy
import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import canonical_windows, run_one
from repro.model.cluster import ClusterCapacity
from repro.model.job import Job, JobKind, TaskSpec
from repro.model.resources import CPU, MEM, ResourceVector
from repro.model.workflow import Workflow
from repro.obs import Observability
from repro.obs.trace import MemorySink
from repro.service import ServiceConfig, ServiceState
from repro.simulator.engine import Simulation, SimulationConfig
from repro.simulator.failures import FailureModel
from repro.simulator.metrics import summarize
from repro.verify import (
    ScheduleValidator,
    TraceIndex,
    VerificationError,
    recompute_trace_metrics,
    validate_trace,
)
from repro.verify.validator import METRIC_KEYS
from repro.workloads.traces import SyntheticTrace, generate_trace
from tests.conftest import adhoc_job, deadline_job


def diamond(workflow_id: str = "wf", deadline: int = 40) -> Workflow:
    jobs = [
        deadline_job(f"{workflow_id}-{name}", workflow_id)
        for name in ("extract", "clean", "enrich", "report")
    ]
    edges = [
        (f"{workflow_id}-extract", f"{workflow_id}-clean"),
        (f"{workflow_id}-extract", f"{workflow_id}-enrich"),
        (f"{workflow_id}-clean", f"{workflow_id}-report"),
        (f"{workflow_id}-enrich", f"{workflow_id}-report"),
    ]
    return Workflow.from_jobs(workflow_id, jobs, edges, 0, deadline)


EDGES = [
    ("wf-extract", "wf-clean"),
    ("wf-extract", "wf-enrich"),
    ("wf-clean", "wf-report"),
    ("wf-enrich", "wf-report"),
]


@pytest.fixture(scope="module")
def good_recorded():
    """One known-good run with its result and its event trace."""
    capacity = ClusterCapacity.uniform(cpu=16, mem=32)
    workflow = diamond()
    adhoc = [adhoc_job("a0", arrival=0), adhoc_job("a1", arrival=3)]
    trace = SyntheticTrace(workflows=(workflow,), adhoc_jobs=tuple(adhoc))
    sink = MemorySink()
    outcome = run_one(
        "FlowTime",
        trace,
        capacity,
        config=SimulationConfig(record_execution=True),
        obs=Observability(sink=sink),
    )
    windows = canonical_windows(trace, capacity)
    jobs = list(workflow.jobs) + adhoc
    validator = ScheduleValidator(
        capacity, workflows=(workflow,), jobs=jobs, windows=windows
    )
    return validator, outcome.result, windows, trace, sink.events


@pytest.fixture(scope="module")
def good_run(good_recorded):
    """One known-good verified run, shared (copied) by the mutation tests."""
    validator, result, windows, _, _ = good_recorded
    return validator, result, windows


@pytest.fixture(scope="module")
def good_trace(good_recorded):
    """The same run's events and a function that validates a copy of them."""
    validator, _, windows, trace, events = good_recorded

    def check(mutated):
        return validate_trace(
            mutated, trace=trace, capacity=validator.cluster, windows=windows
        )

    return events, check


def _events_of(events, kind):
    return [event for event in events if event["type"] == kind]


FRONTS = ("result", "trace")


class TestKnownGoodNeverFlagged:
    def test_unmutated_run_is_clean(self, good_run):
        validator, result, windows = good_run
        report = validator.validate(result)
        assert report.ok, report.render()
        assert report.checks > 100

    def test_reported_metrics_match_recomputation(self, good_run):
        validator, result, windows = good_run
        report = validator.check_reported(result, summarize(result, windows))
        assert report.ok, report.render()


class TestMutationsAlwaysFlagged:
    """Hypothesis: every mutation of a good schedule trips the validator,
    on both fronts: the result and the run's event trace."""

    @pytest.mark.parametrize("front", FRONTS)
    @settings(deadline=None, max_examples=40)
    @given(data=st.data())
    def test_capacity_bump_is_flagged(self, good_run, good_trace, front, data):
        validator, result, _ = good_run
        if front == "trace":
            events, check = good_trace
            mutated = [dict(event) for event in events]
            placements = _events_of(mutated, "task_placement")
            bumped = data.draw(st.sampled_from(placements), label="placement")
            slot = bumped["slot"]
            demand = validator.jobs[bumped["job_id"]].execution_tasks.demand
            name = data.draw(st.sampled_from(sorted(demand.keys())), label="r")
            excess = data.draw(st.integers(1, 10), label="excess")
            placed = sum(
                validator.jobs[e["job_id"]].execution_tasks.demand.get(name, 0)
                * e["units"]
                for e in placements
                if e["slot"] == slot
            )
            room = validator.cluster.at(slot)[name] - placed
            bumped["units"] += room // demand[name] + excess
            report = check(mutated)
            assert any(v.check == "capacity.placed" for v in report.violations)
            return
        mutated = copy.deepcopy(result)
        slot = data.draw(st.integers(0, mutated.n_slots - 1), label="slot")
        r = data.draw(st.integers(0, len(mutated.resources) - 1), label="r")
        excess = data.draw(st.integers(1, 10), label="excess")
        cap = validator.cluster.at(slot)[mutated.resources[r]]
        mutated.usage[slot, r] = cap + excess
        report = validator.validate(mutated)
        assert not report.ok
        assert any(v.check == "capacity.used" for v in report.violations)

    @pytest.mark.parametrize("front", FRONTS)
    @settings(deadline=None, max_examples=20)
    @given(edge=st.sampled_from(EDGES))
    def test_swapped_precedence_is_flagged(self, good_run, good_trace, front, edge):
        validator, result, _ = good_run
        parent_id, child_id = edge
        if front == "trace":
            events, check = good_trace
            mutated = [dict(event) for event in events]
            done = {e["job_id"]: e for e in _events_of(mutated, "job_completed")}
            parent, child = done[parent_id], done[child_id]
            parent["slot"], child["slot"] = child["slot"], parent["slot"]
            report = check(mutated)
            assert any(
                v.check.startswith("precedence.") for v in report.violations
            )
            return
        mutated = copy.deepcopy(result)
        jobs = dict(mutated.jobs)
        parent, child = jobs[parent_id], jobs[child_id]
        jobs[parent_id] = dataclasses.replace(
            parent, completion_slot=child.completion_slot
        )
        jobs[child_id] = dataclasses.replace(
            child, completion_slot=parent.completion_slot
        )
        mutated.jobs = jobs
        report = validator.validate(mutated)
        assert not report.ok
        assert any(
            v.check.startswith("precedence.") for v in report.violations
        )

    @pytest.mark.parametrize("front", FRONTS)
    @settings(deadline=None, max_examples=40)
    @given(data=st.data())
    def test_shifted_execution_slot_is_flagged(
        self, good_run, good_trace, front, data
    ):
        validator, result, _ = good_run
        if front == "trace":
            events, check = good_trace
            mutated = [dict(event) for event in events]
            (run_end,) = _events_of(mutated, "run_end")
            shifted = data.draw(
                st.sampled_from(_events_of(mutated, "task_placement")),
                label="placement",
            )
            direction = data.draw(st.sampled_from([-1, 1]), label="direction")
            target = shifted["slot"] + direction
            if not 0 <= target < run_end["n_slots"]:
                target = shifted["slot"] - direction
            shifted["slot"] = target
            assert not check(mutated).ok
            return
        mutated = copy.deepcopy(result)
        executed_slots = [
            (slot, job_id)
            for slot, row in enumerate(mutated.execution)
            for job_id in row
        ]
        slot, job_id = data.draw(
            st.sampled_from(executed_slots), label="placement"
        )
        direction = data.draw(st.sampled_from([-1, 1]), label="direction")
        target = slot + direction
        if not 0 <= target < len(mutated.execution):
            target = slot - direction
        rows = [dict(row) for row in mutated.execution]
        units = rows[slot].pop(job_id)
        rows[target][job_id] = rows[target].get(job_id, 0) + units
        mutated.execution = tuple(rows)
        report = validator.validate(mutated)
        assert not report.ok


class TestInjectedCapacityOverflow:
    def test_verify_run_raises_on_injected_overflow(self, good_run):
        """The acceptance-criterion mutation: a deliberate capacity
        overflow in the usage matrix must raise through the report."""
        validator, result, _ = good_run
        mutated = copy.deepcopy(result)
        mutated.usage[2] = mutated.usage[2] + 10_000
        report = validator.validate(mutated)
        with pytest.raises(VerificationError) as excinfo:
            report.raise_if_violations()
        assert any(
            v.check == "capacity.used" for v in excinfo.value.report.violations
        )


class TestVerifyEndToEnd:
    def test_simulation_verify_flag_is_clean(self, small_cluster):
        workflow = diamond(deadline=60)
        from repro.schedulers.registry import make_scheduler

        sim = Simulation(
            small_cluster,
            make_scheduler("FlowTime"),
            workflows=[workflow],
            adhoc_jobs=[adhoc_job("a", arrival=0)],
            config=SimulationConfig(verify=True),
        )
        result = sim.run()
        assert result.verification is not None
        assert result.verification.ok
        assert result.verification.checks > 0
        assert result.counter_value("verify.checks") > 0
        assert result.counter_value("verify.violations") == 0

    def test_runtime_verifier_counts_every_slot(self, small_cluster):
        """``verify=True`` records one execution row per slot, the evidence
        the end-of-run validator reads; there is no per-slot layer."""
        workflow = diamond(deadline=60)
        from repro.schedulers.registry import make_scheduler

        sim = Simulation(
            small_cluster,
            make_scheduler("FlowTime"),
            workflows=[workflow],
            config=SimulationConfig(verify=True),
        )
        result = sim.run()
        # The caller did not ask for execution recording.
        assert len(result.execution) == result.n_slots


def _ran_before_ready(core, slot, executed, completions):
    for job_id, run in core._runs.items():
        if not run.done and not run.ready_at(slot) and job_id not in executed:
            executed[job_id] = 1
            return True
    return False


def _over_capacity(core, slot, executed, completions):
    if not executed:
        return False
    job_id = next(iter(executed))
    per_unit = core._runs[job_id].job.execution_tasks.demand[CPU]
    executed[job_id] += int(core.cluster.at(slot)[CPU] // per_unit) + 1
    return True


def _over_parallelism(core, slot, executed, completions):
    if not executed:
        return False
    job_id = next(iter(executed))
    executed[job_id] = core._runs[job_id].job.execution_tasks.count + 1
    return True


def _ran_after_completing(core, slot, executed, completions):
    for job_id, run in core._runs.items():
        if run.done and run.completion_slot < slot and job_id not in executed:
            executed[job_id] = 1
            return True
    return False


def _unknown_job(core, slot, executed, completions):
    executed["ghost"] = 1
    return True


def _completed_short(core, slot, executed, completions):
    for job_id in executed:
        run = core._runs[job_id]
        if run.true_remaining_units > 0:
            run.completion_slot = slot
            completions.append(job_id)
            return True
    return False


class TestPlantedEngineFaults:
    """A fault planted in the engine's execution of a slot fails the
    ``verify=True`` run through the end-of-run validator alone."""

    @pytest.mark.parametrize(
        "plant,check",
        [
            pytest.param(_ran_before_ready, "placement.lifetime", id="before_ready"),
            pytest.param(_over_capacity, "capacity.placed", id="over_capacity"),
            pytest.param(
                _over_parallelism, "conservation.parallelism", id="over_parallelism"
            ),
            pytest.param(
                _ran_after_completing, "placement.completion", id="after_completing"
            ),
            pytest.param(_unknown_job, "capacity.known", id="unknown_job"),
            pytest.param(_completed_short, "conservation.total", id="completed_short"),
        ],
    )
    def test_fault_is_named_by_the_validator(self, monkeypatch, plant, check):
        from repro.schedulers.registry import make_scheduler
        from repro.simulator.runtime import EngineCore

        execute = EngineCore._execute
        planted = []

        def faulty(core, slot, assignment, view):
            used, granted, completions, executed = execute(
                core, slot, assignment, view
            )
            if not planted and plant(core, slot, executed, completions):
                planted.append(slot)
            return used, granted, completions, executed

        monkeypatch.setattr(EngineCore, "_execute", faulty)
        capacity = ClusterCapacity.uniform(cpu=32, mem=64)
        trace = generate_trace(
            n_workflows=2, jobs_per_workflow=6, n_adhoc=6, capacity=capacity, seed=4
        )
        sim = Simulation(
            capacity,
            make_scheduler("FIFO"),
            workflows=trace.workflows,
            adhoc_jobs=trace.adhoc_jobs,
            config=SimulationConfig(verify=True),
        )
        with pytest.raises(VerificationError) as excinfo:
            sim.run()
        assert planted
        assert check in {v.check for v in excinfo.value.report.violations}


def _example_workloads():
    """The example workload shapes (examples/*.py), scaled for CI."""
    quickstart_cap = ClusterCapacity.uniform(cpu=40, mem=80)
    spec = TaskSpec(
        count=6, duration_slots=3, demand=ResourceVector({CPU: 2, MEM: 4})
    )
    jobs = [
        Job(job_id=f"etl-{n}", tasks=spec, workflow_id="etl", name=n)
        for n in ("extract", "clean", "enrich", "report")
    ]
    etl = Workflow.from_jobs(
        "etl",
        jobs,
        [
            ("etl-extract", "etl-clean"),
            ("etl-extract", "etl-enrich"),
            ("etl-clean", "etl-report"),
            ("etl-enrich", "etl-report"),
        ],
        0,
        60,
        name="etl",
    )
    quickstart = SyntheticTrace(
        workflows=(etl,),
        adhoc_jobs=tuple(
            Job(
                job_id=f"query-{i}",
                tasks=TaskSpec(
                    count=4,
                    duration_slots=2,
                    demand=ResourceVector({CPU: 2, MEM: 2}),
                ),
                kind=JobKind.ADHOC,
                arrival_slot=2 * i,
            )
            for i in range(2)
        ),
    )
    mixed_cap = ClusterCapacity.uniform(cpu=64, mem=128)
    mixed = generate_trace(
        n_workflows=4,
        jobs_per_workflow=12,
        n_adhoc=30,
        capacity=mixed_cap,
        looseness=(4.0, 8.0),
        adhoc_rate_per_slot=0.7,
        workflow_spread_slots=50,
        seed=15,
    )
    online = generate_trace(
        n_workflows=6,
        jobs_per_workflow=10,
        n_adhoc=0,
        capacity=mixed_cap,
        workflow_spread_slots=1,
        seed=7,
    )
    scientific = generate_trace(
        n_workflows=3,
        jobs_per_workflow=10,
        n_adhoc=10,
        capacity=mixed_cap,
        scientific=True,
        seed=15,
    )
    # Cut off at slot 12, before one workflow (start 20) and one ad-hoc
    # job (slot 25) arrive: the fronts and summarize must still agree.
    late = diamond("late", deadline=60)
    truncated = SyntheticTrace(
        workflows=(
            diamond(),
            Workflow.from_jobs("late", late.jobs, late.edges, 20, 60),
        ),
        adhoc_jobs=(adhoc_job("a0", arrival=0), adhoc_job("a1", arrival=25)),
    )
    return [
        pytest.param(quickstart, quickstart_cap, None, id="quickstart"),
        pytest.param(mixed, mixed_cap, None, id="mixed_cluster"),
        pytest.param(online, mixed_cap, None, id="online_service"),
        pytest.param(scientific, mixed_cap, None, id="scientific"),
        pytest.param(
            truncated, ClusterCapacity.uniform(cpu=16, mem=32), 12,
            id="truncated",
        ),
    ]


class TestExampleWorkloadRegression:
    """Reported metrics == trace-recomputed metrics on the example shapes."""

    @pytest.mark.parametrize("trace,capacity,max_slots", _example_workloads())
    def test_reported_equals_recomputed(self, trace, capacity, max_slots):
        sink = MemorySink()
        limit = {} if max_slots is None else {"max_slots": max_slots}
        outcome = run_one(
            "FlowTime",
            trace,
            capacity,
            config=SimulationConfig(record_execution=True, **limit),
            obs=Observability(sink=sink),
        )
        assert outcome.result.finished == (max_slots is None)
        windows = canonical_windows(trace, capacity)
        jobs = [j for wf in trace.workflows for j in wf.jobs]
        jobs += list(trace.adhoc_jobs)
        validator = ScheduleValidator(
            capacity, workflows=trace.workflows, jobs=jobs, windows=windows
        )
        report = validator.validate(outcome.result)
        reported = summarize(outcome.result, windows)
        validator.check_reported(outcome.result, reported, report)
        assert report.ok, report.render()

        # And independently again from the raw event trace alone.
        trace_report = validate_trace(
            sink.events, trace=trace, capacity=capacity, windows=windows
        )
        assert trace_report.ok, trace_report.render()
        recomputed = recompute_trace_metrics(
            sink.events, trace=trace, windows=windows
        )
        for key in (
            "n_deadline_jobs",
            "jobs_missed",
            "workflows_missed",
            "max_delta_s",
            "mean_delta_s",
        ):
            assert recomputed[key] == pytest.approx(reported[key]), key
        if reported["adhoc_turnaround_s"] is None:
            assert recomputed["adhoc_turnaround_s"] is None
        else:
            assert recomputed["adhoc_turnaround_s"] == pytest.approx(
                reported["adhoc_turnaround_s"]
            )
        # The one recomputation, read from each front, equals summarize.
        from_result = validator.recompute_metrics(
            TraceIndex.of_result(outcome.result)
        )
        for key in METRIC_KEYS:
            assert from_result[key] == recomputed[key], key
            assert from_result[key] == pytest.approx(reported[key]), key

    def test_failure_injection_shape_with_setbacks(self):
        """The failure_injection example: setbacks allowed, still clean."""
        capacity = ClusterCapacity.uniform(cpu=24, mem=48)
        workflow = diamond(deadline=80)
        trace = SyntheticTrace(workflows=(workflow,), adhoc_jobs=())
        sink = MemorySink()
        outcome = run_one(
            "FlowTime",
            trace,
            capacity,
            config=SimulationConfig(
                record_execution=True,
                failures=FailureModel(setback_prob=0.3, seed=4),
            ),
            obs=Observability(sink=sink),
        )
        windows = canonical_windows(trace, capacity)
        validator = ScheduleValidator(
            capacity,
            workflows=(workflow,),
            jobs=workflow.jobs,
            windows=windows,
            allow_setbacks=True,
        )
        report = validator.validate(outcome.result)
        validator.check_reported(
            outcome.result, summarize(outcome.result, windows), report
        )
        assert report.ok, report.render()
        # The trace records the lost units, so its conservation stays exact.
        assert sink.of_type("job_setback")
        trace_report = validate_trace(
            sink.events, trace=trace, capacity=capacity, windows=windows
        )
        assert trace_report.ok, trace_report.render()


class TestTraceChecker:
    def test_tampered_trace_is_flagged(self, good_run):
        validator, result, windows = good_run
        capacity = validator.cluster
        workflow = diamond()
        adhoc = [adhoc_job("a0", arrival=0), adhoc_job("a1", arrival=3)]
        trace = SyntheticTrace(workflows=(workflow,), adhoc_jobs=tuple(adhoc))
        sink = MemorySink()
        run_one(
            "FlowTime",
            trace,
            capacity,
            config=SimulationConfig(record_execution=True),
            obs=Observability(sink=sink),
        )
        clean = validate_trace(
            sink.events, trace=trace, capacity=capacity, windows=windows
        )
        assert clean.ok, clean.render()

        # Inflate one placement so conservation and capacity both break.
        tampered = [dict(e) for e in sink.events]
        placement = next(
            e for e in tampered if e["type"] == "task_placement"
        )
        placement["units"] = placement["units"] + 10_000
        report = validate_trace(
            tampered, trace=trace, capacity=capacity, windows=windows
        )
        assert not report.ok

    def test_preemptions_must_match_the_placements(self, good_trace):
        events, check = good_trace
        kept = [e for e in events if e["type"] != "job_preempted"]
        assert len(kept) < len(events)
        report = check(kept)
        assert any(v.check == "trace.preemption" for v in report.violations)

    def test_workflow_served_after_its_start_is_clean(self):
        """The service decomposes a late workflow from its declared start,
        so the canonical windows begin before its arrival; both fronts
        accept them and still see the arrival."""
        capacity = ClusterCapacity.uniform(cpu=16, mem=32)
        sink = MemorySink()
        config = ServiceConfig(scheduler="FIFO", record_execution=True)
        state = ServiceState(capacity, config, obs=Observability(sink=sink))
        for _ in range(5):
            state.step()
        workflow = diamond()
        assert state.submit("workflow", workflow).accepted
        state.run_out()
        trace = SyntheticTrace(workflows=(workflow,), adhoc_jobs=())
        windows = canonical_windows(trace, capacity)
        assert windows == {k: state.windows[k] for k in windows}
        assert any(
            e["type"] == "workflow_arrived" and e["slot"] == 5 for e in sink.events
        )
        report = validate_trace(
            sink.events, trace=trace, capacity=capacity, windows=windows
        )
        assert report.ok, report.render()
        validator = ScheduleValidator.of_trace(trace, capacity, windows)
        report = validator.validate(state.core.result())
        assert report.ok, report.render()

    def test_metrics_need_run_markers(self):
        with pytest.raises(ValueError):
            recompute_trace_metrics(
                [{"type": "job_arrived", "slot": 0, "job_id": "a", "seq": 0}]
            )


class TestFuzzHarness:
    def test_one_case_runs_clean_on_every_path(self):
        from repro.verify.fuzz import FUZZ_PATHS, make_workload, run_case

        trace, capacity = make_workload(3)
        for path in FUZZ_PATHS:
            assert run_case(trace, capacity, path, 3) == [], path

    def test_failure_persist_and_reload_roundtrip(self, tmp_path):
        from repro.verify.fuzz import (
            FuzzFailure,
            load_failure,
            make_workload,
            persist_failure,
        )

        trace, capacity = make_workload(5)
        failure = FuzzFailure(
            seed=5,
            path="batch",
            violations=["capacity.used: synthetic"],
            trace=trace,
            capacity=capacity,
            original_size=(len(trace.workflows), len(trace.adhoc_jobs)),
        )
        path = persist_failure(failure, tmp_path)
        loaded = load_failure(path)
        assert loaded.seed == 5 and loaded.path == "batch"
        assert len(loaded.trace.workflows) == len(trace.workflows)
        assert len(loaded.trace.adhoc_jobs) == len(trace.adhoc_jobs)
        assert dict(loaded.capacity.base) == dict(capacity.base)

    def test_crashing_path_counts_as_failure(self, monkeypatch):
        import repro.verify.fuzz as fuzz

        def boom(*_args, **_kwargs):
            raise RuntimeError("synthetic crash")

        monkeypatch.setattr(fuzz, "_run_batch", boom)
        trace, capacity = fuzz.make_workload(1)
        violations = fuzz.run_case(trace, capacity, "batch", 1)
        assert violations and "synthetic crash" in violations[0]
