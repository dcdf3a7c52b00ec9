"""Idle-gap skipping vs stepping every slot: outcome equivalence.

``EngineCore.skip_idle`` is a pure *performance* shortcut — the loops
that own a virtual clock call it to jump the slots in which nothing is
live and nothing is pending — so every externally visible outcome must be
what an every-slot ``while not core.finished: core.step()`` loop
produces: per-job and per-workflow records, usage/granted matrices,
execution rows, the finish slot, and the trace event stream.  The
every-slot side runs the same loops on the same class with ``skip_idle``
declining (:func:`every_slot`).  The battery runs the ≥50 seeded
workloads the fuzz harness draws (:func:`repro.verify.fuzz.
make_workload`) both ways across four production families —

* ``batch``: batch simulation on the product planner (plan cache and
  skyline warm hint on — the planner always memoises), run on two seed
  sets, the ``batch`` and the ``replan`` seeds;
* ``degraded``: chaos-injected solver faults (fallback ladder exercised);
* ``journal``: the online service with a write-ahead journal, a mid-run
  kill, a journal-replay restart, and a drain —

plus every registered scheduler (jumping is the default for the baselines
too), asserting byte-level equivalence where it is meaningful (the
normalised trace stream on a batch subset) and structural equivalence
everywhere.  What is *excluded* from comparison — ``planning_calls``,
``planning_seconds``, ``sim.slot`` span counts — is exactly the intended
saving; `TestEventCoreRegressions` pins that saving so it cannot silently
regress, and pins the arrival index and live-run index the skip reads.

A failing seed is persisted under ``artifacts/equivalence/`` (override
with ``EQUIV_ARTIFACT_DIR``) so the CI ``test`` job can upload it for
offline replay.
"""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager, nullcontext
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import canonical_windows, run_one
from repro.chaos import ChaosConfig, chaos_solver
from repro.model.cluster import ClusterCapacity
from repro.model.job import Job, JobKind, TaskSpec
from repro.model.resources import CPU, MEM, ResourceVector
from repro.model.workflow import Workflow
from repro.model.events import JobSetback, WorkflowWithdrawn
from repro.obs import Observability
from repro.obs.trace import MemorySink
from repro.schedulers.fifo import FifoScheduler
from repro.schedulers.registry import available_schedulers, make_scheduler
from repro.service import SchedulerService, ServiceConfig
from repro.simulator.engine import Simulation, SimulationConfig
from repro.simulator.failures import FailureModel
from repro.simulator.metrics import summarize
from repro.simulator.runtime import EngineCore
from repro.verify import ScheduleValidator
from repro.verify.fuzz import make_workload
from repro.verify.golden import normalize_events

#: Both ways to drive the one core: jumping idle gaps (the default) and
#: stepping through every slot (the reference).
MODES = ("jumping", "every-slot")

BATCH_SEEDS = list(range(0, 20))
#: Twelve more batch-family seeds (see ``TestReplanFamily``).
REPLAN_SEEDS = list(range(100, 112))
DEGRADED_SEEDS = list(range(200, 212))
JOURNAL_SEEDS = list(range(300, 308))
#: Batch seeds whose normalised trace stream is compared byte-for-byte.
GOLDEN_SEEDS = BATCH_SEEDS[:6]
#: Seeds every registered scheduler is run over, both ways.
SCHEDULER_SEEDS = list(range(400, 408))

assert (
    len(BATCH_SEEDS + REPLAN_SEEDS + DEGRADED_SEEDS + JOURNAL_SEEDS) >= 50
), "the ISSUE requires at least 50 seeded workloads"


_TINY_CLUSTER = ClusterCapacity(base=ResourceVector({CPU: 4, MEM: 8}))


def _tiny_spec(duration: int) -> TaskSpec:
    return TaskSpec(
        count=1,
        duration_slots=duration,
        demand=ResourceVector({CPU: 1, MEM: 1}),
    )


def _artifact_dir() -> Path:
    return Path(os.environ.get("EQUIV_ARTIFACT_DIR", "artifacts/equivalence"))


def _record_failure(family: str, seed: int, detail: str) -> None:
    """Persist a failing seed for the CI artifact upload; never raises."""
    try:
        directory = _artifact_dir()
        directory.mkdir(parents=True, exist_ok=True)
        payload = {"family": family, "seed": seed, "detail": detail}
        path = directory / f"{family}-seed{seed}.json"
        path.write_text(json.dumps(payload, indent=2), encoding="utf-8")
    except OSError:
        pass


@contextmanager
def every_slot():
    """Inside, ``skip_idle`` declines, so each loop that owns a clock —
    ``Simulation.run``, the service's virtual clock, its drain — is the
    every-slot ``while not core.finished: core.step()`` reference."""
    with mock.patch.object(EngineCore, "skip_idle", lambda self, limit: 0):
        yield


def _in_mode(mode: str):
    return every_slot() if mode == "every-slot" else nullcontext()


def assert_equivalent(a, b) -> None:
    """A jumping and an every-slot run must agree on every outcome field.

    ``planning_calls``/``planning_seconds`` and the observability
    ``metrics`` snapshot are deliberately not compared: fewer executed
    slots mean fewer decide calls and fewer ``sim.slot`` spans — that
    difference *is* the saving.
    """
    assert a.n_slots == b.n_slots, f"n_slots {a.n_slots} != {b.n_slots}"
    assert a.finished == b.finished
    assert a.resources == b.resources
    assert set(a.jobs) == set(b.jobs)
    for job_id in a.jobs:
        assert a.jobs[job_id] == b.jobs[job_id], f"job {job_id} diverged"
    assert set(a.workflows) == set(b.workflows)
    for wid in a.workflows:
        assert a.workflows[wid] == b.workflows[wid], f"workflow {wid} diverged"
    assert np.array_equal(a.usage, b.usage), "usage matrices diverged"
    assert np.array_equal(a.granted, b.granted), "granted matrices diverged"
    assert a.execution == b.execution, "execution rows diverged"


def _validate(trace, capacity, result) -> None:
    windows = canonical_windows(trace, capacity)
    jobs = [job for wf in trace.workflows for job in wf.jobs] + list(
        trace.adhoc_jobs
    )
    validator = ScheduleValidator(
        capacity, workflows=trace.workflows, jobs=jobs, windows=windows
    )
    report = validator.validate(result)
    validator.check_reported(result, summarize(result, windows), report)
    assert not report.violations, [str(v) for v in report.violations]


def _with_straggler(trace):
    """*trace* plus one ad-hoc job arriving long after every deadline: the
    fuzz workloads are dense, and this gives each run a real idle gap."""
    late = 30 + max(
        [wf.deadline_slot for wf in trace.workflows]
        + [job.arrival_slot for job in trace.adhoc_jobs]
    )
    straggler = Job(
        job_id="straggler", tasks=_tiny_spec(2), kind=JobKind.ADHOC,
        arrival_slot=late,
    )
    return replace(trace, adhoc_jobs=(*trace.adhoc_jobs, straggler))


def _run_batch_pair(
    seed: int, *, scheduler: str = "FlowTime", chaos: bool = False,
    straggler: bool = False,
):
    """One fuzz workload run both ways; (trace, capacity, results,
    normalised trace streams)."""
    trace, capacity = make_workload(seed)
    if straggler:
        trace = _with_straggler(trace)
    results, streams = {}, {}
    for mode in MODES:
        sink = MemorySink()
        faults = (
            chaos_solver(ChaosConfig(solver_fault_prob=0.25, seed=seed))
            if chaos
            else nullcontext()
        )
        with _in_mode(mode), faults:
            outcome = run_one(
                scheduler, trace, capacity,
                config=SimulationConfig(record_execution=True),
                obs=Observability(sink=sink),
            )
        results[mode] = outcome.result
        streams[mode] = normalize_events(sink.events)
    return trace, capacity, results, streams


def _check_pair(family: str, seed: int, **kwargs):
    """Run *seed* both ways and compare; the jumping run's result."""
    try:
        trace, capacity, results, streams = _run_batch_pair(seed, **kwargs)
        jumping, reference = (results[mode] for mode in MODES)
        assert_equivalent(jumping, reference)
        assert reference.planning_calls == reference.n_slots
        assert jumping.planning_calls == jumping.n_slots - (
            jumping.counter_value("sim.slots.skipped") or 0
        )
        # Every field the validator reads was just asserted equal, so one
        # validation covers both runs.
        _validate(trace, capacity, jumping)
        if seed in GOLDEN_SEEDS and family == "batch":
            a, b = (json.dumps(streams[mode], sort_keys=True) for mode in MODES)
            assert a == b, "normalised trace streams diverged"
        return jumping
    except AssertionError as error:
        _record_failure(family, seed, str(error))
        raise


class TestBatchFamily:
    @pytest.mark.parametrize("seed", BATCH_SEEDS)
    def test_equivalent(self, seed):
        _check_pair("batch", seed)


class TestReplanFamily:
    """The batch path on twelve more seeds (100-111): the plan cache and
    the warm hint must not open a gap — caching is keyed by scheduler
    events, and a skipped slot delivers none.  There is no other planner
    configuration to run them under; the cold ladder is a plan-level
    oracle only (``tests/test_core_replan.py::TestCachedEqualsCold``)."""

    @pytest.mark.parametrize("seed", REPLAN_SEEDS)
    def test_equivalent(self, seed):
        _check_pair("replan", seed)


class TestDegradedFamily:
    """Chaos faults advance a solver-call-indexed RNG; equivalence here
    proves a skipped slot would have made no solver call."""

    @pytest.mark.parametrize("seed", DEGRADED_SEEDS)
    def test_equivalent(self, seed):
        _check_pair("degraded", seed, chaos=True)


class TestEveryScheduler:
    """Jumping is the default for the baselines too: every registered
    scheduler's idle decide must be as state-neutral as FlowTime's."""

    @pytest.mark.parametrize("seed", SCHEDULER_SEEDS)
    @pytest.mark.parametrize("scheduler", available_schedulers())
    def test_equivalent(self, scheduler, seed):
        result = _check_pair(
            f"scheduler-{scheduler}", seed, scheduler=scheduler, straggler=True
        )
        assert result.counter_value("sim.slots.skipped") >= 20


def _run_journal(trace, capacity):
    """Submit, kill, journal-replay restart, drain — the fuzz journal
    path; the drained result."""
    with tempfile.TemporaryDirectory(prefix="equiv-journal-") as tmp:
        config = ServiceConfig(
            admission=False,
            record_execution=True,
            journal_path=str(Path(tmp) / "journal.jsonl"),
            journal_fsync=False,
        )
        # The first life only has to write the journal: its clock is
        # frozen, so it executes nothing that the kill would discard.
        frozen = replace(config, realtime=True, slot_seconds=3600.0)
        service = SchedulerService(capacity, frozen).start()
        try:
            for workflow in trace.workflows:
                assert service.submit_workflow(workflow).accepted
            for job in trace.adhoc_jobs:
                assert service.submit_adhoc(job).accepted
            service.kill(timeout=60)
            service = SchedulerService(capacity, config).start()
            return service.drain(timeout=300)
        finally:
            if not service.draining:
                service.kill(timeout=60)


class TestJournalFamily:
    """Kill/replay/drain through the online service, both ways.

    A journal replay resubmits everything before the clock moves, so the
    post-replay run-out is deterministic.  Records are compared on the
    replayed drain results.
    """

    @pytest.mark.parametrize("seed", JOURNAL_SEEDS)
    def test_equivalent(self, seed):
        trace, capacity = make_workload(seed)
        try:
            jumping = _run_journal(trace, capacity)
            with every_slot():
                reference = _run_journal(trace, capacity)
            assert_equivalent(jumping, reference)
            _validate(trace, capacity, jumping)
        except AssertionError as error:
            _record_failure("journal", seed, str(error))
            raise


class TestRealtimeDrain:
    def test_drain_jumps_idle_gaps_under_realtime(self):
        """Wall-clock pacing never jumps, but the drain run-out is unpaced
        in both modes: one far-out arrival costs a handful of steps, and
        the result is what stepping all 500 slots gives."""
        config = ServiceConfig(realtime=True, slot_seconds=3600)

        def drained():
            service = SchedulerService(_TINY_CLUSTER, config).start()
            late = Job(
                job_id="late", tasks=_tiny_spec(2), kind=JobKind.ADHOC,
                arrival_slot=500,
            )
            assert service.submit_adhoc(late).accepted
            return service.drain(timeout=60)

        jumping = drained()
        with every_slot():
            reference = drained()
        assert_equivalent(jumping, reference)
        assert jumping.finished and jumping.n_slots > 500
        assert reference.metrics["sim.slot"]["count"] == reference.n_slots
        assert jumping.metrics["sim.slot"]["count"] <= 10


# -- tie-break determinism (property) -----------------------------------------------


def _build_workload(wf_starts, adhoc_arrivals, durations):
    """Workflows and ad-hoc jobs engineered to collide on timestamps.

    Durations of 1–3 slots make completions land on later arrivals'
    slots, so one slot routinely carries a completion event, a workflow
    arrival, and several ad-hoc arrivals at once — the exact interleaving
    the delivery order stated on ``EngineCore.step`` (carried-over events,
    then workflow arrivals in registration order, then ad-hoc arrivals in
    registration order) must resolve identically with and without jumps.
    """
    workflows = []
    for i, start in enumerate(wf_starts):
        wid = f"pw{i}"
        jobs = [
            Job(
                job_id=f"{wid}-j{j}",
                tasks=_tiny_spec(durations[(i + j) % len(durations)]),
                workflow_id=wid,
            )
            for j in range(2)
        ]
        workflows.append(
            Workflow.from_jobs(
                wid, jobs, [(f"{wid}-j0", f"{wid}-j1")], start, start + 40
            )
        )
    adhoc = [
        Job(
            job_id=f"pa{i}",
            tasks=_tiny_spec(durations[i % len(durations)]),
            kind=JobKind.ADHOC,
            arrival_slot=arrival,
        )
        for i, arrival in enumerate(adhoc_arrivals)
    ]
    return workflows, adhoc


def _simulate(workflows, adhoc, mode: str = "jumping"):
    sim = Simulation(
        cluster=_TINY_CLUSTER,
        scheduler=make_scheduler("FlowTime"),
        workflows=workflows,
        adhoc_jobs=adhoc,
        config=SimulationConfig(record_execution=True),
    )
    with _in_mode(mode):
        return sim.run()


class TestTieBreakProperty:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        wf_starts=st.lists(st.integers(0, 4), min_size=0, max_size=2),
        adhoc_arrivals=st.lists(st.integers(0, 4), min_size=1, max_size=6),
        durations=st.lists(st.integers(1, 3), min_size=1, max_size=4),
    )
    def test_same_timestamp_interleavings_are_deterministic(
        self, wf_starts, adhoc_arrivals, durations
    ):
        """Arrivals/completions sharing a slot resolve in the documented
        order both ways — run each mode twice and cross-compare, so both
        nondeterminism and tie-break drift fail the property."""
        workflows, adhoc = _build_workload(wf_starts, adhoc_arrivals, durations)
        runs = [_simulate(workflows, adhoc, mode) for mode in MODES * 2]
        for other in runs[1:]:
            assert_equivalent(runs[0], other)


# -- the saving, and the index and counter behind it, pinned --------------------------


def _tiny_workflow(wid: str, start: int) -> Workflow:
    jobs = [
        Job(job_id=f"{wid}-j{j}", tasks=_tiny_spec(2), workflow_id=wid)
        for j in range(2)
    ]
    return Workflow.from_jobs(
        wid, jobs, [(f"{wid}-j0", f"{wid}-j1")], start, start + 40
    )


def _tiny_core(scheduler: str = "FlowTime") -> EngineCore:
    return EngineCore(
        cluster=_TINY_CLUSTER,
        scheduler=make_scheduler(scheduler),
        config=SimulationConfig(record_execution=True),
        obs=Observability(),
    )


def _run_out(core: EngineCore, *, jump: bool):
    """``Simulation._run_loop``'s loop, written out."""
    limit = core.config.max_slots
    while not core.finished and core.slot < limit:
        if not (jump and core.skip_idle(limit)):
            core.step()
    core.flush_pending_events()
    return core.result()


class TestEventCoreRegressions:
    def _idle_tail_workload(self):
        """One early burst, one straggler far out: a long idle gap."""
        adhoc = [
            Job(job_id=f"g{i}", tasks=_tiny_spec(2), kind=JobKind.ADHOC)
            for i in range(3)
        ]
        adhoc.append(
            Job(
                job_id="late",
                tasks=_tiny_spec(2),
                kind=JobKind.ADHOC,
                arrival_slot=90,
            )
        )
        return adhoc

    def test_idle_tail_skips_slot_spans(self):
        """Stepping records one ``sim.slot`` span per slot; a plain
        ``Simulation(...).run()`` with a default config must jump the
        idle gap — far fewer spans, while ``n_slots`` (the modelled
        horizon) stays identical."""
        adhoc = self._idle_tail_workload()
        with every_slot():
            baseline = _simulate([], list(adhoc))
        assert baseline.metrics["sim.slot"]["count"] == baseline.n_slots
        result = Simulation(
            _TINY_CLUSTER, make_scheduler("FlowTime"), adhoc_jobs=list(adhoc)
        ).run()
        assert result.n_slots == baseline.n_slots
        assert result.jobs == baseline.jobs
        assert np.array_equal(result.usage, baseline.usage)
        skipped = result.counter_value("sim.slots.skipped")
        assert skipped and skipped >= 80
        assert result.metrics["sim.slot"]["count"] == baseline.n_slots - skipped
        assert result.planning_calls == result.n_slots - skipped

    def test_skip_never_passes_the_limit(self):
        """The cap is the argument: a straggler beyond it leaves the clock
        at the limit, where an every-slot loop would stop too."""
        late = Job(
            job_id="late", tasks=_tiny_spec(1), kind=JobKind.ADHOC,
            arrival_slot=90,
        )
        core = _tiny_core()
        core.add_adhoc(late)
        assert core.skip_idle(40) == 40 and core.slot == 40
        assert core.skip_idle(40) == 0
        result = core.result()
        assert result.n_slots == 40 and not result.finished
        assert result.usage.shape[0] == 40 and len(result.execution) == 40

    def test_live_adhoc_count_is_tracked_not_scanned(self):
        """``live_adhoc_count`` is an O(1) counter now; it must agree
        with a brute-force scan at every step of a mixed run."""
        trace, _ = make_workload(17)
        core = _tiny_core("FIFO")  # the bookkeeping is scheduler-blind
        for workflow in trace.workflows:
            core.add_workflow(workflow)
        for job in trace.adhoc_jobs:
            core.add_adhoc(job)
        while not core.finished and core.slot < 500:
            brute = sum(
                1
                for run in core.job_runs()
                if run.job.kind is JobKind.ADHOC and not run.done
            )
            assert core.live_adhoc_count() == brute
            core.step()
        assert core.live_adhoc_count() == 0

    def test_live_counter_and_arrival_index_match_a_scan(self):
        """At every step of a mixed jumping run — with a withdrawal on the
        way — the live-run index is as long as a scan of arrived-and-
        incomplete runs and the arrival index equals a scan of future
        arrivals."""
        trace, _ = make_workload(17)
        core = _tiny_core("FIFO")
        for workflow in trace.workflows:
            core.add_workflow(workflow)
        for job in trace.adhoc_jobs:
            core.add_adhoc(job)
        core.add_workflow(_tiny_workflow("gone", 3))
        core.add_workflow(_tiny_workflow("far", 400))

        def check():
            runs = list(core.job_runs())
            assert len(core._live_runs) == sum(
                1 for run in runs
                if run.arrival_slot < core.slot and not run.done
            )
            index: dict = {}
            for wid, workflow in core.workflows.items():
                arrival = core.job_run(workflow.jobs[0].job_id).arrival_slot
                if arrival >= core.slot:
                    index.setdefault(arrival, ([], []))[0].append(wid)
            for run in runs:
                if run.job.kind is JobKind.ADHOC and run.arrival_slot >= core.slot:
                    index.setdefault(run.arrival_slot, ([], []))[1].append(
                        run.job.job_id
                    )
            assert core._arrivals == index

        limit = 500
        while not core.finished and core.slot < limit:
            check()
            if core.slot == 2:
                core.remove_workflow("gone")
                check()
            if not core.skip_idle(limit):
                core.step()
        check()
        assert core.finished and not core._live_runs and not core._arrivals
        assert core.result().counter_value("sim.slots.skipped") > 0


class _GrantNothing:
    """A scheduler stand-in under which arrived work never starts."""

    name = "grant-nothing"

    def on_events(self, events, view) -> None:
        pass

    def assign(self, view) -> dict:
        return {}


class TestWithdrawal:
    """What the registration tokens of the event heap used to guard."""

    def _late(self, arrival: int) -> Job:
        return Job(
            job_id=f"late{arrival}", tasks=_tiny_spec(1), kind=JobKind.ADHOC,
            arrival_slot=arrival,
        )

    def test_withdrawing_the_next_arrival_moves_the_jump_target_on(self):
        core = _tiny_core()
        core.add_workflow(_tiny_workflow("w", 10))
        core.add_adhoc(self._late(30))
        core.remove_workflow("w")
        core.step()  # hands the withdrawal to the scheduler
        assert core.skip_idle(1000) == 29 and core.slot == 30
        outcome = core.step()
        assert outcome.n_adhoc_arrivals == 1 and core.finished

    def test_withdrawn_arrived_workflow_drops_live_and_vetoes_the_jump(self):
        core = EngineCore(
            _TINY_CLUSTER, _GrantNothing(), SimulationConfig(), Observability()
        )
        core.add_workflow(_tiny_workflow("w", 0))
        core.add_adhoc(self._late(30))
        core.step()
        assert len(core._live_runs) == 2
        core.remove_workflow("w")
        assert not core._live_runs
        # Nothing is live, yet the withdrawal is still pending: no jump
        # until a step has handed it to the scheduler.
        assert core.skip_idle(1000) == 0
        outcome = core.step()
        assert [type(event) for event in outcome.events] == [WorkflowWithdrawn]
        assert core.skip_idle(1000) == 28 and core.slot == 30

    def test_withdrawing_a_job_that_ran_and_lost_it_all_to_a_setback(self):
        """Its executed units are back to 0, so it is withdrawable — but it
        ran last slot, and the traced preemption scan of the next step
        looked it up (``KeyError``).  The queued setback still reaches
        the scheduler, ahead of the withdrawal."""
        delivered = []

        class Recording(FifoScheduler):
            def on_events(self, events, view):
                delivered.extend(events)
                super().on_events(events, view)

        sink = MemorySink()
        core = EngineCore(
            _TINY_CLUSTER,
            Recording(),
            SimulationConfig(
                failures=FailureModel(setback_prob=1.0, max_setback_units=10)
            ),
            Observability(sink=sink),
        )
        job = Job(job_id="w-j0", tasks=_tiny_spec(3), workflow_id="w")
        core.add_workflow(Workflow.from_jobs("w", [job], [], 0, 40))
        assert core.step().executed == {"w-j0": 1}
        core.remove_workflow("w")
        core.step()
        assert [type(event) for event in delivered[-2:]] == [
            JobSetback, WorkflowWithdrawn,
        ]
        assert delivered[-2].job_id == "w-j0" and core.finished
        assert not sink.of_type("job_preempted")

    def test_reregistering_a_withdrawn_id(self):
        """Withdraw + re-register the same id: it arrives once, at the
        new slot, after the workflow registered in between — both ways."""
        results = {}
        for jump in (True, False):
            core = _tiny_core()
            core.add_workflow(_tiny_workflow("w", 5))
            core.add_workflow(_tiny_workflow("other", 20))
            core.remove_workflow("w")
            core.add_workflow(_tiny_workflow("w", 20))
            assert core._arrivals == {20: (["other", "w"], [])}
            results[jump] = _run_out(core, jump=jump)
        assert_equivalent(results[True], results[False])
        jumped = results[True]
        assert jumped.finished
        assert jumped.workflows["w"].start_slot == 20
        assert jumped.jobs["w-j0"].ready_slot == 20
        assert jumped.counter_value("sim.slots.skipped") == 19
