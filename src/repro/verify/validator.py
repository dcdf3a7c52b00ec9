"""Independent schedule validation: re-derive correctness from raw outputs.

Every layer of the stack — LP, planner, scheduler, engine, service — has
its own tests, but each checks only what that layer promises.  This module
checks what the *system* promises, from the outputs alone: each job runs
from its ready slot to its completion; a workflow completes with its last
member; a child never becomes ready, runs, or completes before its parent
completed (precedence); every completed job received exactly its true task
slot-units within its parallelism (conservation); no slot exceeds the
cluster's capacity; decomposed windows nest inside their workflow's
declared [start, deadline) in DAG order; and the reported deadline-miss /
delta / turnaround numbers match what the evidence implies.

Each family is written once, over a :class:`TraceIndex` — a run's evidence
per job and workflow — plus the workload.  The index has two sources, so
the checker has two fronts: :meth:`ScheduleValidator.validate` reads a
:class:`~repro.simulator.result.SimulationResult` and :func:`validate_trace`
reads the JSONL event stream (``repro verify <run.jsonl>``).  Each front
adds the checks only its evidence can fail: usage and grant rows and the
per-job records for a result; ``seq`` order, run markers, duplicate events
and preemptions for a stream.

The checks deliberately share no code with the planner or the metrics
module, so a bug in the production path cannot hide itself in its own
verifier.  Every check bumps ``verify.checks`` and every failed one
``verify.violations`` (counters on the ambient
:func:`~repro.obs.current_obs` handle).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping, Optional, Sequence

from repro.model.job import Job, JobKind
from repro.model.workflow import Workflow
from repro.obs import current_obs

if TYPE_CHECKING:
    from repro.core.decomposition_types import JobWindow
    from repro.model.cluster import ClusterCapacity
    from repro.simulator.result import SimulationResult
    from repro.workloads.traces import SyntheticTrace

__all__ = [
    "METRIC_KEYS",
    "ScheduleValidator",
    "TraceIndex",
    "VerificationError",
    "VerificationReport",
    "Violation",
    "recompute_trace_metrics",
    "validate_trace",
]

#: The summary keys the metric recomputation covers (the shape of
#: ``repro.simulator.metrics.summarize``).
METRIC_KEYS = (
    "n_deadline_jobs",
    "jobs_missed",
    "workflows_missed",
    "adhoc_turnaround_s",
    "max_delta_s",
    "mean_delta_s",
)


@dataclass(frozen=True)
class Violation:
    """One failed invariant: which check, where, and what went wrong."""

    check: str
    message: str
    slot: Optional[int] = None
    subject: Optional[str] = None

    def __str__(self) -> str:
        where = []
        if self.subject is not None:
            where.append(self.subject)
        if self.slot is not None:
            where.append(f"slot {self.slot}")
        location = f" [{', '.join(where)}]" if where else ""
        return f"{self.check}{location}: {self.message}"


@dataclass
class VerificationReport:
    """Outcome of a validation pass: checks performed and violations found."""

    checks: int = 0
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def check(
        self,
        check: str,
        passed: bool,
        message: str = "",
        *,
        slot: Optional[int] = None,
        subject: Optional[str] = None,
    ) -> bool:
        """Record one check; on failure also record a :class:`Violation`."""
        self.checks += 1
        obs = current_obs()
        obs.counter("verify.checks").inc()
        if not passed:
            self.violations.append(
                Violation(check=check, message=message, slot=slot, subject=subject)
            )
            obs.counter("verify.violations").inc()
        return passed

    def summary(self) -> str:
        return f"verify: {self.checks} checks, {len(self.violations)} violations"

    def render(self, limit: int = 20) -> str:
        """Human-readable report: the summary plus up to *limit* violations."""
        lines = [self.summary()]
        for violation in self.violations[:limit]:
            lines.append(f"  - {violation}")
        if len(self.violations) > limit:
            lines.append(f"  ... and {len(self.violations) - limit} more")
        return "\n".join(lines)

    def raise_if_violations(self) -> None:
        if self.violations:
            raise VerificationError(self)


class VerificationError(ValueError):
    """A verified run violated an invariant; carries the full report."""

    def __init__(self, report: VerificationReport):
        super().__init__(report.render())
        self.report = report


# A slot-unit accounting tolerance: all quantities checked here are sums of
# integers stored as floats, so anything beyond rounding noise is real.
_EPS = 1e-6

#: Per-slot resource amounts recomputed from placements x unit demand.
SlotUsage = dict[int, dict[str, float]]


@dataclass
class TraceIndex:
    """A run's evidence per job and workflow: what every check reads.

    Filled from a JSONL event stream (:meth:`build`) or a
    :class:`SimulationResult` (:meth:`of_result`).  A completion is the
    trace's *exclusive end boundary* ``completion_slot + 1`` (the
    ``job_completed`` event is delivered at the start of the next slot).
    ``arrived`` holds ad-hoc jobs; a workflow job arrives with its
    workflow.  A result holds every registered entity and a stream only
    what was delivered, so "arrived within the run" is ``slot < n_slots``
    on both; a stream knows ``workflow_deadline`` only for the workflows
    that missed.  ``has_placements`` is False for a result recorded
    without ``record_execution``: the placement-based families skip it.
    """

    placements: dict[str, list[tuple[int, int]]] = field(default_factory=dict)
    ready: dict[str, int] = field(default_factory=dict)
    arrived: dict[str, int] = field(default_factory=dict)
    completed: dict[str, list[int]] = field(default_factory=dict)
    setback_units: dict[str, int] = field(default_factory=dict)
    workflow_arrived: dict[str, int] = field(default_factory=dict)
    workflow_completed: dict[str, list[int]] = field(default_factory=dict)
    workflow_deadline: dict[str, int] = field(default_factory=dict)
    workflow_of: dict[str, str] = field(default_factory=dict)
    n_slots: Optional[int] = None
    slot_seconds: Optional[float] = None
    has_placements: bool = True
    # Evidence only a stream carries.
    preempted: dict[str, list[int]] = field(default_factory=dict)
    withdrawn: set[str] = field(default_factory=set)
    run_starts: int = 0
    run_ends: int = 0
    seqs: list[int] = field(default_factory=list)

    @classmethod
    def build(cls, events: Iterable[Mapping]) -> "TraceIndex":
        """Index a parsed event stream (one pass, order preserved)."""
        index = cls()
        for event in events:
            kind, slot = event.get("type"), event.get("slot")
            job_id, workflow_id = event.get("job_id"), event.get("workflow_id")
            if "seq" in event:
                index.seqs.append(int(event["seq"]))
            if job_id is not None and workflow_id is not None:
                index.workflow_of.setdefault(job_id, workflow_id)
            if kind == "task_placement":
                index.placements.setdefault(job_id, []).append(
                    (int(slot), int(event.get("units", 0)))
                )
            elif kind in ("job_ready", "job_arrived"):
                index.ready.setdefault(job_id, int(slot))
                if kind == "job_arrived":  # ad-hoc: ready as it arrives
                    index.arrived.setdefault(job_id, int(slot))
            elif kind in ("job_completed", "job_preempted"):
                slots = index.completed if kind == "job_completed" else index.preempted
                slots.setdefault(job_id, []).append(int(slot))
            elif kind == "job_setback":
                lost = int(event.get("lost_units", 0))
                index.setback_units[job_id] = index.setback_units.get(job_id, 0) + lost
            elif kind == "workflow_arrived":
                index.workflow_arrived.setdefault(workflow_id, int(slot))
            elif kind == "workflow_completed":
                index.workflow_completed.setdefault(workflow_id, []).append(int(slot))
            elif kind == "workflow_deadline_miss":
                index.workflow_deadline[workflow_id] = event.get("deadline_slot", 0)
            elif kind == "workflow_withdrawn":
                index.withdrawn.add(workflow_id)
            elif kind == "run_start":
                index.run_starts += 1
                if index.slot_seconds is None and "slot_seconds" in event:
                    index.slot_seconds = float(event["slot_seconds"])
            elif kind == "run_end":
                index.run_ends += 1
                if index.n_slots is None:
                    index.n_slots = int(event.get("n_slots", 0))
        return index

    @classmethod
    def of_result(cls, result: "SimulationResult") -> "TraceIndex":
        """Index a result's records and (if recorded) its execution rows."""
        index = cls(
            n_slots=result.n_slots,
            slot_seconds=result.slot_seconds,
            has_placements=bool(result.execution),
        )
        for job_id, record in result.jobs.items():
            if record.workflow_id is not None:
                index.workflow_of[job_id] = record.workflow_id
            if record.kind is JobKind.ADHOC:
                index.arrived[job_id] = record.arrival_slot
            if record.ready_slot is not None:
                index.ready[job_id] = record.ready_slot
            if record.completion_slot is not None:
                index.completed[job_id] = [record.completion_slot + 1]
        for wid, record in result.workflows.items():
            index.workflow_arrived[wid] = record.start_slot
            index.workflow_deadline[wid] = record.deadline_slot
            if record.completion_slot is not None:
                index.workflow_completed[wid] = [record.completion_slot + 1]
        for slot, row in enumerate(result.execution):
            for job_id, units in row.items():
                index.placements.setdefault(job_id, []).append((slot, units))
        return index

    def completion_of(self, job_id: str, default: int | None = None) -> int | None:
        """The job's completion boundary, *default* while it has none."""
        slots = self.completed.get(job_id)
        return slots[0] if slots else default


class ScheduleValidator:
    """Checks a run's evidence against the raw workload it claims to serve.

    Each invariant family is written once, over a :class:`TraceIndex` plus
    this workload; :meth:`validate` (a result) and :func:`validate_trace`
    (an event stream) are the two fronts.

    Args:
        cluster: the capacity the run claimed to respect (required by
            :meth:`validate`; ``None`` skips the placement capacity family).
        workflows: the workload's workflows (enables precedence and
            workflow-completion checks; their jobs seed the job index).
        jobs: additional jobs (the ad-hoc stream) for the conservation and
            capacity checks.
        windows: the decomposed per-job deadline windows used as metric
            ground truth (enables the window-consistency and deadline
            recomputation checks).  Windows are an *input* here — the
            validator never re-runs the decomposition.
        allow_setbacks: the run injected progress setbacks (failure model),
            so gross executed units may exceed a job's true size.  A result
            carries no per-job lost units, so its demand conservation is
            then checked as a lower bound.
    """

    def __init__(
        self,
        cluster: "ClusterCapacity | None",
        *,
        workflows: Iterable[Workflow] = (),
        jobs: Iterable[Job] | None = None,
        windows: Mapping[str, "JobWindow"] | None = None,
        allow_setbacks: bool = False,
    ):
        self.cluster = cluster
        self.workflows = {wf.workflow_id: wf for wf in workflows}
        self.jobs = {j.job_id: j for wf in self.workflows.values() for j in wf.jobs}
        for job in jobs or ():
            self.jobs.setdefault(job.job_id, job)
        self.windows = dict(windows) if windows else {}
        self.allow_setbacks = allow_setbacks

    @classmethod
    def of_trace(
        cls,
        trace: "SyntheticTrace | None",
        cluster: "ClusterCapacity | None",
        windows: Mapping[str, "JobWindow"] | None = None,
    ) -> "ScheduleValidator":
        """A validator for the workload a synthetic trace describes (with
        none, there is no demand to check *cluster* against either)."""
        if trace is None:
            return cls(None, windows=windows)
        return cls(
            cluster, workflows=trace.workflows, jobs=trace.adhoc_jobs, windows=windows
        )

    # -- the result front ------------------------------------------------------------

    def validate(self, result: "SimulationResult") -> VerificationReport:
        """Run the shared families plus the checks only a result can fail."""
        report = VerificationReport()
        index = TraceIndex.of_result(result)
        placed = self.check_index(index, report)
        self._check_rows(result, placed, report)
        self._check_records(result, report)
        return report

    def _check_rows(
        self,
        result: "SimulationResult",
        placed: Optional[SlotUsage],
        report: VerificationReport,
    ) -> None:
        """Usage and grant rows within capacity; usage == units x demand."""
        for slot in range(min(result.n_slots, len(result.usage))):
            cap = self.cluster.at(slot)
            row = None if placed is None else placed.get(slot, {})
            for r, name in enumerate(result.resources):
                used = float(result.usage[slot, r])
                for check, what, amount in (
                    ("capacity.used", "usage", used),
                    ("capacity.granted", "grants", float(result.granted[slot, r])),
                ):
                    report.check(
                        check,
                        amount <= cap[name] + _EPS,
                        f"{name} {what} {amount:g} exceed capacity {cap[name]:g}",
                        slot=slot,
                        subject=name,
                    )
                if row is not None:
                    expect = row.get(name, 0.0)
                    report.check(
                        "conservation.usage",
                        abs(expect - used) <= _EPS,
                        f"{name} usage row {used:g} != {expect:g} recomputed "
                        "from executed units",
                        slot=slot,
                        subject=name,
                    )

    def _check_records(
        self, result: "SimulationResult", report: VerificationReport
    ) -> None:
        """Per-job record order and units; every workload entity present."""
        for job_id, record in result.jobs.items():
            arrival, ready = record.arrival_slot, record.ready_slot
            done, n_slots = record.completion_slot, result.n_slots
            report.check(
                "record.lifecycle",
                0 <= arrival
                and (ready is None or arrival <= ready)
                and (done is None or ready is not None and ready <= done < n_slots),
                f"arrival {arrival}, ready {ready}, completion {done} are not "
                f"ordered inside [0, n_slots={n_slots})",
                subject=job_id,
            )
            job = self.jobs.get(job_id)
            if job is not None:
                true = job.execution_tasks.total_task_slots
                est = job.tasks.total_task_slots
                report.check(
                    "record.units",
                    (record.true_units, record.est_units) == (true, est),
                    f"recorded units ({record.true_units} true, {record.est_units} "
                    f"est) do not match the workload ({true} true, {est} est)",
                    subject=job_id,
                )
        for wid, workflow in self.workflows.items():
            report.check(
                "record.workflow",
                wid in result.workflows
                and all(j.job_id in result.jobs for j in workflow.jobs),
                "the workflow or some of its jobs are missing from the result",
                subject=wid,
            )

    # -- the shared families -----------------------------------------------------------

    def check_index(
        self, index: TraceIndex, report: VerificationReport
    ) -> Optional[SlotUsage]:
        """Every shared family over one index; returns the capacity
        family's per-slot usage."""
        self.check_placements(index, report)
        self.check_workflows(index, report)
        self.check_precedence(index, report)
        self.check_conservation(index, report)
        self.check_windows(report)
        return self.check_capacity(index, report)

    def check_placements(self, index: TraceIndex, report: VerificationReport) -> None:
        """A job runs positive amounts from its ready slot on and completes
        at the end of its last placement."""
        if not index.has_placements:
            return
        for job_id, placements in index.placements.items():
            first = min(slot for slot, _ in placements)
            last = max(slot for slot, _ in placements)
            ready = index.ready.get(job_id)
            report.check(
                "placement.units",
                all(units > 0 for _, units in placements),
                "a placement with non-positive units",
                subject=job_id,
            )
            report.check(
                "placement.lifetime",
                ready is not None and ready <= first,
                f"first placed at slot {first} but ready at {ready}",
                subject=job_id,
            )
            end = index.completion_of(job_id)
            if end is not None:
                report.check(
                    "placement.completion",
                    end == last + 1,
                    f"completion boundary {end} but last placed in slot {last}",
                    subject=job_id,
                )
        for job_id in index.completed:
            report.check(
                "placement.ran",
                job_id in index.placements,
                "completed without any recorded placement",
                subject=job_id,
            )

    def check_workflows(self, index: TraceIndex, report: VerificationReport) -> None:
        """A workflow arrives no earlier than its start and completes exactly
        at its last member's boundary, never while one is unfinished.

        Without a workload the members are the jobs the evidence names,
        perhaps a subset, so only a recorded completion is checked.
        """
        members = {w: [j.job_id for j in wf.jobs] for w, wf in self.workflows.items()}
        if not members:
            for job_id, wid in index.workflow_of.items():
                members.setdefault(wid, []).append(job_id)
        for wid, jobs in members.items():
            done = index.workflow_completed.get(wid, [None])[0]
            ends = [index.completion_of(job_id) for job_id in jobs]
            if self.workflows:
                expect = max(ends) if ends and None not in ends else None
            elif done is not None:
                expect = max((end for end in ends if end is not None), default=None)
            else:
                continue
            report.check(
                "workflow.completion",
                done == expect,
                f"completion boundary {done} is not its last member's, {expect} "
                "(None while any is unfinished)",
                subject=wid,
            )
        for wid, workflow in self.workflows.items():
            arrived = index.workflow_arrived.get(wid, workflow.start_slot)
            report.check(
                "workflow.arrival",
                arrived >= workflow.start_slot,
                f"arrived at slot {arrived}, before its start {workflow.start_slot}",
                subject=wid,
            )

    def check_precedence(self, index: TraceIndex, report: VerificationReport) -> None:
        """DAG order: a child is ready, runs and completes only after its
        parent's completion boundary (the first slot it may run in)."""
        for workflow in self.workflows.values():
            for parent_id, child_id in workflow.edges:
                subject = f"{parent_id} -> {child_id}"
                barrier = index.completion_of(parent_id)
                placed = index.placements.get(child_id)
                end = index.completion_of(child_id)
                progress = {
                    "ready": index.ready.get(child_id),
                    "execution": min(s for s, _ in placed) if placed else None,
                    "completion": None if end is None else end - 1,
                }
                if barrier is None:
                    report.check(
                        "precedence.blocked",
                        all(slot is None for slot in progress.values()),
                        "child progressed although its parent never completed",
                        subject=subject,
                    )
                    continue
                for what, slot in progress.items():
                    if slot is not None:
                        report.check(
                            f"precedence.{what}",
                            slot >= barrier,
                            f"child {what} at slot {slot}, before the parent's "
                            f"completion boundary {barrier}",
                            subject=subject,
                        )

    def check_conservation(self, index: TraceIndex, report: VerificationReport) -> None:
        """Placements respect each job's parallelism; a completed job ran
        exactly its true units net of setbacks (at least them under
        ``allow_setbacks``, which knows no lost units) and an unfinished
        one fewer."""
        if not index.has_placements:
            return
        exact = not self.allow_setbacks
        for job_id, job in self.jobs.items():
            spec = job.execution_tasks
            placements = index.placements.get(job_id, ())
            report.check(
                "conservation.parallelism",
                all(units <= spec.count for _, units in placements),
                f"a slot placed more than the job's {spec.count} tasks",
                subject=job_id,
            )
            gross = sum(units for _, units in placements)
            net = gross - index.setback_units.get(job_id, 0)
            total = spec.total_task_slots
            if index.completion_of(job_id) is not None:
                report.check(
                    "conservation.total",
                    net == total if exact else net >= total,
                    f"completed with {net} net executed units, expected "
                    f"{'exactly' if exact else 'at least'} {total}",
                    subject=job_id,
                )
            elif exact:
                report.check(
                    "conservation.total",
                    net < total,
                    f"never completed yet {net} net units cover its {total}",
                    subject=job_id,
                )

    def check_capacity(
        self, index: TraceIndex, report: VerificationReport
    ) -> Optional[SlotUsage]:
        """No slot's placements x true unit demand exceed its capacity.

        Returns that per-slot usage; None without a cluster, a workload or
        placement evidence to compute it from.
        """
        if self.cluster is None or not self.jobs or not index.has_placements:
            return None
        per_slot: SlotUsage = {}
        for job_id, placements in index.placements.items():
            job = self.jobs.get(job_id)
            if report.check(
                "capacity.known",
                job is not None,
                "placements for a job absent from the workload",
                subject=job_id,
            ):
                for slot, units in placements:
                    row = per_slot.setdefault(slot, {})
                    for name, amount in job.execution_tasks.demand.items():
                        row[name] = row.get(name, 0.0) + amount * units
        for slot in sorted(per_slot):
            cap = self.cluster.at(slot)
            for name, amount in per_slot[slot].items():
                report.check(
                    "capacity.placed",
                    amount <= cap[name] + _EPS,
                    f"{name} placed {amount:g} exceeds capacity {cap[name]:g}",
                    slot=slot,
                    subject=name,
                )
        return per_slot

    def check_windows(self, report: VerificationReport) -> None:
        """Per-job windows nest inside their workflow's declared [start,
        deadline) and DAG order: a workflow registered late keeps the
        windows decomposed from its start (``workflow.arrival`` checks the
        arrival)."""
        if not self.windows:
            return
        for workflow in self.workflows.values():
            start = workflow.start_slot
            for job in workflow.jobs:
                window = self.windows.get(job.job_id)
                span = window and f"[{window.release_slot}, {window.deadline_slot})"
                report.check(
                    "window.bounds",
                    window is not None
                    and start <= window.release_slot
                    and window.deadline_slot <= workflow.deadline_slot,
                    f"window {span or 'missing'} not inside the workflow's "
                    f"[{start}, {workflow.deadline_slot})",
                    subject=job.job_id,
                )
            for parent_id, child_id in workflow.edges:
                parent = self.windows.get(parent_id)
                child = self.windows.get(child_id)
                if parent is not None and child is not None:
                    report.check(
                        "window.order",
                        parent.release_slot <= child.release_slot
                        and parent.deadline_slot <= child.deadline_slot,
                        f"parent window [{parent.release_slot}, "
                        f"{parent.deadline_slot}) not before child's "
                        f"[{child.release_slot}, {child.deadline_slot})",
                        subject=f"{parent_id} -> {child_id}",
                    )

    # -- metric recomputation ----------------------------------------------------------

    def recompute_metrics(self, index: TraceIndex) -> dict:
        """Re-derive the headline metrics from the evidence alone.

        Mirrors the documented convention of the metrics module without
        importing it: a window job of the run is late iff its end boundary
        strictly exceeds its (exclusive) deadline, an unfinished one ending
        at ``n_slots + 1`` at the earliest (a lower bound); a workflow
        misses unless it completed by its deadline; ad-hoc turnaround
        averages the jobs that arrived within the run, an unfinished one
        counted up to ``n_slots``.
        """
        n_slots, slot_seconds = index.n_slots, index.slot_seconds
        deltas: dict[str, float] = {}
        for job_id, window in self.windows.items():
            if job_id in self.jobs or job_id in index.workflow_of:  # of this run
                end = index.completion_of(job_id, n_slots + 1)
                deltas[job_id] = (end - window.deadline_slot) * slot_seconds
        missed = [job_id for job_id, delta in deltas.items() if delta > 0]

        if self.workflows:
            deadlines = {wid: wf.deadline_slot for wid, wf in self.workflows.items()}
        else:
            deadlines = dict.fromkeys(index.workflow_arrived)
            deadlines.update(index.workflow_deadline)
        workflows_missed = [
            wid
            for wid, deadline in deadlines.items()
            if wid not in index.workflow_completed
            or deadline is not None and index.workflow_completed[wid][0] > deadline
        ]

        turnarounds = [
            index.completion_of(job_id, n_slots) - arrival
            for job_id, arrival in index.arrived.items()
            if arrival < n_slots  # else the run ended before it arrived
        ]
        return {
            "n_deadline_jobs": float(len(self.windows)),
            "jobs_missed": float(len(missed)),
            "missed_job_ids": tuple(sorted(missed)),
            "workflows_missed": float(len(workflows_missed)),
            "missed_workflow_ids": tuple(sorted(workflows_missed)),
            "adhoc_turnaround_s": (
                sum(turnarounds) / len(turnarounds) * slot_seconds
                if turnarounds
                else None
            ),
            "max_delta_s": max(deltas.values(), default=0.0),
            "mean_delta_s": sum(deltas.values()) / len(deltas) if deltas else 0.0,
            "deltas_s": deltas,
        }

    def check_reported(
        self,
        result: "SimulationResult | TraceIndex",
        reported: Mapping[str, object],
        report: VerificationReport | None = None,
    ) -> VerificationReport:
        """Compare a reported summary (the shape of
        ``repro.simulator.metrics.summarize``) against the recomputation
        from the result (or the index already built from it), on the
        :data:`METRIC_KEYS` it holds."""
        if report is None:
            report = VerificationReport()
        if not isinstance(result, TraceIndex):
            result = TraceIndex.of_result(result)
        recomputed = self.recompute_metrics(result)
        for key in METRIC_KEYS:
            if key not in reported:
                continue
            want, have = recomputed[key], reported[key]
            if want is None:  # undefined: reported as None or NaN
                passed = have is None or (isinstance(have, float) and math.isnan(have))
            else:
                passed = isinstance(have, (int, float)) and abs(have - want) <= 1e-6
            report.check(
                "metrics.reported",
                passed,
                f"reported {key}={have!r} but the records imply {want!r}",
                subject=key,
            )
        return report


# -- the trace front -------------------------------------------------------------------


def validate_trace(
    events: Sequence[Mapping],
    *,
    trace: "SyntheticTrace | None" = None,
    capacity: "ClusterCapacity | None" = None,
    windows: Mapping[str, "JobWindow"] | None = None,
) -> VerificationReport:
    """Run the shared families plus the checks only a stream can fail.

    Args:
        events: parsed trace events (:func:`repro.obs.read_trace`).
        trace: the workload that produced the run (enables precedence,
            conservation, window consistency and — with *capacity* —
            capacity checks).
        capacity: the cluster the run claimed to respect.
        windows: decomposed per-job windows (window consistency; missing
            a deadline is an outcome for :func:`recompute_trace_metrics`,
            not a violation).
    """
    report = VerificationReport()
    index = TraceIndex.build(events)
    report.check(
        "trace.run_markers",
        index.run_starts <= 1 and index.run_ends <= 1,
        f"{index.run_starts} run_start / {index.run_ends} run_end events "
        "(expected at most one each)",
    )
    report.check(
        "trace.seq",
        all(b > a for a, b in zip(index.seqs, index.seqs[1:])),
        "event sequence numbers are not strictly increasing",
    )
    for kind, completions in (
        ("job", index.completed),
        ("workflow", index.workflow_completed),
    ):
        for subject, slots in completions.items():
            report.check(
                f"trace.{kind}_unique_completion",
                len(slots) == 1,
                f"{len(slots)} {kind}_completed events",
                subject=subject,
            )
    for job_id, placements in index.placements.items():
        slots = [slot for slot, _ in placements]
        report.check(
            "trace.placement_unique",
            len(set(slots)) == len(slots),
            "duplicate placement events in one slot",
            subject=job_id,
        )
    _check_preemptions(index, report)
    ScheduleValidator.of_trace(trace, capacity, windows).check_index(index, report)
    return report


def _check_preemptions(index: TraceIndex, report: VerificationReport) -> None:
    """``job_preempted`` at slot t: the job ran in t - 1, not in t, and was
    unfinished, so the events are exactly the gaps its placements open
    before its completion boundary and inside the run."""
    if index.n_slots is None:
        return  # no run_end: the last gap may lie past the recorded run
    for job_id in index.placements.keys() | index.preempted.keys():
        if index.workflow_of.get(job_id) in index.withdrawn:
            continue  # a withdrawn job leaves the engine mid-run
        ran = {slot for slot, _ in index.placements.get(job_id, ())}
        end = index.completion_of(job_id)
        gaps = sorted(
            slot + 1
            for slot in ran
            if slot + 1 not in ran and slot + 1 != end and slot + 1 < index.n_slots
        )
        recorded = sorted(index.preempted.get(job_id, ()))
        report.check(
            "trace.preemption",
            recorded == gaps,
            f"preempted at slots {recorded} but its placements leave gaps at {gaps}",
            subject=job_id,
        )


def recompute_trace_metrics(
    events: Sequence[Mapping],
    *,
    trace: "SyntheticTrace | None" = None,
    windows: Mapping[str, "JobWindow"] | None = None,
    slot_seconds: float | None = None,
) -> dict:
    """:meth:`ScheduleValidator.recompute_metrics` over an event stream.

    ``slot_seconds`` defaults to the value recorded in the ``run_start``
    event; the run's length comes from ``run_end``.
    """
    index = TraceIndex.build(events)
    if slot_seconds is not None:
        index.slot_seconds = slot_seconds
    if index.slot_seconds is None:
        raise ValueError(
            "slot_seconds not in the trace's run_start event; pass it explicitly"
        )
    if index.n_slots is None:
        raise ValueError("trace has no run_end event; cannot size the run")
    return ScheduleValidator.of_trace(trace, None, windows).recompute_metrics(index)
