"""Admission control for deadline workflows (a Rayon-flavoured extension).

Rayon [4] — one of the paper's baselines' ancestors — admits a job only if
its reservation fits alongside existing commitments.  The same question is
well-posed for FlowTime: *given the deadline work already committed, can a
newly submitted workflow's decomposed windows still be honoured?*  That is
the placement kernel's question (:mod:`repro.core.placement`) asked of the
committed demands plus the candidate's, with unrepaired windows; this module
is the decision, its events and its counters.

It is an extension beyond the paper (which assumes all workflows are
admitted) and is what an operator would bolt on to avoid accepting
workloads that are doomed to miss.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal, Mapping, Sequence

from repro.core.decomposition import decompose_deadline
from repro.core.decomposition_types import JobWindow
from repro.core.placement import (
    DemandTable,
    JobDemand,
    PlannerConfig,
    caps_array,
    demand_row,
    max_placement,
)
from repro.model.cluster import ClusterCapacity
from repro.model.workflow import Workflow
from repro.obs import current_obs

__all__ = ["AdmissionDecision", "check_admission"]


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of an admission check.

    Attributes:
        admit: True when every job (existing and new) can still meet its
            window.
        shortfall_units: per-job task-slots that cannot be placed before
            the job's deadline (empty when ``admit``).  One witness: which
            jobs of an over-full set come up short is not unique.
        utilisation: the max normalised load of the witness placement the
            check found (a capacity-headroom signal even for admitted
            workflows).
        windows: the candidate's decomposed per-job windows — the ones the
            verdict is about, so the ones to commit on ``admit``.
        route: which method answered, ``"flow"`` or ``"lp"``.
    """

    admit: bool
    shortfall_units: Mapping[str, int]
    utilisation: float
    windows: Mapping[str, JobWindow] = field(default_factory=dict)
    route: Literal["flow", "lp"] = "lp"

    @property
    def total_shortfall(self) -> int:
        return sum(self.shortfall_units.values())


def check_admission(
    new_workflow: Workflow,
    existing_demands: DemandTable | Sequence[JobDemand],
    capacity: ClusterCapacity,
    now_slot: int,
    *,
    config: PlannerConfig | None = None,
    cluster_aware: bool = True,
) -> AdmissionDecision:
    """Would admitting *new_workflow* keep every deadline feasible?

    Args:
        new_workflow: the candidate workflow (its deadline windows are
            decomposed here, once; the decision carries them back).
        existing_demands: remaining demands of already-admitted deadline
            jobs: the table ``ServiceState`` keeps (the check then costs the
            candidate's jobs plus one max-flow), or objects, converted here.
        capacity: the cluster.
        now_slot: current slot (windows before it are clamped).
        config: planner configuration (slack etc.) used to shape windows.
        cluster_aware: how to decompose the candidate (see
            :func:`~repro.core.decomposition.decompose_deadline`).

    The check is exact for the coupled formulation on either route: the
    joint windows either hold all the work (admit) or a shortfall is
    certified.
    """
    obs = current_obs()
    with obs.span("admission.check"):
        windows = decompose_deadline(
            new_workflow, capacity, cluster_aware=cluster_aware
        ).windows
        slack = (config or PlannerConfig()).slack_slots
        table = (
            DemandTable.of(existing_demands)
            .extended(
                demand_row(windows[job.job_id], job.tasks, job.tasks.total_task_slots)
                for job in new_workflow.jobs
            )
            .windowed(now_slot, slack, repair=False)
        )
        shortfalls, utilisation, route = max_placement(
            table,
            caps_array(capacity, now_slot, int(table.deadline.max())),
            capacity.resources,
            tag="admission",
        )
    decision = AdmissionDecision(
        admit=not shortfalls,
        shortfall_units=shortfalls,
        utilisation=utilisation,
        windows=windows,
        route=route,
    )
    obs.counter(f"admission.route.{decision.route}").inc()
    if decision.admit:
        obs.counter("admission.accepted").inc()
        obs.event(
            "admission_accept",
            workflow_id=new_workflow.workflow_id,
            slot=now_slot,
            utilisation=decision.utilisation,
            route=decision.route,
        )
    else:
        obs.counter("admission.rejected").inc()
        obs.event(
            "admission_reject",
            workflow_id=new_workflow.workflow_id,
            slot=now_slot,
            shortfall_units=decision.total_shortfall,
            utilisation=decision.utilisation,
            route=decision.route,
        )
    return decision
